import json

import pytest

from singlab import cli
from singlab.weightcalc import WeightSequence


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_k3(capsys):
    code, out = run_cli(capsys, "analyze", "3,3,3,3,3,3,4,4,4,4")
    assert code == 0
    r = json.loads(out)["results"]["rouquier"]
    assert (r["h"], r["q"]) == (5, 3)
    assert r["lower"] == r["upper"] == r["exact"] == 4
    assert r["conjecture_holds"] is True


def test_analyze_e8(capsys):
    code, out = run_cli(capsys, "analyze", "2,3,5")
    r = json.loads(out)["results"]
    assert code == 0
    assert r["mu"] == 1
    assert r["exceptional_count"] == 9
    assert r["ade_type"] == "E8"


def test_analyze_degenerate(capsys):
    code, out = run_cli(capsys, "analyze", "1")
    r = json.loads(out)["results"]
    assert code == 0
    assert r["degenerate"] is True


def test_analyze_complement_field(capsys):
    _, out = run_cli(capsys, "analyze", "3,3")
    assert '"complement_count": 3' in out


def test_json_byte_stable(capsys):
    _, out1 = run_cli(capsys, "analyze", "2,3,5")
    _, out2 = run_cli(capsys, "analyze", "2,3,5")
    assert out1 == out2
    assert "schema_version" in out1


def test_no_floats_in_reports(capsys):
    for args in (("analyze", "2,3,7"), ("group", "4,6"), ("sod", "3,3"),
                 ("decompose", "3,3,3,4"), ("quiver", "2,3,4")):
        _, out = run_cli(capsys, *args)

        def walk(obj):
            if isinstance(obj, float):
                raise AssertionError("float leaked into a report")
            if isinstance(obj, dict):
                for v in obj.values():
                    walk(v)
            if isinstance(obj, list):
                for v in obj:
                    walk(v)
        walk(json.loads(out))


def test_group_subcommand(capsys):
    code, out = run_cli(capsys, "group", "3,3")
    r = json.loads(out)["results"]
    assert code == 0
    assert r["invariant_factors"] == [3]
    assert r["generator_degrees"] == [1, 1]
    assert r["relations"] == [[3, -3]]


def test_decompose_subcommand(capsys):
    code, out = run_cli(capsys, "decompose", "3,3,3,3,3,3,4,4,4,4")
    r = json.loads(out)["results"]
    assert code == 0
    assert r["h_certificate"]["size"] == 5
    assert r["q_certificate"]["size"] == 3
    # parts sorted deterministically
    assert r["h_certificate"]["parts"] == sorted(r["h_certificate"]["parts"])


def test_sod_subcommand(capsys):
    code, out = run_cli(capsys, "sod", "3,3")
    r = json.loads(out)["results"]
    assert r["case"] == "negative"
    assert r["blocks"] == [{"count": 3, "degree": 0, "kind": "stabilized_residue"}]


def test_quiver_subcommand_named(capsys):
    code, out = run_cli(capsys, "quiver", "D4")
    r = json.loads(out)["results"]
    assert r["coxeter_polynomial"] == [1, 1, 0, 1, 1]


def test_quiver_subcommand_weights(capsys):
    code, out = run_cli(capsys, "quiver", "2,3,5")
    r = json.loads(out)["results"]
    assert r["ade_type"] == "E8"
    assert r["coxeter_matches_ade"] is True


def test_mf_subcommand(capsys):
    code, out = run_cli(capsys, "mf", "--max-d", "3")
    r = json.loads(out)["results"]
    assert code == 0 and r["ok"]
    assert [x["d"] for x in r["objects"]] == [2, 3]


def test_orbit_subcommand(capsys):
    for weights, window, order in (("3,3", "2", 3), ("2,4", "1", 2),
                                   ("2,3", "1", 1)):
        code, out = run_cli(capsys, "orbit", "--weights", weights,
                            "--window", window)
        r = json.loads(out)["results"]
        assert code == 0 and r["ok"] and r["gamma_order"] == order


def test_verify_quiver(capsys):
    code, out = run_cli(capsys, "verify", "quiver")
    r = json.loads(out)["results"]
    assert code == 0 and r["ok"] and r["failed"] == 0


def test_verify_counts_small(capsys):
    code, out = run_cli(capsys, "verify", "counts", "--max-n", "2",
                        "--max-entry", "4")
    assert code == 0
    assert json.loads(out)["results"]["ok"]


def test_verify_mf_small(capsys):
    code, out = run_cli(capsys, "verify", "mf", "--max-d", "3")
    assert code == 0


def test_usage_error_exit_code(capsys):
    assert cli.main(["analyze", "3,,x"]) == 2


def test_unknown_suite_exit_code(capsys):
    for argv in (["verify", "nonsense"], ["mf", "--window", "2"],
                 ["analyze", "2,3,5", "--window", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


def test_text_format(capsys):
    code, out = run_cli(capsys, "--format", "text", "sod", "3,3")
    assert code == 0
    assert "case: negative" in out
    assert "{" not in out.splitlines()[0]


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"window": 2}')
    code, out = run_cli(capsys, "--config", str(cfg), "orbit", "--weights", "3,3")
    r = json.loads(out)["results"]
    assert code == 0 and r["window"] == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"nonsense": 1}')
    assert cli.main(["--config", str(bad), "group", "3,3"]) == 2


def test_rationals_rendered_as_strings(capsys):
    _, out = run_cli(capsys, "analyze", "2,3,7")
    r = json.loads(out)["results"]
    assert r["mu_bar"] == "-1/42"
