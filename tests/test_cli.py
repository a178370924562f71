import argparse
import ast
import contextlib
import hashlib
import io
import itertools as it
import importlib
import json
import math
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from singlab import abgroup, cli, mfengine, weightcalc
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


def test_bad_ade_name_exits_2(capsys):
    # a family letter with no index names the spec, not Python's int parser
    for spec in ("E", "Ex"):
        assert cli.main(["quiver", spec]) == 2, spec
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: bad ADE name {spec!r}\n"


def test_quiver_refuses_too_many_vertices_before_building(capsys, monkeypatch):
    from singlab import quiverlab

    def no_build(*args):
        raise AssertionError("a quiver was built")

    monkeypatch.setattr(quiverlab, "ade_quiver", no_build)
    # the A_{N-1} arrow list of the first spec alone would hold 10^20 entries
    for spec, what, count in (
            ("99999999999999999999", "the tensor quiver of 99999999999999999999",
             99999999999999999998),
            ("3,3,3,3,3,3,3,3", "the tensor quiver of 3,3,3,3,3,3,3,3", 256),
            ("A201", "the quiver A201", 201),
            ("a99999999999", "the quiver A99999999999", 99999999999)):
        assert cli.main(["quiver", spec]) == 2, spec
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"usage error: {what} has {count} vertices; "
                                f"quiver builds at most {cli.MAX_QUIVER_VERTICES}\n")
    # a unit weight needs no quiver, whatever the other weights
    code, out = run_cli(capsys, "quiver", "1,99999999999999999999")
    assert code == 0 and json.loads(out)["results"]["degenerate"] is True


def test_quiver_vertex_cap_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_QUIVER_VERTICES", 8)
    for spec, code in (("3,5", 0), ("2,3,5", 0), ("E8", 0), ("3,6", 2), ("A9", 2)):
        assert cli.main(["quiver", spec]) == code, spec
        capsys.readouterr()


def _limit_memory():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


# each input once exhausted memory or printed |mu| SOD blocks; the child runs
# in 512 MB of address space for at most 10 s, so a refusal that comes after
# the allocation fails fast
@pytest.mark.parametrize("argv, message", [
    ("analyze 100000000000000000000,3",
     "weights 3,100000000000000000000 give |mu| = 199999999999999999997 SOD "
     "blocks; at most 10000 are reported"),
    ("sod 1000000,3",
     "weights 3,1000000 give |mu| = 1999997 SOD blocks; at most 10000 are reported"),
    ("orbit --weights 3,1000000000 --window 0",
     "the orbit battery of 3,1000000000 has 1999999998 objects; orbit builds "
     "at most 200"),
], ids=["analyze", "sod", "orbit"])
def test_oversized_inputs_exit_2_before_building(argv, message):
    run = _fresh("-m", "singlab.cli", *argv.split(), timeout=10,
                 preexec_fn=_limit_memory)
    assert run.returncode == 2, run.stderr
    assert run.stdout == ""
    assert "Traceback" not in run.stderr
    assert run.stderr == f"usage error: {message}\n"


def test_size_caps_are_inclusive(capsys, monkeypatch):
    # |mu| of 3,3,3,3,3,3,4,4,4,4 is 24; the 3,3 battery has 4 objects
    for cap, code in ((24, 0), (23, 2)):
        monkeypatch.setattr(cli, "MAX_SOD_BLOCKS", cap)
        for command in ("analyze", "sod"):
            assert cli.main([command, "3,3,3,3,3,3,4,4,4,4"]) == code
            capsys.readouterr()
    for cap, code in ((4, 0), (3, 2)):
        monkeypatch.setattr(cli, "MAX_QUIVER_VERTICES", cap)
        assert cli.main(["orbit", "--weights", "3,3", "--window", "0"]) == code
        capsys.readouterr()


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


def _verify_checks(capsys, *argv):
    code, out = run_cli(capsys, "verify", *argv)
    results = json.loads(out)["results"]
    assert results["ok"] is False
    assert results["failed"] == sum(not c["pass"] for c in results["checks"])
    return code, {c["name"]: c for c in results["checks"]}


def test_verify_groups_reports_first_counterexample(monkeypatch, capsys):
    real = abgroup.boxminus

    def flipped(A, B):
        # the same group with the degree map negated: every image degree fails
        box = real(A, B)
        return abgroup.PointedAbelianGroup(box.group, -box.marked)

    monkeypatch.setattr(abgroup, "boxminus", flipped)
    code, checks = _verify_checks(capsys, "groups", "--max-n", "0",
                                  "--max-entry", "2")
    assert code == 1
    assert checks["snf-random-battery"]["pass"]
    assert checks["torsion-order-formula"]["pass"]
    bad = checks["boxminus-degree-formula"]
    assert bad["pass"] is False
    # both images of the first pair fail; the first one tried is (1, 0)
    cx = bad["counterexample"]
    assert cx["coords"] == [1, 0]
    assert cx["got"] == -cx["want"] == -(cx["q"] // math.gcd(cx["p"], cx["q"]))


def test_verify_counts_reports_first_counterexample(monkeypatch, capsys):
    real = weightcalc.exceptional_count
    monkeypatch.setattr(weightcalc, "exceptional_count",
                        lambda d: real(d) + (3 in d.entries))
    code, checks = _verify_checks(capsys, "counts", "--max-n", "1",
                                  "--max-entry", "4")
    assert code == 1
    cx = checks["exceptional-count-formula"]["counterexample"]
    assert cx["weights"] == [3] and cx["count"] == cx["formula"] + 1
    first = next(list(c) for c in it.combinations_with_replacement(range(1, 5), 3)
                 if 3 in c and weightcalc.mu_values(WeightSequence(c))[1] > 0)
    cx = checks["dynkin-canonical-vertex-count"]["counterexample"]
    assert cx["weights"] == first and cx["count"] == cx["vertices"] + 1
    assert checks["sod-block-counts"]["pass"]


def test_verify_mf_reports_each_failing_d(monkeypatch, capsys):
    real = mfengine.endo_algebra_check

    def broken(d):
        # the check's one failure path is to raise
        if d in (3, 4):
            raise AssertionError(f"no Cartan matrix at d = {d}")
        return real(d)

    monkeypatch.setattr(mfengine, "endo_algebra_check", broken)
    code, checks = _verify_checks(capsys, "mf", "--max-d", "5")
    assert code == 1
    assert checks["endo-cartan-d2"] == {"name": "endo-cartan-d2", "pass": True}
    for d in (3, 4):
        assert checks[f"endo-cartan-d{d}"] == {
            "name": f"endo-cartan-d{d}", "pass": False,
            "counterexample": f"no Cartan matrix at d = {d}"}
    assert checks["endo-cartan-d5"]["pass"]


def test_verify_orbit_reports_failing_pairs(monkeypatch, capsys):
    real = mfengine.orbit_hom_check

    def broken(objects, psi, window):
        pairs = real(objects, psi, window)
        pairs[1] = (pairs[1][0], [((0, 0), 1, 2)])
        return pairs

    monkeypatch.setattr(mfengine, "orbit_hom_check", broken)
    code, checks = _verify_checks(capsys, "orbit", "--window", "0")
    assert code == 1
    bad = checks["orbit-identity-x3-y3"]
    assert bad["pass"] is False
    assert [i for i, p in enumerate(bad["counterexample"]) if not p["ok"]] == [1]
    assert bad["counterexample"][1] == {
        "pair": [0, 1], "ok": False,
        "mismatches": [{"strand": [0, 0], "restricted": 1, "orbit_sum": 2}]}


def _keys(obj):
    """Every key of every JSON object in `obj`."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield key
            yield from _keys(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _keys(value)


# A small run of every command and every suite: `analyze` with a unit
# weight for its note, `quiver` by name and by weights with and without an
# ADE type or a unit weight.
_SCHEMA_RUNS = [
    "analyze 2,3,7", "analyze 1", "group 3,3", "decompose 3,3,3,4",
    "sod 2,3,7", "quiver E6", "quiver 3,4", "quiver 3,3,3", "quiver 1,3",
    "mf --max-d 3", "orbit --weights 3,3 --window 1",
    "verify groups --max-n 1 --max-entry 3",
    "verify counts --max-n 1 --max-entry 3", "verify quiver",
    "verify mf --max-d 3", "verify orbit --window 0",
]


def test_every_json_field_is_named_in_cli(monkeypatch, capsys):
    # the engines return plain data and cli names every field, so a schema
    # change touches one module
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    literals = {node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)}

    def keys(argv):
        code, out = run_cli(capsys, *argv.split())
        assert code == 0, argv
        return set(_keys(json.loads(out)["results"]))

    seen = set().union(*map(keys, _SCHEMA_RUNS))
    # and an orbit battery with a mismatch, its orbit sums perturbed
    real = mfengine._series_product

    def perturbed(factors, offset=0):
        series = real(factors, offset)
        series[offset] = series.get(offset, 0) + 1
        return series

    monkeypatch.setattr(mfengine, "_series_product", perturbed)
    seen |= keys("orbit --weights 3,3 --window 1")
    assert {"strand", "restricted", "orbit_sum", "nodes", "pruned"} <= seen
    assert sorted(seen - literals) == []


def test_verify_refuses_flags_a_suite_ignores(capsys):
    values = {"max_n": "1", "max_entry": "2", "max_d": "3", "window": "1"}
    assert {name: flags for name, (_, flags) in cli.SUITES.items()} == {
        "groups": ("max_n", "max_entry"), "counts": ("max_n", "max_entry"),
        "quiver": (), "mf": ("max_d",), "orbit": ("window",)}
    refused = 0
    for suite, (_, flags) in cli.SUITES.items():
        for key in sorted(set(values) - set(flags)):
            argv = ["verify", suite, "--" + key.replace("_", "-"), values[key]]
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "" and "Traceback" not in captured.err, argv
            refused += 1
    assert refused == 14


def test_readme_settings_table_matches_cli():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| `(\w+)` \| (\d+) \| (\d+) \|$", readme.read_text(),
                      re.M)
    assert {key: (int(default), int(low)) for key, default, low in rows} == \
        cli._SETTINGS


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


def test_bad_config_exits_2(tmp_path, capsys):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    cases = [
        [str(tmp_path / "missing.json"), "group", "3,3"],
        [write("list.json", "[1]"), "group", "3,3"],
        [write("broken.json", "{"), "group", "3,3"],
        [write("string.json", '{"window": "2"}'), "orbit"],
        [write("bool.json", '{"window": true}'), "orbit"],
        [write("budget.json", '{"node_limit": 0}'), "decompose", "3,4,5"],
        [write("samples.json", '{"snf_samples": 0}'), "verify", "groups"],
    ]
    for argv in cases:
        assert cli.main(["--config", *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage error"), argv


def test_out_of_range_flags_exit_2(capsys):
    for argv in (["orbit", "--window", "-1"],
                 ["verify", "orbit", "--window", "-1"],
                 ["mf", "--max-d", "1"],
                 ["verify", "mf", "--max-d", "1"],
                 ["verify", "groups", "--max-n", "-1"],
                 ["verify", "counts", "--max-entry", "0"]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "must be an integer >=" in captured.err


def test_search_budget_exceeded_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"node_limit": 1}')
    assert cli.main(["--config", str(cfg), "decompose", "3,4,5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "search budget exceeded" in captured.err


def test_deep_search_refused_before_searching(capsys):
    # n twos need n / 2 nonpositive parts, one search frame each, so past
    # twice the recursion limit the lower bound alone proves the search
    # would overflow; 2 100 twos searched for about 20 s before refusing
    twos = ",".join(["2"] * (2 * sys.getrecursionlimit() + 100))
    start = time.perf_counter()
    assert cli.main(["decompose", twos]) == 2
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("search budget exceeded: ")
    assert "recursion limit" in captured.err
    assert elapsed < 5, elapsed


def _fresh(*args, timeout=120, preexec_fn=None):
    """Run a fresh interpreter with this checkout's singlab importable."""
    env = dict(os.environ)
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout, preexec_fn=preexec_fn)


def test_search_budget_exceeded_exits_2_in_fresh_process(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"node_limit": 1}')
    run = _fresh("-m", "singlab.cli", "--config", str(cfg), "decompose", "3,4,5")
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.startswith("search budget exceeded: ")


_ENGINES = {"abgroup", "weightcalc", "decompose", "quiverlab", "mfengine",
            "linalg"}
_LOADED = """
import contextlib, io, json, sys
from singlab import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(name[len("singlab."):] for name in sys.modules
                               if name.startswith("singlab."))]))
"""


def test_import_cli_loads_no_engine():
    run = _fresh("-c", "import json, sys, singlab.cli; print(json.dumps("
                 "sorted(m for m in sys.modules if m.startswith('singlab'))))")
    assert json.loads(run.stdout) == ["singlab", "singlab.cli"]


@pytest.mark.parametrize("argv, engines", [
    ("decompose 2,3,5", {"weightcalc", "abgroup", "decompose"}),
    ("analyze 2,3,7", {"weightcalc", "abgroup", "decompose"}),
    ("group 2,3,7", {"weightcalc", "abgroup"}),
    ("sod 2,3,7", {"weightcalc", "abgroup"}),
    ("verify groups --max-n 1", {"weightcalc", "abgroup"}),
    ("verify counts --max-n 1", {"weightcalc", "abgroup"}),
    ("quiver E8", _ENGINES - {"mfengine"}),
    ("quiver 3,3,3", _ENGINES - {"mfengine"}),
    ("verify quiver", _ENGINES - {"mfengine"}),
    ("orbit --weights 2,2 --window 0", _ENGINES - {"quiverlab", "decompose"}),
    ("verify orbit --window 0", _ENGINES - {"quiverlab", "decompose"}),
    ("mf --max-d 2", _ENGINES),
    ("verify mf --max-d 2", _ENGINES),
])
def test_command_loads_only_its_engines(argv, engines):
    run = _fresh("-c", _LOADED, *argv.split())
    code, loaded = json.loads(run.stdout)
    assert code == 0, run.stderr
    assert set(loaded) == engines | {"cli"}


def test_no_module_level_caches():
    import singlab
    for info in pkgutil.iter_modules(singlab.__path__):
        mod = importlib.import_module(f"singlab.{info.name}")
        for name, obj in vars(mod).items():
            assert not hasattr(obj, "cache_clear"), f"{mod.__name__}.{name}"


def test_library_value_error_exits_2(monkeypatch, capsys):
    def refuse(*args):
        raise ValueError("kernel is unreasonably large")

    monkeypatch.setattr(cli, "orbit_report", refuse)
    assert cli.main(["orbit", "--weights", "3,3", "--window", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: kernel is unreasonably large\n"
    assert "Traceback" not in captured.err


def test_parser_reuse_keeps_no_state(capsys):
    code, first = run_cli(capsys, "group", "2,3")
    assert code == 0
    code, text = run_cli(capsys, "--format", "text", "group", "2,3")
    assert code == 0 and not text.startswith("{")
    with pytest.raises(SystemExit) as exc:
        cli.main(["group", "2,3", "--window", "x"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, again = run_cli(capsys, "group", "2,3")
    assert code == 0 and again == first
    json.loads(again)


def test_main_builds_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert cli.main(["group", "2,3"]) == 0
    assert cli.main(["mf", "--max-d", "2"]) == 0
    assert built == []


def test_rationals_rendered_as_strings(capsys):
    _, out = run_cli(capsys, "analyze", "2,3,7")
    r = json.loads(out)["results"]
    assert r["mu_bar"] == "-1/42"


# SHA-256 of the stdout of commands whose reports no benchmark digest
# pins: the weight-group, SOD and small quiver reports, and the text format.
_GOLDEN_DIGESTS = [
    ("group 3,3",
     "0b2c583b3d3a4ecdf463d842e8e4e5bc2f1c64d1c2e94477c6267fdb3f9a580c"),
    ("group 2,3,5",
     "1d59be307d1f2e763ca9c9191a420d95eb8a9658251421b5d8d9ca14c92508cb"),
    ("group 4,4,4,4",
     "821baddfa8b94f1f9e09eb616e30a56985311955ed146884e4177f716a653c51"),
    ("group 6,10,15",
     "5181f374e72284b9705c87b9e58a25243654f7c6e514a8d24f4cdd7a8ea7e09e"),
    ("group 1",
     "1c16407afecae281bee42c12d127bee35dda226e7f89acc1bfcacf835b2708d7"),
    ("group 2,4,8,16",
     "dd7573287875f6215dc107c165505f5c76a043d23930040f3acf8083840e7150"),
    ("sod 3,3",
     "091e914c7339d7429bb26a25bf20c5a04a6803e58d2497b5ec0ef75e7bd99c25"),
    ("sod 2,3,7",
     "8be676a154ff4f440ee02105ee3865eaeb69a51169b217adc6d24b0f8edfedeb"),
    ("sod 4,4,4,4",
     "251c109d851f0c5ec5b6ac6455802984b06c2c5ae8e879ba4b97e985b294cba0"),
    ("sod 2,2",
     "e5115896bf4ad9c4f770bd17a833380f213929a4719b77d928d5bda3216a774c"),
    ("quiver A0",
     "ee341a1312d0819243614d896521bbc88041955cc666e3bcb51c0de71feab70f"),
    ("quiver A1",
     "9957d74d3d517282eaeca7e78ef88ac0843f54171ba7b5f5e5e5546f6a79a38c"),
    ("quiver 3,3",
     "e7d09f22786731a03e11fb9ea4dd3f78002a5895dfd86acecf8449928d4051d7"),
    ("quiver 3,4",
     "0332deb65e7e762f26422b6079f186af848f89abdffe49541920832a9083a045"),
    ("quiver 3,5",
     "6f47f73d3972631832f262ce2d2e6efe695c4bac8b2a0f7f841e583de8e1f2b2"),
    ("--format text analyze 2,3,7",
     "01cc4d931f5324af85bde3360e36dfac3adefd00f53596ac63cb91dc501bb0b6"),
    ("--format text group 3,3",
     "dc4bdb4c9e493be83778e81e6ed6774876a70cc9a1068f439b4ba2dd477fabea"),
    ("--format text quiver D4",
     "9922c1d943adde9b06dddd3c08a0126f4adef292569d9e5daad543dd239e1ff8"),
    ("--format text decompose 3,3,3,4",
     "417121bd50bc299c7be766fe828893632a0735983e8db57006c87921aba86108"),
    # Strand-layer reports: unequal weights and a torsion-free quotient,
    # which the strand reference jobs (weights 2,2 and 3,3) do not reach.
    ("orbit --weights 4,6 --window 1",
     "2d4dbd247860c916c303fba9dae9d320be949661c6d6c952a408394070da3b6c"),
    ("orbit --weights 2,5 --window 2",
     "156177156ded68047db5f4cb254e6615a0238efc805778965149519157003799"),
    ("orbit --weights 5,5 --window 1",
     "ac0d9ddc3db7b5208c8fd820ddd4601433b4914da3ef5de3e9723786565d68a4"),
    ("mf --max-d 12",
     "c9c0468f348b6c6e6356d4284b490cf2fc71337a9de21e9f1da3f67cb2311bd8"),
    ("verify mf --max-d 8",
     "a8f0b988eb53f3cd068ad0c5d5eaedc8d11aa4c032be493fc84b2c9769c62bd4"),
]


@pytest.mark.parametrize("command, digest", _GOLDEN_DIGESTS,
                         ids=[c for c, _ in _GOLDEN_DIGESTS])
def test_report_bytes_match_golden_digests(capsys, command, digest):
    code, out = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Bounded argv grammar: every example runs in well under a second, and the
# flags that default to expensive settings are always given.
_TOKENS = [str(x) for x in range(-1, 7)] + ["x", ""]


def _weights(tokens, max_size):
    return st.lists(st.sampled_from(tokens), max_size=max_size).map(",".join)


_BOUNDS = {"max_d": 5, "max_n": 2, "max_entry": 4, "window": 2}


def _flags(names):
    """Every named flag, each with a value in -1..its bound."""
    pairs = [st.integers(-1, _BOUNDS[name]).map(
        lambda v, flag="--" + name.replace("_", "-"): [flag, str(v)])
        for name in names]
    return st.tuples(*pairs).map(lambda ps: [x for p in ps for x in p])


def _verify_argv(suite):
    """verify SUITE with its own flags; about one in four examples adds a
    flag the suite does not take."""
    own = cli.SUITES[suite][1] if suite in cli.SUITES else ()
    foreign = sorted(set(_BOUNDS) - set(own))
    extra = st.tuples(st.integers(0, 3), st.sampled_from(foreign)).flatmap(
        lambda t: _flags([t[1]]) if t[0] == 0 else st.just([]))
    return st.tuples(_flags(own), extra).map(
        lambda t: ["verify", suite] + t[0] + t[1])


def _foreign_flag(argv):
    """Whether argv passes a verify suite a flag that suite does not take."""
    if argv[0] != "verify" or argv[1] not in cli.SUITES:
        return False
    own = {"--" + key.replace("_", "-") for key in cli.SUITES[argv[1]][1]}
    return any(a.startswith("--") and a not in own for a in argv[2:])


_ADE_LABELS = ([f"A{i}" for i in range(7)] + [f"D{i}" for i in range(3, 6)]
               + [f"E{i}" for i in range(5, 10)])
_SMALL = [t for t in _TOKENS if not t.isdigit() or int(t) <= 4]
_TINY = [t for t in _TOKENS if not t.isdigit() or int(t) <= 3]
_ARGV = st.one_of(
    st.tuples(st.sampled_from(["analyze", "group", "decompose", "sod"]),
              _weights(_TOKENS, 4)).map(list),
    st.tuples(st.just("quiver"),
              st.sampled_from(_ADE_LABELS) | _weights(_SMALL, 3)).map(list),
    _flags(["max_d"]).map(lambda fs: ["mf"] + fs),
    st.tuples(_weights(_TINY, 4), _flags(["window"])).map(
        lambda t: ["orbit", "--weights", t[0]] + t[1]),
    st.sampled_from(sorted(cli.SUITES) + ["bogus"]).flatmap(_verify_argv),
)


@settings(max_examples=100, deadline=None)
@given(argv=_ARGV)
def test_main_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if _foreign_flag(argv):
        assert code == 2 and out.getvalue() == "", argv
    if code == 0:
        json.loads(out.getvalue())


def test_verify_counts_checks_every_length_max_n_names(monkeypatch, capsys):
    # the count formula is broken only on five-entry sequences, n = 4
    real = weightcalc.exceptional_count
    monkeypatch.setattr(weightcalc, "exceptional_count",
                        lambda d: real(d) + (len(d) == 5))
    built = []
    spec = weightcalc.spec_from_weights
    monkeypatch.setattr(weightcalc, "spec_from_weights",
                        lambda d: built.append(d) or spec(d))
    code, checks = _verify_checks(capsys, "counts", "--max-entry", "2")
    assert code == 1
    # one graded ring per sequence: 2 + 3 + 4 + 5 + 6 multisets over {1, 2}
    assert len(built) == len(set(built)) == 20
    cx = checks["exceptional-count-formula"]["counterexample"]
    assert cx["weights"] == [1, 1, 1, 1, 1] and cx["count"] == cx["formula"] + 1
    assert checks["dynkin-canonical-vertex-count"]["pass"]
    assert checks["sod-block-counts"]["pass"]


def test_orbit_gamma_is_the_torsion_of_the_grading(monkeypatch):
    # the Smith-form generators span the same kernel as the cyclic
    # <(a/g, -b/g)>, which has order g = |tors Z^2/(a, -b)|
    seen = []
    monkeypatch.setattr(mfengine, "orbit_hom_check",
                        lambda objs, psi, window: seen.append(psi) or [])
    for a, b in it.combinations_with_replacement(range(2, 13), 2):
        cli.orbit_report(WeightSequence([a, b]), 0)
        psi = seen.pop()
        g = math.gcd(a, b)
        cyclic = mfengine.OrbitSpec(
            psi.source, [psi.source.group.element([a // g, -(b // g)])])
        assert {e.canonical for e in psi.kernel} == \
            {e.canonical for e in cyclic.kernel}, (a, b)
        assert psi.order() == g


def _readme_commands():
    """The argv of each concrete `singlab ...` line of README's CLI block
    (one without an optional `[...]` flag), its comment dropped."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("Subcommands:\n\n```\n", 1)[1]
    commands = [line.partition("#")[0] for line in block.split("```", 1)[0].splitlines()]
    return [c.split()[1:] for c in commands
            if c.startswith("singlab ") and "[" not in c]


def test_readme_cli_block_runs_and_states_facts(capsys):
    # the facts are those the block's comments state
    results = {}
    for argv in _readme_commands():
        code, out = run_cli(capsys, *argv)
        assert code == 0, argv
        results[" ".join(argv)] = json.loads(out)["results"]
    assert len(results) >= 10
    r = results["analyze 2,3,5"]
    assert (r["mu"], r["exceptional_count"], r["ade_type"]) == (1, 9, "E8")
    r = results["group 3,3"]
    assert (r["free_rank"], r["invariant_factors"]) == (1, [3])
    assert [b["count"] for b in results["sod 3,3"]["blocks"]] == [3]
    r = results["quiver 2,3,5"]
    assert r["ade_type"] == "E8" and r["coxeter_matches_ade"] is True
    r = results["analyze 3,3,3,3,3,3,4,4,4,4"]["rouquier"]
    assert (r["h"], r["q"], r["exact"]) == (5, 3, 4)
    r = results["orbit --weights 2,4 --window 1"]
    assert r["ok"] and r["gamma_order"] == math.gcd(2, 4)


def test_package_imports_only_itself_and_the_standard_library():
    # README promises no runtime dependencies; pyproject has dependencies = []
    src = pathlib.Path(cli.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "singlab" or top in sys.stdlib_module_names, \
                    (path.name, name)
