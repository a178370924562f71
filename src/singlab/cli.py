"""Command-line front end with deterministic JSON reports.

Subcommands tie the library into reproducible analyses:

    analyze    full numerology of a weight sequence (mu, counts, h/q,
               Rouquier verdict, decomposition summary)
    group      the weight group: presentation, invariant factors, degrees
    decompose  minimal ADE / nonpositive partitions with certificates
    sod        decomposition summary for the sign of mu
    quiver     ADE quiver data: Cartan matrix, Coxeter polynomial, Loewy
               length; for weight input, the tensor-algebra shadow
    mf         endomorphism check of the one-variable standard objects
    orbit      restriction/orbit-sum identity for a two-weight potential
    verify     built-in verification batteries (groups, counts, quiver,
               mf, orbit)

Reports are emitted as JSON (sorted keys, exact integers, rationals as
"p/q" strings, never floats) or as human-readable text; identical
invocations produce byte-identical JSON.  Exit codes: 0 success, 1
verification failure, 2 usage error, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import __version__, abgroup, decompose, mfengine, quiverlab, weightcalc
from .weightcalc import WeightSequence

SCHEMA_VERSION = 1

DEFAULTS = {
    "window": 6,
    "node_limit": 2_000_000,
    "max_n": 4,
    "max_entry": 6,
    "max_d": 8,
    "snf_samples": 150,
}


class InternalCheckFailure(AssertionError):
    """An invariant the library promises was observed to fail."""


def _rat(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_weights(text: str) -> WeightSequence:
    try:
        entries = [int(tok) for tok in text.replace(" ", "").split(",") if tok]
        return WeightSequence(entries)
    except ValueError as exc:
        raise UsageError(f"bad weight list {text!r}: {exc}") from None


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# report builders


def analyze_report(d: WeightSequence, node_limit: int) -> dict:
    mu_bar, mu, sign = weightcalc.mu_values(d)
    B = abgroup.weight_group(d.entries)
    spec = weightcalc.spec_from_weights(d)
    g = weightcalc.gorenstein_parameter(spec)
    if g.mu != mu:
        raise InternalCheckFailure("Gorenstein degree disagrees with mu")
    verdict = decompose.rouquier_verdict(d, node_limit)
    ade = decompose.classify_ade(d)
    results = {
        "weights": list(d.entries),
        "mu_bar": _rat(mu_bar),
        "mu": mu,
        "sign": sign,
        "degenerate": d.has_unit_weight(),
        "torsion": B.group.torsion_order(),
        "weight_group": B.report(),
        "exceptional_count": weightcalc.exceptional_count(d),
        "complement_count": weightcalc.complement_count(d),
        "ade_type": str(ade) if ade else None,
        "sod": weightcalc.sod_summary(spec).to_json(),
        "rouquier": verdict.to_json(),
    }
    if results["degenerate"]:
        results["note"] = ("a unit weight collapses the factorization "
                           "category to zero")
    return results


def group_report(d: WeightSequence) -> dict:
    B = abgroup.weight_group(d.entries)
    rep = B.report()
    rep["torsion_order"] = B.group.torsion_order()
    rep["marked_degree"] = B.degree(B.marked)
    return rep


def decompose_report(d: WeightSequence, node_limit: int) -> dict:
    verdict = decompose.rouquier_verdict(d, node_limit)
    q_cert, h_cert = verdict.witnesses
    return {
        "weights": list(d.entries),
        "ade_type": str(decompose.classify_ade(d) or "") or None,
        "nonpositive": decompose.is_nonpositive(d),
        "h_certificate": h_cert.to_json(),
        "q_certificate": q_cert.to_json(),
        "rouquier": verdict.to_json(),
    }


def sod_report(d: WeightSequence) -> dict:
    spec = weightcalc.spec_from_weights(d)
    out = weightcalc.sod_summary(spec).to_json()
    out["weights"] = list(d.entries)
    return out


def quiver_report(spec: str) -> dict:
    spec = spec.strip()
    if spec and spec[0] in "ADEade":
        try:
            t = decompose.ADEType(spec[0].upper(), int(spec[1:]))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        return quiverlab.algebra_model(t).report()
    d = parse_weights(spec)
    factors = [quiverlab.cartan_matrix(
        quiverlab.ade_quiver(decompose.ADEType("A", x - 1))) for x in d.entries
        if x >= 2]
    out = {"weights": list(d.entries), "degenerate": d.has_unit_weight()}
    if d.has_unit_weight() or not factors:
        out["note"] = "a unit weight collapses the factorization category"
        return out
    C = factors[0]
    for f in factors[1:]:
        C = quiverlab.tensor_cartan(C, f)
    out["tensor_cartan"] = C.to_rows()
    out["coxeter_polynomial"] = quiverlab.coxeter_polynomial(C)
    out["loewy_length"] = quiverlab.loewy_length_tensor(
        [x - 1 for x in d.entries if x >= 2])
    ade = decompose.classify_ade(d)
    if ade is not None:
        model = quiverlab.algebra_model(ade)
        same = quiverlab.coxeter_polynomial(model.cartan) == out["coxeter_polynomial"]
        if not same:
            raise InternalCheckFailure(
                f"Coxeter polynomial of {d.entries} does not match {ade}")
        out["ade_type"] = str(ade)
        out["coxeter_matches_ade"] = True
    return out


def mf_report(max_d: int) -> dict:
    if max_d < 2:
        raise UsageError("mf check needs a potential degree of at least 2")
    per_d = []
    for d in range(2, max_d + 1):
        rep = mfengine.endo_algebra_check(d)
        per_d.append({
            "d": d,
            "h0_dimensions": rep["h0"],
            "cartan": rep["cartan"],
            "permutation": rep["permutation"],
            "certified": rep["certified"],
            "strong_exceptional": rep["matches"],
            "k_object_exceptional": rep["k_object_exceptional"],
        })
    return {"max_d": max_d, "objects": per_d,
            "ok": all(x["strong_exceptional"] for x in per_d)}


def orbit_report(weights: WeightSequence, window: int) -> dict:
    if len(weights) != 2:
        raise UsageError("orbit check wants exactly two weights")
    a, b = weights.entries
    if a < 2 or b < 2:
        raise UsageError("orbit check needs weights >= 2")
    rx = mfengine.one_variable_ring(a, "x")
    ry = mfengine.one_variable_ring(b, "y")
    objs = [mfengine.tensor_product(u, v)
            for u in mfengine.standard_objects(rx)
            for v in mfengine.standard_objects(ry)]
    A = objs[0].ring.grading
    # the grading group is Z^2 / (a, -b); g * gamma is that relation, so
    # gamma generates its torsion part Z/g (e_x - e_y is torsion only if a = b)
    g = math.gcd(a, b)
    gamma = A.group.element([a // g, -(b // g)])
    psi = mfengine.OrbitSpec(A, [gamma])
    pair_results = []
    all_ok = True
    for i, E in enumerate(objs):
        for j, F in enumerate(objs):
            rep = mfengine.orbit_hom_check(E, F, psi, window)
            all_ok = all_ok and rep["ok"]
            pair_results.append({
                "pair": [i, j],
                "ok": rep["ok"],
                "mismatches": rep["mismatches"],
            })
    return {
        "weights": [a, b],
        "gamma_order": psi.order(),
        "window": window,
        "pairs": pair_results,
        "ok": all_ok,
    }


# ---------------------------------------------------------------------------
# verification suites


def _suite_groups(cfg) -> list:
    import random
    checks = []
    rng = random.Random(20240229)
    bad = None
    for _ in range(cfg["snf_samples"]):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        M = abgroup.IntMatrix(r, c, [rng.randint(-20, 20) for _ in range(r * c)])
        s = abgroup.smith_normal_form(M)
        ok = (s.U.mul(M).mul(s.V) == s.S and abs(s.U.det()) == 1
              and abs(s.V.det()) == 1)
        diag = s.diagonal()
        ok = ok and all(diag[i + 1] % diag[i] == 0 for i in range(s.rank - 1))
        if not ok:
            bad = M.to_rows()
            break
    checks.append({"name": "snf-random-battery", "pass": bad is None,
                   "counterexample": bad})

    bad = None
    import itertools as it
    for k in range(1, cfg["max_n"] + 2):
        for combo in it.combinations_with_replacement(
                range(1, cfg["max_entry"] + 1), k):
            d = WeightSequence(combo)
            B = abgroup.weight_group(d.entries)
            want = d.product() // d.lcm()
            if B.group.torsion_order() != want:
                bad = {"weights": list(combo),
                       "snf": B.group.torsion_order(), "formula": want}
                break
        if bad:
            break
    checks.append({"name": "torsion-order-formula", "pass": bad is None,
                   "counterexample": bad})

    bad = None
    for _ in range(60):
        pa = abgroup.pointed_Z(rng.randint(1, 9))
        pb = abgroup.pointed_Z(rng.randint(1, 9))
        box = abgroup.boxminus(pa, pb)
        import math
        p = pa.degree(pa.marked)
        q = pb.degree(pb.marked)
        g = math.gcd(p, q)
        for coords, expect in (((1, 0), q // g), ((0, 1), p // g)):
            e = box.group.element(list(coords))
            if box.degree(e) != expect:
                bad = {"p": p, "q": q, "coords": list(coords),
                       "got": box.degree(e), "want": expect}
        if bad:
            break
    checks.append({"name": "boxminus-degree-formula", "pass": bad is None,
                   "counterexample": bad})
    return checks


def _suite_counts(cfg) -> list:
    import itertools as it
    checks = []
    bad = None
    for k in range(1, min(cfg["max_n"], 3) + 2):
        for combo in it.combinations_with_replacement(
                range(1, cfg["max_entry"] + 1), k):
            d = WeightSequence(combo)
            B = abgroup.weight_group(d.entries)
            spec = weightcalc.spec_from_weights(d)
            mu = weightcalc.gorenstein_parameter(spec).mu
            mu2 = weightcalc.mu_values(d)[1]
            lhs = weightcalc.exceptional_count(d)
            import math
            rhs = math.prod(x - 1 for x in combo) + mu * B.group.torsion_order()
            if mu != mu2 or lhs != rhs:
                bad = {"weights": list(combo), "mu": mu, "mu_values": mu2,
                       "count": lhs, "formula": rhs}
                break
        if bad:
            break
    checks.append({"name": "exceptional-count-formula", "pass": bad is None,
                   "counterexample": bad})

    bad = None
    for combo in it.combinations_with_replacement(range(1, cfg["max_entry"] + 1), 3):
        d = WeightSequence(combo)
        if weightcalc.mu_values(d)[1] <= 0:
            continue
        want = sum(x - 1 for x in combo) + 2
        got = weightcalc.exceptional_count(d)
        if got != want:
            bad = {"weights": list(combo), "count": got, "vertices": want}
            break
    checks.append({"name": "dynkin-canonical-vertex-count", "pass": bad is None,
                   "counterexample": bad})

    bad = None
    for k in range(1, cfg["max_n"] + 2):
        for combo in it.combinations_with_replacement(
                range(1, cfg["max_entry"] + 1), k):
            d = WeightSequence(combo)
            spec = weightcalc.spec_from_weights(d)
            s = weightcalc.sod_summary(spec)
            mu = weightcalc.mu_values(d)[1]
            tors = abgroup.weight_group(d.entries).group.torsion_order()
            ok = (s.block_count() == abs(mu)
                  and all(b[2] == tors for b in s.blocks)
                  and s.complement_total() == weightcalc.complement_count(d))
            if not ok:
                bad = {"weights": list(combo), "summary": s.to_json()}
                break
        if bad:
            break
    checks.append({"name": "sod-block-counts", "pass": bad is None,
                   "counterexample": bad})
    return checks


def _suite_quiver(cfg) -> list:
    checks = []
    CA = {m: quiverlab.cartan_matrix(
        quiverlab.ade_quiver(decompose.ADEType("A", m))) for m in (2, 3, 4)}
    pairs = [
        ("D4", quiverlab.tensor_cartan(CA[2], CA[2]), decompose.ADEType("D", 4)),
        ("E6", quiverlab.tensor_cartan(CA[2], CA[3]), decompose.ADEType("E", 6)),
        ("E8", quiverlab.tensor_cartan(CA[2], CA[4]), decompose.ADEType("E", 8)),
    ]
    for name, tensor, t in pairs:
        lhs = quiverlab.coxeter_polynomial(tensor)
        rhs = quiverlab.coxeter_polynomial(
            quiverlab.cartan_matrix(quiverlab.ade_quiver(t)))
        checks.append({"name": f"coxeter-{name}", "pass": lhs == rhs,
                       "lhs": lhs, "rhs": rhs})
    dets_ok = True
    for t in (decompose.ADEType("A", 5), decompose.ADEType("D", 4),
              decompose.ADEType("E", 6), decompose.ADEType("E", 8)):
        dets_ok = dets_ok and quiverlab.cartan_matrix(
            quiverlab.ade_quiver(t)).det() == 1
    checks.append({"name": "cartan-determinants", "pass": dets_ok})
    ll_ok = all(quiverlab.loewy_length(
        quiverlab.ade_quiver(decompose.ADEType("A", d - 1))) == d - 1
        for d in range(2, 10))
    checks.append({"name": "loewy-length-linear", "pass": ll_ok})
    return checks


def _suite_mf(cfg) -> list:
    checks = []
    for d in range(2, cfg["max_d"] + 1):
        try:
            rep = mfengine.endo_algebra_check(d)
            checks.append({"name": f"endo-cartan-d{d}",
                           "pass": rep["matches"] and rep["k_object_exceptional"]})
        except AssertionError as exc:
            checks.append({"name": f"endo-cartan-d{d}", "pass": False,
                           "counterexample": str(exc)})
    return checks


def _suite_orbit(cfg) -> list:
    rep = orbit_report(WeightSequence([3, 3]), cfg["window"])
    return [{"name": "orbit-identity-x3-y3", "pass": rep["ok"],
             "counterexample": None if rep["ok"] else rep["pairs"]}]


SUITES = {
    "groups": _suite_groups,
    "counts": _suite_counts,
    "quiver": _suite_quiver,
    "mf": _suite_mf,
    "orbit": _suite_orbit,
}


def verify_report(suite: str, cfg) -> dict:
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}; choose from "
                         f"{sorted(SUITES)}")
    checks = SUITES[suite](cfg)
    return {
        "suite": suite,
        "checks": checks,
        "passed": sum(1 for c in checks if c["pass"]),
        "failed": sum(1 for c in checks if not c["pass"]),
        "ok": all(c["pass"] for c in checks),
    }


# ---------------------------------------------------------------------------
# emission


def emit(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2)
    lines = []

    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for key in sorted(obj):
                val = obj[key]
                if isinstance(val, (dict, list)) and val:
                    lines.append(f"{pad}{key}:")
                    walk(val, indent + 1)
                else:
                    lines.append(f"{pad}{key}: {val if val != [] else '[]'}")
        elif isinstance(obj, list):
            for val in obj:
                if isinstance(val, (dict, list)):
                    lines.append(f"{pad}-")
                    walk(val, indent + 1)
                else:
                    lines.append(f"{pad}- {val}")
        else:
            lines.append(f"{pad}{obj}")

    walk(report)
    return "\n".join(lines)


def build_report(command: str, payload: dict, provenance: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "results": payload,
        "provenance": provenance,
    }


def load_config(path: str | None) -> dict:
    cfg = dict(DEFAULTS)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        for key in data:
            if key not in DEFAULTS:
                raise UsageError(f"unknown config key {key!r}")
        cfg.update(data)
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="singlab",
        description="exact invariants of graded hypersurface singularities")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--config", default=None, help="JSON config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full weight-sequence report")
    p.add_argument("weights")

    p = sub.add_parser("group", help="weight-group presentation and degrees")
    p.add_argument("weights")

    p = sub.add_parser("decompose", help="minimal partitions and verdict")
    p.add_argument("weights")

    p = sub.add_parser("sod", help="decomposition summary")
    p.add_argument("weights")

    p = sub.add_parser("quiver", help="ADE or tensor quiver data")
    p.add_argument("spec", help="ADE name (A5, D4, E6, E8) or weight list")

    p = sub.add_parser("mf", help="standard-object endomorphism check")
    p.add_argument("--max-d", dest="max_d", type=int, default=None)

    p = sub.add_parser("orbit", help="restriction/orbit-sum identity")
    p.add_argument("--weights", default="3,3")
    p.add_argument("--window", type=int, default=None)

    p = sub.add_parser("verify", help="run a verification battery")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--max-n", dest="max_n", type=int, default=None)
    p.add_argument("--max-entry", dest="max_entry", type=int, default=None)
    p.add_argument("--max-d", dest="max_d", type=int, default=None)
    p.add_argument("--window", type=int, default=None)

    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        for key in ("window", "max_n", "max_entry", "max_d"):
            if getattr(args, key, None) is not None:
                cfg[key] = getattr(args, key)

        provenance = {
            "tool": "singlab",
            "version": __version__,
            "config": {k: cfg[k] for k in sorted(cfg)},
        }

        if args.command == "analyze":
            payload = analyze_report(parse_weights(args.weights),
                                     cfg["node_limit"])
        elif args.command == "group":
            payload = group_report(parse_weights(args.weights))
        elif args.command == "decompose":
            payload = decompose_report(parse_weights(args.weights),
                                       cfg["node_limit"])
        elif args.command == "sod":
            payload = sod_report(parse_weights(args.weights))
        elif args.command == "quiver":
            payload = quiver_report(args.spec)
        elif args.command == "mf":
            payload = mf_report(cfg["max_d"])
        elif args.command == "orbit":
            payload = orbit_report(parse_weights(args.weights), cfg["window"])
        else:
            payload = verify_report(args.suite, cfg)

        report = build_report(args.command, payload, provenance)
        print(emit(report, args.format))
        if args.command == "verify" and not payload["ok"]:
            return 1
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (InternalCheckFailure, AssertionError) as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
