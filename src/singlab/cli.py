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
invocations produce byte-identical JSON.  This module alone names every
JSON field; the engines return plain data.  Exit codes: 0 success, 1
verification failure, 2 usage error (bad arguments or config, an exhausted
search budget, a quiver or an orbit battery over MAX_QUIVER_VERTICES, or
more than MAX_SOD_BLOCKS SOD blocks), 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import itertools as it
import json
import math
import sys

# No engine is imported here: each report builder and suite imports the
# engines it uses, so a command loads only its own.
from . import __version__

SCHEMA_VERSION = 1

# `quiver` refuses a quiver with more vertices than this before building
# it: the largest one in the tests and the benchmark has 60 (4,5,6), and
# its Coxeter polynomial costs about n^4.
MAX_QUIVER_VERTICES = 200

# `analyze` and `sod` print one SOD block per degree, |mu| of them, and
# refuse more than this before building the ring: the largest |mu| in the
# tests and the benchmark is 223.
MAX_SOD_BLOCKS = 10_000

# Every setting as (default, smallest accepted value).  A config file may set
# any of them; a command line sets only those its command reads.
_SETTINGS = {
    "window": (6, 0),
    "node_limit": (2_000_000, 1),
    "max_n": (4, 0),
    "max_entry": (6, 1),
    "max_d": (8, 2),
    "snf_samples": (150, 1),
}


class InternalCheckFailure(AssertionError):
    """An invariant the library promises was observed to fail."""


def _rat(x) -> str:
    from fractions import Fraction
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_weights(text: str):
    from .weightcalc import WeightSequence
    try:
        entries = [int(tok) for tok in text.replace(" ", "").split(",") if tok]
        return WeightSequence(entries)
    except ValueError as exc:
        raise UsageError(f"bad weight list {text!r}: {exc}") from None


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# report builders: the only code that turns library values into JSON


def _group_json(B) -> dict:
    G = B.group
    out = {"generators": G.num_generators, "relations": G.relations.to_rows(),
           "free_rank": G.free_rank,
           "invariant_factors": list(G.invariant_factors),
           "marked": list(B.marked.coordinates)}
    if G.free_rank == 1:
        out["generator_degrees"] = [B.degree(G.generator(i))
                                    for i in range(G.num_generators)]
    return out


def _sod_json(s) -> dict:
    blocks = [{"degree": deg, "kind": kind, "count": count}
              for deg, kind, count in s.blocks]
    return {"case": s.case, "mu": s.mu, "torsion": s.torsion,
            "blocks": blocks, "residual": s.residual}


def _parts_json(cert) -> list:
    return [list(p.entries) for p in cert.parts]


def _certificate_json(cert) -> dict:
    stats = cert.search_stats
    # the search exhausts every branch no proven lower bound cuts off, so
    # the size it returns is its own lower-bound proof
    return {"predicate": cert.predicate, "size": cert.size,
            "minimal": cert.minimal, "parts": _parts_json(cert),
            "search_stats": {"nodes": stats["nodes"], "pruned": stats["pruned"],
                             "optimality": "exhaustive-with-bound",
                             "lower_bound_proof": cert.size}}


def _verdict_json(v) -> dict:
    q_cert, h_cert = v.witnesses
    return {"n_plus_1": v.n_plus_1, "h": h_cert.size, "q": q_cert.size,
            "lower": v.lower, "upper": v.upper, "exact": v.exact,
            "conjecture_holds": v.conjecture_holds,
            "h_parts": _parts_json(h_cert), "q_parts": _parts_json(q_cert)}


def _ade_type(d):
    from . import decompose
    ade = decompose.classify_ade(d)
    return None if ade is None else str(ade)


def _check_sod_size(mu: int, d) -> None:
    if abs(mu) > MAX_SOD_BLOCKS:
        raise UsageError(f"weights {','.join(map(str, d.entries))} give "
                         f"|mu| = {abs(mu)} SOD blocks; at most "
                         f"{MAX_SOD_BLOCKS} are reported")


def analyze_report(d, node_limit: int) -> dict:
    from . import decompose, weightcalc
    mu_bar, mu, sign = weightcalc.mu_values(d)
    _check_sod_size(mu, d)
    spec = weightcalc.spec_from_weights(d)
    B = spec.grading
    sod = weightcalc.sod_summary(spec)
    if sod.mu != mu:
        raise InternalCheckFailure("Gorenstein degree disagrees with mu")
    verdict = decompose.rouquier_verdict(d, node_limit)
    results = {
        "weights": list(d.entries),
        "mu_bar": _rat(mu_bar),
        "mu": mu,
        "sign": sign,
        "degenerate": d.has_unit_weight(),
        "torsion": B.group.torsion_order(),
        "weight_group": _group_json(B),
        "exceptional_count": weightcalc.exceptional_count(d),
        "complement_count": weightcalc.complement_count(d),
        "ade_type": _ade_type(d),
        "sod": _sod_json(sod),
        "rouquier": _verdict_json(verdict),
    }
    if results["degenerate"]:
        results["note"] = ("a unit weight collapses the factorization "
                           "category to zero")
    return results


def group_report(d) -> dict:
    from . import abgroup
    B = abgroup.weight_group(d.entries)
    rep = _group_json(B)
    rep["torsion_order"] = B.group.torsion_order()
    rep["marked_degree"] = B.degree(B.marked)
    return rep


def decompose_report(d, node_limit: int) -> dict:
    from . import decompose
    verdict = decompose.rouquier_verdict(d, node_limit)
    q_cert, h_cert = verdict.witnesses
    return {
        "weights": list(d.entries),
        "ade_type": _ade_type(d),
        "nonpositive": decompose.is_nonpositive(d),
        "h_certificate": _certificate_json(h_cert),
        "q_certificate": _certificate_json(q_cert),
        "rouquier": _verdict_json(verdict),
    }


def sod_report(d) -> dict:
    from . import weightcalc
    _check_sod_size(weightcalc.mu_values(d)[1], d)
    spec = weightcalc.spec_from_weights(d)
    out = _sod_json(weightcalc.sod_summary(spec))
    out["weights"] = list(d.entries)
    return out


def _check_quiver_size(vertices: int, what: str) -> None:
    if vertices > MAX_QUIVER_VERTICES:
        raise UsageError(f"{what} has {vertices} vertices; quiver builds "
                         f"at most {MAX_QUIVER_VERTICES}")


def quiver_report(spec: str) -> dict:
    from . import decompose, quiverlab
    spec = spec.strip()
    if spec and spec[0] in "ADEade":
        try:
            index = int(spec[1:])
        except ValueError:
            raise UsageError(f"bad ADE name {spec!r}") from None
        try:
            t = decompose.ADEType(spec[0].upper(), index)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        _check_quiver_size(t.index, f"the quiver {t}")
        Q = quiverlab.ade_quiver(t)
        C = quiverlab.cartan_matrix(Q)
        return {"label": str(t), "vertices": Q.num_vertices,
                "arrows": [list(a) for a in Q.arrows], "cartan": C.to_rows(),
                "loewy_length": quiverlab.loewy_length(Q),
                "coxeter_polynomial": quiverlab.coxeter_polynomial(C)}
    d = parse_weights(spec)
    out = {"weights": list(d.entries), "degenerate": d.has_unit_weight()}
    # one A_{x-1} factor per weight x >= 2
    sizes = [x - 1 for x in d.entries if x >= 2]
    if d.has_unit_weight() or not sizes:
        out["note"] = "a unit weight collapses the factorization category"
        return out
    _check_quiver_size(math.prod(sizes), f"the tensor quiver of {spec}")
    factors = [quiverlab.cartan_matrix(
        quiverlab.ade_quiver(decompose.ADEType("A", m))) for m in sizes]
    C = factors[0]
    for f in factors[1:]:
        C = quiverlab.tensor_cartan(C, f)
    out["tensor_cartan"] = C.to_rows()
    out["coxeter_polynomial"] = quiverlab.coxeter_polynomial(C)
    out["loewy_length"] = quiverlab.loewy_length_tensor(sizes)
    ade = decompose.classify_ade(d)
    if ade is not None:
        C_ade = quiverlab.cartan_matrix(quiverlab.ade_quiver(ade))
        if quiverlab.coxeter_polynomial(C_ade) != out["coxeter_polynomial"]:
            raise InternalCheckFailure(
                f"Coxeter polynomial of {d.entries} does not match {ade}")
        out["ade_type"] = str(ade)
        out["coxeter_matches_ade"] = True
    return out


def mf_report(max_d: int) -> dict:
    from . import mfengine
    per_d = []
    for d in range(2, max_d + 1):
        h0, cartan = mfengine.endo_algebra_check(d)
        # the check raises unless every table it reads is certified, H^0 is
        # the reversed Cartan matrix and all other strands vanish; k(0) =
        # E_{d-1} is its last diagonal entry
        per_d.append({"d": d, "h0_dimensions": h0, "cartan": cartan,
                      "permutation": "reverse (E_i -> vertex d-i)",
                      "certified": True, "strong_exceptional": True,
                      "k_object_exceptional": True})
    return {"max_d": max_d, "objects": per_d, "ok": True}


def orbit_report(weights, window: int) -> dict:
    from . import mfengine
    if len(weights) != 2:
        raise UsageError("orbit check wants exactly two weights")
    a, b = weights.entries
    if a < 2 or b < 2:
        raise UsageError("orbit check needs weights >= 2")
    # one standard object per vertex of the tensor quiver A_{a-1} x A_{b-1}
    count = (a - 1) * (b - 1)
    if count > MAX_QUIVER_VERTICES:
        raise UsageError(f"the orbit battery of {a},{b} has {count} objects; "
                         f"orbit builds at most {MAX_QUIVER_VERTICES}")
    rx = mfengine.one_variable_ring(a, "x")
    ry = mfengine.one_variable_ring(b, "y")
    ys = mfengine.standard_objects(ry)
    objs = [(u, v) for u in mfengine.standard_objects(rx) for v in ys]
    A = mfengine.tensor_ring(rx, ry).grading
    # Gamma is the torsion of the grading, one generator per invariant factor
    G = A.group
    t = len(G.invariant_factors)
    gamma = [G.from_canonical([int(i == k) for i in range(t)], [0]) for k in range(t)]
    psi = mfengine.OrbitSpec(A, gamma)
    pairs = [{"pair": list(pair), "ok": not mismatches,
              "mismatches": [{"strand": list(strand), "restricted": lhs,
                              "orbit_sum": rhs}
                             for strand, lhs, rhs in mismatches]}
             for pair, mismatches in mfengine.orbit_hom_check(objs, psi, window)]
    return {
        "weights": [a, b],
        "gamma_order": psi.order(),
        "window": window,
        "pairs": pairs,
        "ok": all(p["ok"] for p in pairs),
    }


# ---------------------------------------------------------------------------
# verification suites


def _check(name: str, cases) -> dict:
    """The check `name`; `cases` yields None per case that holds, else a
    counterexample, and the first counterexample fails the check."""
    bad = next((c for c in cases if c is not None), None)
    return {"name": name, "pass": bad is None, "counterexample": bad}


def _weight_sequences(max_n: int, max_entry: int):
    """Every weight multiset with 1..max_n + 1 entries, each in 1..max_entry."""
    for k in range(1, max_n + 2):
        yield from it.combinations_with_replacement(range(1, max_entry + 1), k)


def _suite_groups(cfg) -> list:
    import random

    from . import abgroup
    from .weightcalc import WeightSequence
    rng = random.Random(20240229)

    def snf(_):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        M = abgroup.IntMatrix(r, c, [rng.randint(-20, 20) for _ in range(r * c)])
        s = abgroup.smith_normal_form(M)
        diag = s.diagonal()
        ok = (s.U.mul(M).mul(s.V) == s.S and abs(s.U.det()) == 1
              and abs(s.V.det()) == 1
              and all(diag[i + 1] % diag[i] == 0 for i in range(s.rank - 1)))
        return None if ok else M.to_rows()

    def torsion(combo):
        d = WeightSequence(combo)
        got = abgroup.weight_group(d.entries).group.torsion_order()
        want = d.product() // d.lcm()
        return None if got == want else {"weights": list(combo), "snf": got,
                                         "formula": want}

    def boxminus_degrees():
        for _ in range(60):
            pa = abgroup.pointed_Z(rng.randint(1, 9))
            pb = abgroup.pointed_Z(rng.randint(1, 9))
            box = abgroup.boxminus(pa, pb)
            p, q = pa.degree(pa.marked), pb.degree(pb.marked)
            g = math.gcd(p, q)
            one_a, one_b = pa.group.generator(0), pb.group.generator(0)
            for (a, b), want in (((one_a, pb.group.zero()), q // g),
                                 ((pa.group.zero(), one_b), p // g)):
                e = abgroup.boxminus_pair(box.group, a, b)
                got = box.degree(e)
                yield None if got == want else {
                    "p": p, "q": q, "coords": list(e.coordinates),
                    "got": got, "want": want}

    sequences = _weight_sequences(cfg["max_n"], cfg["max_entry"])
    return [_check("snf-random-battery", map(snf, range(cfg["snf_samples"]))),
            _check("torsion-order-formula", map(torsion, sequences)),
            _check("boxminus-degree-formula", boxminus_degrees())]


def _suite_counts(cfg) -> list:
    from . import weightcalc
    from .weightcalc import WeightSequence

    def cases(combo):
        """The exceptional-count and SOD cases of one sequence, both read
        from its decomposition summary: Gorenstein mu and SNF torsion."""
        d = WeightSequence(combo)
        s = weightcalc.sod_summary(weightcalc.spec_from_weights(d))
        mu = weightcalc.mu_values(d)[1]
        count = weightcalc.exceptional_count(d)
        formula = math.prod(x - 1 for x in combo) + s.mu * s.torsion
        tors = d.product() // d.lcm()
        exceptional = None if s.mu == mu and count == formula else {
            "weights": list(combo), "mu": s.mu, "mu_values": mu,
            "count": count, "formula": formula}
        ok = (s.block_count() == abs(mu)
              and all(b[2] == tors for b in s.blocks)
              and s.complement_total() == weightcalc.complement_count(d))
        return exceptional, None if ok else {"weights": list(combo),
                                             "summary": _sod_json(s)}

    def dynkin(combo):
        d = WeightSequence(combo)
        if weightcalc.mu_values(d)[1] <= 0:
            return None
        want = sum(x - 1 for x in combo) + 2
        got = weightcalc.exceptional_count(d)
        return None if got == want else {"weights": list(combo), "count": got,
                                         "vertices": want}

    max_entry = cfg["max_entry"]
    exceptional, sod = zip(*map(cases, _weight_sequences(cfg["max_n"], max_entry)))
    triples = it.combinations_with_replacement(range(1, max_entry + 1), 3)
    return [_check("exceptional-count-formula", exceptional),
            _check("dynkin-canonical-vertex-count", map(dynkin, triples)),
            _check("sod-block-counts", sod)]


def _suite_quiver(cfg) -> list:
    from . import decompose, quiverlab
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
    from . import mfengine
    checks = []
    for d in range(2, cfg["max_d"] + 1):
        # the check returns only when it holds, k(0) included
        check = {"name": f"endo-cartan-d{d}", "pass": True}
        try:
            mfengine.endo_algebra_check(d)
        except AssertionError as exc:
            check.update({"pass": False, "counterexample": str(exc)})
        checks.append(check)
    return checks


def _suite_orbit(cfg) -> list:
    from .weightcalc import WeightSequence
    rep = orbit_report(WeightSequence([3, 3]), cfg["window"])
    return [{"name": "orbit-identity-x3-y3", "pass": rep["ok"],
             "counterexample": None if rep["ok"] else rep["pairs"]}]


# Each suite: its check function and the settings `verify SUITE` takes as
# flags (snf_samples stays config-only).
SUITES = {
    "groups": (_suite_groups, ("max_n", "max_entry")),
    "counts": (_suite_counts, ("max_n", "max_entry")),
    "quiver": (_suite_quiver, ()),
    "mf": (_suite_mf, ("max_d",)),
    "orbit": (_suite_orbit, ("window",)),
}


def verify_report(suite: str, cfg) -> dict:
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}; choose from "
                         f"{sorted(SUITES)}")
    checks = SUITES[suite][0](cfg)
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
    cfg = {key: default for key, (default, _) in _SETTINGS.items()}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read config {path!r}: {exc}") from None
        if not isinstance(data, dict):
            raise UsageError(f"config {path!r} must hold a JSON object")
        for key in data:
            if key not in _SETTINGS:
                raise UsageError(f"unknown config key {key!r}")
        cfg.update(data)
    return cfg


def _check_config(cfg: dict) -> None:
    for key, (_, low) in _SETTINGS.items():
        value = cfg[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise UsageError(f"{key} must be an integer >= {low}, got {value!r}")


def _add_flags(parser, keys) -> None:
    """One integer flag per setting, --max-d for max_d; unset means None."""
    for key in keys:
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=int)


def _build_parser() -> argparse.ArgumentParser:
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
    _add_flags(p, ("max_d",))

    p = sub.add_parser("orbit", help="restriction/orbit-sum identity")
    p.add_argument("--weights", default="3,3")
    _add_flags(p, ("window",))

    p = sub.add_parser("verify", help="run a verification battery")
    suites = p.add_subparsers(dest="suite", required=True)
    for name, (_, flags) in SUITES.items():
        _add_flags(suites.add_parser(name), flags)
    return parser


# Built once at import and reused by every `main` call: argparse keeps no
# state between parse_args calls, and building the parser costs more than
# a small report.
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        cfg = load_config(args.config)
        for key in _SETTINGS:
            if getattr(args, key, None) is not None:
                cfg[key] = getattr(args, key)
        _check_config(cfg)

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
    except RuntimeError as exc:
        # only the partition search raises SearchBudgetExceeded, and a
        # command that never searched has not imported its module
        search = sys.modules.get(f"{__package__}.decompose")
        if search is None or not isinstance(exc, search.SearchBudgetExceeded):
            raise
        print(f"search budget exceeded: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # an input the library refuses; exit 1 stays a failing `verify`
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
