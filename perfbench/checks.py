"""Output checks, run outside the timed region.

Every timed job's stdout must match the reference SHA-256 recorded for that
exact command line (``jobs.output_digest``), must read the same on every
pass and with tracing on and off, and must pass the semantic checks below.
The semantic checks re-derive what they can without the program's search:
partition certificates must cover the input with parts that satisfy their
predicate, and on at most ``BRUTE_FORCE_MAX`` entries their sizes must equal
``decompose.brute_force_min_parts``.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction

import jobs

BRUTE_FORCE_MAX = 8


def load_references() -> dict:
    with open(jobs.DATA / "reference.json", encoding="utf-8") as fh:
        refs = dict(json.load(fh)["digests"])
    for entry in jobs.load_pool()["entries"]:
        refs[f"{entry['command']} {entry['weights']}"] = entry["sha256"]
    return refs


def _weights(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _is_ade(part) -> bool:
    rest = sorted(x for x in part if x != 2)
    return len(rest) <= 1 or tuple(rest) in ((3, 3), (3, 4), (3, 5))


def _is_nonpositive(part) -> bool:
    return sum(Fraction(1, x) for x in part) <= 1


def _partition_problems(weights, h_size, h_parts, q_size, q_parts, oracle):
    problems = []
    for label, size, parts, ok in (("h", h_size, h_parts, _is_ade),
                                   ("q", q_size, q_parts, _is_nonpositive)):
        if Counter(x for p in parts for x in p) != Counter(weights):
            problems.append(f"{label} parts do not cover the input")
        if size != len(parts) or not all(ok(p) for p in parts):
            problems.append(f"{label} certificate is malformed")
    if len(weights) <= BRUTE_FORCE_MAX:
        h_best, q_best = oracle(weights)
        if (h_size, q_size) != (h_best, q_best):
            problems.append(f"h,q = {h_size},{q_size}; brute force gives "
                            f"{h_best},{q_best}")
    return problems


def semantic_problems(argv: tuple, report: dict, oracle) -> list[str]:
    """What is wrong with one job's parsed report; empty when it is right."""
    r = report.get("results", {})
    command = argv[0]
    if command == "orbit":
        if r.get("ok") is not True or not all(p["ok"] for p in r["pairs"]):
            return ["orbit identity not confirmed"]
    elif command == "mf":
        if r.get("ok") is not True or not all(
                o["strong_exceptional"] and o["k_object_exceptional"]
                for o in r["objects"]):
            return ["mf endomorphism check not confirmed"]
    elif command == "verify":
        if r.get("ok") is not True or r.get("failed") != 0:
            return [f"verify {argv[1]} reports failures"]
    elif command == "quiver":
        spec = argv[1]
        poly = r.get("coxeter_polynomial")
        if spec[0].isalpha():
            n = r.get("vertices")
        else:
            t = _weights(spec)
            n = math.prod(x - 1 for x in t)
            if _is_ade(t) and r.get("coxeter_matches_ade") is not True:
                return ["coxeter_matches_ade is not true"]
        if (not isinstance(poly, list) or len(poly) != n + 1
                or not all(isinstance(c, int) for c in poly) or poly[-1] != 1):
            return ["Coxeter polynomial has the wrong shape"]
    elif command == "decompose":
        return _partition_problems(
            _weights(argv[1]),
            r["h_certificate"]["size"], r["h_certificate"]["parts"],
            r["q_certificate"]["size"], r["q_certificate"]["parts"], oracle)
    elif command == "analyze":
        v = r["rouquier"]
        problems = _partition_problems(_weights(argv[1]), v["h"], v["h_parts"],
                                       v["q"], v["q_parts"], oracle)
        if len(r["sod"]["blocks"]) != abs(r["mu"]):
            problems.append("SOD block count differs from |mu|")
        return problems
    return []


class Checker:
    """Checks outcomes; remembers per-command results so each distinct job is
    parsed and cross-checked once."""

    def __init__(self, references: dict):
        self.references = references
        self.first_raw: dict = {}
        self._semantic: dict = {}
        self._brute: dict = {}

    def brute_force(self, weights):
        key = tuple(weights)
        if key not in self._brute:
            from singlab import decompose
            from singlab.weightcalc import WeightSequence
            d = WeightSequence(list(weights))
            self._brute[key] = tuple(decompose.brute_force_min_parts(d, p)[0]
                                     for p in ("ADE", "nonpositive"))
        return self._brute[key]

    def timed_problem(self, job, outcome) -> str | None:
        """Why a timed job's execution failed, or None."""
        if outcome.error:
            return outcome.error
        if outcome.rc != 0:
            return f"exit code {outcome.rc}: {outcome.stderr.strip()[:200]}"
        raw = jobs.raw_digest(outcome.stdout)
        first = self.first_raw.setdefault(job.key, raw)
        if raw != first:
            return "stdout differs between executions"
        if job.key not in self._semantic:
            self._semantic[job.key] = self._check_new(job, outcome.stdout)
        return self._semantic[job.key]

    def _check_new(self, job, stdout) -> str | None:
        want = self.references.get(job.key)
        if want is None:
            return "no reference output for this command"
        if jobs.output_digest(stdout) != want:
            return "stdout differs from the reference"
        problems = semantic_problems(job.argv, json.loads(stdout),
                                     self.brute_force)
        return "; ".join(problems) or None

    def probe_problem(self, job, outcome) -> str | None:
        """Why a probe failed, or None once its defect is fixed.

        A fixed probe either answers correctly or refuses with the documented
        usage exit code 2 and a message, inside the probe cap.
        """
        if outcome.error:
            return outcome.error
        if job.argv[0] == "decompose" and outcome.rc == 2:
            return None
        if outcome.rc != 0:
            return f"exit code {outcome.rc}: {outcome.stderr.strip()[:200]}"
        problems = semantic_problems(job.argv, json.loads(outcome.stdout),
                                     self.brute_force)
        return "; ".join(problems) or None
