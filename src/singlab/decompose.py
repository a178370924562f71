"""ADE classification of weight sequences and minimal-partition certificates.

A weight sequence is ADE when, up to permutation, it is one of

    (2,...,2,a), (2,...,2,3,3), (2,...,2,3,4), (2,...,2,3,5)

with any number of 2's (including none); it is nonpositive when
sum 1/d_i <= 1.  The quantities

    h(d) = least number of parts in a partition into ADE sequences
    q(d) = least number of parts in a partition into nonpositive sequences

bound the Rouquier dimension of the derived category of the attached
tensor-product path algebra: n+1-2q(d) <= rdim <= h(d)-1, with equality
exactly when n+1 = h(d) + 2q(d) - 1.

Partitions are multiset partitions (parts unordered, entries drawn with
multiplicity).  The search is a canonical-ordering branch-and-bound over
multiset states with a greedy relaxation lower bound.  Its memos of states
and of predicate tests live for one call, so nothing outlives the call.  A
search that would nest deeper than Python's recursion limit raises
SearchBudgetExceeded, as an exhausted node limit does; when the lower bound
alone reaches the limit, it does so before searching.  A plain exhaustive
enumerator doubles as the optimality oracle in the tests.  Ties between
equally small partitions are broken by the lexicographically smallest
sorted part list, so certificates are reproducible.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .abgroup import int_tuple
from .weightcalc import WeightSequence

__all__ = [
    "ADEType",
    "PartitionCertificate",
    "RouquierVerdict",
    "SearchBudgetExceeded",
    "classify_ade",
    "is_nonpositive",
    "min_partition",
    "brute_force_min_parts",
    "rouquier_verdict",
    "sum_generator_bound",
]


@dataclass(frozen=True)
class ADEType:
    """One of the four legal families: A_m (m >= 0), D4, E6, E8."""

    family: str
    index: int

    def __post_init__(self):
        # an integral index reads as an int, any other is a ValueError
        object.__setattr__(self, "index", int_tuple((self.index,))[0])
        legal = (self.family == "A" and self.index >= 0) or \
                (self.family == "D" and self.index == 4) or \
                (self.family == "E" and self.index in (6, 8))
        if not legal:
            raise ValueError(f"illegal ADE type {self.family}{self.index}")

    def __str__(self):
        return f"{self.family}{self.index}"


class SearchBudgetExceeded(RuntimeError):
    """Raised when the partition search exceeds its node limit or would
    nest deeper than Python's recursion limit."""


def is_nonpositive(d: WeightSequence) -> bool:
    """Exact test of sum 1/d_i <= 1 (zero sequences count as nonpositive)."""
    return _is_nonpositive_part(d.entries)


def _is_ade_part(entries: tuple) -> bool:
    rest = tuple(x for x in entries if x != 2)
    if len(rest) <= 1:
        return True
    return rest in ((3, 3), (3, 4), (3, 5))


def _is_nonpositive_part(entries: tuple) -> bool:
    """sum 1/d_i <= 1, as sum L/d_i <= L over L = lcm(d_i)."""
    L = math.lcm(*entries)
    return sum(L // x for x in entries) <= L


_PREDICATES = {"ADE": _is_ade_part, "nonpositive": _is_nonpositive_part}


def classify_ade(d: WeightSequence):
    """The ADE type of a weight sequence, or None.

    (2,...,2,a) -> A_{a-1} (all-2 sequences read as a = 2, so A_1);
    (2,...,2,3,3) -> D4; (2,...,2,3,4) -> E6; (2,...,2,3,5) -> E8.
    """
    rest = tuple(x for x in d.entries if x != 2)
    if len(rest) <= 1:
        return ADEType("A", rest[0] - 1 if rest else 1)
    return {(3, 3): ADEType("D", 4),
            (3, 4): ADEType("E", 6),
            (3, 5): ADEType("E", 8)}.get(rest)


@dataclass(frozen=True)
class PartitionCertificate:
    """A minimal partition of a weight sequence into predicate parts."""

    parts: tuple            # WeightSequence parts, sorted
    predicate: str          # 'ADE' | 'nonpositive'
    size: int
    minimal: bool
    search_stats: dict


def _submultisets_with_max(state: tuple):
    """Sub-multisets of `state` that contain its largest entry.

    `state` is sorted ascending; every partition has a unique part holding
    the maximum, so branching on these parts enumerates each multiset
    partition exactly once.  Only the oracle `brute_force_min_parts` uses
    this, with `_remove`; the search enumerates by `_feasible_parts`.
    """
    values = sorted(set(state))
    counts = [state.count(v) for v in values]
    vmax = values[-1]
    ranges = []
    for v, c in zip(values, counts):
        lo = 1 if v == vmax else 0
        ranges.append(range(lo, c + 1))
    for picks in itertools.product(*ranges):
        part = []
        for v, k in zip(values, picks):
            part.extend([v] * k)
        yield tuple(part)


def _remove(state: tuple, part: tuple) -> tuple:
    out = list(state)
    for x in part:
        out.remove(x)
    return tuple(out)


def _feasible_parts(state: tuple, ok) -> list:
    """(part, rest) for every sub-multiset `part` of `state` that holds its
    largest entry and passes `ok`; `rest` is what `part` leaves of `state`.

    `state` is sorted ascending, and so are `part` and `rest`.  A part grows
    one copy at a time, from the largest value down, and a branch stops at
    its first part that fails `ok`: both predicates are closed under taking
    sub-multisets (sum 1/d_i only falls, and a sub-multiset of an ADE part
    is ADE), so every part the branch would still reach fails too.
    """
    runs = []  # (value, index of its first copy in state, count), largest first
    end = len(state)
    while end:
        value = state[end - 1]
        start = bisect.bisect_left(state, value, 0, end)
        runs.append((value, start, end - start))
        end = start
    top, start, count = runs[0]
    if not ok((top,)):
        return []
    out = []
    # (part, rest, run of the part's least value, copies of it left in rest);
    # the first copy of a value in rest sits at its index in state, since
    # only that value and larger ones have been taken
    stack = [((top,), state[:start] + state[start + 1:], 0, count - 1)]
    while stack:
        part, rest, j, left = stack.pop()
        out.append((part, rest))
        for i in range(j if left else j + 1, len(runs)):
            value, start, count = runs[i]
            grown = (value,) + part
            if ok(grown):
                stack.append((grown, rest[:start] + rest[start + 1:], i,
                              left - 1 if i == j else count - 1))
    return out


def _greedy_lower_bound(state: tuple, predicate: str) -> int:
    """A cheap valid lower bound on the number of predicate parts.

    nonpositive: each part carries total reciprocal weight at most 1, so at
    least ceil(sum 1/d_i) parts are needed.  ADE: a part covers at most two
    entries exceeding 2, and covering two requires one of them to be a 3.
    """
    if not state:
        return 0
    if predicate == "nonpositive":
        total = sum(Fraction(1, x) for x in state)
        return max(1, -((-total.numerator) // total.denominator))
    big = [x for x in state if x > 2]
    t = len(big)
    threes = sum(1 for x in big if x == 3)
    pairs = min(threes, t // 2)
    return max(1, t - pairs)


def min_partition(d: WeightSequence, predicate: str,
                  node_limit: int | None = None) -> PartitionCertificate:
    """Minimal partition of d into parts satisfying the predicate.

    Always succeeds (singletons satisfy both predicates).  Returns a
    certificate with `minimal=True`; optimality holds because the memoized
    search exhausts every canonical branching not cut off by a proven lower
    bound.  A state branches on the parts that hold its largest entry;
    `_feasible_parts` enumerates only those that pass the predicate, each
    with its rest, and the search tries them largest first, then in
    lexicographic order.
    """
    if predicate not in _PREDICATES:
        raise ValueError(f"unknown predicate {predicate!r}")
    bound = _greedy_lower_bound(d.entries, predicate)
    ok = functools.cache(_PREDICATES[predicate])
    stats = {"nodes": 0, "pruned": 0}
    memo: dict = {}

    def search(state: tuple):
        if not state:
            return 0, ()
        hit = memo.get(state)
        if hit is not None:
            return hit
        stats["nodes"] += 1
        if node_limit is not None and stats["nodes"] > node_limit:
            raise SearchBudgetExceeded(f"partition search exceeded {node_limit} nodes")
        candidates = _feasible_parts(state, ok)
        # larger parts first: good incumbents early, better pruning
        candidates.sort(key=lambda c: (-len(c[0]), c[0]))
        best = None
        for part, rest in candidates:
            # a candidate whose relaxation bound already exceeds the
            # incumbent size cannot win or tie, so skipping it cannot
            # disturb the lexicographic tie-break among minima
            if best is not None and 1 + _greedy_lower_bound(rest, predicate) > best[0]:
                stats["pruned"] += 1
                continue
            sub_size, sub_parts = search(rest)
            cand = (1 + sub_size, tuple(sorted((part,) + sub_parts)))
            if best is None or cand < best:
                best = cand
        if best is None:
            raise AssertionError("singleton parts always apply")
        memo[state] = best
        return best

    try:
        # the search descends its first candidate to the empty state, one
        # frame per part, so a bound at the recursion limit already proves
        # that it would overflow: refuse before searching
        if bound >= sys.getrecursionlimit():
            raise RecursionError
        size, parts = search(d.entries)
    except RecursionError:
        raise SearchBudgetExceeded(
            "partition search nests deeper than the recursion limit "
            f"{sys.getrecursionlimit()}") from None
    if tuple(sorted(x for p in parts for x in p)) != d.entries:
        raise AssertionError("partition parts do not reassemble the weights")
    if bound > size:
        raise AssertionError("partition smaller than its lower bound")
    return PartitionCertificate(tuple(WeightSequence(p) for p in parts),
                                predicate, size, True, stats)


def brute_force_min_parts(d: WeightSequence, predicate: str):
    """Oracle: minimum over a plain enumeration of all multiset partitions.

    No state memoization and no bound pruning; used to cross-check the
    branch-and-bound answer.  Returns (size, sorted part lists) or None if
    no partition into predicate parts exists (never happens for the two
    shipped predicates).
    """
    ok = functools.cache(_PREDICATES[predicate])
    best: list = [None]

    def enum(state: tuple, acc: tuple):
        if not state:
            cand = (len(acc), tuple(sorted(acc)))
            if best[0] is None or cand < best[0]:
                best[0] = cand
            return
        for part in _submultisets_with_max(state):
            if ok(part):
                enum(_remove(state, part), acc + (part,))

    enum(d.entries, ())
    return best[0]


@dataclass(frozen=True)
class RouquierVerdict:
    """Rouquier-dimension bounds certified by partition witnesses.

    lower = n+1-2q(d) and upper = h(d)-1; they coincide exactly when
    n+1 = h(d)+2q(d)-1, in which case the dimension is known exactly.  The
    verdict is independent of the choice of intermediate grading group: all
    covers of the same factorization category share their Rouquier
    dimension.
    """

    n_plus_1: int
    lower: int
    upper: int
    exact: int | None
    conjecture_holds: bool
    witnesses: tuple  # (q_certificate, h_certificate)


def rouquier_verdict(d: WeightSequence,
                     node_limit: int | None = None) -> RouquierVerdict:
    """Bounds n+1-2q(d) <= rdim <= h(d)-1 with partition witnesses."""
    h_cert = min_partition(d, "ADE", node_limit)
    q_cert = min_partition(d, "nonpositive", node_limit)
    n_plus_1 = len(d)
    lower = n_plus_1 - 2 * q_cert.size
    upper = h_cert.size - 1
    conjecture = n_plus_1 == h_cert.size + 2 * q_cert.size - 1
    exact = lower if lower == upper else None
    return RouquierVerdict(n_plus_1, lower, upper, exact, conjecture,
                           (q_cert, h_cert))


def sum_generator_bound(times, s: int) -> int:
    """Generation time of a direct-sum generator: sum(times) + s - 1."""
    times = list(times)
    if not times:
        raise ValueError("empty sequence of generation times")
    if s != len(times):
        raise ValueError("s must equal the number of components")
    return sum(times) + s - 1
