import inspect
import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from singlab.decompose import (ADEType, SearchBudgetExceeded, _PREDICATES,
                               _feasible_parts, _remove,
                               _submultisets_with_max, brute_force_min_parts,
                               classify_ade, is_nonpositive, min_partition,
                               rouquier_verdict, sum_generator_bound)
from singlab.weightcalc import WeightSequence as W


def test_ade_type_legality():
    ADEType("A", 0)
    ADEType("D", 4)
    ADEType("E", 6)
    ADEType("E", 8)
    for fam, idx in [("A", -1), ("D", 5), ("E", 7), ("B", 2)]:
        with pytest.raises(ValueError):
            ADEType(fam, idx)


def test_classify_ade():
    assert str(classify_ade(W([2, 2, 7]))) == "A6"
    assert str(classify_ade(W([2, 2, 2, 3, 5]))) == "E8"
    assert classify_ade(W([3, 3, 4])) is None
    assert str(classify_ade(W([3, 3]))) == "D4"
    assert str(classify_ade(W([3, 4]))) == "E6"
    assert str(classify_ade(W([2, 2]))) == "A1"
    assert str(classify_ade(W([1]))) == "A0"
    assert str(classify_ade(W([5]))) == "A4"
    assert classify_ade(W([1, 1])) is None
    assert classify_ade(W([3, 3, 3])) is None


def test_is_nonpositive():
    assert is_nonpositive(W([3, 3, 3]))
    assert not is_nonpositive(W([2, 3, 5]))
    for d in range(1, 9):
        assert is_nonpositive(W([d]))
    assert is_nonpositive(W([2, 4, 4]))
    assert not is_nonpositive(W([2, 3, 4]))


def test_predicates_are_closed_under_sub_multisets():
    # every sub-multiset is reached by dropping one entry at a time, so it
    # suffices that dropping any one entry of a passing part keeps it passing
    for name, pred in _PREDICATES.items():
        for k in range(2, 7):
            for part in itertools.combinations_with_replacement(range(2, 13), k):
                if pred(part):
                    for i in range(k):
                        assert pred(part[:i] + part[i + 1:]), (name, part, i)


def test_feasible_parts_are_the_filtered_sub_multisets_with_their_rests():
    rng = random.Random(26)
    for _ in range(400):
        state = tuple(sorted(rng.randint(2, 16) for _ in range(rng.randint(1, 9))))
        for name, pred in _PREDICATES.items():
            got = _feasible_parts(state, pred)
            want = {(p, _remove(state, p))
                    for p in _submultisets_with_max(state) if pred(p)}
            assert len(got) == len(want) and set(got) == want, (name, state)


def test_min_partition_k3_example():
    d = W([3, 3, 3, 3, 3, 3, 4, 4, 4, 4])
    h = min_partition(d, "ADE")
    assert h.size == 5
    assert [list(p.entries) for p in h.parts] == \
        [[3, 3], [3, 4], [3, 4], [3, 4], [3, 4]]
    q = min_partition(d, "nonpositive")
    assert q.size == 3
    assert [list(p.entries) for p in q.parts] == \
        [[3, 3, 3], [3, 3, 3], [4, 4, 4, 4]]
    assert h.minimal and q.minimal


def test_min_partition_singleton_ade():
    for seq in ([3, 3], [2, 3, 5], [2, 2, 2, 3, 4]):
        d = W(seq)
        assert classify_ade(d) is not None
        assert min_partition(d, "ADE").size == 1
    assert min_partition(W([3, 3]), "nonpositive").size == 1


def test_min_partition_reassembles_and_orders():
    d = W([2, 3, 6, 5, 2])
    for pred in ("ADE", "nonpositive"):
        cert = min_partition(d, pred)
        merged = sorted(x for p in cert.parts for x in p.entries)
        assert tuple(merged) == d.entries
        assert list(cert.parts) == sorted(cert.parts)


def test_min_partition_budget():
    with pytest.raises(SearchBudgetExceeded):
        min_partition(W([2, 3, 4, 5, 6, 2, 3, 4]), "nonpositive", node_limit=2)


def test_deep_search_refuses_instead_of_crashing():
    # 400 twos need 200 nonpositive parts, so the search nests 200 deep
    deep = W([2] * 400)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        with pytest.raises(SearchBudgetExceeded, match="recursion limit"):
            min_partition(deep, "nonpositive")
    finally:
        sys.setrecursionlimit(limit)
    assert min_partition(deep, "nonpositive").size == 200


def test_bounds_and_monotonicity():
    rng = random.Random(9)
    for _ in range(60):
        k = rng.randint(1, 6)
        d = W([rng.randint(1, 6) for _ in range(k)])
        for pred in ("ADE", "nonpositive"):
            assert min_partition(d, pred).size <= k
        e = W([rng.randint(1, 6) for _ in range(rng.randint(1, 3))])
        from singlab.weightcalc import concat
        both = concat(d, e)
        for pred in ("ADE", "nonpositive"):
            assert min_partition(both, pred).size <= \
                min_partition(d, pred).size + min_partition(e, pred).size


def test_optimality_against_bruteforce_random():
    rng = random.Random(31)
    for _ in range(150):
        k = rng.randint(1, 8)
        d = W([rng.randint(1, 6) for _ in range(k)])
        for pred in ("ADE", "nonpositive"):
            cert = min_partition(d, pred)
            size, parts = brute_force_min_parts(d, pred)
            assert cert.size == size
            assert tuple(p.entries for p in cert.parts) == parts


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=8))
def test_optimality_against_bruteforce_property(entries):
    d = W(entries)
    for pred in ("ADE", "nonpositive"):
        cert = min_partition(d, pred)
        size, parts = brute_force_min_parts(d, pred)
        assert cert.size == size, (entries, pred)
        assert tuple(p.entries for p in cert.parts) == parts, (entries, pred)


def test_rouquier_verdict_k3():
    v = rouquier_verdict(W([3, 3, 3, 3, 3, 3, 4, 4, 4, 4]))
    assert (v.lower, v.upper, v.exact) == (4, 4, 4)
    assert v.conjecture_holds
    q_cert, h_cert = v.witnesses
    assert (h_cert.size, q_cert.size, v.n_plus_1) == (5, 3, 10)


def test_rouquier_verdict_point():
    v = rouquier_verdict(W([3, 3]))
    assert (v.lower, v.upper, v.exact) == (0, 0, 0)
    assert v.conjecture_holds


def test_rouquier_two_then_nonpositive():
    # (2, d_1, ..., d_n) nonpositive has q = 1, h = n, so rdim = n - 1
    for seq in ([2, 8, 9, 10], [2, 4, 9, 12, 18]):
        d = W(seq)
        assert is_nonpositive(d)
        v = rouquier_verdict(d)
        n = len(seq) - 1
        q_cert, h_cert = v.witnesses
        assert q_cert.size == 1
        assert h_cert.size == n
        assert v.exact == n - 1


def test_rouquier_bounds_consistency():
    rng = random.Random(13)
    for _ in range(80):
        d = W([rng.randint(1, 6) for _ in range(rng.randint(1, 7))])
        v = rouquier_verdict(d)
        q_cert, h_cert = v.witnesses
        assert v.lower == v.n_plus_1 - 2 * q_cert.size
        assert v.upper == h_cert.size - 1
        assert v.conjecture_holds == (v.lower == v.upper)
        if v.conjecture_holds:
            assert v.exact == v.n_plus_1 - 2 * q_cert.size
            assert v.lower <= v.upper
        else:
            assert v.exact is None


def test_sum_generator_bound():
    assert sum_generator_bound([0], 1) == 0
    assert sum_generator_bound([0, 0, 0], 3) == 2
    assert sum_generator_bound([1, 2], 2) == 4
    with pytest.raises(ValueError):
        sum_generator_bound([], 0)
    with pytest.raises(ValueError):
        sum_generator_bound([1, 2], 3)
