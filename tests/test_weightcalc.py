import itertools
import math
import random
from fractions import Fraction

import pytest

from singlab.abgroup import boxminus, pointed_Z, weight_group
from singlab.weightcalc import (GradedRingSpec, WeightSequence, complement_count,
                                concat, exceptional_count, gorenstein_parameter,
                                knoerrer_double, mu_values, sod_summary,
                                spec_from_weights, thom_sebastiani)

W = WeightSequence


def test_mu_values():
    assert mu_values(W([3, 3, 3])) == (Fraction(0), 0, "zero")
    assert mu_values(W([2, 3, 5]))[1] == 1
    assert mu_values(W([4, 4, 4, 4]))[1] == 0
    mu_bar, mu, sign = mu_values(W([3, 3]))
    assert (mu_bar, mu, sign) == (Fraction(-1, 3), -1, "negative")


def test_weight_sequence_basics():
    assert W([3, 2]) == W([2, 3])
    assert W([2, 3]).n == 1
    with pytest.raises(ValueError):
        W([])
    with pytest.raises(ValueError):
        W([0])
    for entries in ([2.5, 3], [Fraction(7, 2)]):
        with pytest.raises(ValueError):
            W(entries)
    assert W([3.0, Fraction(4, 2)]).entries == (2, 3)


def test_concat():
    assert concat(W([3]), W([3, 3])) == W([3, 3, 3])
    assert mu_values(concat(W([2, 3]), W([5])))[0] == Fraction(1, 30)
    rng = random.Random(4)
    for _ in range(40):
        a = W([rng.randint(1, 9) for _ in range(rng.randint(1, 3))])
        b = W([rng.randint(1, 9) for _ in range(rng.randint(1, 3))])
        assert mu_values(concat(a, b))[0] == mu_values(a)[0] + mu_values(b)[0] + 1


def test_gorenstein_parameter_one_variable():
    Z2 = pointed_Z(2)
    spec = GradedRingSpec(Z2, (Z2.group.generator(0),))
    g = gorenstein_parameter(spec)
    assert g.mu == -1
    assert spec.degree(g.eta) == -1


def test_gorenstein_parameter_socle_oracle():
    # independent route for one variable: k[x]/(x^d) is self-injective with
    # socle generated by x^{d-1}, so Hom(k, R) = k(1-d) and eta = (1-d) e_0
    for d in range(2, 6):
        Z = pointed_Z(d)
        gen = Z.group.generator(0)
        spec = GradedRingSpec(Z, (gen,))
        socle_degree = d - 1  # top monomial of k[x]/(x^d)
        eta_oracle = -socle_degree * gen
        assert gorenstein_parameter(spec).eta == eta_oracle
        assert gorenstein_parameter(spec).mu == -(d - 1)


def test_gorenstein_parameter_zero():
    # d = sum of the generator degrees forces eta = 0
    Z = pointed_Z(3)
    one = Z.group.generator(0)
    spec = GradedRingSpec(Z, (one, one, one))
    assert gorenstein_parameter(spec).mu == 0


def test_gorenstein_rejects_torsion_potential():
    with pytest.raises(ValueError):
        pointed_Z(0)


def test_gorenstein_agrees_with_mu_values():
    for k in range(1, 6):
        for combo in itertools.combinations_with_replacement(range(1, 7), k):
            d = W(combo)
            spec = spec_from_weights(d)
            assert gorenstein_parameter(spec).mu == mu_values(d)[1], combo


def test_spec_requires_rank_one():
    from singlab.abgroup import IntMatrix, PointedAbelianGroup, group_from_relations
    G = group_from_relations(2, IntMatrix.zero(0, 2))
    P = PointedAbelianGroup(G, G.element([1, 0]))
    with pytest.raises(ValueError):
        GradedRingSpec(P, (G.element([0, 1]),))


def test_sod_summary_cases():
    neg = sod_summary(spec_from_weights(W([3, 3])))
    assert neg.case == "negative" and neg.mu == -1
    assert neg.blocks == ((0, "stabilized_residue", 3),)
    assert neg.residual == "geometry"

    pos = sod_summary(spec_from_weights(W([2, 3, 5])))
    assert pos.case == "positive"
    assert pos.blocks == ((-1, "line_bundle", 1),)
    assert pos.residual == "factorization"

    zero = sod_summary(spec_from_weights(W([3, 3, 3])))
    assert zero.case == "zero" and zero.blocks == ()


def test_sod_block_counts_battery():
    for k in range(1, 5):
        for combo in itertools.combinations_with_replacement(range(1, 7), k):
            d = W(combo)
            s = sod_summary(spec_from_weights(d))
            mu = mu_values(d)[1]
            tors = weight_group(combo).group.torsion_order()
            assert s.block_count() == abs(mu)
            assert all(b[2] == tors for b in s.blocks)
            assert s.complement_total() == complement_count(d)
            if mu > 0:
                assert [b[0] for b in s.blocks] == list(range(-mu, 0))
            if mu < 0:
                assert [b[0] for b in s.blocks] == list(range(-mu - 1, -1, -1))


def test_exceptional_count_values():
    assert exceptional_count(W([3, 3])) == 1
    assert exceptional_count(W([2, 3, 5])) == 9
    for p, q in [(2, 3), (3, 5), (4, 7)]:
        assert exceptional_count(W([1, p, q])) == p + q


def test_mu_and_exceptional_count_match_fraction_oracle():
    for k in range(1, 7):
        for combo in itertools.combinations_with_replacement(range(1, 10), k):
            d = W(combo)
            mu_bar = sum(Fraction(1, x) for x in combo) - 1
            mu = mu_bar * math.lcm(*combo)
            sign = "zero" if mu == 0 else "positive" if mu > 0 else "negative"
            assert mu_values(d) == (mu_bar, mu, sign), combo
            assert type(mu_values(d)[1]) is int
            assert exceptional_count(d) == \
                math.prod(x - 1 for x in combo) + mu_bar * math.prod(combo), combo


def test_exceptional_count_two_routes():
    # product formula vs mu * torsion computed through the group engine
    for k in range(1, 5):
        for combo in itertools.combinations_with_replacement(range(1, 7), k):
            d = W(combo)
            mu = mu_values(d)[1]
            tors = weight_group(combo).group.torsion_order()
            assert exceptional_count(d) == \
                math.prod(x - 1 for x in combo) + mu * tors


def test_dynkin_triples_vertex_count():
    for combo in itertools.combinations_with_replacement(range(1, 7), 3):
        d = W(combo)
        if mu_values(d)[1] > 0:
            assert exceptional_count(d) == sum(x - 1 for x in combo) + 2, combo


def test_complement_count():
    assert complement_count(W([3, 3, 3])) == 0
    assert complement_count(W([3, 3])) == 3
    assert complement_count(W([4, 4, 4, 4, 4])) == 256


def test_knoerrer_double_degrees():
    Z3 = pointed_Z(3)
    spec = GradedRingSpec(Z3, (Z3.group.generator(0),))
    doubled = knoerrer_double(spec)
    # normalized degree map: old variable lands in degree 2, mu = 2
    assert doubled.degree(doubled.generator_degrees[0]) == 2
    assert gorenstein_parameter(doubled).mu == 2
    Z4 = pointed_Z(4)
    quartic = GradedRingSpec(Z4, tuple([Z4.group.generator(0)] * 4))
    dq = knoerrer_double(quartic)
    assert dq.degree(dq.generator_degrees[0]) == 1
    assert gorenstein_parameter(dq).mu == 4


def test_knoerrer_double_composes():
    spec = spec_from_weights(W([2, 3]))
    once = knoerrer_double(spec)
    twice = knoerrer_double(once)
    assert gorenstein_parameter(twice).mu > 0
    assert twice.num_variables() == spec.num_variables() + 4


def _random_specs():
    """The random battery of graded rings: weight groups and (Z, d)."""
    rng = random.Random(17)
    for _ in range(120):
        if rng.random() < 0.5:
            ws = [rng.randint(1, 7) for _ in range(rng.randint(1, 4))]
            yield spec_from_weights(W(ws))
        else:
            Z = pointed_Z(rng.randint(1, 9))
            gens = tuple(rng.randint(1, 5) * Z.group.generator(0)
                         for _ in range(rng.randint(1, 4)))
            yield GradedRingSpec(Z, gens)


def test_knoerrer_positivity_random():
    for spec in _random_specs():
        doubled = knoerrer_double(spec)
        assert gorenstein_parameter(doubled).mu > 0


def _padded_double(spec):
    """Oracle: the doubling with every coordinate padded by hand."""
    A2 = boxminus(boxminus(spec.grading, pointed_Z(2)), pointed_Z(2))
    n = spec.grading.group.num_generators
    gens = [A2.group.element(list(a.coordinates) + [0, 0])
            for a in spec.generator_degrees]
    gens += [A2.group.element([0] * n + [1, 0]), A2.group.element([0] * n + [0, 1])]
    return GradedRingSpec(A2, tuple(gens))


def test_knoerrer_double_matches_padded_construction():
    for spec in _random_specs():
        got, want = knoerrer_double(spec), _padded_double(spec)
        assert got.grading.group == want.grading.group
        assert got.grading.marked.canonical == want.grading.marked.canonical
        assert ([a.canonical for a in got.generator_degrees]
                == [a.canonical for a in want.generator_degrees])


def test_thom_sebastiani_degrees():
    # x^3 + y^2 over Z^2 / (3, -2): deg x = 2, deg y = 3, d = 6, mu = -1
    s = spec_from_weights(W([3]))
    t = spec_from_weights(W([2]))
    sum_spec = thom_sebastiani(s, t)
    assert [sum_spec.degree(a) for a in sum_spec.generator_degrees] == [2, 3]
    assert sum_spec.degree(sum_spec.potential_degree) == 6
    assert [a.coordinates for a in sum_spec.generator_degrees] == [(1, 0), (0, 1)]
    assert gorenstein_parameter(sum_spec).mu == -1
