import functools
import itertools
import math
import random
import sys
import types
from fractions import Fraction
from operator import add

import pytest

from singlab import abgroup, cli, linalg, mfengine
from singlab.mfengine import (Factorization, FactorizationMap, OrbitSpec,
                              Polynomial,
                              RingWithPotential, cone,
                              default_window, endo_algebra_check,
                              factorization_map, fermat_ring, k_object,
                              kunneth_table,
                              make_factorization, one_variable_ring,
                              orbit_hom_check, restrict_grading,
                              standard_objects, strand_cohomology,
                              tensor_product, tensor_ring, translate,
                              zero_factorization)
from singlab.weightcalc import GradedRingSpec, WeightSequence


def ring3():
    return one_variable_ring(3)


def _hom_components(E, F, n):
    """Oracle: source/target generator twists of the two blocks of
    Hom^n(E, F), with F twisted as group elements."""
    d = E.ring.spec.potential_degree

    def twisted(twists, k):
        return tuple(u - k * d for u in twists)

    l, eps = divmod(n, 2)
    if eps == 0:
        return ((E.twists_neg, twisted(F.twists_neg, l)),
                (E.twists_zero, twisted(F.twists_zero, l)))
    return ((E.twists_neg, twisted(F.twists_zero, l)),
            (E.twists_zero, twisted(F.twists_neg, l + 1)))


def test_make_factorization_accepts_valid():
    ring = ring3()
    g = ring.spec.generator_degrees[0]
    zero = ring.grading.group.zero()
    x = Polynomial.variable(1, 0, 1)
    x2 = Polynomial.variable(1, 0, 2)
    E = make_factorization(ring, (g,), (zero,), ((x,),), ((x2,),))
    assert E.rank_pair == (1, 1)


def test_make_factorization_rejects_bad_composition():
    ring = ring3()
    g = ring.spec.generator_degrees[0]
    zero = ring.grading.group.zero()
    x = Polynomial.variable(1, 0, 1)
    x2_doubled = Polynomial.monomial(1, (2,), 2)
    with pytest.raises(ValueError, match="identity"):
        # homogeneity is fine but x * 2x^2 = 2x^3 is not w
        make_factorization(ring, (g,), (zero,), ((x,),), ((x2_doubled,),))
    with pytest.raises(ValueError, match="degree"):
        # x as phi_neg has the wrong forced degree altogether
        make_factorization(ring, (g,), (zero,), ((x,),), ((x,),))


def test_make_factorization_rejects_inhomogeneous():
    ring = ring3()
    g = ring.spec.generator_degrees[0]
    zero = ring.grading.group.zero()
    x = Polynomial.variable(1, 0, 1)
    mixed = x + Polynomial.variable(1, 0, 2)
    x2 = Polynomial.variable(1, 0, 2)
    with pytest.raises(ValueError, match="degree"):
        make_factorization(ring, (g,), (zero,), ((mixed,),), ((x2,),))


def test_zero_factorization():
    E = zero_factorization(ring3())
    assert E.rank_pair == (0, 0)
    t = strand_cohomology(E, E, window=2)
    assert t.total() == 0


def test_zero_factorization_against_any_object():
    # both cokernels of the zero object are zero, so every table is the
    # certified zero table, whichever side the zero object is on
    ring = ring3()
    Z = zero_factorization(ring)
    E1, _ = standard_objects(ring)
    for E, F in ((Z, E1), (E1, Z), (Z, Z)):
        t = strand_cohomology(E, F)
        assert t.certification[0] == "certified"
        assert t.total() == 0 and not any(t.entries.values())
        assert t.dim(0, 7) == t.dim(1, -7) == 0


def test_zero_object_is_certified_over_any_ring():
    # Hom with the zero object vanishes, also over two variables
    rx, ry = one_variable_ring(3, "x"), one_variable_ring(3, "y")
    T = tensor_product(standard_objects(rx)[0], standard_objects(ry)[0])
    Z = zero_factorization(T.ring)
    assert strand_cohomology(T, T, window=0).total()
    for E, F in ((Z, T), (T, Z), (Z, Z)):
        t = strand_cohomology(E, F)
        assert t.certification == ("certified", (0, 0))
        assert t.total() == 0 and t.dim(1, 5) == 0


def test_polynomial_rejects_negative_exponents():
    ring = ring3()
    g = ring.spec.generator_degrees[0]
    zero = ring.grading.group.zero()
    with pytest.raises(ValueError, match="negative exponent"):
        # a Laurent "factorization" x^-1 * x^4 = x^3
        make_factorization(ring, (-g,), (zero,), ((Polynomial.variable(1, 0, -1),),),
                           ((Polynomial.variable(1, 0, 4),),))
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial(2, {(1, -2): 3})
    assert Polynomial(2, {(1, -2): 0}).is_zero()


def test_polynomial_refuses_non_integer_exponents():
    # (1.5,) used to read as x
    with pytest.raises(ValueError, match="not an integer"):
        Polynomial(1, {(1.5,): 1})
    assert Polynomial(1, {(2.0,): 1}).terms == {(2,): 1}


def test_polynomial_coefficients_int_when_integral():
    p = Polynomial(1, {(0,): 3, (1,): Fraction(4, 2), (2,): Fraction(1, 2)})
    assert [type(p.terms[(e,)]) for e in range(3)] == [int, int, Fraction]
    assert {type(c) for c in (p * 2).terms.values()} == {int}
    half = Polynomial.monomial(1, (1,), Fraction(1, 2))
    assert (half + half).terms == {(1,): 1} and type((half + half).terms[(1,)]) is int
    a = Polynomial(2, {(1, 0): 2, (0, 1): -1})
    b = Polynomial(2, {(1, 0): Fraction(2), (0, 1): Fraction(-3, 3)})
    assert a == b and hash(a) == hash(b)
    assert a.terms == b.terms == {(1, 0): 2, (0, 1): -1}


def test_ring_refuses_zero_potential():
    spec = ring3().spec
    with pytest.raises(ValueError, match="nonzero"):
        RingWithPotential(spec, ("x",), Polynomial.zero(1))


def test_homogeneity_catches_torsion_only_mismatch():
    # over x^3 + y^3, deg x and deg y have the same integer degree and
    # differ by a torsion element
    rx, ry = one_variable_ring(3, "x"), one_variable_ring(3, "y")
    T = tensor_product(standard_objects(rx)[0], standard_objects(ry)[0])
    gx, gy = T.ring.spec.generator_degrees
    assert gx != gy and T.ring.spec.degree(gx) == T.ring.spec.degree(gy)
    zero = Polynomial.zero(2)

    def scalar(p):
        return [[p if i == j else zero for j in range(2)] for i in range(2)]

    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    factorization_map(T, T.twist(gx), scalar(x), scalar(x))
    with pytest.raises(ValueError, match="wrong degree"):
        factorization_map(T, T.twist(gx), scalar(y), scalar(y))
    # the potential check has the same strength: x^2 y has degree 3 too
    with pytest.raises(ValueError, match="not homogeneous"):
        RingWithPotential(T.ring.spec, T.ring.names, Polynomial(2, {(2, 1): 1}))


def _poly_product(A, B, nv):
    """A . B for matrices of Polynomials, by `Polynomial` `*` and `+` alone,
    so no product routine of `mfengine` is on the oracle's side."""
    cols = len(B[0]) if B else 0
    return [[sum((row[t] * B[t][j] for t in range(len(B))), Polynomial.zero(nv))
             for j in range(cols)] for row in A]


def _oracle_product_check(ring, phi0, phi_neg):
    """The product check of `make_factorization` as first written: both
    products as `Polynomial` matrices (`_poly_product`) against w times the
    identity.  The message of the first failure, or None."""
    nv, w = ring.nvars(), ring.potential
    for A, B, name in ((phi_neg, phi0, "phi_neg . phi0"),
                       (phi0, phi_neg, "phi0 . phi_neg")):
        for i, row in enumerate(_poly_product(A, B, nv)):
            for j, p in enumerate(row):
                if p != (w if i == j else Polynomial.zero(nv)):
                    return f"{name} is not w times the identity"
    return None


def _outcome(ring, twists_neg, twists_zero, phi0, phi_neg):
    """None when `make_factorization` accepts, else its message."""
    try:
        make_factorization(ring, twists_neg, twists_zero, phi0, phi_neg)
    except ValueError as exc:
        return str(exc)
    return None


_COEFFS = (1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(3, 2))


def _random_candidates(rng):
    """Homogeneous (ring, twists_neg, twists_zero, phi0, phi_neg) over one
    and two variables, rank 1 and rank 2, about half of them
    factorizations: rank 1 with random coefficients, and rank 2 objects
    (cones over x^d, products over x^a + y^b) conjugated by random
    diagonal scalars, one entry then rescaled or given an extra monomial
    of its degree in half of them."""
    out = []
    for d in (3, 4, 6):
        ring = one_variable_ring(d)
        gen, zero = ring.spec.generator_degrees[0], ring.grading.group.zero()
        for _ in range(12):
            i = rng.randint(1, d - 1)
            out.append((ring, (i * gen,), (zero,),
                        ((Polynomial.monomial(1, (i,), rng.choice(_COEFFS)),),),
                        ((Polynomial.monomial(1, (d - i,), rng.choice(_COEFFS)),),)))
    for a, b in ((2, 3), (3, 3)):
        R = tensor_ring(one_variable_ring(a, "x"), one_variable_ring(b, "y"))
        zero = R.grading.group.zero()
        for _ in range(12):
            c0, c1, c2 = (rng.choice(_COEFFS[:4]) for _ in range(3))
            if rng.random() < 0.5:
                c1 = c2 = 1 / Fraction(c0)
            out.append((R, (zero,), (zero,), ((Polynomial(2, {(0, 0): c0}),),),
                        ((Polynomial(2, {(a, 0): c1, (0, b): c2}),),)))
    rank2 = _monomial_cones(3)[::4] + _monomial_cones(4)[::9]
    rank2 += [tensor_product(E, F) for E, F in itertools.product(
        standard_objects(one_variable_ring(3, "x")),
        standard_objects(one_variable_ring(4, "y")))]
    for X in rank2:
        p, q = ([rng.choice(_COEFFS) for _ in range(2)] for _ in range(2))
        phi0 = [[X.phi0[i][j] * (Fraction(p[i]) / q[j]) for j in range(2)]
                for i in range(2)]
        phi_neg = [[X.phi_neg[j][i] * (Fraction(q[j]) / p[i]) for i in range(2)]
                   for j in range(2)]
        if rng.random() < 0.5:
            M = rng.choice((phi0, phi_neg))
            i, j = rng.randrange(2), rng.randrange(2)
            if M[i][j].is_zero():
                src, tgt = ((X.twists_neg, X.twists_zero) if M is phi0 else
                            (X.twists_zero, tuple(u - X.ring.spec.potential_degree
                                                  for u in X.twists_neg)))
                monos = X.ring.monomials_of(src[j] - tgt[i])
                if monos:
                    M[i][j] = Polynomial.monomial(X.ring.nvars(), rng.choice(monos))
            else:
                M[i][j] = M[i][j] * rng.choice(_COEFFS[1:])
        out.append((X.ring, X.twists_neg, X.twists_zero, phi0, phi_neg))
    return out


def test_factorization_check_matches_polynomial_oracle():
    rng = random.Random(24)
    seen = {"accepted": 0, "rejected": 0, "two": 0, "rank2": 0, "fraction": 0}
    for ring, t_neg, t_zero, phi0, phi_neg in _random_candidates(rng):
        expected = _oracle_product_check(ring, phi0, phi_neg)
        assert _outcome(ring, t_neg, t_zero, phi0, phi_neg) == expected
        seen["rejected" if expected else "accepted"] += 1
        seen["two"] += ring.nvars() == 2 and not expected
        seen["rank2"] += len(t_neg) == 2 and not expected
        seen["fraction"] += not expected and any(
            type(c) is Fraction for M in (phi0, phi_neg) for row in M
            for p in row for c in p.terms.values())
    assert all(n >= 3 for n in seen.values()), seen


def test_factorization_check_explicit_cases():
    ring = ring3()
    g = ring.spec.generator_degrees[0]
    zero = ring.grading.group.zero()
    x, x2 = Polynomial.variable(1, 0), Polynomial.variable(1, 0, 2)
    z = Polynomial.zero(1)
    # E_1 + E_1 with an extra x^2: phi_neg . phi0 has x^3 off the diagonal
    args = (ring, (g, g), (zero, zero), ((x, z), (z, x)), ((x2, x2), (z, x2)))
    assert _outcome(*args) == _oracle_product_check(*args[:1], *args[3:]) \
        == "phi_neg . phi0 is not w times the identity"
    # the Koszul blocks of a product: off-diagonal sums x y - y x cancel
    rx, ry = one_variable_ring(3, "x"), one_variable_ring(3, "y")
    T = tensor_product(standard_objects(rx)[0], standard_objects(ry)[1])
    cancelling = [sum(bool(T.phi_neg[i][t].terms and T.phi0[t][j].terms)
                      for t in range(2)) for i in range(2) for j in range(2) if i != j]
    assert max(cancelling) == 2
    assert _outcome(T.ring, T.twists_neg, T.twists_zero, T.phi0, T.phi_neg) is None
    # entries over the wrong number of variables, whether or not the
    # products would truncate their exponent tuples to the ring's
    x_2, x2_2 = Polynomial.variable(2, 0), Polynomial.variable(2, 0, 2)
    for phi0, phi_neg in (((x_2,),), ((x2,),)), (((x_2,),), ((x2_2,),)):
        assert _outcome(ring, (g,), (zero,), phi0, phi_neg) \
            == "exponent tuple of wrong length"
    # (x/2)(2x^{d-1}) = x^d with a Fraction factor
    for d in (2, 3, 7):
        ring = one_variable_ring(d)
        half = Polynomial.monomial(1, (1,), Fraction(1, 2))
        E = make_factorization(ring, (ring.spec.generator_degrees[0],),
                               (ring.grading.group.zero(),), ((half,),),
                               ((Polynomial.monomial(1, (d - 1,), 2),),))
        assert E.phi0[0][0].terms == {(1,): Fraction(1, 2)}


def test_random_matrices_mostly_rejected():
    rng = random.Random(2)
    ring = ring3()
    g = ring.spec.generator_degrees[0]
    zero = ring.grading.group.zero()
    accepted = 0
    for _ in range(40):
        i = rng.randint(1, 2)
        c1 = rng.randint(-2, 2)
        c2 = rng.randint(-2, 2)
        phi0 = ((Polynomial.monomial(1, (i,), c1),),)
        phin = ((Polynomial.monomial(1, (3 - i,), c2),),)
        try:
            make_factorization(ring, (i * g,), (zero,), phi0, phin)
            accepted += 1
            assert c1 * c2 == 1
        except ValueError:
            assert c1 * c2 != 1
    assert accepted >= 1


def test_standard_objects_d2():
    ring = one_variable_ring(2)
    (E1,) = standard_objects(ring)
    t = strand_cohomology(E1, E1)
    assert t.certification[0] == "certified"
    assert t.dim(0, 0) == 1
    assert t.total() == 1


def test_standard_objects_d3_cartan():
    ring = ring3()
    objs = standard_objects(ring)
    dims = [[strand_cohomology(a, b).dim(0, 0) for b in objs] for a in objs]
    assert dims == [[1, 0], [1, 1]]  # lower triangular; reversal gives A_2


def test_endo_algebra_check_battery():
    for d in (2, 3, 5):
        rep = endo_algebra_check(d)
        assert rep["matches"] and rep["certified"]
        assert rep["k_object_exceptional"]
        m = d - 1
        assert rep["h0"] == [[1 if i >= j else 0 for j in range(m)]
                             for i in range(m)]


def test_one_variable_ring_is_the_fermat_ring():
    for d in range(2, 8):
        for name in ("x", "t"):
            R, F = one_variable_ring(d, name), fermat_ring([d], (name,))
            assert R == F and R.names == F.names == (name,)
    # d >= 2 is checked by one_variable_ring, which endo_algebra_check calls
    for d in (0, 1):
        with pytest.raises(ValueError, match="at least 2"):
            one_variable_ring(d)
    with pytest.raises(ValueError, match="at least 2"):
        endo_algebra_check(1)


def _counting(monkeypatch, name):
    """Replace mfengine.<name> by a wrapper; return the list of its calls."""
    calls = []
    original = getattr(mfengine, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(mfengine, name, counting)
    return calls


def _in_image(ring, columns, src, tgt, i, mono, element) -> bool:
    """Oracle: whether mono . e_i = matrix . v for some v in a fixed
    homogeneous degree.

    `columns[j]` lists (row, exps, coeff) of column j of the matrix; `src`
    and `tgt` are the degree pairs of the source and target generators and
    `element` that of the sought module element, so v_j runs over
    monomials of element - src[j].  Coordinates are (target generator,
    monomial) pairs; each monomial of each v_j gives one sparse column.
    """
    key = ring._grading_key
    index = {}
    for r, t in enumerate(tgt):
        for e in mfengine._monomial_table(key, *mfengine._add_pairs(key[0], element, t, -1)):
            index[(r, e)] = len(index)
    cols = []
    for j, s in enumerate(src):
        for m in mfengine._monomial_table(key, *mfengine._add_pairs(key[0], element, s, -1)):
            col = {}
            for r, exps, c in columns[j]:
                k = index.get((r, tuple(a + b for a, b in zip(exps, m))))
                if k is None:
                    raise AssertionError("graded product left its component")
                col[k] = c
            cols.append(col)
    target = index.get((i, mono))
    if target is None:
        return False
    return len(cols) not in linalg.independent_rows(cols + [{target: 1}])


def _annihilator_powers(ring, matrix, src, tgt):
    """Oracle: the least power m_k of each variable x_k with x_k^m e_i in the
    image for every target generator, or None when some search up to a
    generous bound fails."""
    nv = ring.nvars()
    factors, gens = ring._grading_key
    dd = ring._potential_pair[1]
    columns = [[(r, e, c) for r, row in enumerate(matrix)
                for e, c in row[j].terms.items()] for j in range(len(src))]
    powers = []
    for k, a_k in enumerate(gens):
        bound = (2 * dd * max(1, len(tgt))) // a_k[1] + 2
        found = None
        for m in range(1, bound + 1):
            mono = tuple(m if v == k else 0 for v in range(nv))
            if all(_in_image(ring, columns, src, tgt, i, mono,
                             mfengine._add_pairs(factors, t, a_k, m))
                   for i, t in enumerate(tgt)):
                found = m
                break
        if found is None:
            return None
        powers.append(found)
    return powers


def _oracle_support(obj):
    """Cokernel support intervals from the searched powers, in the format of
    `mfengine._cokernel_support`, or None when a search fails."""
    ring = obj.ring
    neg, zero, shifted = obj.pairs
    out = []
    for matrix, src, tgt in ((obj.phi0, neg, zero), (obj.phi_neg, zero, shifted)):
        powers = _annihilator_powers(ring, matrix, src, tgt)
        if powers is None:
            return None
        out.append(None if not tgt else (
            min(t[1] for t in tgt),
            max(t[1] for t in tgt) + sum((m - 1) * a[1] for m, a in
                                         zip(powers, ring._grading_key[1]))))
    return tuple(out)


def test_cokernel_support_matches_search_on_standard_objects():
    for d in range(2, 9):
        ring = one_variable_ring(d)
        gen = ring.spec.generator_degrees[0]
        for E in standard_objects(ring):
            for w in range(-d, d + 1):
                Ew = E.twist(w * gen)
                assert mfengine._cokernel_support(Ew) == _oracle_support(Ew), (d, E, w)


def _monomial_cones(d):
    """Cones of x^t: E_i -> E_j(t) (closed when t >= max(0, j - i)) and of
    the zero map E_i -> E_j(-j), over x^d."""
    ring = one_variable_ring(d)
    gen = ring.spec.generator_degrees[0]
    objs = standard_objects(ring)
    zero = [[Polynomial.zero(1)]]
    out = []
    for i, E in enumerate(objs, 1):
        for j, F in enumerate(objs, 1):
            for t in range(max(0, j - i), d + 1):
                f_neg = [[Polynomial.variable(1, 0, i - j + t)]]
                f_zero = [[Polynomial.variable(1, 0, t)]]
                out.append(cone(factorization_map(E, F.twist(t * gen), f_neg, f_zero)))
            out.append(cone(factorization_map(E, F.twist(-j * gen), zero, zero)))
    return out


def test_cokernel_support_contains_search_on_cones():
    wider = 0
    for d in range(2, 6):
        for C in _monomial_cones(d):
            assert C.rank_pair == (2, 2)
            bound, searched = mfengine._cokernel_support(C), _oracle_support(C)
            for (lo, hi), (s_lo, s_hi) in zip(bound, searched):
                assert lo == s_lo and hi >= s_hi, C
                wider += hi > s_hi
    # the determinant power may exceed the least annihilating power
    assert wider
    # a certified range, wider or not, reads the same as a wider window
    for C in _monomial_cones(3)[::3]:
        for E, F in ((C, C), (standard_objects(C.ring)[0], C)):
            t = strand_cohomology(E, F)
            lo, hi = t.certification[1]
            wide = strand_cohomology(E, F, window=max(-lo, hi) + 1)
            assert all(dim == t.dim(eps, l) for (eps, l), dim in wide.entries.items())


def test_multi_variable_objects_are_not_certified():
    rx, ry = one_variable_ring(3, "x"), one_variable_ring(3, "y")
    T = tensor_product(standard_objects(rx)[0], standard_objects(ry)[0])
    for E in [T] + _xy_objects():
        # no power of a variable kills a cokernel of positive dimension
        assert _oracle_support(E) is None
        assert mfengine._cokernel_support(E) is None
        assert strand_cohomology(E, E, window=1).certification == ("windowed", 1)


def test_certified_range_needs_no_linear_algebra(monkeypatch):
    objs = standard_objects(one_variable_ring(4)) + _monomial_cones(3)[:4]
    for name in ("rank", "independent_rows"):
        monkeypatch.setattr(linalg, name, lambda *args: pytest.fail("linear algebra"))
    for E in objs:
        for F in objs:
            lo, hi = mfengine._certified_range(E, F)
            assert lo < hi


def test_strand_routes_build_no_strand_bases(monkeypatch):
    # neither route calls the per-strand oracle's helpers or `linalg.rank`
    for name in ("_hom_basis", "_differential_matrix", "_per_strand_ranks"):
        monkeypatch.setattr(sys.modules[__name__], name,
                            lambda *args, name=name: pytest.fail(name))
    monkeypatch.setattr(linalg, "rank", lambda *args: pytest.fail("rank"))
    rows = []
    pivot_columns = linalg.pivot_columns
    monkeypatch.setattr(linalg, "pivot_columns",
                        lambda A: rows.append(len(A)) or pivot_columns(A))
    # a certified one-variable table comes from one elimination per parity
    # and reads no monomial table and no shift table
    objs = standard_objects(one_variable_ring(4)) + _monomial_cones(3)[:4]
    rings = list({id(E.ring): E.ring for E in objs}.values())
    assert len(rings) == 2
    for E in objs:
        assert strand_cohomology(E, E).certification[0] == "certified"
    assert rows == []
    assert all(not ring._tables and not ring._shifts for ring in rings)
    # a two-variable battery and its folded image: each strand after the
    # first leaves out one row per rank of the strand before it
    _, objects, psi = _orbit_battery(3, 3)
    pairs = [(E, F) for objs in (objects, mfengine._restrict_all(objects, psi))
             for E in objs for F in objs]
    for E, F in pairs:
        assert strand_cohomology(E, F, window=2).certification == ("windowed", 2)
    monkeypatch.undo()
    full = skipped = 0
    for E, F in pairs:
        sizes, ranks = _per_strand_ranks(E, F, -4, 5)
        full += sum(sizes.values())
        skipped += sum(ranks[n] for n in range(-5, 5))
    assert len(rows) == 11 * len(pairs)
    assert skipped and sum(rows) == full - skipped


def test_endo_algebra_check_builds_objects_once(monkeypatch):
    built = _counting(monkeypatch, "standard_objects")
    tables = _counting(monkeypatch, "strand_cohomology")
    rep = endo_algebra_check(4)
    assert rep["k_object_exceptional"]
    # one build of E_1..E_3 and their 3 x 3 tables; k(0) = E_3 reuses its own
    assert len(built) == 1
    assert len(tables) == 9


def test_orbit_check_regrades_each_object_once(monkeypatch):
    regraded = _counting(monkeypatch, "_restrict_all")
    built = _counting(monkeypatch, "standard_objects")
    factor_tables = _counting(monkeypatch, "_factor_table")
    rep = cli.orbit_report(WeightSequence([3, 3]), 1)
    # the 4 objects E_i (x) E_j of x^3 + y^3, each regraded once, all in
    # one call and so into one ring, from one list of standard objects per
    # variable
    assert [len(objects) for objects, _ in regraded] == [4]
    assert len(built) == 2
    # one table per (E factor, F factor, lift mod 3): the factors of x^3 and
    # y^3 are equal up to the variable's name, so 2 x 2 factor pairs and the
    # 3 residues of the lifts of Gamma = Z/3
    assert len(factor_tables) == 2 * 2 * 3
    assert [p["pair"] for p in rep["pairs"]] == [[i, j] for i in range(4)
                                                 for j in range(4)]
    assert rep["ok"]


def _series_of(table):
    """Oracle: {n: dim H^n} over the nonzero strands of a table, n = 2l + eps."""
    return {2 * l + eps: dim for (eps, l), dim in table.entries.items() if dim}


def test_factor_tables_by_value_match_unmemoized(monkeypatch):
    unmemoized = mfengine._factor_table
    tables = _counting(monkeypatch, "_factor_table")
    for a, b in ((2, 2), (3, 3), (4, 6)):
        rx, ry = one_variable_ring(a, "x"), one_variable_ring(b, "y")
        objs = [(u, v) for u in standard_objects(rx) for v in standard_objects(ry)]
        A = abgroup.boxminus(rx.grading, ry.grading)
        g = math.gcd(a, b)
        psi = OrbitSpec(A, [A.group.element([a // g, -(b // g)])])
        # the lifts of Gamma and their translates by the relation (a, -b),
        # so some coordinates reach past one period of the potential
        lifts = {tuple(x + k * y for x, y in zip(e.coordinates, (a, -b)))
                 for e in psi.kernel for k in (-1, 0, 1)}
        orbit = mfengine._orbit_sums()
        del tables[:]
        residues = set()
        for E, F in itertools.product(objs, repeat=2):
            for w in lifts:
                for Ek, Fk, wk, m in zip(E, F, w, (a, b)):
                    twisted = Fk.twist(wk * Fk.ring.spec.generator_degrees[0])
                    assert (orbit((Ek,), (Fk,), [(wk,)])
                            == _series_of(unmemoized(Ek, twisted))), (a, b, w)
                    residues.add((Ek, Fk, wk % m))
        # one elimination per (E factor, F factor, residue), whatever the
        # period shift of the lift
        assert len(tables) == len(residues)


def test_factors_of_x_and_y_are_one_value(monkeypatch):
    # E_i over x^m and over y^m differ only in the variable's name: they are
    # equal, hash equal, and one battery enumerates their table once
    tables = _counting(monkeypatch, "_factor_table")
    for m in (2, 4):
        xs = standard_objects(one_variable_ring(m, "x"))
        ys = standard_objects(one_variable_ring(m, "y"))
        for i, (Ex, Ey) in enumerate(zip(xs, ys)):
            assert Ex == Ey and hash(Ex) == hash(Ey)
            assert all(Ex != other for other in ys[:i] + ys[i + 1:])
        orbit = mfengine._orbit_sums()
        del tables[:]
        # w and w + k m read the one entry of residue w mod m, moved by -2k
        base = orbit((xs[-1],), (xs[0],), [(1,)])
        assert base
        for k in (-1, 0, 1):
            assert (orbit((ys[-1],), (ys[0],), [(1 + k * m,)])
                    == {n - 2 * k: dim for n, dim in base.items()})
        assert len(tables) == 1


def test_rings_are_equal_exactly_when_grading_and_potential_agree():
    R = fermat_ring([3, 3], names=("x", "y"))
    spec, w = R.spec, R.potential
    renamed = RingWithPotential(spec, ("u", "v"), w)
    assert R == renamed and hash(R) == hash(renamed)
    assert R != "not a ring"
    # same grading, another potential
    other_w = w + Polynomial.monomial(2, (3, 0), 1)
    assert RingWithPotential(spec, ("x", "y"), other_w) != R
    # same potential, another grading: the quotient by Gamma = <(1, -1)>
    A = R.grading
    psi = OrbitSpec(A, [A.group.element([1, -1])])
    quotient = GradedRingSpec(abgroup.PointedAbelianGroup(psi.quotient, psi.apply(A.marked)),
                              tuple(psi.apply(a) for a in spec.generator_degrees))
    assert RingWithPotential(quotient, ("x", "y"), w) != R
    # and the same again when built from the weights a second time, over
    # another but equal group object
    again = fermat_ring([3, 3])
    assert again.grading.group is not R.grading.group
    assert again == R and hash(again) == hash(R)
    assert fermat_ring([3, 4]) != R


def test_factorizations_are_hashable_values():
    ring = one_variable_ring(4)
    objs = standard_objects(ring)
    zero = ring.grading.group.zero()
    g = ring.spec.generator_degrees[0]
    for E in objs:
        assert E.twist(zero) == E and hash(E.twist(zero)) == hash(E)
        assert E.twist(g) != E
    rebuilt = standard_objects(one_variable_ring(4, "t"))
    assert len(set(objs) | set(rebuilt) | {E.twist(zero) for E in objs}) == len(objs)
    assert {E: i for i, E in enumerate(objs)}[rebuilt[1]] == 1


def test_strand_cohomology_needs_no_reduce_element(monkeypatch):
    ring = one_variable_ring(5)
    objs = standard_objects(ring)
    E, F = objs[1], objs[2].twist(ring.spec.generator_degrees[0])
    calls = []
    original = abgroup.reduce_element

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(abgroup, "reduce_element", counting)
    monkeypatch.setattr(mfengine, "reduce_element", counting)
    table = strand_cohomology(E, F)
    assert table.dim(0, 0) == 1 and table.total() == 1
    # cokernel supports, windows and hom bases work on degree pairs, so no
    # group element is built from raw coordinates here
    assert calls == []
    # with the degree pairs kept on the objects by the first call, the
    # strand kernel, certification included, does no group arithmetic
    ops = []
    for name in ("__add__", "__sub__", "__mul__", "__rmul__"):
        op = getattr(abgroup.GroupElement, name)
        monkeypatch.setattr(abgroup.GroupElement, name,
                            lambda a, b, op=op, name=name: ops.append(name) or op(a, b))
    assert strand_cohomology(E, F).entries == table.entries
    assert ops == []


def _xy_objects():
    """(x, y) factorizing w = xy over Z + Z/2, deg x = (1, 1), deg y = (1, 0),
    and three twists: the potential degree (2, 1) has a nonzero torsion residue."""
    G = abgroup.group_from_relations(2, abgroup.IntMatrix.from_rows([[0, 2]]))
    gx, gy = G.element([1, 1]), G.element([1, 0])
    spec = GradedRingSpec(abgroup.PointedAbelianGroup(G, gx + gy), (gx, gy))
    ring = RingWithPotential(spec, ("x", "y"), Polynomial(2, {(1, 1): 1}))
    E = make_factorization(ring, (gx,), (G.zero(),), ((Polynomial.variable(2, 0),),),
                           ((Polynomial.variable(2, 1),),))
    return [E, E.twist(gx), E.twist(4 * gy), E.twist(-3 * gx)]


def test_hom_basis_matches_group_element_listing():
    cases = []
    for a, b in ((3, 3), (2, 4)):
        rx, ry = one_variable_ring(a, "x"), one_variable_ring(b, "y")
        objs = [tensor_product(u, v) for u in standard_objects(rx)
                for v in standard_objects(ry)]
        cases.append(objs + [objs[-1].twist(objs[0].ring.spec.generator_degrees[0])])
    cases.append(_xy_objects())
    for objs in cases:
        ring = objs[0].ring
        for E in objs:
            for F in objs:
                blocks = _hom_blocks(E, F)
                for n in range(-4, 5):
                    # the blocks of Hom^n(E, F) with F twisted by l*d
                    want = [(comp, i, j, exps)
                            for comp, (src, tgt) in enumerate(_hom_components(E, F, n))
                            for i in range(len(tgt)) for j in range(len(src))
                            for exps in ring.monomials_of(src[j] - tgt[i])]
                    assert _hom_basis(ring, blocks, n) == want, (E, F, n)


def test_monomial_table_matches_brute_force():
    # the last exponent is solved, not searched; a plain enumeration of all
    # exponent tuples up to a degree, on seeded gradings with and without
    # torsion and one to three variables, must give the same tables in the
    # same (lexicographic) order
    rng = random.Random(5)
    top = 9
    for _ in range(40):
        factors = rng.choice(((), (2,), (3,), (2, 2), (2, 4), (3, 6)))
        gens = tuple((tuple(rng.randrange(t) for t in factors), rng.randint(1, 4))
                     for _ in range(rng.randint(1, 3)))
        want = {}
        for e in itertools.product(*(range(top // deg + 1) for _, deg in gens)):
            res = tuple(sum(k * r[i] for k, (r, _) in zip(e, gens)) % t
                        for i, t in enumerate(factors))
            deg = sum(k * a for k, (_, a) in zip(e, gens))
            want.setdefault((res, deg), []).append(e)
        for degree in range(-2, top + 1):
            for residues in itertools.product(*map(range, factors)):
                got = mfengine._monomial_table((factors, gens), residues, degree)
                assert got == tuple(want.get((residues, degree), ())), \
                    (factors, gens, residues, degree)


def test_monomial_tables_shared_between_equal_rings(monkeypatch):
    # one orbit battery regrades every object into one ring, so each
    # (residues, degree) table of the restricted side is enumerated once;
    # the tables live on their ring, so another battery enumerates afresh
    enumerated = []
    inner = mfengine._monomial_table

    def counting(*args):
        enumerated.append(args)
        return inner(*args)

    monkeypatch.setattr(mfengine, "_monomial_table", counting)
    assert cli.orbit_report(WeightSequence([3, 3]), 1)["ok"]
    # the restricted ring has two variables, the factor rings one
    restricted = [args for args in enumerated if len(args[0][1]) == 2]
    assert restricted and len(set(restricted)) == len(restricted)

    # restrict_grading stores nothing: not on psi, and each call builds its
    # own ring, equal to the other's
    rx, ry = one_variable_ring(3, "x"), one_variable_ring(3, "y")
    T = tensor_product(standard_objects(rx)[0], standard_objects(ry)[1])
    A = T.ring.grading
    psi = OrbitSpec(A, [A.group.element([1, -1])])

    def state():
        # the objects and their contents, so a memo filled in place shows
        return {name: (value, repr(value)) for name, value in vars(psi).items()}

    before = state()
    R1, R2 = restrict_grading(T, psi), restrict_grading(T.twist(A.marked), psi)
    assert state() == before
    assert R1.ring == R2.ring


def test_k_object_exceptional_all_twists():
    for d in (2, 4, 7):
        ring = one_variable_ring(d)
        gen = ring.spec.generator_degrees[0]
        for a in (-2, 0, 3):
            k = k_object(ring, a * gen)
            t = strand_cohomology(k, k)
            assert t.certification[0] == "certified"
            assert t.dim(0, 0) == 1 and t.total() == 1


def test_translate_identities():
    ring = ring3()
    E1, E2 = standard_objects(ring)
    d = ring.spec.potential_degree
    assert translate(E1, 0) == E1
    # the shift negates phi_neg into the new phi0 slot
    assert translate(E1, 1).phi0 == tuple(tuple(-p for p in row)
                                          for row in E1.phi_neg)
    assert translate(translate(E1, 1), -1) == E1
    # E[2] coincides with E(d) on the nose for this sign convention
    assert translate(E1, 2) == E1.twist(d)
    tw = strand_cohomology(translate(E1, 2), E2, window=2)
    td = strand_cohomology(E1.twist(d), E2, window=2)
    assert tw.entries == td.entries

    def iterated(E, shift):
        # E[-1] is E[1](-d), the inverse of one shift
        for _ in range(abs(shift)):
            E = E.shift_once() if shift > 0 else E.shift_once().twist(-d)
        return E

    g = ring.grading.group.generator(0)
    for E in (E1, E2):
        for shift in range(-5, 6):
            assert translate(E, shift) == iterated(E, shift), shift
            assert translate(E, shift, g) == iterated(E, shift).twist(g), shift
            assert translate(translate(E, shift), -shift) == E, shift


def test_two_periodicity():
    ring = ring3()
    E1, E2 = standard_objects(ring)
    d = ring.spec.potential_degree
    tA = strand_cohomology(E1, E2, window=3).entries
    tB = strand_cohomology(E1, E2.twist(d), window=3).entries
    for (eps, l), dim in tB.items():
        if (eps, l + 1) in tA:
            assert tA[(eps, l + 1)] == dim


def test_cone_of_identity_vanishes():
    ring = ring3()
    E1, _ = standard_objects(ring)
    one = Polynomial(1, {(0,): 1})
    c = cone(factorization_map(E1, E1, ((one,),), ((one,),)))
    assert strand_cohomology(c, c, window=3).total() == 0
    assert strand_cohomology(E1, c, window=3).total() == 0


def test_cone_of_zero_is_sum():
    ring = ring3()
    E1, E2 = standard_objects(ring)
    z = ((Polynomial.zero(1),),)
    c = cone(factorization_map(E1, E2, z, z))
    for probe in (E1, E2):
        ta = strand_cohomology(probe, c, window=3).entries
        tb = strand_cohomology(probe, translate(E1, 1), window=3).entries
        tc = strand_cohomology(probe, E2, window=3).entries
        assert ta == {k: tb[k] + tc[k] for k in ta}


def test_cone_of_multiplication_by_x():
    # x: E1 -> E1(1) is null-homotopic for d = 3, so the cone splits
    ring = ring3()
    E1, E2 = standard_objects(ring)
    g = ring.spec.generator_degrees[0]
    x = Polynomial.variable(1, 0, 1)
    c = cone(factorization_map(E1, E1.twist(g), ((x,),), ((x,),)))
    for probe in (E1, E2):
        ta = strand_cohomology(probe, c, window=3).entries
        tb = strand_cohomology(probe, translate(E1, 1), window=3).entries
        tc = strand_cohomology(probe, E1.twist(g), window=3).entries
        assert ta == {k: tb[k] + tc[k] for k in ta}


def test_cone_rejects_non_closed():
    ring = ring3()
    E1, E2 = standard_objects(ring)
    one = Polynomial(1, {(0,): 1})
    with pytest.raises(ValueError):
        factorization_map(E1, E2, ((one,),), ((one,),))


def test_factorization_map_checks_shapes():
    ring = ring3()
    E1, E2 = standard_objects(ring)
    one, z = Polynomial(1, {(0,): 1}), Polynomial.zero(1)
    # too few rows used to raise IndexError in the homogeneity check
    with pytest.raises(ValueError, match="f_neg has the wrong shape"):
        factorization_map(E1, E1, [], [])
    with pytest.raises(ValueError, match="f_zero has the wrong shape"):
        factorization_map(E1, E1, ((one,),), [])
    # an extra column used to be read as a map that does not commute
    for f_neg, f_zero, name in ((((one, z),), ((one,),), "f_neg"),
                                (((one,),), ((one, z),), "f_zero")):
        with pytest.raises(ValueError, match=f"{name} has the wrong shape"):
            factorization_map(E1, E1, f_neg, f_zero)
    # the shape comes before the degree: a wrong degree in a wrong shape
    with pytest.raises(ValueError, match="f_neg has the wrong shape"):
        factorization_map(E1, E2, ((one, one),), ((one,),))
    assert factorization_map(E1, E1, ((one,),), ((one,),)).is_closed()


def test_factorization_map_checks_itself():
    # built directly, not through `factorization_map`, a map is checked the
    # same way, so `cone` can take any map as closed
    ring = ring3()
    E1, E2 = standard_objects(ring)
    one, z = Polynomial(1, {(0,): 1}), Polynomial.zero(1)
    with pytest.raises(ValueError, match="f_neg has the wrong shape"):
        FactorizationMap(E1, E1, (), ((one,),))
    with pytest.raises(ValueError, match="f_zero has the wrong shape"):
        FactorizationMap(E1, E1, ((one,),), ((one, z),))
    # homogeneous of degree zero, but f_0 phi0 = 0 while phi0 f_{-1} = phi0
    with pytest.raises(ValueError, match="does not commute"):
        FactorizationMap(E1, E1, ((one,),), ((z,),))
    E4 = standard_objects(one_variable_ring(4))[0]
    with pytest.raises(ValueError, match="different rings"):
        FactorizationMap(E1, E4, ((one,),), ((one,),))
    f = FactorizationMap(E1, E1, ((one,),), ((one,),))
    assert f == factorization_map(E1, E1, [[one]], [[one]])


def test_certified_tables_stable_under_widening():
    ring = one_variable_ring(4)
    objs = standard_objects(ring)
    for E in objs:
        for F in objs:
            t = strand_cohomology(E, F)
            assert t.certification[0] == "certified"
            lo, hi = t.certification[1]
            wide = strand_cohomology(E, F, window=hi - lo + 4)
            for (eps, l), dim in wide.entries.items():
                assert dim == t.dim(eps, l)


def test_tensor_product_is_valid_factorization():
    rx = one_variable_ring(3, "x")
    ry = one_variable_ring(3, "y")
    Ex = standard_objects(rx)
    Ey = standard_objects(ry)
    T = tensor_product(Ex[0], Ey[1])
    assert T.rank_pair == (2, 2)
    assert T.ring.potential.terms == {(3, 0): 1, (0, 3): 1}
    # mixed potentials work too
    T2 = tensor_product(standard_objects(one_variable_ring(2, "u"))[0], Ex[0])
    assert T2.ring.grading.group.free_rank == 1


def test_restrict_grading_diagonal():
    rx = one_variable_ring(3, "x")
    ry = one_variable_ring(3, "y")
    T = tensor_product(standard_objects(rx)[0], standard_objects(ry)[0])
    A = T.ring.grading
    psi = OrbitSpec(A, [A.group.element([1, -1])])
    assert psi.order() == 3
    R = restrict_grading(T, psi)
    assert R.ring.grading.group.free_rank == 1
    assert R.ring.grading.group.invariant_factors == ()
    # identity quotient leaves everything untouched
    trivial = OrbitSpec(A, [])
    assert trivial.order() == 1
    R0 = restrict_grading(T, trivial)
    assert [u.canonical for u in R0.twists_neg] == \
        [psi_e.canonical for psi_e in
         [trivial.apply(u) for u in T.twists_neg]]


def test_regrading_keeps_maps_and_checks_their_degrees():
    rx, ry = one_variable_ring(3, "x"), one_variable_ring(3, "y")
    objects = [tensor_product(u, v) for u in standard_objects(rx)
               for v in standard_objects(ry)]
    A = objects[0].ring.grading
    psi = OrbitSpec(A, [A.group.element([1, -1])])
    for X, R in zip(objects, mfengine._restrict_all(objects, psi)):
        assert R.phi0 is X.phi0 and R.phi_neg is X.phi_neg
    # an entry of phi0 moved to another integer degree, in an object built
    # without validation, stays of the wrong degree in the quotient grading
    T = objects[0]
    x2 = Polynomial.variable(2, 0, 2)
    phi0 = ((x2,) + T.phi0[0][1:],) + T.phi0[1:]
    bad = Factorization(T.ring, T.twists_neg, T.twists_zero, phi0, T.phi_neg,
                        _validated=True)
    with pytest.raises(ValueError, match=r"phi0\[0\]\[0\] has an entry of the wrong degree"):
        mfengine._restrict_all(objects + [bad], psi)
    with pytest.raises(ValueError, match="wrong degree"):
        restrict_grading(bad, psi)


def test_tensor_ring_kept_per_second_ring_and_names():
    rx = one_variable_ring(3, "x")
    ry, rz = one_variable_ring(3, "y"), one_variable_ring(3, "z")
    assert ry == rz
    E, Fy, Fz = (standard_objects(r)[0] for r in (rx, ry, rz))
    Txy, Txz = tensor_product(E, Fy), tensor_product(E, Fz)
    assert Txy.ring.names == ("x", "y") and Txz.ring.names == ("x", "z")
    assert Txy.ring == Txz.ring and Txy == Txz
    # one ring per (second ring, names), whichever objects are multiplied
    assert tensor_product(standard_objects(rx)[1], Fy).ring is Txy.ring
    assert tensor_ring(rx, rz) is Txz.ring
    assert tensor_ring(rx, one_variable_ring(4, "y")) != Txy.ring


def test_restriction_commutes_with_twist():
    rx = one_variable_ring(3, "x")
    ry = one_variable_ring(3, "y")
    T = tensor_product(standard_objects(rx)[0], standard_objects(ry)[1])
    A = T.ring.grading
    psi = OrbitSpec(A, [A.group.element([1, -1])])
    a = A.group.element([2, 1])
    lhs = restrict_grading(T.twist(a), psi)
    rhs = restrict_grading(T, psi).twist(psi.apply(a))
    assert lhs == rhs


def test_kept_object_data_matches_fresh_objects():
    # T's degree pairs are fixed when it is built; each object derived from
    # it must carry its own, equal to those of the same object built fresh,
    # and leave T's alone
    rx, ry = one_variable_ring(3, "x"), one_variable_ring(3, "y")
    T = tensor_product(standard_objects(rx)[0], standard_objects(ry)[0])
    ring = T.ring
    A = ring.grading
    g = ring.spec.generator_degrees[0]
    d = ring.spec.potential_degree
    psi = OrbitSpec(A, [A.group.element([1, -1])])
    pairs = T.pairs
    table = strand_cohomology(T, T, window=2)
    quotient = RingWithPotential(
        GradedRingSpec(abgroup.PointedAbelianGroup(psi.quotient, psi.apply(A.marked)),
                       tuple(psi.apply(a) for a in ring.spec.generator_degrees)),
        ring.names, ring.potential)

    def neg(M):
        return [[-p for p in row] for row in M]

    cases = [
        (T.twist(g), T,
         make_factorization(ring, [u - g for u in T.twists_neg],
                            [u - g for u in T.twists_zero], T.phi0, T.phi_neg)),
        (T.shift_once(), T,
         make_factorization(ring, T.twists_zero, [u - d for u in T.twists_neg],
                            neg(T.phi_neg), neg(T.phi0))),
        (restrict_grading(T, psi), restrict_grading(T.twist(g), psi),
         make_factorization(quotient, [psi.apply(u) for u in T.twists_neg],
                            [psi.apply(u) for u in T.twists_zero], T.phi0, T.phi_neg)),
    ]
    for derived, partner, fresh in cases:
        assert derived == fresh
        assert derived.pairs == fresh.pairs
        for X, Y in ((derived, partner), (partner, derived), (derived, derived)):
            Xf = fresh if X is derived else X
            Yf = fresh if Y is derived else Y
            assert (strand_cohomology(X, Y, window=2)
                    == strand_cohomology(Xf, Yf, window=2)), (X, Y)
        assert default_window(derived, partner) == default_window(fresh, partner)
    assert T.pairs == pairs
    assert strand_cohomology(T, T, window=2) == table
    assert cases[0][0].pairs != pairs


def test_restrict_grading_refuses_a_torsion_potential_degree():
    # a finite Gamma keeps the potential degree free, so OrbitSpec cannot
    # build this quotient, which kills it; the regraded ring's pointed
    # group refuses it
    rx, ry = one_variable_ring(3, "x"), one_variable_ring(3, "y")
    T = tensor_product(standard_objects(rx)[0], standard_objects(ry)[0])
    A = T.ring.grading
    rows = A.group.relations.to_rows() + [list(A.marked.coordinates)]
    Q = abgroup.group_from_relations(A.group.num_generators,
                                     abgroup.IntMatrix.from_rows(rows))
    psi = types.SimpleNamespace(
        source=A, quotient=Q,
        apply=lambda e: abgroup.reduce_element(Q, e.coordinates))
    with pytest.raises(ValueError, match="marked element is torsion"):
        restrict_grading(T, psi)


def _torsion_generators(A):
    G = A.group
    t = len(G.invariant_factors)
    return [G.from_canonical([int(i == k) for i in range(t)], [0])
            for k in range(t)]


def test_orbit_spec_reads_its_order_from_the_smith_forms(monkeypatch):
    calls = []
    reduce = abgroup.reduce_element

    def counting(*args):
        calls.append(args)
        return reduce(*args)

    # |Gamma| = 101^2 > 10 000 is refused before any element is formed
    big = abgroup.weight_group([101, 101, 101])
    gens = _torsion_generators(big)
    monkeypatch.setattr(abgroup, "reduce_element", counting)
    monkeypatch.setattr(mfengine, "reduce_element", counting)
    with pytest.raises(ValueError, match="kernel is unreasonably large"):
        OrbitSpec(big, gens)
    assert calls == []
    # the cap is inclusive: 100^2 elements are enumerated and counted
    edge = abgroup.weight_group([100, 100, 100])
    assert OrbitSpec(edge, _torsion_generators(edge)).order() == 10000
    assert calls


def test_orbit_spec_checks_its_enumeration(monkeypatch):
    rx, ry = one_variable_ring(3, "x"), one_variable_ring(6, "y")
    A = tensor_ring(rx, ry).grading
    assert OrbitSpec(A, _torsion_generators(A)).order() == 3
    enumerate_kernel = OrbitSpec._enumerate_kernel
    monkeypatch.setattr(OrbitSpec, "_enumerate_kernel",
                        lambda self: enumerate_kernel(self)[1:])
    with pytest.raises(AssertionError, match="found 2 elements, the Smith forms 3"):
        OrbitSpec(A, _torsion_generators(A))


def test_orbit_spec_rejects_infinite_kernel():
    rx = one_variable_ring(3, "x")
    ry = one_variable_ring(3, "y")
    T = tensor_product(standard_objects(rx)[0], standard_objects(ry)[0])
    A = T.ring.grading
    with pytest.raises(ValueError):
        OrbitSpec(A, [A.group.element([1, 0])])


def test_orbit_hom_check_trivial_gamma():
    ring = ring3()
    E1, E2 = standard_objects(ring)
    psi = OrbitSpec(ring.grading, [])
    reps = orbit_hom_check([(E1,), (E2,)], psi, window=2)
    assert psi.order() == 1
    assert all(rep["ok"] for rep in reps)


def test_orbit_hom_check_refuses_mixed_rings():
    # the restricted side regrades every product into one ring, so products
    # over different rings are refused, not regraded into the first's ring
    E3, E4 = standard_objects(ring3())[0], standard_objects(one_variable_ring(4))[0]
    psi = OrbitSpec(ring3().grading, [])
    with pytest.raises(ValueError, match="different rings"):
        orbit_hom_check([(E3,), (E4,)], psi, window=1)


def test_negative_window_is_refused():
    # a window [-L, L] with L < 0 holds no strand: the identity check would
    # compare nothing and answer ok
    ring = ring3()
    E1, E2 = standard_objects(ring)
    with pytest.raises(ValueError, match="window"):
        strand_cohomology(E1, E2, window=-1)
    psi = OrbitSpec(ring.grading, [])
    with pytest.raises(ValueError, match="window"):
        orbit_hom_check([(E1,), (E2,)], psi, window=-1)


def test_given_window_is_windowed():
    # no window: certified over one variable; a given window: that window
    E1, E2 = standard_objects(ring3())
    assert strand_cohomology(E1, E2).certification[0] == "certified"
    table = strand_cohomology(E1, E2, window=1)
    assert table.certification == ("windowed", 1)
    assert sorted(table.entries) == [(eps, l) for eps in (0, 1) for l in (-1, 0, 1)]


def test_orbit_hom_check_z3():
    rx = one_variable_ring(3, "x")
    ry = one_variable_ring(3, "y")
    Ex = standard_objects(rx)
    Ey = standard_objects(ry)
    A = tensor_ring(rx, ry).grading
    psi = OrbitSpec(A, [A.group.element([1, -1])])
    for rep in orbit_hom_check([(Ex[0], Ey[0]), (Ex[1], Ey[1])], psi, window=3):
        assert rep["ok"], rep["mismatches"]


def _twisted_factors(factors, g):
    """F_1, ..., F_m twisted by the lift g.coordinates of g, factor by factor."""
    return [F.twist(w * F.ring.spec.generator_degrees[0])
            for F, w in zip(factors, g.coordinates)]


def _orbit_battery(a, b):
    """Factor pairs E_i, E_j of x^a + y^b, their tensor objects, and Gamma."""
    rx, ry = one_variable_ring(a, "x"), one_variable_ring(b, "y")
    ys = standard_objects(ry)
    factors = [(u, v) for u in standard_objects(rx) for v in ys]
    A = tensor_ring(rx, ry).grading
    g = math.gcd(a, b)
    psi = OrbitSpec(A, [A.group.element([a // g, -(b // g)])])
    return factors, [tensor_product(*f) for f in factors], psi


def _agrees(table, oracle):
    """Every strand of the windowed oracle reads the same in `table`."""
    return all(table.dim(*key) == dim for key, dim in oracle.entries.items())


def test_kunneth_table_matches_windowed_oracle():
    for a, b in ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4), (3, 5), (4, 6)):
        factors, objects, psi = _orbit_battery(a, b)
        for E, TE in zip(factors, objects):
            for F, TF in zip(factors, objects):
                for g in psi.kernel:
                    table = kunneth_table(E, _twisted_factors(F, g))
                    assert table.certification[0] == "certified"
                    TFg = TF.twist(g)
                    for window in (0, 1, 2):
                        oracle = strand_cohomology(TE, TFg, window=window)
                        assert _agrees(table, oracle), (a, b, E, F, g, window)


def test_orbit_sum_matches_kunneth_oracle():
    # the orbit sum of every pair, strand by strand over windows 0 to 2,
    # against the sum over the lifts of Gamma of `kunneth_table` (no memo)
    # of E and F twisted factor by factor; the lifts are also translated by
    # the relation (a, -b), which moves factors by whole periods
    for a, b in ((2, 2), (3, 3), (2, 5), (4, 6)):
        factors, _, psi = _orbit_battery(a, b)
        orbit = mfengine._orbit_sums()
        for k in (-1, 0, 1):
            lifts = [tuple(x + k * y for x, y in zip(g.coordinates, (a, -b)))
                     for g in psi.kernel]
            for E, F in itertools.product(factors, repeat=2):
                series = orbit(E, F, lifts)
                oracle = [kunneth_table(E, [
                    Fk.twist(wk * Fk.ring.spec.generator_degrees[0])
                    for Fk, wk in zip(F, w)]) for w in lifts]
                for window in (0, 1, 2):
                    for l in range(-window, window + 1):
                        for eps in (0, 1):
                            assert (series.get(2 * l + eps, 0)
                                    == sum(t.dim(eps, l) for t in oracle)), \
                                (a, b, k, E, F, window, eps, l)


def test_kunneth_table_vanishes_past_certified_range():
    outside = 0
    for a, b in ((2, 4), (3, 3)):
        factors, objects, psi = _orbit_battery(a, b)
        g = psi.kernel[-1]
        assert not g.is_zero()
        for E, TE in list(zip(factors, objects))[::2]:
            F, TF = factors[-1], objects[-1]
            table = kunneth_table(E, _twisted_factors(F, g))
            l_lo, l_hi = table.certification[1]
            window = max(-l_lo, l_hi) + 1
            oracle = strand_cohomology(TE, TF.twist(g), window=window)
            beyond = [key for key in oracle.entries
                      if not l_lo <= key[1] <= l_hi]
            assert beyond and all(oracle.entries[key] == 0 for key in beyond)
            assert _agrees(table, oracle)
            outside += len(beyond)
    assert outside


def test_kunneth_table_three_factors():
    rings = [one_variable_ring(3, name) for name in "xyz"]
    objs = [standard_objects(r) for r in rings]
    A = tensor_ring(tensor_ring(rings[0], rings[1]), rings[2]).grading
    lifts = itertools.cycle(([1, -1, 0], [2, 0, -1], [1, 1, -2], [-1, 2, 1],
                             [0, 0, 3]))
    indices = list(itertools.product((0, 1), repeat=3))
    for (ie, jf), coords in zip(itertools.product(indices, indices), lifts):
        E = [objs[k][i] for k, i in enumerate(ie)]
        F = [objs[k][j] for k, j in enumerate(jf)]
        g = A.group.element(coords)
        table = kunneth_table(E, _twisted_factors(F, g))
        TE = functools.reduce(tensor_product, E)
        TF = functools.reduce(tensor_product, F)
        oracle = strand_cohomology(TE, TF.twist(g), window=1)
        assert _agrees(table, oracle), (ie, jf, coords)


def test_kunneth_table_of_one_factor_is_its_table():
    ring = one_variable_ring(4)
    objs = standard_objects(ring)
    gen = ring.spec.generator_degrees[0]
    for E in objs:
        for F in objs:
            for w in (-3, 0, 5):
                assert (kunneth_table([E], [F.twist(w * gen)])
                        == strand_cohomology(E, F.twist(w * gen)))


def test_kunneth_table_rejects_bad_factors():
    rx, ry = one_variable_ring(2, "x"), one_variable_ring(3, "y")
    E, F = standard_objects(rx)[0], standard_objects(ry)[0]
    with pytest.raises(ValueError):
        kunneth_table([E], [E, E])
    with pytest.raises(ValueError):
        kunneth_table([], [])
    with pytest.raises(ValueError):
        kunneth_table([E], [F])
    T = tensor_product(E, F)
    with pytest.raises(ValueError):
        kunneth_table([T], [T])


def test_windowed_factor_table_is_an_invariant_breach(monkeypatch, capsys):
    monkeypatch.setattr(mfengine, "_certified_range", lambda E, F: None)
    E = standard_objects(ring3())[0]
    with pytest.raises(AssertionError):
        kunneth_table([E], [E])
    assert cli.main(["orbit", "--weights", "2,2", "--window", "0"]) == 3


def test_orbit_left_side_twist_invariance():
    rx = one_variable_ring(3, "x")
    ry = one_variable_ring(3, "y")
    T = tensor_product(standard_objects(rx)[0], standard_objects(ry)[0])
    A = T.ring.grading
    gamma = A.group.element([1, -1])
    psi = OrbitSpec(A, [gamma])
    base = strand_cohomology(restrict_grading(T, psi),
                             restrict_grading(T, psi), window=3)
    twisted = strand_cohomology(restrict_grading(T, psi),
                                restrict_grading(T.twist(gamma), psi),
                                window=3)
    assert base.entries == twisted.entries


def test_default_window_positive():
    ring = ring3()
    E1, E2 = standard_objects(ring)
    assert default_window(E1, E2) >= 2


def _coords_to_matrices(E, F, n, basis, coords):
    """Oracle: the pair (g_neg, g_zero) of polynomial matrices of a vector."""
    nv = E.ring.nvars()
    mats = [[[Polynomial.zero(nv) for _ in src] for _ in tgt]
            for src, tgt in _hom_components(E, F, n)]
    for (comp, i, j, exps), c in zip(basis, coords):
        mats[comp][i][j] = mats[comp][i][j] + Polynomial.monomial(nv, exps, c)
    return mats


def _oracle_differential(E, F, n, g_neg, g_zero):
    """g -> g . phi^E - (-1)^n phi^F . g by polynomial matrix products."""
    nv = E.ring.nvars()
    fa, fb = (F.phi0, F.phi_neg) if n % 2 == 0 else (F.phi_neg, F.phi0)
    sign = 1 if n % 2 else -1

    def combine(right, left):
        return [[a + sign * b for a, b in zip(ra, rb)]
                for ra, rb in zip(right, left)]

    return (combine(_poly_product(g_zero, E.phi0, nv), _poly_product(fa, g_neg, nv)),
            combine(_poly_product(g_neg, E.phi_neg, nv), _poly_product(fb, g_zero, nv)))


def _matrices_to_coords(mats, basis):
    index = {key: pos for pos, key in enumerate(basis)}
    coords = [Fraction(0)] * len(basis)
    for comp, m in enumerate(mats):
        for i, row in enumerate(m):
            for j, p in enumerate(row):
                for exps, c in p.terms.items():
                    coords[index[(comp, i, j, exps)]] = c
    return coords


def _oracle_pairs():
    """Pairs (E, F) for the differential oracle, with the ring each lives on."""
    rx = one_variable_ring(3, "x")
    ry = one_variable_ring(3, "y")
    T = tensor_product(standard_objects(rx)[0], standard_objects(ry)[1])
    g = T.ring.spec.generator_degrees[0]
    x = Polynomial.variable(2, 0, 1)
    ident = [[x if i == j else Polynomial.zero(2) for j in range(2)]
             for i in range(2)]
    C = cone(factorization_map(T, T.twist(g), ident, ident))
    # a non-integral coefficient: (2x, x^2/2) factors x^3
    H = make_factorization(rx, (rx.spec.generator_degrees[0],),
                           (rx.grading.group.zero(),),
                           ((Polynomial.monomial(1, (1,), 2),),),
                           ((Polynomial.monomial(1, (2,), Fraction(1, 2)),),))
    TH = tensor_product(H, standard_objects(ry)[0])
    # unequal weights: x^2 + y^4, the ring of `orbit --weights 2,4`
    U = tensor_product(standard_objects(one_variable_ring(2, "x"))[0],
                       standard_objects(one_variable_ring(4, "y"))[1])
    V = tensor_product(standard_objects(one_variable_ring(2, "x"))[0],
                       standard_objects(one_variable_ring(4, "y"))[2])
    V = V.twist(V.ring.spec.generator_degrees[1])
    return ((T, C), (C, T), (C, C), (TH, C), (T, TH), (TH, TH), (U, V), (V, U))


def _dense(columns, rows):
    """The matrix whose column k is the {row: coeff} dict columns[k]."""
    return [[col.get(r, 0) for col in columns] for r in range(rows)]


def test_differential_matrix_matches_polynomial_oracle():
    from test_linalg import matmul

    rng = random.Random(7)
    fractional = 0
    for E, F in _oracle_pairs():
        blocks = _hom_blocks(E, F)
        bases = {n: _hom_basis(E.ring, blocks, n) for n in range(-3, 5)}
        cols = {n: _differential_matrix(E, F, n, bases[n], bases[n + 1])
                for n in range(-3, 4)}
        D = {n: _dense(cols[n], len(bases[n + 1])) for n in cols}
        for n in range(-3, 3):
            if D[n] and D[n + 1]:
                assert not any(any(row) for row in matmul(D[n + 1], D[n]))
            v = [Fraction(rng.randint(-3, 3)) for _ in bases[n]]
            got = [sum(a * b for a, b in zip(row, v)) for row in D[n]]
            mats = _coords_to_matrices(E, F, n, bases[n], v)
            want = _matrices_to_coords(
                _oracle_differential(E, F, n, *mats), bases[n + 1])
            assert got == want, (E, F, n)
            # the sparse columns give the rank of the dense matrix
            assert linalg.rank(cols[n]) == linalg.rank(D[n])
            fractional += any(type(c) is Fraction
                              for col in cols[n] for c in col.values())
    assert fractional
    # a target basis missing an image is refused, not silently truncated
    with pytest.raises(AssertionError, match="left the graded window"):
        _differential_matrix(E, F, 2, bases[2], bases[3][1:])


# ---------------------------------------------------------------------------
# the per-strand route, the oracle of both routes of `strand_cohomology`:
# each strand gets its own monomial basis, its differential as sparse
# columns, and their exact rank


def _hom_blocks(E, F):
    """The blocks (component, row, col, degree) of Hom^0(E, F) and Hom^1(E, F).

    An entry of a block maps generator `col` of the source module to
    generator `row` of the target and has the given degree, a pair from
    `_degree_pair`.  Since Hom^{n+2}(E, F) = Hom^n(E, F(d)), Hom^{2l+eps}
    has the blocks of Hom^eps with l*d added to every degree.
    """
    factors = E.ring._grading_key[0]
    (e_neg, e_zero, _), (f_neg, f_zero, f_shifted) = E.pairs, F.pairs
    hom0 = ((e_neg, f_neg), (e_zero, f_zero))
    hom1 = ((e_neg, f_zero), (e_zero, f_shifted))
    return tuple([(comp, i, j, mfengine._add_pairs(factors, s, t, -1))
                  for comp, (src, tgt) in enumerate(components)
                  for i, t in enumerate(tgt) for j, s in enumerate(src)]
                 for components in (hom0, hom1))


def _hom_basis(ring, blocks, n):
    """Monomial basis of Hom^n(E, F): entries (component, row, col, exps),
    with `blocks` = `_hom_blocks(E, F)` shifted by l*d for n = 2l + eps."""
    l, eps = divmod(n, 2)
    factors, d = ring._grading_key[0], ring._potential_pair
    return [(comp, i, j, exps) for comp, i, j, pair in blocks[eps]
            for exps in ring._tables[mfengine._add_pairs(factors, pair, d, l)]]


def _differential_matrix(E, F, n, basis_n, basis_np1):
    """Columns of the strand differential Hom^n(E, F) -> Hom^{n+1}(E, F),
    g -> g . phi^E - (-1)^n phi^F . g, one {row: coeff} dict per element of
    `basis_n`, rows indexed by `basis_np1` (the transpose, of equal rank).
    Right multiplication by the E map moves a block to the other component,
    left multiplication by the F map keeps it.  The E map of component
    comp is phi_neg for comp 0 and phi0 for comp 1; the F map is phi0 for
    n + comp even and phi_neg for odd."""
    right, left = (E.phi_neg, E.phi0), (F.phi0, F.phi_neg)
    index = {key: pos for pos, key in enumerate(basis_np1)}
    sign = 1 if n % 2 else -1
    cols = []
    for comp, i, j, m in basis_n:
        col = {}
        for jj, p in enumerate(right[comp][j]):
            for e, c in p.terms.items():
                col[index.get((1 - comp, i, jj, tuple(map(add, m, e))))] = c
        for ii, row in enumerate(left[(n + comp) % 2]):
            for e, c in row[i].terms.items():
                col[index.get((comp, ii, j, tuple(map(add, m, e))))] = sign * c
        if None in col:
            raise AssertionError("differential left the graded window")
        cols.append(col)
    return cols


def _per_strand_ranks(E, F, n_lo, n_hi):
    """(sizes, ranks) as the routes of `strand_cohomology` return them,
    strand by strand from `_hom_basis`, `_differential_matrix` and
    `linalg.rank`."""
    blocks = _hom_blocks(E, F)
    bases = {n: _hom_basis(E.ring, blocks, n) for n in range(n_lo - 1, n_hi + 2)}
    ranks = {}
    for n in range(n_lo - 1, n_hi + 1):
        D = _differential_matrix(E, F, n, bases[n], bases[n + 1])
        ranks[n] = linalg.rank(D) if D else 0
    return {n: len(bases[n]) for n in ranks}, ranks


def _one_variable_cases():
    """(E, F) pairs over one variable for the per-strand oracle: standard
    objects of x^2 ... x^10 against twists by -d..d, shifted or not (a
    seeded sample of at most 150 per d), the rank-2 cones of x^3 and x^4,
    objects with `Fraction` coefficients, and a ring graded by Z + Z/2,
    where blocks of the wrong residue hold no monomial."""
    rng = random.Random(21)
    cases = []
    for d in range(2, 11):
        ring = one_variable_ring(d)
        gen = ring.spec.generator_degrees[0]
        objs = standard_objects(ring)
        picks = list(itertools.product(objs, objs, range(-d, d + 1), (0, 1)))
        for E, F, w, shift in rng.sample(picks, min(150, len(picks))):
            F = F.twist(w * gen)
            cases.append((E, F.shift_once() if shift else F))
    for d, step in ((3, 1), (4, 3)):
        cones = _monomial_cones(d)
        objs = standard_objects(cones[0].ring)
        cases += [(E, F) for E in cones[::step]
                  for F in cones[::2 * step + 1] + objs]
    ring = one_variable_ring(5)
    gen = ring.spec.generator_degrees[0]
    H = make_factorization(ring, (2 * gen,), (ring.grading.group.zero(),),
                           ((Polynomial.monomial(1, (2,), Fraction(2, 3)),),),
                           ((Polynomial.monomial(1, (3,), Fraction(3, 2)),),))
    x = Polynomial.variable(1, 0)
    C = cone(factorization_map(H, H.twist(gen), [[Fraction(1, 3) * x]],
                               [[Fraction(1, 3) * x]]))
    fractional = [H, H.shift_once(), H.twist(-3 * gen), C] + standard_objects(ring)
    cases += itertools.product(fractional, repeat=2)
    G = abgroup.group_from_relations(2, abgroup.IntMatrix.from_rows([[0, 2]]))
    gx, tors = G.element([1, 1]), G.element([0, 1])
    spec = GradedRingSpec(abgroup.PointedAbelianGroup(G, 2 * gx), (gx,))
    ring = RingWithPotential(spec, ("x",), Polynomial(1, {(2,): 1}))
    E = make_factorization(ring, (gx,), (G.zero(),), ((x,),), ((x,),))
    objs = [E.twist(k * gx + t * tors) for k in (-2, 0, 1) for t in (0, 1)]
    cases += itertools.product(objs + [X.shift_once() for X in objs], repeat=2)
    return cases


def _fractional(E):
    """Whether a structure map of E has a `Fraction` coefficient."""
    return any(type(c) is Fraction for M in (E.phi0, E.phi_neg) for row in M
               for p in row for c in p.terms.values())


def test_one_variable_ranks_match_per_strand_route():
    # the multi-variable route serves any ring, so it is checked here too
    kinds = {"fractional": 0, "zero": 0, "rank2": 0}
    for E, F in _one_variable_cases():
        got = mfengine._one_variable_ranks(E, F, -24, 25)
        assert got == _per_strand_ranks(E, F, -24, 25), (E, F)
        assert got == mfengine._multi_variable_ranks(E, F, -24, 25), (E, F)
        kinds["fractional"] += _fractional(E)
        kinds["zero"] += not any(got[0].values())
        kinds["rank2"] += E.rank_pair == (2, 2)
    # the torsion ring gives tables with no basis at all
    assert all(kinds.values()), kinds


def _product_cases():
    """(E, F, L) for the route oracle: a seeded sample of pairs of products
    of standard objects of x^a + y^b, the second twisted by a combination
    of the generator degrees and shifted or not, at windows L = 0..4, and
    the same of their folded images under the orbit map; the pairs of
    `_oracle_pairs` (cones, a `Fraction` coefficient, unequal weights) at
    window 2; and a seeded sample of pairs of products of standard objects
    of x^4 + y^4 + z^4 at windows 2 and 4."""
    rng = random.Random(22)
    cases = []
    for a, b in ((2, 3), (3, 3), (2, 5), (3, 4), (4, 6), (5, 5)):
        _, objects, psi = _orbit_battery(a, b)
        for objs in (objects, mfengine._restrict_all(objects, psi)):
            ring = objs[0].ring
            for _ in range(27):
                g = sum((rng.randint(-3, 3) * x for x in ring.spec.generator_degrees),
                        ring.grading.group.zero())
                F = rng.choice(objs).twist(g)
                cases.append((rng.choice(objs), F.shift_once() if rng.random() < 0.5
                              else F, rng.randint(0, 4)))
    cases += [(E, F, 2) for E, F in _oracle_pairs()]
    rings = [one_variable_ring(4, name) for name in "xyz"]
    products = [functools.reduce(tensor_product, factors) for factors in
                itertools.product(*map(standard_objects, rings))]
    return cases + [(rng.choice(products), rng.choice(products), L)
                    for L in (2, 4) for _ in range(3)]


def test_multi_variable_ranks_match_per_strand_route():
    kinds = {"folded": 0, "torsion": 0, "fractional": 0, "three": 0}
    for E, F, L in _product_cases():
        got = mfengine._multi_variable_ranks(E, F, -2 * L, 2 * L + 1)
        assert got == _per_strand_ranks(E, F, -2 * L, 2 * L + 1), (E, F, L)
        factors = E.ring._grading_key[0]
        kinds["folded"] += not factors
        kinds["torsion"] += bool(factors)
        kinds["fractional"] += _fractional(E)
        kinds["three"] += E.ring.nvars() == 3 and any(got[1].values())
    assert all(kinds.values()), kinds


def _composite_terms(maps, eps):
    """The differential applied twice to each block of parity eps, from the
    terms of `_block_layout`: {(target block, exps): coefficient} per block."""
    out = []
    for _, terms in maps[eps]:
        acc = {}
        for t, e, c in terms:
            for t2, e2, c2 in maps[1 - eps][t][1]:
                key = t2, tuple(map(add, e, e2))
                acc[key] = acc.get(key, 0) + c * c2
        out.append(acc)
    return out


def test_block_maps_square_to_zero():
    # the premise of the multi-variable route: d o d = 0 block by block
    pairs = [(E, F) for E, F, _ in _product_cases()]
    pairs += _one_variable_cases()[::5]
    paths = 0
    for E, F in pairs:
        maps = mfengine._block_layout(E, F)
        for eps in (0, 1):
            for acc in _composite_terms(maps, eps):
                assert not any(acc.values()), (E, F, eps)
                paths += len(acc)
    assert paths
    # a sign flipped on one left term breaks it
    E, F = _oracle_pairs()[0]
    maps = mfengine._block_layout(E, F)
    (t, e, c), *rest = maps[0][0][1][::-1]
    maps[0][0] = (maps[0][0][0], rest + [(t, e, -c)])
    assert any(any(acc.values()) for acc in _composite_terms(maps, 0))


def test_missing_target_monomial_survives_optimize_flag(run_optimized):
    # the first strand is eliminated in full, so every monomial of its
    # blocks is moved; one removed from its target table is refused
    proc = run_optimized("""
        from singlab import mfengine as mf
        rx, ry = mf.one_variable_ring(3, "x"), mf.one_variable_ring(3, "y")
        T = mf.tensor_product(mf.standard_objects(rx)[0], mf.standard_objects(ry)[1])
        maps = mf._block_layout(T, T)
        tables = T.ring._tables
        pair, terms = next(block for block in maps[0] if tables[block[0]] and block[1])
        t, e, _ = terms[0]
        target = maps[1][t][0]
        moved = tuple(a + b for a, b in zip(tables[pair][0], e))
        tables[target] = tuple(m for m in tables[target] if m != moved)
        try:
            mf._multi_variable_ranks(T, T, 1, 1)
        except AssertionError as exc:
            print(exc)
        else:
            sys.exit(5)
    """)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["differential left the graded window"]


def test_windowed_one_variable_tables_match_per_strand_route(monkeypatch):
    # windows reach negative l, also where a certified range lies elsewhere
    ring = one_variable_ring(6)
    gen = ring.spec.generator_degrees[0]
    objs = standard_objects(ring)[::2] + _monomial_cones(3)[::6]
    objs += [E.twist(w * gen) for E in objs for w in (-9, 7)]
    pairs = [(E, F) for E in objs for F in objs if E.ring == F.ring]
    fast = {(E, F, L): strand_cohomology(E, F, window=L)
            for E, F in pairs for L in (0, 2, 5)}
    monkeypatch.setattr(mfengine, "_one_variable_ranks", _per_strand_ranks)
    for (E, F, L), table in fast.items():
        assert table == strand_cohomology(E, F, window=L), (E, F, L)
    assert any(table.total() for table in fast.values())


def test_cli_output_unchanged_on_per_strand_route(monkeypatch, capsys):
    argvs = (["mf", "--max-d", "10"], ["verify", "orbit"])
    fast = []
    for argv in argvs:
        fast.append((cli.main(argv), capsys.readouterr().out))
    for route in ("_one_variable_ranks", "_multi_variable_ranks"):
        monkeypatch.setattr(mfengine, route, _per_strand_ranks)
    for argv, (code, out) in zip(argvs, fast):
        assert code == 0 and out
        assert cli.main(argv) == code
        assert capsys.readouterr().out == out, argv


def test_invariant_checks_survive_optimize_flag(run_optimized):
    # an elimination that finds no independent column leaves every strand
    # its whole basis, one that keeps every column over-counts the ranks
    proc = run_optimized("""
        from singlab import mfengine
        E, F = mfengine.standard_objects(mfengine.one_variable_ring(4))[0:2]
        for broken in (lambda A: [], lambda A: list(range(len(A)))):
            mfengine.linalg.independent_rows = broken
            try:
                mfengine.strand_cohomology(E, F)
            except AssertionError as exc:
                print(exc)
            else:
                sys.exit(5)
    """)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "nonzero strand at the certified boundary",
        "negative strand dimension at n=1"]


def test_degree_checks_survive_optimize_flag(run_optimized):
    proc = run_optimized("""
        from singlab import mfengine as mf
        rx, ry = mf.one_variable_ring(3, "x"), mf.one_variable_ring(3, "y")
        T = mf.tensor_product(mf.standard_objects(rx)[0], mf.standard_objects(ry)[0])
        gx = T.ring.spec.generator_degrees[0]
        y, z = mf.Polynomial.variable(2, 1), mf.Polynomial.zero(2)
        y_id = [[y, z], [z, y]]
        for attempt in (
                lambda: mf.factorization_map(T, T.twist(gx), y_id, y_id),
                lambda: mf.RingWithPotential(T.ring.spec, T.ring.names,
                                             mf.Polynomial(2, {(2, 1): 1})),
                lambda: mf.Polynomial(1, {(-1,): 1})):
            try:
                attempt()
            except ValueError as exc:
                print(exc)
            else:
                sys.exit(5)
    """)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "f_neg[0][0] has an entry of the wrong degree",
        "potential is not homogeneous of the marked degree",
        "negative exponent in a polynomial"]
