import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import singlab
from singlab import linalg
from singlab.mfengine import (_differential_matrix, _hom_basis,
                              _hom_components, _matmul_poly)
from singlab.mfengine import (Factorization, OrbitSpec, Polynomial, cone,
                              default_window, endo_algebra_check,
                              factorization_map, fermat_ring, k_object,
                              make_factorization, one_variable_ring,
                              orbit_hom_check, restrict_grading,
                              standard_objects, strand_cohomology,
                              tensor_product, translate, zero_factorization)


def ring3():
    return one_variable_ring(3)


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
    t = strand_cohomology(E, E, window=2, certify=False)
    assert t.total() == 0


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
    tw = strand_cohomology(translate(E1, 2), E2, window=2, certify=False)
    td = strand_cohomology(E1.twist(d), E2, window=2, certify=False)
    assert tw.entries == td.entries


def test_two_periodicity():
    ring = ring3()
    E1, E2 = standard_objects(ring)
    d = ring.spec.potential_degree
    tA = strand_cohomology(E1, E2, window=3, certify=False).entries
    tB = strand_cohomology(E1, E2.twist(d), window=3, certify=False).entries
    for (eps, l), dim in tB.items():
        if (eps, l + 1) in tA:
            assert tA[(eps, l + 1)] == dim


def test_cone_of_identity_vanishes():
    ring = ring3()
    E1, _ = standard_objects(ring)
    one = Polynomial(1, {(0,): 1})
    c = cone(factorization_map(E1, E1, ((one,),), ((one,),)))
    assert strand_cohomology(c, c, window=3, certify=False).total() == 0
    assert strand_cohomology(E1, c, window=3, certify=False).total() == 0


def test_cone_of_zero_is_sum():
    ring = ring3()
    E1, E2 = standard_objects(ring)
    z = ((Polynomial.zero(1),),)
    c = cone(factorization_map(E1, E2, z, z))
    for probe in (E1, E2):
        ta = strand_cohomology(probe, c, window=3, certify=False).entries
        tb = strand_cohomology(probe, translate(E1, 1), window=3,
                               certify=False).entries
        tc = strand_cohomology(probe, E2, window=3, certify=False).entries
        assert ta == {k: tb[k] + tc[k] for k in ta}


def test_cone_of_multiplication_by_x():
    # x: E1 -> E1(1) is null-homotopic for d = 3, so the cone splits
    ring = ring3()
    E1, E2 = standard_objects(ring)
    g = ring.spec.generator_degrees[0]
    x = Polynomial.variable(1, 0, 1)
    c = cone(factorization_map(E1, E1.twist(g), ((x,),), ((x,),)))
    for probe in (E1, E2):
        ta = strand_cohomology(probe, c, window=3, certify=False).entries
        tb = strand_cohomology(probe, translate(E1, 1), window=3,
                               certify=False).entries
        tc = strand_cohomology(probe, E1.twist(g), window=3,
                               certify=False).entries
        assert ta == {k: tb[k] + tc[k] for k in ta}


def test_cone_rejects_non_closed():
    ring = ring3()
    E1, E2 = standard_objects(ring)
    one = Polynomial(1, {(0,): 1})
    with pytest.raises(ValueError):
        factorization_map(E1, E2, ((one,),), ((one,),))


def test_certified_tables_stable_under_widening():
    ring = one_variable_ring(4)
    objs = standard_objects(ring)
    for E in objs:
        for F in objs:
            t = strand_cohomology(E, F)
            assert t.certification[0] == "certified"
            lo, hi = t.certification[1]
            wide = strand_cohomology(E, F, window=hi - lo + 4, certify=False)
            for (eps, l), dim in wide.entries.items():
                assert dim == t.dim(eps, l)


def test_tensor_product_is_valid_factorization():
    rx = one_variable_ring(3, "x")
    ry = one_variable_ring(3, "y")
    Ex = standard_objects(rx)
    Ey = standard_objects(ry)
    T = tensor_product(Ex[0], Ey[1])
    assert T.rank_pair == (2, 2)
    assert T.ring.potential.render(T.ring.names) in ("x^3 + y^3", "y^3 + x^3")
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
    assert [u.canonical for u in R0.e_neg.twists] == \
        [psi_e.canonical for psi_e in
         [trivial.apply(u) for u in T.e_neg.twists]]


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
    rep = orbit_hom_check(E1, E2, psi, window=2)
    assert rep["ok"] and rep["gamma_order"] == 1


def test_orbit_hom_check_z3():
    rx = one_variable_ring(3, "x")
    ry = one_variable_ring(3, "y")
    Ex = standard_objects(rx)
    Ey = standard_objects(ry)
    T11 = tensor_product(Ex[0], Ey[0])
    T22 = tensor_product(Ex[1], Ey[1])
    A = T11.ring.grading
    psi = OrbitSpec(A, [A.group.element([1, -1])])
    for E, F in ((T11, T11), (T11, T22)):
        rep = orbit_hom_check(E, F, psi, window=3)
        assert rep["ok"], rep["mismatches"]


def test_orbit_left_side_twist_invariance():
    rx = one_variable_ring(3, "x")
    ry = one_variable_ring(3, "y")
    T = tensor_product(standard_objects(rx)[0], standard_objects(ry)[0])
    A = T.ring.grading
    gamma = A.group.element([1, -1])
    psi = OrbitSpec(A, [gamma])
    base = strand_cohomology(restrict_grading(T, psi),
                             restrict_grading(T, psi), window=3, certify=False)
    twisted = strand_cohomology(restrict_grading(T, psi),
                                restrict_grading(T.twist(gamma), psi),
                                window=3, certify=False)
    assert base.entries == twisted.entries


def test_default_window_positive():
    ring = ring3()
    E1, E2 = standard_objects(ring)
    assert default_window(E1, E2) >= 2


def _coords_to_matrices(E, F, n, basis, coords):
    """Oracle: the pair (g_neg, g_zero) of polynomial matrices of a vector."""
    nv = E.ring.nvars()
    mats = [[[Polynomial.zero(nv) for _ in range(src.rank)]
             for _ in range(tgt.rank)] for src, tgt in _hom_components(E, F, n)]
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

    return (combine(_matmul_poly(g_zero, E.phi0, nv), _matmul_poly(fa, g_neg, nv)),
            combine(_matmul_poly(g_neg, E.phi_neg, nv), _matmul_poly(fb, g_zero, nv)))


def _matrices_to_coords(mats, basis):
    index = {key: pos for pos, key in enumerate(basis)}
    coords = [Fraction(0)] * len(basis)
    for comp, m in enumerate(mats):
        for i, row in enumerate(m):
            for j, p in enumerate(row):
                for exps, c in p.terms.items():
                    coords[index[(comp, i, j, exps)]] = c
    return coords


def test_differential_matrix_matches_polynomial_oracle():
    rx = one_variable_ring(3, "x")
    ry = one_variable_ring(3, "y")
    T = tensor_product(standard_objects(rx)[0], standard_objects(ry)[1])
    g = T.ring.spec.generator_degrees[0]
    x = Polynomial.variable(2, 0, 1)
    ident = [[x if i == j else Polynomial.zero(2) for j in range(2)]
             for i in range(2)]
    C = cone(factorization_map(T, T.twist(g), ident, ident))
    rng = random.Random(7)
    for E, F in ((T, C), (C, T), (C, C)):
        bases = {n: _hom_basis(E, F, n) for n in range(-3, 5)}
        D = {n: _differential_matrix(E, F, n, bases[n], bases[n + 1])
             for n in range(-3, 4)}
        for n in range(-3, 3):
            if D[n] and D[n + 1]:
                assert not any(any(row) for row in linalg.matmul(D[n + 1], D[n]))
            v = [Fraction(rng.randint(-3, 3)) for _ in bases[n]]
            got = ([sum(a * b for a, b in zip(row, v)) for row in D[n]]
                   if D[n] else [0] * len(bases[n + 1]))
            mats = _coords_to_matrices(E, F, n, bases[n], v)
            want = _matrices_to_coords(
                _oracle_differential(E, F, n, *mats), bases[n + 1])
            assert got == want, (E, F, n)


def test_invariant_checks_survive_optimize_flag():
    script = textwrap.dedent("""
        import sys
        from singlab import mfengine
        if __debug__:
            sys.exit(4)
        mfengine.linalg.rank = lambda A: 0
        E, F = mfengine.standard_objects(mfengine.one_variable_ring(4))[0:2]
        try:
            mfengine.strand_cohomology(E, F)
        except AssertionError as exc:
            print(exc)
            sys.exit(0)
        sys.exit(5)
    """)
    src = str(Path(singlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "nonzero strand at the certified boundary" in proc.stdout
