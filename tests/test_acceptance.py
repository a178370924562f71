"""Acceptance battery: one test per criterion, all exact, stated budgets.

Each test prints a single PASS line on success (visible with -s or -rA);
the assertions carry zero numerical tolerance throughout.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from singlab import cli
from singlab.abgroup import weight_group
from singlab.decompose import (ADEType, brute_force_min_parts, min_partition,
                               rouquier_verdict)
from singlab.mfengine import (OrbitSpec, endo_algebra_check, one_variable_ring,
                              orbit_hom_check, standard_objects, tensor_ring)
from singlab.quiverlab import (DerivedMorphism, DerivedObject, GhostCertificate,
                               ade_quiver, cartan_matrix, coxeter_polynomial,
                               ext_rep, ghost_lower_bound, projective_rep,
                               simple_rep, tensor_cartan)
from singlab.weightcalc import (GradedRingSpec, WeightSequence,
                                complement_count, exceptional_count,
                                gorenstein_parameter, knoerrer_double,
                                mu_values, spec_from_weights)

W = WeightSequence


def test_criterion_1_fermat_k3_verdict():
    t0 = time.monotonic()
    verdict = rouquier_verdict(W([3, 3, 3, 3, 3, 3, 4, 4, 4, 4]))
    q_cert, h_cert = verdict.witnesses
    assert h_cert.size == 5
    assert q_cert.size == 3
    assert verdict.lower == verdict.upper == verdict.exact == 4
    assert verdict.conjecture_holds is True
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1: PASS - product of two elliptic curves and a K3 "
          f"has h=5, q=3, exact dimension 4 ({elapsed:.2f}s)")


def test_criterion_2_torsion_formula_exhaustive():
    t0 = time.monotonic()
    count = 0
    for k in range(1, 6):  # n <= 4
        for combo in itertools.combinations_with_replacement(range(1, 7), k):
            B = weight_group(combo)
            assert B.group.torsion_order() == \
                math.prod(combo) // math.lcm(*combo), combo
            count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 2: PASS - SNF torsion equals prod/lcm on {count} "
          f"weight groups ({elapsed:.2f}s)")


def test_criterion_3_exceptional_count_battery():
    count = 0
    for k in range(1, 5):  # n <= 3
        for combo in itertools.combinations_with_replacement(range(1, 7), k):
            d = W(combo)
            mu_bar, mu, _ = mu_values(d)
            tors = weight_group(combo).group.torsion_order()
            assert exceptional_count(d) == \
                math.prod(x - 1 for x in combo) + mu * tors, combo
            count += 1
    for combo in itertools.combinations_with_replacement(range(1, 7), 3):
        d = W(combo)
        if mu_values(d)[1] > 0:
            assert exceptional_count(d) == sum(x - 1 for x in combo) + 2, combo
    assert exceptional_count(W([2, 3, 5])) == 9
    assert exceptional_count(W([3, 3])) == 1
    assert complement_count(W([3, 3])) == 3
    print(f"\nACCEPTANCE 3: PASS - exceptional-object counts agree on {count} "
          f"sequences, Dynkin vertex counts and spot values included")


def test_criterion_4_coxeter_identifications():
    t0 = time.monotonic()
    CA = {m: cartan_matrix(ade_quiver(ADEType("A", m))) for m in (2, 3, 4)}
    cox_d4 = coxeter_polynomial(cartan_matrix(ade_quiver(ADEType("D", 4))))
    assert cox_d4 == [1, 1, 0, 1, 1]  # x^4 + x^3 + x + 1
    assert coxeter_polynomial(tensor_cartan(CA[2], CA[2])) == cox_d4
    assert coxeter_polynomial(tensor_cartan(CA[2], CA[3])) == \
        coxeter_polynomial(cartan_matrix(ade_quiver(ADEType("E", 6))))
    assert coxeter_polynomial(tensor_cartan(CA[2], CA[4])) == \
        coxeter_polynomial(cartan_matrix(ade_quiver(ADEType("E", 8))))
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"criterion 4 took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 4: PASS - Coxeter polynomials witness the D4/E6/E8 "
          f"tensor identifications ({elapsed:.3f}s)")


def test_criterion_5_endomorphism_battery():
    t0 = time.monotonic()
    for d in range(2, 9):
        # raises unless every table is certified, the Cartan matrix
        # matches, every other strand vanishes and k(0) is exceptional
        h0, cartan = endo_algebra_check(d)
        assert [row[::-1] for row in h0[::-1]] == cartan, d
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 5 took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 5: PASS - standard-object hom dimensions reproduce "
          f"the A_(d-1) Cartan matrices for d=2..8 ({elapsed:.2f}s)")


def test_criterion_6_orbit_identity_battery():
    t0 = time.monotonic()
    rx = one_variable_ring(3, "x")
    ry = one_variable_ring(3, "y")
    ys = standard_objects(ry)
    objs = [(a, b) for a in standard_objects(rx) for b in ys]
    A = tensor_ring(rx, ry).grading
    psi = OrbitSpec(A, [A.group.element([1, -1])])
    assert psi.order() == 3
    pairs = 0
    for pair, mismatches in orbit_hom_check(objs, psi, window=6):
        assert not mismatches, (pair, mismatches)
        pairs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 2.0, f"criterion 6 took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 6: PASS - restriction/orbit-sum identity holds for "
          f"all {pairs} standard pairs of x^3+y^3 at window 6 ({elapsed:.2f}s)")


def test_criterion_7_ghost_certificates():
    Q = ade_quiver(ADEType("A", 2))
    S1, S2 = simple_rep(Q, 1), simple_rep(Q, 2)
    P1, P2 = projective_rep(Q, 1), projective_rep(Q, 2)
    G = DerivedObject(((P1, 0), (P2, 0)))
    X = DerivedObject(((S2, 0),))
    Y = DerivedObject(((S1, 1),))
    _, classes = ext_rep(S2, S1)
    good = DerivedMorphism(X, Y, {(0, 0): ("ext", classes[0])})
    assert ghost_lower_bound(GhostCertificate(G, (good,))) == 1
    with pytest.raises(ValueError):
        ghost_lower_bound(GhostCertificate(G, (DerivedMorphism(X, Y, {}),)))
    ident = DerivedMorphism(X, DerivedObject(((S2, 0),)),
                            {(0, 0): ("hom", {1: [], 2: [[Fraction(1)]]})})
    with pytest.raises(ValueError):
        ghost_lower_bound(GhostCertificate(G, (ident,)))
    with pytest.raises(ValueError):
        ghost_lower_bound(GhostCertificate(G, ()))
    # randomized corruption: scaling the extension class keeps the bound,
    # zeroing it breaks the certificate
    rng = random.Random(99)
    for _ in range(25):
        c = rng.randint(1, 5)
        scaled = {k: [[c * x for x in row] for row in m]
                  for k, m in classes[0].items()}
        cert = GhostCertificate(G, (DerivedMorphism(X, Y, {(0, 0): ("ext", scaled)}),))
        assert ghost_lower_bound(cert) == 1
    print("\nACCEPTANCE 7: PASS - the A2 ghost certificate yields bound 1 and "
          "corrupted certificates are rejected")


def test_criterion_8_knoerrer_positivity():
    rng = random.Random(2024)
    from singlab.abgroup import pointed_Z
    for trial in range(200):
        if trial % 2 == 0:
            k = rng.randint(1, 4)
            spec = spec_from_weights(W([rng.randint(1, 8) for _ in range(k)]))
        else:
            Z = pointed_Z(rng.randint(1, 10))
            gens = tuple(rng.randint(1, 6) * Z.group.generator(0)
                         for _ in range(rng.randint(1, 4)))
            spec = GradedRingSpec(Z, gens)
        doubled = knoerrer_double(spec)
        assert gorenstein_parameter(doubled).mu > 0, trial
    print("\nACCEPTANCE 8: PASS - graded doubling produced a strictly "
          "positive Gorenstein degree on 200 randomized specs")


def test_criterion_9_partition_optimality_exhaustive():
    t0 = time.monotonic()
    count = 0
    for k in range(1, 9):  # n <= 7
        for combo in itertools.combinations_with_replacement(range(1, 7), k):
            d = W(combo)
            for pred in ("ADE", "nonpositive"):
                cert = min_partition(d, pred)
                size, parts = brute_force_min_parts(d, pred)
                assert cert.size == size, (combo, pred)
                assert tuple(p.entries for p in cert.parts) == parts, (combo, pred)
            count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"criterion 9 took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 9: PASS - branch-and-bound matches brute force on "
          f"{count} sequences ({elapsed:.1f}s)")
