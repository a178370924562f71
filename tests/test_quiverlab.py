import random
from fractions import Fraction

import pytest

from singlab.abgroup import IntMatrix
from singlab.decompose import ADEType
from singlab import linalg, quiverlab
from singlab.quiverlab import (ComplexOfReps, DerivedMorphism, DerivedObject,
                               GhostCertificate, Quiver, ade_quiver,
                               cartan_matrix, coxeter_polynomial,
                               ext_class_is_zero, ext_rep, ext_simples,
                               ext_via_resolution,
                               euler_form, ghost_lower_bound, hom_basis,
                               is_ghost, loewy_length, loewy_length_tensor,
                               projective_rep, rep_hom, Representation,
                               simple_rep, split_complex, split_complex,
                               tensor_cartan, tensor_nilpotency_degree)

A = lambda n: ADEType("A", n)
D4 = ADEType("D", 4)
E6 = ADEType("E", 6)
E8 = ADEType("E", 8)


def test_ade_quiver_shapes():
    assert ade_quiver(A(1)).arrows == ()
    assert ade_quiver(A(2)).arrows == ((1, 2),)
    assert ade_quiver(D4).arrows == ((1, 2), (2, 3), (2, 4))
    assert ade_quiver(E6).arrows == ((1, 2), (2, 3), (3, 4), (3, 5), (5, 6))
    for t in (A(5), D4, E6, E8):
        assert ade_quiver(t).is_acyclic()


def test_cartan_matrices():
    assert cartan_matrix(ade_quiver(A(1))).to_rows() == [[1]]
    assert cartan_matrix(ade_quiver(A(2))).to_rows() == [[1, 1], [0, 1]]
    assert cartan_matrix(ade_quiver(A(3))).to_rows() == \
        [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    for t in (A(4), D4, E6, E8):
        assert cartan_matrix(ade_quiver(t)).det() == 1


def test_cartan_rejects_cycles():
    Q = Quiver(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        cartan_matrix(Q)


def test_quiver_is_ordered_once(monkeypatch):
    calls = []
    order = quiverlab._topological_order

    def counting(vertices, succ):
        calls.append(1)
        return order(vertices, succ)

    monkeypatch.setattr(quiverlab, "_topological_order", counting)
    Q = ade_quiver(D4)
    reps = [Representation(Q, (i % 2, 1, 0, i % 3)) for i in range(10)]
    assert Q.is_acyclic() and len(reps) == 10
    Q.path_counts(), Q.paths(), Q.longest_path(), Q.require_acyclic()
    assert len(calls) == 1
    # a cyclic quiver is built, and refused where an order is needed
    C = Quiver(2, [(1, 2), (2, 1)])
    assert not C.is_acyclic()
    for need in (C.require_acyclic, C.path_counts, C.paths, C.longest_path,
                 lambda: Representation(C, (1, 1))):
        with pytest.raises(ValueError, match="directed cycles"):
            need()


def test_coxeter_polynomials():
    assert coxeter_polynomial(cartan_matrix(ade_quiver(A(1)))) == [1, 1]
    assert coxeter_polynomial(cartan_matrix(ade_quiver(A(2)))) == [1, 1, 1]
    # D4: x^4 + x^3 + x + 1 = (x+1)^2 (x^2 - x + 1)
    assert coxeter_polynomial(cartan_matrix(ade_quiver(D4))) == [1, 1, 0, 1, 1]


def fraction_coxeter(C: IntMatrix):
    """Oracle: the Fraction inverse and Faddeev-LeVerrier of the tests."""
    from test_linalg import charpoly, inverse, matmul, transpose

    rows = C.to_rows()
    phi = matmul(transpose(inverse(rows)), rows)
    return charpoly([[-x for x in row] for row in phi])


def _kronecker_cartan(weights):
    C = IntMatrix.identity(1)
    for x in weights:
        C = tensor_cartan(C, cartan_matrix(ade_quiver(A(x - 1))))
    return C


def test_coxeter_polynomial_matches_fraction_oracle():
    # ADEType admits only the D4, E6 and E8 of the paper; the other D and E
    # quivers take ade_quiver's orientations
    quivers = [ade_quiver(A(n)) for n in range(1, 9)]
    quivers += [Quiver(n, [(i, i + 1) for i in range(1, n - 2)]
                       + [(n - 2, n - 1), (n - 2, n)]) for n in range(4, 9)]
    quivers += [Quiver(n, [(1, 2), (2, 3), (3, 4), (3, 5)]
                       + [(i, i + 1) for i in range(5, n)]) for n in (6, 7, 8)]
    assert quivers[8] == ade_quiver(D4) and quivers[13] == ade_quiver(E6)
    assert quivers[15] == ade_quiver(E8)
    # the `quiver` triples of the benchmark's coxeter workload, 8 to 36
    # vertices (4,5,6 with 60 vertices is left to the reference digests)
    triples = ((2, 3, 5), (3, 3, 3), (3, 3, 5), (3, 4, 4), (3, 4, 5),
               (4, 4, 4), (3, 5, 5), (4, 4, 5))
    cartans = ([cartan_matrix(Q) for Q in quivers]
               + [_kronecker_cartan(w) for w in triples])
    for C in cartans:
        got = coxeter_polynomial(C)
        assert all(type(c) is int for c in got)
        assert got == fraction_coxeter(C), C.rows


def _random_acyclic_quiver(rng, n):
    """Arrows (repeats allowed) go forward in a hidden order, and the vertex
    labels are shuffled, so 1..n is rarely a topological order."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    arrows = []
    for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
        i, j = sorted(rng.sample(range(n), 2))
        arrows.append((labels[i], labels[j]))
    return Quiver(n, arrows)


def test_coxeter_polynomial_random_acyclic_quivers():
    rng = random.Random(20271)
    unordered = 0
    for _ in range(150):
        Q = _random_acyclic_quiver(rng, rng.randint(1, 9))
        C = cartan_matrix(Q)
        unordered += any(C[i, j] for i in range(C.rows) for j in range(i))
        assert coxeter_polynomial(C) == fraction_coxeter(C), Q
        # relabelling the vertices conjugates Phi
        perm = list(range(C.rows))
        rng.shuffle(perm)
        P = IntMatrix.from_rows([[C[i, j] for j in perm] for i in perm])
        assert coxeter_polynomial(P) == coxeter_polynomial(C), Q
    assert unordered > 75


def test_coxeter_polynomial_contract():
    assert coxeter_polynomial(IntMatrix.from_rows([])) == [1]
    for rows in ([[1, 0]],                     # not square
                 [[2]], [[1, 1], [0, -1]],     # a diagonal entry != 1
                 [[1, 1], [1, 1]],             # support 0 -> 1 -> 0
                 [[1, 1, 0], [0, 1, 2], [3, 0, 1]]):
        with pytest.raises(ValueError):
            coxeter_polynomial(IntMatrix.from_rows(rows))
    # a trace that k does not divide is an invariant breach
    with pytest.raises(AssertionError):
        quiverlab._charpoly([[Fraction(1, 2)]])


def test_charpoly_check_survives_optimize_flag(run_optimized):
    proc = run_optimized("""
        from fractions import Fraction
        from singlab import quiverlab
        try:
            quiverlab._charpoly([[Fraction(1, 2)]])
        except AssertionError as exc:
            print(exc)
    """)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["Faddeev-LeVerrier trace not divisible by k"]


def test_tensor_cartan():
    C2 = cartan_matrix(ade_quiver(A(2)))
    assert tensor_cartan(C2, IntMatrix.identity(1)) == C2
    K = tensor_cartan(C2, C2)
    assert K.to_rows() == [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]


def test_coxeter_derived_invariance():
    C = {m: cartan_matrix(ade_quiver(A(m))) for m in (2, 3, 4)}
    assert coxeter_polynomial(tensor_cartan(C[2], C[2])) == \
        coxeter_polynomial(cartan_matrix(ade_quiver(D4)))
    assert coxeter_polynomial(tensor_cartan(C[2], C[3])) == \
        coxeter_polynomial(cartan_matrix(ade_quiver(E6)))
    assert coxeter_polynomial(tensor_cartan(C[2], C[4])) == \
        coxeter_polynomial(cartan_matrix(ade_quiver(E8)))


def test_loewy_lengths():
    assert loewy_length(ade_quiver(A(1))) == 1
    for d in range(2, 10):
        assert loewy_length(ade_quiver(A(d - 1))) == d - 1
    assert loewy_length_tensor([2, 2, 2]) == 4
    with pytest.raises(ValueError):
        loewy_length_tensor([])


def test_loewy_tensor_against_direct_nilpotency():
    quivers = [ade_quiver(A(1)), ade_quiver(A(2)), ade_quiver(A(3)),
               Quiver(3, [(1, 2), (1, 3)])]
    for combo in [(0,), (1,), (2,), (3,), (1, 1), (1, 2), (2, 3), (1, 3, 3),
                  (2, 2, 1), (3, 3, 3)]:
        qs = [quivers[i] for i in combo]
        want = loewy_length_tensor([loewy_length(q) for q in qs])
        assert tensor_nilpotency_degree(qs) == want, combo


def test_ext_simples():
    Q = ade_quiver(A(2))
    assert ext_simples(Q, 1, 1, 0) == 1
    assert ext_simples(Q, 2, 1, 1) == 1  # arrow 1 -> 2 starts at v'=1, ends at v=2
    assert ext_simples(Q, 1, 2, 1) == 0
    assert ext_simples(Q, 1, 2, 2) == 0
    assert ext_simples(Q, 2, 2, 5) == 0
    with pytest.raises(ValueError):
        ext_simples(Q, 3, 1, 0)


def test_algebra_model_report():
    from singlab import cli

    rep = cli.quiver_report("D4")
    assert rep["loewy_length"] == 3
    assert rep["coxeter_polynomial"] == [1, 1, 0, 1, 1]
    assert rep["cartan"][0] == [1, 1, 1, 1]


def test_rep_hom_values():
    Q = ade_quiver(A(2))
    S1, S2 = simple_rep(Q, 1), simple_rep(Q, 2)
    P2 = projective_rep(Q, 2)
    assert P2.dims == (1, 1)
    assert P2.maps[0] == ((Fraction(1),),)
    assert rep_hom(S1, S1)[0] == 1
    assert rep_hom(S1, S2)[0] == 0
    # the dimension-(1,1) module with identity arrow map maps onto S2
    assert rep_hom(P2, S2)[0] == 1
    # projective property Hom(P_v, M) = M_v
    for v in (1, 2):
        P = projective_rep(Q, v)
        for M in (S1, S2, P2):
            assert rep_hom(P, M)[0] == M.dim(v)


def test_ext_rep_values():
    Q = ade_quiver(A(2))
    S1, S2 = simple_rep(Q, 1), simple_rep(Q, 2)
    assert ext_rep(S2, S1)[0] == 1
    assert ext_rep(S1, S2)[0] == 0
    assert ext_rep(S2, S1)[0] == ext_simples(Q, 2, 1, 1)
    # projectives have no extensions
    for v in (1, 2):
        assert ext_rep(projective_rep(Q, v), S1)[0] == 0


def _random_rep(Q, rng, max_dim=3):
    dims = [rng.randint(0, max_dim) for _ in Q.vertices()]
    maps = []
    for s, t in Q.arrows:
        maps.append([[Fraction(rng.randint(-2, 2)) for _ in range(dims[t - 1])]
                     for _ in range(dims[s - 1])])
    return Representation(Q, dims, maps)


def test_representation_checks_maps_and_normalises_entries():
    Q = ade_quiver(A(3))
    # zip used to truncate a short list, and rep_hom then raised IndexError
    for maps in ([[[1]]], [[[1]], [[1]], [[1]]]):
        with pytest.raises(ValueError, match="one map per arrow"):
            Representation(Q, [1, 1, 1], maps)
    M = Representation(Q, [1, 1, 1], [[[Fraction(2, 2)]], [[Fraction(1, 2)]]])
    assert [type(row[0]) for m in M.maps for row in m] == [int, Fraction]
    assert M == Representation(Q, [1, 1, 1], [[[1]], [[Fraction(1, 2)]]])
    assert Representation(Q, [1, 2, 0]).maps == (((0, 0),), ((), ()))
    assert type(projective_rep(Q, 3).maps[0][0][0]) is int


def test_euler_form_battery():
    rng = random.Random(77)
    for n in (2, 3, 4):
        Q = ade_quiver(A(n))
        for _ in range(12):
            M = _random_rep(Q, rng)
            N = _random_rep(Q, rng)
            hom = rep_hom(M, N)[0]
            ext = ext_rep(M, N)[0]
            assert hom - ext == euler_form(Q, M.dims, N.dims)
            # independent route through an explicit projective resolution
            assert ext == ext_via_resolution(M, N)


def _product(X, Y, rows, inner, cols):
    """X . Y with explicit shapes, so zero-dimensional blocks keep theirs."""
    return [[sum((X[i][k] * Y[k][j] for k in range(inner)), Fraction(0))
             for j in range(cols)] for i in range(rows)]


def _coboundary_of(M, N, X):
    """delta(X)_a = X_s . act_M(a) - act_N(a) . X_t, arrow by arrow."""
    out = {}
    for k, (s, t) in enumerate(M.quiver.arrows):
        left = _product(X[s], M.maps[k], N.dim(s), M.dim(s), M.dim(t))
        right = _product(N.maps[k], X[t], N.dim(s), N.dim(t), M.dim(t))
        out[k] = [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(left, right)]
    return out


def test_module_calculus_on_random_pairs():
    rng = random.Random(2024)
    for t in (A(3), D4, E6):
        Q = ade_quiver(t)
        for _ in range(8):
            M, N = _random_rep(Q, rng), _random_rep(Q, rng)
            hom, basis = rep_hom(M, N)
            flat = [[x for v in Q.vertices() for row in X[v] for x in row]
                    for X in basis]
            assert hom == len(basis) == linalg.rank(flat)
            for X in basis:
                assert all(x == 0 for row_block in _coboundary_of(M, N, X).values()
                           for row in row_block for x in row)
            X = {v: [[Fraction(rng.randint(-3, 3)) for _ in range(M.dim(v))]
                     for _ in range(N.dim(v))] for v in Q.vertices()}
            assert ext_class_is_zero(M, N, _coboundary_of(M, N, X))
            ext, classes = ext_rep(M, N)
            assert ext == len(classes)
            for E in classes:
                assert not ext_class_is_zero(M, N, E)
            # the classes are independent modulo the coboundaries
            if classes:
                weights = range(1, len(classes) + 1)
                combo = {k: [[sum(w * E[k][i][j] for w, E in zip(weights, classes))
                              for j in range(len(block[i]))]
                             for i in range(len(block))]
                         for k, block in classes[0].items()}
                assert not ext_class_is_zero(M, N, combo)
            assert hom - ext == euler_form(Q, M.dims, N.dims)


def test_ext_matches_resolution_on_d4_and_e6():
    rng = random.Random(88)
    for t in (D4, E6):
        Q = ade_quiver(t)
        for _ in range(10):
            M, N = _random_rep(Q, rng, max_dim=2), _random_rep(Q, rng, max_dim=2)
            assert ext_rep(M, N)[0] == ext_via_resolution(M, N)


def test_ghost_certificate_a2():
    Q = ade_quiver(A(2))
    S1, S2 = simple_rep(Q, 1), simple_rep(Q, 2)
    P1, P2 = projective_rep(Q, 1), projective_rep(Q, 2)
    G = DerivedObject(((P1, 0), (P2, 0)))
    X = DerivedObject(((S2, 0),))
    Y = DerivedObject(((S1, 1),))
    _, classes = ext_rep(S2, S1)
    f = DerivedMorphism(X, Y, {(0, 0): ("ext", classes[0])})
    assert is_ghost(f, G)
    assert ghost_lower_bound(GhostCertificate(G, (f,))) == 1


def test_ghost_certificate_rejections():
    Q = ade_quiver(A(2))
    S1, S2 = simple_rep(Q, 1), simple_rep(Q, 2)
    P1, P2 = projective_rep(Q, 1), projective_rep(Q, 2)
    G = DerivedObject(((P1, 0), (P2, 0)))
    X = DerivedObject(((S2, 0),))
    Y = DerivedObject(((S1, 1),))
    with pytest.raises(ValueError):
        ghost_lower_bound(GhostCertificate(G, ()))
    zero_map = DerivedMorphism(X, Y, {})
    with pytest.raises(ValueError, match="composite is zero"):
        ghost_lower_bound(GhostCertificate(G, (zero_map,)))
    ident = DerivedMorphism(X, DerivedObject(((S2, 0),)),
                            {(0, 0): ("hom", {1: [], 2: [[Fraction(1)]]})})
    with pytest.raises(ValueError, match="not ghost"):
        ghost_lower_bound(GhostCertificate(G, (ident,)))


def test_ghost_chain_composition():
    # two composable ghosts with nonzero composite on A3 certify bound 2
    Q = ade_quiver(A(3))
    S = {v: simple_rep(Q, v) for v in (1, 2, 3)}
    P = {v: projective_rep(Q, v) for v in (1, 2, 3)}
    G = DerivedObject(((P[1], 0), (P[2], 0), (P[3], 0)))
    X = DerivedObject(((S[3], 0),))
    Y = DerivedObject(((S[2], 1),))
    Z = DerivedObject(((S[1], 2),))
    f = DerivedMorphism(X, Y, {(0, 0): ("ext", ext_rep(S[3], S[2])[1][0])})
    g = DerivedMorphism(Y, Z, {(0, 0): ("ext", ext_rep(S[2], S[1])[1][0])})
    assert is_ghost(f, G) and is_ghost(g, G)
    # hereditary: Ext^1 . Ext^1 lands in Ext^2 = 0, so the composite dies
    with pytest.raises(ValueError, match="composite is zero"):
        ghost_lower_bound(GhostCertificate(G, (f, g)))
    # a hom-then-ext chain with nonzero composite does certify
    pr = rep_hom(P[2], S[2])[1][0]
    h1 = DerivedMorphism(DerivedObject(((P[2], 0),)),
                         DerivedObject(((S[2], 0),)), {(0, 0): ("hom", pr)})
    assert not is_ghost(h1, G)


def test_hom_basis_counts():
    Q = ade_quiver(A(2))
    S1, S2 = simple_rep(Q, 1), simple_rep(Q, 2)
    P2 = projective_rep(Q, 2)
    X = DerivedObject(((S2, 0), (P2, 1)))
    Y = DerivedObject(((S1, 1),))
    basis = hom_basis(X, Y)
    # Ext^1(S2, S1) contributes one map; Hom(P2, S1) = (S1)_2 = 0 contributes none
    assert len(basis) == 1


def test_split_complex_cover():
    Q = ade_quiver(A(2))
    S1, S2 = simple_rep(Q, 1), simple_rep(Q, 2)
    P2 = projective_rep(Q, 2)
    C = ComplexOfReps(Q, {-1: P2, 0: S2}, {-1: {1: [], 2: [[Fraction(1)]]}})
    out = split_complex(C)
    assert [(h.dims, deg) for h, deg in out] == [((1, 0), -1)]
    # Euler identity per vertex
    for v in range(2):
        lhs = -P2.dims[v] + S2.dims[v]
        rhs = sum((-1) ** deg * h.dims[v] for h, deg in out)
        assert lhs == rhs


def test_split_complex_degenerate_cases():
    Q = ade_quiver(A(2))
    P2 = projective_rep(Q, 2)
    S1 = simple_rep(Q, 1)
    conc = ComplexOfReps(Q, {0: P2}, {})
    assert split_complex(conc) == [(P2, 0)]
    ident = ComplexOfReps(Q, {0: S1, 1: S1}, {0: {1: [[Fraction(1)]], 2: []}})
    assert split_complex(ident) == []
    bad = ComplexOfReps(Q, {0: S1, 1: S1, 2: S1},
                        {0: {1: [[Fraction(1)]], 2: []},
                         1: {1: [[Fraction(1)]], 2: []}})
    with pytest.raises(ValueError, match="square"):
        split_complex(bad)


def test_split_complex_checks_every_shape_first():
    Q = ade_quiver(A(2))
    S1 = simple_rep(Q, 1)
    one = [[Fraction(1)]]
    terms = {0: S1, 1: S1}
    # the degree 2 has no term, so d[1] must be 0 x 1 at vertex 1 and
    # 0 x 0 at vertex 2: a 1 x 2 block used to raise AssertionError, a
    # 1 x 1 block was read as a square that is not zero, and a block at
    # the zero-dimensional vertex 2 as a product of the wrong shape
    for d1, v, shape in (({1: [[1, 1]], 2: []}, 1, "0x1"),
                         ({1: one, 2: []}, 1, "0x1"),
                         ({1: [], 2: one}, 2, "0x0"),
                         ({1: []}, 2, "0x0")):
        C = ComplexOfReps(Q, terms, {0: {1: one, 2: []}, 1: d1})
        with pytest.raises(ValueError, match=f"degree 1, vertex {v}: "
                                             f"expected shape {shape}"):
            split_complex(C)
    # a differential out of a degree with no term must be d x 0
    C = ComplexOfReps(Q, terms, {-1: {1: [[1]], 2: []}})
    with pytest.raises(ValueError, match="degree -1, vertex 1: expected shape 1x0"):
        split_complex(C)
    # the right shapes into and out of missing degrees are accepted
    C = ComplexOfReps(Q, terms, {-1: {1: [[]], 2: []}, 0: {1: one, 2: []},
                                 1: {1: [], 2: []}})
    assert split_complex(C) == []


def test_split_complex_induced_maps():
    # a complex whose cohomology is the full P2 in degree 0 keeps the arrow map
    Q = ade_quiver(A(2))
    P2 = projective_rep(Q, 2)
    S1 = simple_rep(Q, 1)
    zero_map = {1: [[Fraction(0)]], 2: []}
    C = ComplexOfReps(Q, {0: P2, 1: S1}, {0: zero_map})
    out = split_complex(C)
    assert [(h.dims, deg) for h, deg in out] == [((1, 1), 0), ((1, 0), 1)]
    H0 = out[0][0]
    assert H0.maps[0] == ((Fraction(1),),)


def test_compose_keeps_shapes_through_zero_dimensional_blocks():
    # g . f with f: S2 -> S1 zero and g the (1 x 0) cocycle S1 -> S1[1]:
    # the product e_a . f_2 of a (1 x 0) by a (0 x 1) block is 1 x 1
    Q = ade_quiver(A(2))
    S1, S2 = simple_rep(Q, 1), simple_rep(Q, 2)
    X = DerivedObject(((S2, 0),))
    Y = DerivedObject(((S1, 0),))
    Z = DerivedObject(((S1, 1),))
    f = DerivedMorphism(X, Y, {(0, 0): ("hom", {1: [[]], 2: []})})
    g = DerivedMorphism(Y, Z, {(0, 0): ("ext", {0: [[]]})})
    h = f.compose(g)
    assert h.is_zero() is True
    assert h.components[(0, 0)] == ("ext", {0: [[0]]})


def test_compose_from_the_zero_object_is_the_zero_morphism():
    # the zero object has no summand to read a quiver from
    S1, S2 = _a2_simples()
    zero, X = DerivedObject(()), DerivedObject(((S2, 0),))
    g = DerivedMorphism(X, X, {(0, 0): ("hom", {1: [], 2: [[1]]})})
    h = DerivedMorphism(zero, X, {}).compose(g)
    assert (h.source, h.target, h.components) == (zero, X, {})
    assert h.is_zero()


def _a2_simples():
    Q = ade_quiver(A(2))
    return simple_rep(Q, 1), simple_rep(Q, 2)


def test_derived_morphism_refuses_unknown_kind():
    S1, S2 = _a2_simples()
    X = DerivedObject(((S2, 0),))
    with pytest.raises(ValueError, match="unknown component kind 'ext2'"):
        DerivedMorphism(X, X, {(0, 0): ("ext2", {1: [], 2: [[1]]})})


def test_derived_morphism_refuses_components_out_of_range():
    S1, S2 = _a2_simples()
    X = DerivedObject(((S2, 0),))
    Y = DerivedObject(((S1, 1),))
    # a negative index would otherwise pick the last summand
    for key in ((1, 0), (0, 1), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="out of range"):
            DerivedMorphism(X, Y, {key: ("ext", {0: [[1]]})})


def test_derived_morphism_checks_hom_blocks_per_vertex():
    # a hom S2 -> S2 is 0x0 at vertex 1 and 1x1 at vertex 2
    S1, S2 = _a2_simples()
    X = DerivedObject(((S2, 0),))
    assert not DerivedMorphism(X, X, {(0, 0): ("hom", {1: [], 2: [[1]]})}).is_zero()
    # {1: [], 2: []} used to read as the zero map
    with pytest.raises(ValueError, match=r"hom component \(0, 0\), vertex 2: "
                                         "expected shape 1x1"):
        DerivedMorphism(X, X, {(0, 0): ("hom", {1: [], 2: []})})
    with pytest.raises(ValueError, match="expected shape 1x1"):
        DerivedMorphism(X, X, {(0, 0): ("hom", {1: [], 2: [[1, 0]]})})
    with pytest.raises(ValueError, match="one block per vertex"):
        DerivedMorphism(X, X, {(0, 0): ("hom", {2: [[1]]})})
    with pytest.raises(ValueError, match="one block per vertex"):
        DerivedMorphism(X, X, {(0, 0): ("hom", {1: [], 2: [[1]], 3: []})})


def test_derived_morphism_checks_ext_blocks_per_arrow():
    # an ext S2 -> S1[1] is one dim(S1, 1) x dim(S2, 2) = 1x1 block for the
    # arrow (1, 2), the convention `compose` multiplies by
    S1, S2 = _a2_simples()
    X = DerivedObject(((S2, 0),))
    Y = DerivedObject(((S1, 1),))
    assert not DerivedMorphism(X, Y, {(0, 0): ("ext", {0: [[1]]})}).is_zero()
    # {0: []} used to make is_zero() raise IndexError, and {0: [[1, 5]]}
    # was read as its 1x1 part
    for block in ([], [[1, 5]], [[1], [5]]):
        with pytest.raises(ValueError, match=r"ext component \(0, 0\), arrow 0: "
                                             "expected shape 1x1"):
            DerivedMorphism(X, Y, {(0, 0): ("ext", {0: block})})
    for data in ({}, {1: [[1]]}, [[[1]]]):
        with pytest.raises(ValueError, match="one block per arrow"):
            DerivedMorphism(X, Y, {(0, 0): ("ext", data)})


@pytest.mark.parametrize("dim1, dim2", [([1, 1, 5], [1, 1]), ([1], [1, 1]),
                                        ([1, 1, 5], [1, 1, 5])])
def test_euler_form_refuses_mis_shaped_dimension_vectors(dim1, dim2):
    with pytest.raises(ValueError):
        euler_form(ade_quiver(A(2)), dim1, dim2)


def _a2():
    return ade_quiver(A(2))


# each of these read a non-integer by truncating it, or accepted a negative
# vertex count
@pytest.mark.parametrize("call", [
    lambda: Quiver(3, [(1.7, 2)]),
    lambda: Quiver(-2, []),
    lambda: Representation(_a2(), [1.5, 1]),
    lambda: simple_rep(_a2(), 1.5),
    lambda: projective_rep(_a2(), 1.5),
    lambda: ext_simples(_a2(), 1.5, 2, 1),
    lambda: ext_simples(_a2(), 1, 2, 1.5),
    lambda: euler_form(_a2(), [1.5, 1], [1, 1]),
], ids=["Quiver-arrow", "Quiver-vertex-count", "Representation", "simple_rep",
        "projective_rep", "ext_simples-vertex", "ext_simples-degree",
        "euler_form"])
def test_integer_inputs_refuse_non_integers(call):
    with pytest.raises(ValueError):
        call()


def test_integer_inputs_accept_integral_values():
    Q = Quiver(2.0, [(1.0, Fraction(4, 2))])
    assert (Q.num_vertices, Q.arrows) == (2, ((1, 2),))
    assert simple_rep(Q, 2.0).dims == (0, 1)
    assert projective_rep(Q, 1.0).dims == projective_rep(Q, 1).dims
    assert ext_simples(Q, 2.0, 1, 1.0) == ext_simples(Q, 2, 1, 1) == 1
    assert euler_form(Q, [1.0, 1], [1, 1]) == 1
