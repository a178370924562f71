import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from singlab import abgroup
from singlab.decompose import ADEType
from singlab.quiverlab import ade_quiver, cartan_matrix, tensor_cartan
from singlab.abgroup import (IntMatrix, boxminus, boxminus_pair,
                             group_from_relations, pointed_Z, reduce_element,
                             smith_normal_form, weight_group)


def test_snf_identity():
    M = IntMatrix.identity(2)
    s = smith_normal_form(M)
    assert s.S == M
    assert s.invariant_factors == ()
    assert s.rank == 2


def test_snf_2x2_example():
    # oracle: d1 = gcd of entries, d1*d2 = |det|
    M = IntMatrix.from_rows([[2, 4], [6, 8]])
    s = smith_normal_form(M)
    assert s.invariant_factors == (2, 4)
    assert math.gcd(2, 4, 6, 8) == s.diagonal()[0]
    assert abs(M.det()) == s.diagonal()[0] * s.diagonal()[1]


def test_snf_elliptic_relation():
    # A = Z + Z/(3,-3): free rank 1, one factor 3
    M = IntMatrix.from_rows([[3, -3]])
    s = smith_normal_form(M)
    assert s.invariant_factors == (3,)
    G = group_from_relations(2, M)
    assert G.free_rank == 1
    assert G.invariant_factors == (3,)


def test_snf_random_battery():
    rng = random.Random(11)
    for _ in range(400):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        M = IntMatrix(r, c, [rng.randint(-20, 20) for _ in range(r * c)])
        s = smith_normal_form(M)
        assert s.U.mul(M).mul(s.V) == s.S
        if r:
            assert abs(s.U.det()) == 1
        if c:
            assert abs(s.V.det()) == 1
        diag = s.diagonal()
        for i in range(s.rank - 1):
            assert diag[i + 1] % diag[i] == 0
        assert all(x == 0 for x in diag[s.rank:])
        assert all(x > 0 for x in diag[:s.rank])


def _leibniz_det(rows):
    """Oracle: sum over permutations of sign(p) * prod_i rows[i][p(i)]."""
    n = len(rows)
    total = 0
    for p in itertools.permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][p[i]] for i in range(n))
    return total


def test_det_matches_leibniz():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 5)
        # many zeros, so rows skipped below a pivot equal to the previous
        # pivot and rows rescaled below a new pivot both occur
        rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 7)) for _ in range(n)]
                for _ in range(n)]
        assert IntMatrix.from_rows(rows).det() == _leibniz_det(rows), rows
    # the Cartan matrices that `verify quiver` checks, tensor products included
    A = {m: cartan_matrix(ade_quiver(ADEType("A", m))) for m in (2, 3, 4, 5)}
    cartans = [A[5], A[2], A[3], A[4]] + [
        cartan_matrix(ade_quiver(ADEType(*t))) for t in (("D", 4), ("E", 6), ("E", 8))]
    cartans += [tensor_cartan(A[2], A[m]) for m in (2, 3, 4)]
    for C in cartans:
        assert C.det() == _leibniz_det(C.to_rows()) == 1


def test_group_from_relations_basics():
    G = group_from_relations(1, IntMatrix.zero(0, 1))
    assert G.free_rank == 1 and G.invariant_factors == ()
    rel = IntMatrix.from_rows([[4, -4, 0, 0], [0, 4, -4, 0], [0, 0, 4, -4]])
    G4 = group_from_relations(4, rel)
    assert G4.free_rank == 1
    assert G4.torsion_order() == 256 // 4  # d0...dn / lcm
    with pytest.raises(ValueError):
        group_from_relations(3, rel)


def test_reduce_element_canonical():
    G = group_from_relations(2, IntMatrix.from_rows([[3, -3]]))
    zero = reduce_element(G, [0, 0])
    assert zero.is_zero()
    assert reduce_element(G, [3, 0]) == reduce_element(G, [0, 3])
    assert reduce_element(G, [1, 0]) != reduce_element(G, [0, 1])
    # the three torsion cosets are distinct
    cosets = {reduce_element(G, [k, -k]).canonical for k in range(3)}
    assert len(cosets) == 3
    with pytest.raises(ValueError):
        reduce_element(G, [1, 2, 3])


def test_reduce_invariant_under_relations():
    rng = random.Random(5)
    G = group_from_relations(3, IntMatrix.from_rows([[2, -4, 0], [0, 6, -3]]))
    rel_rows = G.relations.to_rows()
    for _ in range(50):
        v = [rng.randint(-9, 9) for _ in range(3)]
        w = list(v)
        for row in rel_rows:
            c = rng.randint(-3, 3)
            w = [a + c * b for a, b in zip(w, row)]
        assert reduce_element(G, v) == reduce_element(G, w)


@st.composite
def groups_with_elements(draw):
    """A group Z^n / rows (n, rows <= 4), two elements' raw coordinates, k."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                         max_size=4))
    vec = st.lists(st.integers(-20, 20), min_size=n, max_size=n)
    return n, rows, draw(vec), draw(vec), draw(st.integers(-7, 7))


# SNF transforms V != I, so canonical coordinates mix the raw ones
MIXING = ([[3, -3]], [[2, 4], [6, 8]], [[2, -4, 0], [0, 6, -3]],
          [[4, 6, 0, 2], [0, 3, 9, 1], [1, 1, 1, 1]])


def test_mixing_examples_have_nontrivial_v():
    for rows in MIXING:
        snf = smith_normal_form(IntMatrix.from_rows(rows))
        assert snf.V != IntMatrix.identity(len(rows[0]))


@settings(max_examples=200, deadline=None)
@given(groups_with_elements())
@example((2, MIXING[0], [1, 5], [-4, 2], 5))
@example((2, MIXING[1], [3, -1], [7, 2], -3))
@example((3, MIXING[2], [1, 2, 3], [-5, 0, 4], 4))
@example((4, MIXING[3], [1, -2, 3, 0], [9, 9, -9, 1], 6))
def test_arithmetic_matches_reduce_element(case):
    n, rows, u, v, k = case
    G = group_from_relations(n, IntMatrix.from_rows(rows) if rows
                             else IntMatrix.zero(0, n))
    snf = G.normal_form
    diag = snf.diagonal()

    def canonical_by_product(raw):
        """Oracle: (residues, free) of raw from the product raw . V."""
        y = IntMatrix.from_rows([raw]).mul(snf.V).row(0)
        return (tuple(y[i] % diag[i] for i in range(snf.rank) if diag[i] > 1),
                tuple(y[snf.rank:]))

    a, b = reduce_element(G, u), reduce_element(G, v)
    for got, raw in ((a + b, [x + y for x, y in zip(u, v)]),
                     (a - b, [x - y for x, y in zip(u, v)]),
                     (-a, [-x for x in u]),
                     (k * a, [k * x for x in u]),
                     (a * k, [k * x for x in u])):
        want = reduce_element(G, raw)
        assert got.canonical == want.canonical == canonical_by_product(raw)
        assert got.coordinates == want.coordinates
        assert got == want and hash(got) == hash(want)
    other = group_from_relations(n, IntMatrix.from_rows(rows + [[1] + [0] * (n - 1)]))
    c = reduce_element(other, v)
    for op in (lambda: a + c, lambda: a - c, lambda: c - a):
        with pytest.raises(ValueError, match="different groups"):
            op()


@settings(max_examples=100, deadline=None)
@given(groups_with_elements())
@example((2, MIXING[0], [1, 5], [-4, 2], 5))
@example((4, MIXING[3], [1, -2, 3, 0], [9, 9, -9, 1], 6))
def test_groups_are_values(case):
    n, rows, u, v, _ = case

    def build(rs):
        return group_from_relations(n, IntMatrix.from_rows(rs) if rs
                                    else IntMatrix.zero(0, n))

    G, H = build(rows), build(rows)
    assert G is not H
    assert G == H and hash(G) == hash(H)
    a, b = reduce_element(G, u), reduce_element(H, u)
    assert a == b and hash(a) == hash(b)
    c = reduce_element(H, v)
    raw_sum = [x + y for x, y in zip(u, v)]
    assert a + c == c + a == reduce_element(G, raw_sum) == reduce_element(H, raw_sum)
    assert a - c == reduce_element(G, [x - y for x, y in zip(u, v)])
    # one more relation row is another presentation, even when it adds
    # nothing to the row space
    for extra in ([1] + [0] * (n - 1), [0] * n):
        other = build(rows + [extra])
        assert other != G
        for op in (lambda: a + reduce_element(other, v),
                   lambda: reduce_element(other, v) - b):
            with pytest.raises(ValueError, match="elements of different groups"):
                op()


def test_marked_element_has_positive_degree():
    # the invariant that lets GradedRingSpec, boxminus and pointed_Z leave
    # the marked element's degree and torsion to PointedAbelianGroup
    rng = random.Random(31)
    for _ in range(60):
        A = weight_group([rng.randint(1, 6) for _ in range(rng.randint(1, 4))])
        Z = pointed_Z(rng.choice((-1, 1)) * rng.randint(1, 9))
        for P in (A, Z, boxminus(A, Z), boxminus(Z, A), boxminus(A, A)):
            assert P.degree(P.marked) > 0


def test_pointed_group_refuses_a_marked_element_of_another_group():
    # GradedRingSpec leaves the marked element to PointedAbelianGroup
    from singlab.abgroup import PointedAbelianGroup
    B, Z = weight_group([3, 3]), pointed_Z(3)
    with pytest.raises(ValueError, match="different group"):
        PointedAbelianGroup(B.group, Z.marked)
    rebuilt = weight_group([3, 3]).marked
    assert PointedAbelianGroup(B.group, rebuilt) == B


def test_from_canonical_refuses_wrong_lengths():
    G = weight_group([3, 3]).group
    assert G.invariant_factors == (3,) and G.free_rank == 1
    assert G.from_canonical((1,), (2,)).canonical == ((1,), (2,))
    for residues, free in (((1, 5), (2, 7)), ((), (2,)), ((1,), ()), ((1,), (2, 0))):
        with pytest.raises(ValueError, match="canonical data"):
            G.from_canonical(residues, free)


def test_boxminus_mixed_degrees():
    A = boxminus(pointed_Z(3), pointed_Z(2))
    # explicit isomorphism Z^2/(3,-2) = Z via (a,b) -> 2a+3b
    assert A.group.free_rank == 1 and A.group.invariant_factors == ()
    assert A.degree(A.group.generator(0)) == 2
    assert A.degree(A.group.generator(1)) == 3
    assert A.degree(A.marked) == 6


def test_boxminus_equal_degrees():
    A = boxminus(pointed_Z(4), pointed_Z(4))
    assert A.group.free_rank == 1
    assert A.group.invariant_factors == (4,)
    assert A.degree(A.group.generator(0)) == 1
    assert A.degree(A.group.generator(1)) == 1


def test_boxminus_triple():
    A = boxminus(boxminus(pointed_Z(2), pointed_Z(2)), pointed_Z(2))
    assert A.group.torsion_order() == 4
    assert A.marked == 2 * A.group.generator(0)
    assert A.degree(A.marked) == 2


def test_boxminus_rejects_torsion_marked():
    with pytest.raises(ValueError):
        pointed_Z(0)


def test_boxminus_degree_formula_random():
    rng = random.Random(23)
    for _ in range(100):
        p, q = rng.randint(1, 12), rng.randint(1, 12)
        A = boxminus(pointed_Z(p), pointed_Z(q))
        g = math.gcd(p, q)
        for a, b in [(1, 0), (0, 1), (2, -1), (rng.randint(-5, 5), rng.randint(-5, 5))]:
            want = (q * a + p * b) // g
            assert (q * a + p * b) % g == 0 or True
            got = A.degree(A.group.element([a, b]))
            assert got * g == q * a + p * b, (p, q, a, b)


def test_boxminus_associative():
    rng = random.Random(3)
    for _ in range(30):
        ps = [rng.randint(1, 9) for _ in range(3)]
        A1 = boxminus(boxminus(pointed_Z(ps[0]), pointed_Z(ps[1])), pointed_Z(ps[2]))
        A2 = boxminus(pointed_Z(ps[0]), boxminus(pointed_Z(ps[1]), pointed_Z(ps[2])))
        assert A1.group.free_rank == A2.group.free_rank == 1
        assert A1.group.invariant_factors == A2.group.invariant_factors
        for i in range(3):
            assert A1.degree(A1.group.generator(i)) == A2.degree(A2.group.generator(i))


def test_boxminus_pair_concatenates_coordinates():
    # (a, b) in (A [] B) [] C and A [] (B [] C) is the element with the
    # concatenated coordinates, and its degree follows
    # deg(a, b) = (deg(d') deg(a) + deg(d) deg(b)) / gcd(deg(d), deg(d'))
    rng = random.Random(29)
    for _ in range(40):
        A = weight_group([rng.randint(1, 6) for _ in range(rng.randint(1, 3))])
        B = pointed_Z(rng.randint(1, 6))
        C = weight_group([rng.randint(1, 6) for _ in range(rng.randint(1, 2))])
        for left, right in ((boxminus(A, B), C), (A, boxminus(B, C))):
            AB = boxminus(left, right)
            a = left.group.element([rng.randint(-4, 4)
                                    for _ in range(left.group.num_generators)])
            b = right.group.element([rng.randint(-4, 4)
                                     for _ in range(right.group.num_generators)])
            e = boxminus_pair(AB.group, a, b)
            assert e == AB.group.element(list(a.coordinates + b.coordinates))
            assert e.coordinates == a.coordinates + b.coordinates
            p, q = left.degree(left.marked), right.degree(right.marked)
            assert AB.degree(e) * math.gcd(p, q) == q * left.degree(a) + p * right.degree(b)
            assert boxminus_pair(AB.group, left.marked, right.group.zero()) == AB.marked
            assert boxminus_pair(AB.group, left.group.zero(), right.marked) == AB.marked


def test_boxminus_positive_grading():
    # positive component degrees stay positive after the product
    rng = random.Random(8)
    for _ in range(40):
        ws = [rng.randint(1, 6) for _ in range(rng.randint(1, 3))]
        A = weight_group(ws)
        B = boxminus(A, pointed_Z(rng.randint(1, 6)))
        for i in range(B.group.num_generators):
            assert B.degree(B.group.generator(i)) > 0


def test_degree_map_properties():
    B = weight_group([2, 3, 5])
    assert [B.degree(B.group.generator(i)) for i in range(3)] == [15, 10, 6]
    assert B.degree(B.marked) == 30
    assert B.degree(B.group.zero()) == 0
    # homomorphism and torsion vanishing
    e = B.group.element([1, 1, -2])
    f = B.group.element([0, 2, 1])
    assert B.degree(e + f) == B.degree(e) + B.degree(f)
    for t in B.group.torsion_elements():
        assert B.degree(t) == 0


def test_torsion_elements_invert_v_once(monkeypatch):
    # Z^3 / <(2, 4, 0), (0, 3, 3)>: torsion Z/6, free rank 1, V not the identity
    relations = IntMatrix.from_rows([[2, 4, 0], [0, 3, 3]])
    products = []
    product = abgroup._product

    def counting(rows, columns):
        products.append(1)
        return product(rows, columns)

    monkeypatch.setattr(abgroup, "_product", counting)
    G = group_from_relations(3, relations)
    snf = G.normal_form
    assert G.invariant_factors == (6,) and G.free_rank == 1
    assert snf.V != IntMatrix.identity(3)
    # the Smith form is checked once, when it is made: U M V = S in two
    # products, then the recorded V^{-1} against V
    assert len(products) == 3
    del products[:]
    elements = G.torsion_elements()
    assert [e.canonical for e in elements] == [((r,), (0,)) for r in range(6)]
    assert all(e == reduce_element(G, e.coordinates) for e in elements)
    G.from_canonical((5,), (2,))
    # reading the group multiplies no matrix
    assert products == []
    monkeypatch.setattr(abgroup, "_product", product)

    # a wrong recorded V^{-1} passes the SNF transform check (which never
    # reads it) and is caught before the form is returned
    snf_rows = abgroup._snf_rows

    def corrupted(M, m):
        U, S, V, V_inv = snf_rows(M, m)
        V_inv[0][0] += 1
        return U, S, V, V_inv

    monkeypatch.setattr(abgroup, "_snf_rows", corrupted)
    with pytest.raises(AssertionError, match="recorded inverse"):
        group_from_relations(3, relations)


def _random_relations(rng):
    """A seeded random presentation: zero rows, non-square shapes, and
    all-unit diagonals (unimodular square relations) among them."""
    n = rng.randint(0, 4)
    kind = rng.randrange(4)
    if kind == 0:
        return n, IntMatrix.zero(0, n)
    if kind == 1 and n:
        # a product of elementary matrices: every diagonal entry is 1
        M = IntMatrix.identity(n)
        for _ in range(rng.randint(0, 6)):
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            E = [[int(a == b) for b in range(n)] for a in range(n)]
            if i != j:
                E[i][j] = rng.randint(-3, 3)
            M = M.mul(IntMatrix.from_rows(E))
        return n, M
    rows = rng.randint(1, 4)
    return n, IntMatrix(rows, n, [rng.randint(-6, 6) for _ in range(rows * n)])


def _reduce_by_diagonal(G, v):
    """The canonical form of v read off the whole SNF diagonal."""
    snf, n = G.normal_form, G.num_generators
    y = [sum(v[t] * snf.V[t, j] for t in range(n)) for j in range(n)]
    diag = snf.diagonal()
    residues = tuple(y[i] % diag[i] for i in range(snf.rank) if diag[i] > 1)
    return residues, tuple(y[i] for i in range(snf.rank, n))


def test_reduce_element_matches_diagonal_oracle():
    rng = random.Random(47)
    kinds = set()
    for _ in range(300):
        n, M = _random_relations(rng)
        G = group_from_relations(n, M)
        diag = G.normal_form.diagonal()
        kinds.add("zero-row" if M.rows == 0 else
                  "all-unit" if diag and set(diag) == {1} else
                  "non-square" if M.rows != n else "square")
        for _ in range(5):
            v = [rng.randint(-20, 20) for _ in range(n)]
            assert reduce_element(G, v).canonical == _reduce_by_diagonal(G, v)
    assert kinds == {"zero-row", "all-unit", "non-square", "square"}


def test_intmatrix_mul_matches_entrywise_oracle():
    rng = random.Random(53)
    shapes = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]
    for a, b, c in shapes:
        X = IntMatrix(a, b, [rng.randint(-9, 9) for _ in range(a * b)])
        Y = IntMatrix(b, c, [rng.randint(-9, 9) for _ in range(b * c)])
        P = X.mul(Y)
        assert (P.rows, P.cols) == (a, c)
        assert P.entries == tuple(sum(X[i, t] * Y[t, j] for t in range(b))
                                  for i in range(a) for j in range(c))
    with pytest.raises(ValueError, match="shape"):
        IntMatrix.zero(2, 3).mul(IntMatrix.zero(2, 3))


def test_degree_needs_free_rank_one():
    G = group_from_relations(2, IntMatrix.zero(0, 2))
    from singlab.abgroup import PointedAbelianGroup
    P = PointedAbelianGroup(G, reduce_element(G, [1, 0]))
    with pytest.raises(ValueError):
        P.degree(reduce_element(G, [0, 1]))


def test_weight_group_values():
    assert weight_group([7]).degree(weight_group([7]).marked) == 7
    B = weight_group([3, 3])
    assert B.group.free_rank == 1 and B.group.invariant_factors == (3,)
    assert [B.degree(B.group.generator(i)) for i in range(2)] == [1, 1]
    assert len(B.elements_of_degree(0)) == 3
    assert weight_group([4, 4, 4, 4]).group.torsion_order() == 64
    assert weight_group([2, 3, 5]).group.torsion_order() == 1
    with pytest.raises(ValueError):
        weight_group([])
    with pytest.raises(ValueError):
        weight_group([0, 2])


def test_torsion_formula_small_exhaustive():
    import itertools
    for k in range(1, 4):
        for combo in itertools.combinations_with_replacement(range(1, 7), k):
            B = weight_group(combo)
            assert B.group.torsion_order() == math.prod(combo) // math.lcm(*combo)


def test_group_report_shape():
    from singlab import cli

    rep = cli._group_json(weight_group([3, 3]))
    assert rep["free_rank"] == 1
    assert rep["invariant_factors"] == [3]
    assert rep["marked"] == [3, 0]
    assert rep["generator_degrees"] == [1, 1]


def test_invariant_checks_survive_optimize_flag(run_optimized):
    proc = run_optimized("""
        from singlab import abgroup, cli, mfengine
        snf_rows = abgroup._snf_rows

        def corrupted(M, m):
            U, S, V, V_inv = snf_rows(M, m)
            U[0][0] += 1
            return U, S, V, V_inv

        abgroup._snf_rows = corrupted
        print(cli.main(["group", "3,3"]))

        def wrong_v_inverse(M, m):
            U, S, V, V_inv = snf_rows(M, m)
            V_inv[0][0] += 1
            return U, S, V, V_inv

        abgroup._snf_rows = wrong_v_inverse
        three = abgroup.IntMatrix.from_rows([[3]])
        for check in (lambda: abgroup.group_from_relations(1, three),
                      lambda: mfengine._block_matrix([[((1,),), ((1,), (2,))]])):
            try:
                check()
            except AssertionError as exc:
                print(exc)
            else:
                sys.exit(5)
    """)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "3", "recorded inverse of the SNF transform V is wrong",
        "blocks in one block row differ in height"]
    assert "SNF transform check failed" in proc.stderr


@pytest.mark.parametrize("call", [
    lambda: weight_group([2.5, 3]),
    lambda: weight_group([Fraction(7, 2)]),
    lambda: IntMatrix(1, 1, [1.5]),
    lambda: reduce_element(weight_group([2, 3]).group, [0.5, 0]),
    lambda: pointed_Z(2.7),
], ids=["weight_group", "weight_group-one", "IntMatrix", "reduce_element",
        "pointed_Z"])
def test_integer_entry_points_refuse_non_integers(call):
    with pytest.raises(ValueError):
        call()


def test_integer_entry_points_accept_integral_values():
    G = weight_group([2, 3]).group
    assert IntMatrix(1, 2, [2.0, Fraction(6, 2)]).entries == (2, 3)
    assert reduce_element(G, [2.0, Fraction(-4, 2)]) == reduce_element(G, [2, -2])
    assert pointed_Z(3.0) == pointed_Z(3)
