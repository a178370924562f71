import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from singlab import linalg
from singlab.abgroup import IntMatrix


def rref(A):
    """Reduced row echelon form.

    Returns (R, pivot_columns).  The input is not modified.
    """
    R = [[Fraction(x) for x in row] for row in A]
    rows = len(R)
    cols = len(R[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if R[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        pv = R[r][c]
        R[r] = [x / pv for x in R[r]]
        for i in range(rows):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


# Answers read off the dense Gauss-Jordan oracle.

def rref_nullspace(A, cols=None):
    n = len(A[0]) if A else cols or 0
    R, pivots = rref(A)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(v)
    return basis


def rref_solve(A, b):
    n = len(A[0])
    R, pivots = rref([list(row) + [y] for row, y in zip(A, b)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        x[pc] = R[r][n]
    return x


def rref_inverse(A):
    n = len(A)
    R, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                      for i, row in enumerate(A)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in R]


# Dense Fraction routes, kept as oracles: the inverse through `_echelon`
# (checked against `rref_inverse`), and the Faddeev-LeVerrier recursion over
# the rationals, against which `quiverlab.coxeter_polynomial` is checked;
# with the dense helpers they are written in.

def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def matmul(A, B):
    """A . B for dense matrices; the inner dimensions must agree."""
    if A and len(A[0]) != len(B):
        raise AssertionError("shape mismatch")
    return [[sum((a * Bt[j] for a, Bt in zip(row, B)), Fraction(0))
             for j in range(len(B[0]) if B else 0)] for row in A]


def inverse(A):
    """Column j of A^{-1} is the kernel vector of [A | I] with -1 on column
    n + j; A is singular when [A | I] has a pivot beyond column n - 1."""
    n = len(A)
    pivots, _ = linalg._echelon([list(row) + [int(i == j) for j in range(n)]
                                 for i, row in enumerate(A)])
    if max(pivots, default=-1) >= n:
        raise ValueError("matrix is singular")
    return transpose([linalg._kernel_vector(pivots, {n + j: -1}, n)
                      for j in range(n)])


def charpoly(A):
    """det(xI - A), ascending Fraction coefficients (Faddeev-LeVerrier)."""
    n = len(A)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    M = identity(n)
    for k in range(1, n + 1):
        AM = matmul(A, M)
        c = -sum(AM[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        M = [row[:] for row in AM]
        for i in range(n):
            M[i][i] += c
    return coeffs


def greedy_rows(A):
    """Rows independent of all earlier rows, chosen one at a time with rref."""
    chosen = []
    for i, row in enumerate(A):
        trial = [A[j] for j in chosen] + [row]
        if len(rref(trial)[1]) > len(chosen):
            chosen.append(i)
    return chosen


def random_matrix(rng, rows, cols):
    def entry():
        roll = rng.random()
        if roll < 0.6:
            return 0
        if roll < 0.7:
            return rng.randint(-10**6, 10**6)
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 12)))

    A = [[entry() for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        roll = rng.random()
        if roll < 0.1:
            A[i] = [0] * cols
        elif roll < 0.4 and i >= 2:
            j, k = rng.sample(range(i), 2)
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            b = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            A[i] = [a * x + b * y for x, y in zip(A[j], A[k])]
    return A


SHAPES = ((1, 1), (1, 9), (9, 1), (3, 12), (12, 3), (6, 6), (10, 8))


def random_battery(seed, per_shape):
    rng = random.Random(seed)
    for rows, cols in SHAPES:
        for _ in range(per_shape):
            yield random_matrix(rng, rows, cols)


def test_rank_matches_rref_oracle():
    for A in random_battery(20260, 60):
        assert linalg.rank(A) == len(rref(A)[1]), A


def test_pivot_columns_match_rref_oracle():
    # the leading columns depend only on the row space: the same for the
    # rows reversed and for the rows as {column: value} dicts
    for A in random_battery(20270, 40):
        want = rref(A)[1]
        assert linalg.pivot_columns(A) == want, A
        assert linalg.pivot_columns(A[::-1]) == want, A
        assert linalg.pivot_columns(as_dicts(A)) == want, A
    assert linalg.pivot_columns([]) == linalg.pivot_columns([{}, {}]) == []


def test_independent_rows_is_greedy_choice():
    for A in random_battery(20261, 40):
        assert linalg.independent_rows(A) == greedy_rows(A), A


def test_independent_rows_degenerate_inputs():
    assert linalg.independent_rows([]) == []
    assert linalg.rank([]) == 0
    assert linalg.rank([[], []]) == 0
    assert linalg.independent_rows([[0, 0], [0, 0]]) == []
    # a scaled copy of an earlier row with a non-integer factor
    A = [[Fraction(1, 2), 3, 0], [0, 0, 0], [Fraction(-1, 6), -1, 0], [0, 0, 5]]
    assert linalg.independent_rows(A) == [0, 3]


def integral(A):
    """A with each row scaled to entries of type int."""
    out = []
    for row in A:
        den = math.lcm(*(Fraction(x).denominator for x in row))
        out.append([int(x * den) for x in row])
    return out


def as_dicts(A, zeros=False):
    """The rows of A as {column: value} dicts, zero entries kept with `zeros`."""
    return [{j: x for j, x in enumerate(row) if zeros or x} for row in A]


def test_mapping_rows_match_dense_rows():
    for A in random_battery(20267, 40):
        for B in (A, integral(A)):
            want = linalg._echelon(B)
            for zeros in (False, True):
                D = as_dicts(B, zeros)
                assert linalg._echelon(D) == want, (B, zeros)
                assert linalg.rank(D) == len(want[1])
                assert linalg.independent_rows(D) == want[1]
    assert all(type(x) is int for B in map(integral, random_battery(20267, 5))
               for row in B for x in row)
    # empty dicts, explicit zeros, Fraction and int values; the rows are not modified
    D = [{}, {0: 0, 3: 0}, {2: Fraction(1, 2), 0: 0}, {2: -3}, {1: 2, 2: 1},
         {1: Fraction(-4, 3), 2: Fraction(-2, 3)}]
    copy = [dict(row) for row in D]
    assert linalg._echelon(D) == ({1: {1: 2, 2: 1}, 2: {2: 1}}, [2, 4])
    assert D == copy


def negative_leads(A):
    """A with every row whose first nonzero entry is positive negated."""
    out = []
    for row in A:
        lead = next((x for x in row if x), 0)
        out.append([-x for x in row] if lead > 0 else list(row))
    return out


def test_pivot_rows_primitive_with_positive_lead():
    rng = random.Random(20268)
    # strand-like +-1 matrices besides the mixed battery
    unit = [[[rng.choice((0, 0, 0, 1, -1)) for _ in range(cols)]
             for _ in range(rows)] for rows, cols in SHAPES for _ in range(20)]
    seen_negative = 0
    for A in itertools.chain(random_battery(20269, 30), unit):
        for B in (A, negative_leads(A)):
            seen_negative += any(next((x for x in row if x), 0) < 0 for row in B)
            pivots, chosen = linalg._echelon(B)
            for c, p in pivots.items():
                assert min(p) == c and p[c] > 0, (B, p)
                assert all(type(x) is int and x for x in p.values()), (B, p)
                assert math.gcd(*p.values()) == 1, (B, p)
            assert chosen == linalg.independent_rows(B) == greedy_rows(B), B
            assert linalg.rank(B) == len(rref(B)[1]), B
            assert linalg.nullspace(B) == rref_nullspace(B), B
            b = [rng.randint(-3, 3) for _ in B]
            assert linalg.solve(B, b) == rref_solve(B, b), (B, b)
            if len(B) == len(B[0]):
                try:
                    want = rref_inverse(B)
                except ValueError:
                    with pytest.raises(ValueError, match="matrix is singular"):
                        inverse(B)
                else:
                    assert inverse(B) == want, B
    assert seen_negative


def all_fractions(vectors):
    return all(type(x) is Fraction for v in vectors for x in v)


def test_nullspace_matches_rref_oracle():
    for A in random_battery(20262, 40):
        for cols in (None, len(A[0])):
            basis = linalg.nullspace(A, cols=cols)
            assert basis == rref_nullspace(A), A
            assert all_fractions(basis)
        # {column: value} rows hold no width, so `cols` gives it
        for zeros in (False, True):
            assert linalg.nullspace(as_dicts(A, zeros), cols=len(A[0])) \
                == rref_nullspace(A), A
    assert linalg.nullspace([], cols=3) == rref_nullspace([], cols=3)
    assert linalg.nullspace([{0: 1}], cols=3) == rref_nullspace([[1, 0, 0]])
    assert linalg.nullspace([]) == [] and linalg.nullspace([[]]) == []
    assert all_fractions(linalg.nullspace([], cols=2))


def test_solve_matches_rref_oracle():
    rng = random.Random(20263)
    consistent = inconsistent = 0
    for A in random_battery(20264, 40):
        y = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in A[0]]
        for b in ([sum(a * x for a, x in zip(row, y)) for row in A],
                  [rng.randint(-3, 3) for _ in A]):
            x = linalg.solve(A, b)
            assert x == rref_solve(A, b), (A, b)
            if x is None:
                inconsistent += 1
            else:
                consistent += 1
                assert all_fractions([x])
    assert consistent and inconsistent
    assert linalg.solve([[1, 1], [2, 2]], [1, 3]) is None
    assert linalg.solve([[0, 2], [0, 0]], [Fraction(1, 3), 0]) == [0, Fraction(1, 6)]


def test_inverse_matches_rref_oracle():
    singular = regular = 0
    for A in random_battery(20265, 80):
        if len(A) != len(A[0]):
            continue
        try:
            want = rref_inverse(A)
        except ValueError:
            singular += 1
            with pytest.raises(ValueError, match="matrix is singular"):
                inverse(A)
            continue
        regular += 1
        inv = inverse(A)
        assert inv == want, A
        assert all_fractions(inv)
    assert singular and regular
    assert inverse([]) == []
    with pytest.raises(ValueError, match="matrix is singular"):
        inverse([[1, 2], [Fraction(1, 2), 1]])


def test_charpoly_oracle_small_cases():
    assert charpoly([]) == [1]
    assert charpoly([[Fraction(3)]]) == [-3, 1]
    # x^2 - tr x + det
    assert charpoly([[1, 2], [3, 4]]) == [-2, -5, 1]
    # companion matrix of x^3 - 2x + 5
    assert charpoly([[0, 0, -5], [1, 0, 2], [0, 1, 0]]) == [5, -2, 0, 1]


def leibniz_det(M):
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= M[i][perm[i]]
        total += term
    return total


def test_int_matrix_det_matches_leibniz():
    rng = random.Random(20266)
    assert IntMatrix.from_rows([]).det() == 1
    for n in range(1, 7):
        for _ in range(30):
            rows = [[rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-10**6, 10**6)))
                     for _ in range(n)] for _ in range(n)]
            roll = rng.random()
            if roll < 0.15:
                rows[rng.randrange(n)] = [0] * n
            elif roll < 0.3 and n >= 2:
                i, j = rng.sample(range(n), 2)
                rows[i] = [3 * x for x in rows[j]]
            d = IntMatrix.from_rows(rows).det()
            assert type(d) is int and d == leibniz_det(rows), rows
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2]]).det()


small_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def matrices(draw, square=False):
    rows = draw(st.integers(1, 6))
    cols = rows if square else draw(st.integers(1, 6))
    return draw(st.lists(st.lists(small_fractions, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


def matvec(A, x):
    return [sum(a * y for a, y in zip(row, x)) for row in A]


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_kernel_and_solve_properties(A, data):
    basis = linalg.nullspace(A)
    assert len(basis) == len(A[0]) - linalg.rank(A)
    for v in basis:
        assert matvec(A, v) == [0] * len(A)
    y = data.draw(st.lists(small_fractions, min_size=len(A[0]), max_size=len(A[0])))
    b = matvec(A, y)
    x = linalg.solve(A, b)
    assert x is not None and matvec(A, x) == b


@settings(max_examples=100, deadline=None)
@given(matrices(square=True))
def test_inverse_property(A):
    n = len(A)
    if linalg.rank(A) < n:
        with pytest.raises(ValueError):
            inverse(A)
        return
    assert matmul(inverse(A), A) == identity(n)


@st.composite
def mapping_rows(draw):
    cols = draw(st.integers(1, 6))
    value = st.one_of(st.integers(-4, 4), small_fractions)
    rows = draw(st.lists(st.dictionaries(st.integers(0, cols - 1), value,
                                         max_size=cols), max_size=6))
    return cols, rows


@settings(max_examples=100, deadline=None)
@given(mapping_rows())
def test_mapping_rows_property(case):
    cols, D = case
    A = [[row.get(j, 0) for j in range(cols)] for row in D]
    assert linalg._echelon(D) == linalg._echelon(A)
    assert linalg.rank(D) == len(rref(A)[1])
    assert linalg.independent_rows(D) == greedy_rows(A)


def test_checks_survive_optimize_flag(run_optimized):
    proc = run_optimized("""
        from fractions import Fraction
        from singlab import linalg, quiverlab
        checks = [
            lambda: quiverlab._project_to_quotient(([], []), [Fraction(1)]),
            lambda: quiverlab._project_to_quotient(
                ([[Fraction(1), Fraction(0)]], []), [0, Fraction(1)]),
        ]
        for check in checks:
            try:
                check()
            except AssertionError as exc:
                print(exc)
            else:
                sys.exit(5)
    """, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "nonzero vector in a zero quotient",
        "vector not in kernel + image span"]


@pytest.mark.parametrize("call", [
    lambda: linalg.solve([[1, 0], [0, 1]], [1]),          # equation dropped
    lambda: linalg.solve([[1, 0], [0, 1, 5]], [1, 2]),    # ragged rows
    lambda: linalg.solve([], [1]),                        # 0 = 1
    lambda: linalg.solve([{0: 2}], [4]),                  # dict row
    lambda: linalg.nullspace([[1, 2, 3]], cols=2),        # row wider than cols
    lambda: linalg.nullspace([{5: 1}], cols=3),           # column outside cols
    lambda: linalg.nullspace([{0: 1}]),                   # dict row, no width
], ids=["short-b", "ragged", "empty-A", "solve-dict", "wide-row",
        "dict-column", "dict-no-cols"])
def test_mis_shaped_input_is_refused(call):
    with pytest.raises(ValueError):
        call()
