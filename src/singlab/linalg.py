"""Exact linear algebra over the rationals.

Everything here works on plain lists of lists whose entries are ints or
`fractions.Fraction`; no floating point is ever introduced.

Rank and the choice of independent rows go through one routine,
`independent_rows`: sparse, fraction-free elimination over the integers
(Bareiss 1968; Dumas-Saunders-Villard 2001).  The strand differentials it
sees have up to a few hundred rows and columns, about 5 % nonzero, with
small integer entries, so rows are kept as {column: int} dicts and no
`Fraction` is built in the inner loop.  The result is exact over Q; there is no modular
shortcut.

Dense Gauss-Jordan elimination (`rref`) serves the small systems behind
`nullspace`, `solve` and `inverse`, and is the oracle the tests check
`independent_rows` and `rank` against.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def zeros(rows: int, cols: int) -> list[list[Fraction]]:
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(n: int) -> list[list[Fraction]]:
    M = zeros(n, n)
    for i in range(n):
        M[i][i] = Fraction(1)
    return M


def matmul(A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    if A and len(A[0]) != k:
        raise AssertionError("shape mismatch")
    out = zeros(n, m)
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a == 0:
                continue
            Bt = B[t]
            row = out[i]
            for j in range(m):
                row[j] += a * Bt[j]
    return out


def transpose(A):
    if not A:
        return []
    return [list(col) for col in zip(*A)]


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


def independent_rows(A) -> list[int]:
    """Indices of the rows of A that are independent of all earlier rows.

    Each row is scaled by the lcm of its denominators and kept as a
    {column: int} dict without zeros.  It is then reduced against the pivot
    rows found so far, keyed by leading column, by
    r <- (p[c]/g) r - (r[c]/g) p with g = gcd(p[c], r[c]).  A row that does
    not reduce to zero becomes the pivot for its leading column, divided by
    the gcd of its entries.
    """
    pivots: dict[int, dict[int, int]] = {}
    chosen = []
    for index, row in enumerate(A):
        nonzero = [(j, x) for j, x in enumerate(row) if x]
        den = lcm(*(x.denominator for _, x in nonzero))
        r = {j: x.numerator * (den // x.denominator) for j, x in nonzero}
        while r:
            c = min(r)
            p = pivots.get(c)
            if p is None:
                g = gcd(*r.values())
                pivots[c] = {j: x // g for j, x in r.items()} if g != 1 else r
                chosen.append(index)
                break
            g = gcd(p[c], r[c])
            a, b = p[c] // g, r[c] // g
            if a != 1:
                r = {j: a * x for j, x in r.items()}
            for j, x in p.items():
                y = r.get(j, 0) - b * x
                if y:
                    r[j] = y
                else:
                    del r[j]
    return chosen


def rank(A) -> int:
    return len(independent_rows(A))


def nullspace(A, cols: int | None = None):
    """Basis of the right kernel of A, as a list of column vectors."""
    if not A:
        return [[Fraction(1) if i == j else Fraction(0) for i in range(cols or 0)]
                for j in range(cols or 0)] if cols else []
    n = len(A[0])
    R, pivots = rref(A)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(v)
    return basis


def solve(A, b):
    """One solution x of A x = b, or None if the system is inconsistent."""
    rows = len(A)
    if rows == 0:
        return []
    n = len(A[0])
    aug = [[Fraction(x) for x in A[i]] + [Fraction(b[i])] for i in range(rows)]
    R, pivots = rref(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        x[pc] = R[r][n]
    return x


def det(A) -> Fraction:
    n = len(A)
    M = [[Fraction(x) for x in row] for row in A]
    sign = 1
    d = Fraction(1)
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if M[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            M[c], M[pivot] = M[pivot], M[c]
            sign = -sign
        d *= M[c][c]
        inv = 1 / M[c][c]
        for i in range(c + 1, n):
            if M[i][c] != 0:
                f = M[i][c] * inv
                M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    return d * sign


def inverse(A):
    n = len(A)
    aug = [[Fraction(x) for x in A[i]] + identity(n)[i] for i in range(n)]
    R, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in R]


def charpoly(A) -> list[Fraction]:
    """Characteristic polynomial det(xI - A), coefficients ascending in x.

    Faddeev-LeVerrier recursion; exact over the rationals.
    """
    n = len(A)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    M = identity(n)
    for k in range(1, n + 1):
        AM = matmul(A, M)
        tr = sum(AM[i][i] for i in range(n))
        c = -tr / k
        coeffs[n - k] = c
        M = [row[:] for row in AM]
        for i in range(n):
            M[i][i] += c
    return coeffs
