"""Exact linear algebra over the rationals: one sparse elimination.

A matrix is a list of rows of ints and `fractions.Fraction`s (any other
entry is a ValueError): no floating point is ever introduced.  A row is a
sequence or a sparse {column: value} dict, absent columns being 0 (`solve`
reads sequences only, and `nullspace` needs the width `cols` for dict rows;
both raise ValueError on a row that does not fit the width).  Nothing here
builds or multiplies dense matrices: callers build each matrix once, in the
form they eliminate it.

One elimination, `_echelon`, serves `independent_rows`, `pivot_columns`,
`rank`, `nullspace` and `solve`: sparse, fraction-free row echelon form
over the integers (Bareiss 1968; Dumas-Saunders-Villard 2001).  Rows are
kept as {column: int} dicts, since the strand differentials have up to a
few hundred rows and columns, about 5 % nonzero, with small entries.
Pivot rows are primitive with a positive leading entry, so a row reduced
against a pivot led by 1, the common case for the +-1 entries of the strand
differentials, is never rescaled.  Kernel vectors come from one integer
back-substitution over a common denominator, so no `Fraction` is built in
either inner loop.  The set of pivot columns and the kernel vector with
given free entries do not depend on the elimination, so the results equal
those of dense Gauss-Jordan elimination, which the tests keep as `rref`,
their oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = ["independent_rows", "pivot_columns", "rank", "nullspace", "solve"]


def _echelon(A):
    """(pivots, chosen): the row echelon form of A as primitive integer rows
    {column: int} with positive leading entries, keyed by leading column,
    and the indices of the rows of A that became pivots, i.e. those
    independent of all earlier rows.

    A row is a sequence or a {column: value} dict, absent columns being 0.
    Each row, scaled by the lcm of its denominators if it has a non-int
    entry, is reduced against the pivots by r <- (p[c]/g) r - (r[c]/g) p
    with g = gcd(p[c], r[c]), so a pivot with leading entry 1 needs no
    rescaling of r; a row that does not reduce to zero becomes a pivot,
    divided by its content with the sign of its leading entry.
    """
    pivots: dict[int, dict[int, int]] = {}
    chosen = []
    for index, row in enumerate(A):
        r = {j: x for j, x in (row.items() if isinstance(row, dict)
                               else enumerate(row)) if x}
        for x in r.values():
            if type(x) is not int:
                if not all(isinstance(y, (int, Fraction)) for y in r.values()):
                    raise ValueError(f"row {index} holds an entry that is "
                                     "neither an int nor a Fraction")
                den = lcm(*(x.denominator for x in r.values()))
                r = {j: x.numerator * (den // x.denominator) for j, x in r.items()}
                break
        while r:
            c = min(r)
            p = pivots.get(c)
            if p is None:
                g = gcd(*r.values())
                if r[c] < 0:
                    g = -g
                pivots[c] = {j: x // g for j, x in r.items()} if g != 1 else r
                chosen.append(index)
                break
            a, b = p[c], r[c]
            if a != 1:
                g = gcd(a, b)
                a, b = a // g, b // g
                if a != 1:
                    r = {j: a * x for j, x in r.items()}
            for j, x in p.items():
                y = r.get(j, 0) - b * x
                if y:
                    r[j] = y
                else:
                    del r[j]
    return pivots, chosen


def _kernel_vector(pivots, free: dict[int, int], n: int) -> list[Fraction]:
    """Entries 0..n-1 of the kernel vector of `pivots` whose other non-pivot
    entries are the integers `free` (absent means 0).

    Pivot entries are solved right to left as X / D with one denominator:
    p[c] X[c] = -s for s = sum p[j] X[j] over the known entries, so X and D
    are scaled by p[c] / gcd(s, p[c]) (p[c] > 0).
    """
    X = dict(free)
    D = 1
    for c in sorted(pivots, reverse=True):
        p = pivots[c]
        s = sum(x * X[j] for j, x in p.items() if j in X)
        if not s:
            continue
        a = p[c]
        g = gcd(s, a)
        if a != g:
            for j in X:
                X[j] *= a // g
            D *= a // g
        X[c] = -s // g
    return [Fraction(X.get(j, 0), D) for j in range(n)]


def independent_rows(A) -> list[int]:
    """Indices of the rows of A that are independent of all earlier rows."""
    return _echelon(A)[1]


def pivot_columns(A) -> list[int]:
    """The leading columns of the row echelon form of A, in increasing
    order; they depend only on the row space of A, and there are rank(A)
    of them."""
    return sorted(_echelon(A)[0])


def rank(A) -> int:
    return len(_echelon(A)[1])


def _width(A, cols) -> int:
    """The common width of A's rows: `cols` when given, else that of its
    first row, which must then be a sequence; ValueError on a row of
    another width, a dict row without `cols` or a column outside it."""
    n = cols if cols is not None else len(A[0]) if A else 0
    for row in A:
        if isinstance(row, dict):
            if cols is None:
                raise ValueError("a dict row needs the width cols")
            if any(not 0 <= j < n for j in row):
                raise ValueError(f"dict row {row!r} outside columns 0..{n - 1}")
        elif len(row) != n:
            raise ValueError(f"row of length {len(row)} in a matrix of width {n}")
    return n


def nullspace(A, cols: int | None = None):
    """Basis of the right kernel of A, of width `cols` when given and else
    that of A's first row: per non-pivot column, the kernel vector with 1
    there, 0 at the others."""
    n = _width(A, cols)
    pivots, _ = _echelon(A)
    return [_kernel_vector(pivots, {f: 1}, n) for f in range(n) if f not in pivots]


def solve(A, b):
    """One solution x of A x = b, or None if the system is inconsistent:
    the kernel vector of [A | b] with -1 on b, 0 on the free columns of A.
    ValueError unless A's rows are sequences of one width, one per entry
    of b."""
    if len(A) != len(b):
        raise ValueError(f"{len(A)} equations for {len(b)} right-hand sides")
    if not A:
        return []
    n = _width(A, None)
    pivots, _ = _echelon([list(row) + [y] for row, y in zip(A, b)])
    return None if n in pivots else _kernel_vector(pivots, {n: -1}, n)
