"""Finitely generated abelian groups presented by integer relation matrices.

A group is presented as Z^n / L where L is the row space of an integer
relation matrix.  Smith normal form gives the classification Z^r + sum of
Z/t_i, a canonical form for elements, and (when the free rank is one) a
normalized degree map.  These groups carry the multigradings used everywhere
else in the package: the weight group of a Fermat potential, box-minus
products, and their degree maps.

Conventions fixed here, used by every consumer:

* Smith normal form is U * M * V = S (transforms on both sides of the
  input), with U and V unimodular and S diagonal with a divisibility chain.
  Invariant factors equal to 1 are suppressed in reports; zero diagonal
  entries contribute to the free rank.
* Element canonical form: torsion residues reduced into [0, t_i), free
  coordinates left as unreduced integers.
* The degree map of a rank-one pointed group is the quotient by the torsion
  subgroup, normalized so the marked element has positive degree.
* A group is a value identified by its presentation: groups built from the
  same generator count and relation rows are equal, and their elements mix.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

__all__ = [
    "int_tuple",
    "IntMatrix",
    "SmithForm",
    "FGAbelianGroup",
    "GroupElement",
    "PointedAbelianGroup",
    "smith_normal_form",
    "group_from_relations",
    "reduce_element",
    "boxminus",
    "boxminus_pair",
    "weight_group",
    "pointed_Z",
]


def int_tuple(values) -> tuple:
    """`values` as a tuple of ints; ValueError on a value that is not equal
    to its int(), so nothing is truncated."""
    values = tuple(values)
    ints = tuple(map(int, values))
    if ints != values:
        bad = next(x for x, i in zip(values, ints) if x != i)
        raise ValueError(f"{bad!r} is not an integer")
    return ints


class IntMatrix:
    """Immutable integer matrix, entries stored row-major.

    Arbitrary-precision throughout; no overflow policy is needed.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = int_tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(n, m, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        columns = [other.entries[j::other.cols] for j in range(other.cols)]
        return IntMatrix(self.rows, other.cols,
                         _product(map(self.row, range(self.rows)), columns))

    def kronecker(self, other: "IntMatrix") -> "IntMatrix":
        """Kronecker product, blocks ordered row-major."""
        ent = []
        for i1 in range(self.rows):
            for i2 in range(other.rows):
                for j1 in range(self.cols):
                    for j2 in range(other.cols):
                        ent.append(self[i1, j1] * other[i2, j2])
        return IntMatrix(self.rows * other.rows, self.cols * other.cols, ent)

    def det(self) -> int:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        # Bareiss: each update is divided exactly by the previous pivot
        M, n, sign, prev = self.to_rows(), self.rows, 1, 1
        for k in range(n):
            if not M[k][k]:
                swap = next((i for i in range(k + 1, n) if M[i][k]), None)
                if swap is None:
                    return 0
                M[k], M[swap], sign = M[swap], M[k], -sign
            pivot = M[k][k]
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    M[i][j] = (M[i][j] * pivot - M[i][k] * M[k][j]) // prev
            prev = pivot
        return sign * prev

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix.from_rows({self.to_rows()!r})"


def _product(rows, columns) -> list:
    """The entries, row-major, of the product of the integer matrix with
    these rows and the one with these columns."""
    return [sum(map(operator.mul, r, c)) for r in rows for c in columns]


@dataclass(frozen=True)
class SmithForm:
    """U * M * V = S with U, V unimodular and S diagonal, d_i | d_{i+1}."""

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix
    invariant_factors: tuple  # diagonal entries > 1
    rank: int                 # number of nonzero diagonal entries
    # rows of V^{-1}, recorded next to V and checked with it when made
    V_inverse: tuple = field(repr=False)

    def diagonal(self):
        return [self.S[i, i] for i in range(min(self.S.rows, self.S.cols))]


def _snf_rows(M, m):
    """Diagonalize the rows M, each of length m, by unimodular row/column
    operations, tracking them.

    Pivots on the smallest nonzero entry of the remaining block and insists
    the pivot divide that whole block, so the diagonal comes out with the
    divisibility chain and zeros at the end.  Deterministic for fixed input.
    Returns U, S, V and V^{-1}: each column operation on V is recorded as
    the inverse row operation on V^{-1}.
    """
    S = [row[:] for row in M]
    n = len(S)
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    V = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V_inv = [row[:] for row in V]

    t = 0
    while t < min(n, m):
        pivot = None
        best = None
        for i in range(t, n):
            for j in range(t, m):
                a = S[i][j]
                if a and (best is None or abs(a) < best):
                    best = abs(a)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            S[t], S[pi] = S[pi], S[t]
            U[t], U[pi] = U[pi], U[t]
        if pj != t:
            for row in S:
                row[t], row[pj] = row[pj], row[t]
            for row in V:
                row[t], row[pj] = row[pj], row[t]
            V_inv[t], V_inv[pj] = V_inv[pj], V_inv[t]
        if S[t][t] < 0:
            S[t] = [-a for a in S[t]]
            U[t] = [-a for a in U[t]]
        p = S[t][t]
        dirty = False
        for i in range(t + 1, n):
            if S[i][t]:
                q = S[i][t] // p
                S[i] = [a - q * b for a, b in zip(S[i], S[t])]
                U[i] = [a - q * b for a, b in zip(U[i], U[t])]
                dirty = dirty or S[i][t] != 0
        for j in range(t + 1, m):
            if S[t][j]:
                q = S[t][j] // p
                for row in S:
                    row[j] -= q * row[t]
                for row in V:
                    row[j] -= q * row[t]
                V_inv[t] = [a + q * b for a, b in zip(V_inv[t], V_inv[j])]
                dirty = dirty or S[t][j] != 0
        if dirty:
            continue
        offender = None
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if S[i][j] % p != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            # fold the offending row into the pivot row; the next pass finds
            # a strictly smaller pivot, so this terminates
            S[t] = [a + b for a, b in zip(S[t], S[offender])]
            U[t] = [a + b for a, b in zip(U[t], U[offender])]
            continue
        t += 1
    return U, S, V, V_inv


def smith_normal_form(M: IntMatrix) -> SmithForm:
    """Smith normal form U * M * V = S.

    Zero and non-square matrices are allowed; output is deterministic for a
    fixed input.  Checked whole before it is returned: U M V = S, V V^{-1}
    = I and the divisibility chain, each an AssertionError.  The checks
    multiply the row lists of the form; only U, S and V are stored.
    """
    n, m = M.rows, M.cols
    M_rows = M.to_rows()
    U_rows, S_rows, V_rows, V_inv_rows = _snf_rows(M_rows, m)
    S_entries = [x for row in S_rows for x in row]
    MV = _product(M_rows, list(zip(*V_rows)))
    if _product(U_rows, [MV[j::m] for j in range(m)]) != S_entries:
        raise AssertionError("SNF transform check failed")
    if _product(V_rows, list(zip(*V_inv_rows))) != \
            [int(i == j) for i in range(m) for j in range(m)]:
        raise AssertionError("recorded inverse of the SNF transform V is wrong")
    U = IntMatrix(n, n, [x for row in U_rows for x in row])
    S = IntMatrix(n, m, S_entries)
    V = IntMatrix(m, m, [x for row in V_rows for x in row])
    diag = [S_rows[i][i] for i in range(min(n, m))]
    rank = sum(1 for d in diag if d != 0)
    for i in range(rank - 1):
        if diag[i + 1] % diag[i] != 0:
            raise AssertionError("divisibility chain broken")
    factors = tuple(d for d in diag if d > 1)
    return SmithForm(U, S, V, factors, rank, tuple(map(tuple, V_inv_rows)))


@dataclass(frozen=True)
class FGAbelianGroup:
    """Z^n modulo the row space of an integer relation matrix, a value whose
    identity (equality, hash) is its presentation: n and the relation rows."""

    num_generators: int
    relations: IntMatrix
    normal_form: SmithForm = field(compare=False)
    free_rank: int = field(compare=False)
    invariant_factors: tuple = field(compare=False)

    def torsion_order(self) -> int:
        return math.prod(self.invariant_factors) if self.invariant_factors else 1

    def zero(self) -> "GroupElement":
        return reduce_element(self, [0] * self.num_generators)

    def generator(self, i: int) -> "GroupElement":
        v = [0] * self.num_generators
        v[i] = 1
        return reduce_element(self, v)

    def element(self, coords) -> "GroupElement":
        return reduce_element(self, coords)

    def from_canonical(self, residues, free) -> "GroupElement":
        """Rebuild an element from canonical (torsion residues, free) data:
        one residue per invariant factor, one integer per free coordinate."""
        residues, free = tuple(residues), tuple(free)
        if len(residues) != len(self.invariant_factors) or len(free) != self.free_rank:
            raise ValueError("canonical data of the wrong length")
        # the diagonal entries equal to 1 come first and carry no residue
        n = self.num_generators
        y = (0,) * (self.normal_form.rank - len(residues)) + residues + free
        Vinv = self.normal_form.V_inverse
        v = [sum(y[t] * Vinv[t][j] for t in range(n)) for j in range(n)]
        return reduce_element(self, v)

    def torsion_elements(self):
        """All torsion elements, enumerated through canonical residues."""
        zero_free = (0,) * self.free_rank
        out = []
        for residues in itertools.product(*[range(t) for t in self.invariant_factors]):
            out.append(self.from_canonical(residues, zero_free))
        return out


@dataclass(frozen=True, eq=False)
class GroupElement:
    """Element of an FGAbelianGroup with a unique canonical form.

    Two elements are equal iff their groups and canonical forms agree, so
    elements of groups built from equal relations mix; the canonical form
    is invariant under adding relation rows.
    """

    group: FGAbelianGroup = field(repr=False)
    coordinates: tuple
    canonical: tuple  # (torsion residues, free coordinates)

    def __eq__(self, other):
        return (isinstance(other, GroupElement) and self.group == other.group
                and self.canonical == other.canonical)

    def __hash__(self):
        return hash((self.group, self.canonical))

    def _check(self, other):
        if self.group != other.group:
            raise ValueError("elements of different groups")

    def __add__(self, other):
        self._check(other)
        return reduce_element(self.group,
                              [a + b for a, b in zip(self.coordinates, other.coordinates)])

    def __sub__(self, other):
        self._check(other)
        return reduce_element(self.group,
                              [a - b for a, b in zip(self.coordinates, other.coordinates)])

    def __neg__(self):
        return reduce_element(self.group, [-a for a in self.coordinates])

    def __mul__(self, k: int):
        return reduce_element(self.group, [k * a for a in self.coordinates])

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        residues, free = self.canonical
        return not any(residues) and not any(free)

    def is_torsion(self) -> bool:
        return not any(self.canonical[1])


def group_from_relations(n: int, relations: IntMatrix) -> FGAbelianGroup:
    """The quotient of Z^n by the row space of `relations`."""
    if relations.rows > 0 and relations.cols != n:
        raise ValueError(f"relations have {relations.cols} columns, expected {n}")
    if relations.rows == 0:
        relations = IntMatrix.zero(0, n)
    snf = smith_normal_form(relations)
    return FGAbelianGroup(n, relations, snf, n - snf.rank, snf.invariant_factors)


def reduce_element(G: FGAbelianGroup, v) -> GroupElement:
    """Canonical form of the class of v in G; ValueError unless v is a
    vector of integers of the right length."""
    # int_tuple's check, inline: on this hot path the call costs more
    coords = tuple(v)
    v = tuple(map(int, coords))
    if v != coords:
        raise ValueError(f"{coords!r} is not a vector of integers")
    if len(v) != G.num_generators:
        raise ValueError(f"vector of length {len(v)}, expected {G.num_generators}")
    snf = G.normal_form
    n = G.num_generators
    V = snf.V.entries
    y = [sum(map(operator.mul, v, V[j::n])) for j in range(n)]
    # the diagonal entries equal to 1 come first, the invariant factors last
    rank, factors = snf.rank, snf.invariant_factors
    residues = tuple(map(operator.mod, y[rank - len(factors):rank], factors))
    free = tuple(y[rank:])
    return GroupElement(G, v, (residues, free))


@dataclass(frozen=True)
class PointedAbelianGroup:
    """A group with a distinguished non-torsion element and a degree map.

    When the free rank is one, `degree` is the normalized quotient by the
    torsion subgroup, oriented so the marked element has positive degree.
    """

    group: FGAbelianGroup
    marked: GroupElement

    def __post_init__(self):
        if self.marked.group != self.group:
            raise ValueError("marked element of a different group")
        if self.marked.is_torsion():
            raise ValueError("marked element is torsion")

    def _degree_sign(self) -> int:
        if self.group.free_rank != 1:
            raise ValueError("degree map needs free rank 1")
        return 1 if self.marked.canonical[1][0] > 0 else -1

    def degree(self, e: GroupElement) -> int:
        """Degree of an element; zero exactly on torsion, surjective onto Z."""
        if e.group != self.group:
            raise ValueError("element of a different group")
        return self._degree_sign() * e.canonical[1][0]

    def elements_of_degree(self, k: int):
        """All elements of a given degree (a torsion coset)."""
        base = self.group.from_canonical(
            (0,) * len(self.group.invariant_factors),
            (self._degree_sign() * k,) * 1)
        return [base + t for t in self.group.torsion_elements()]


def boxminus(A: PointedAbelianGroup, B: PointedAbelianGroup) -> PointedAbelianGroup:
    """A boxminus B: (A + B) / (marked_A, -marked_B), marked at the common image.

    Coordinates of A boxminus B are A's followed by B's (`boxminus_pair`).
    The degree map of the result is the normalized one; on the images of
    elements a of A and b of B it agrees with
    (deg(d') deg(a) + deg(d) deg(b)) / gcd(deg(d), deg(d')).
    """
    nA, nB = A.group.num_generators, B.group.num_generators
    rows = []
    for i in range(A.group.relations.rows):
        rows.append(list(A.group.relations.row(i)) + [0] * nB)
    for i in range(B.group.relations.rows):
        rows.append([0] * nA + list(B.group.relations.row(i)))
    rows.append(list(A.marked.coordinates) + [-c for c in B.marked.coordinates])
    G = group_from_relations(nA + nB, IntMatrix.from_rows(rows))
    return PointedAbelianGroup(G, boxminus_pair(G, A.marked, B.group.zero()))


def boxminus_pair(G: FGAbelianGroup, a: GroupElement, b: GroupElement) -> GroupElement:
    """The element (a, b) of the group G of A boxminus B (`boxminus`).

    Its coordinates are a's followed by b's.
    """
    return reduce_element(G, a.coordinates + b.coordinates)


def pointed_Z(marked: int) -> PointedAbelianGroup:
    """(Z, marked), the building block of weight groups; marked != 0."""
    G = group_from_relations(1, IntMatrix.zero(0, 1))
    return PointedAbelianGroup(G, reduce_element(G, [marked]))


def weight_group(d) -> PointedAbelianGroup:
    """The group Z^{n+1} / (d_i e_i - d_j e_j) with marked element d_0 e_0.

    Free rank one; the generator e_i has degree lcm(d) / d_i and the torsion
    subgroup has order d_0 ... d_n / lcm(d).
    """
    d = list(d)
    if not d:
        raise ValueError("empty weight sequence")
    if any(x < 1 for x in d):
        raise ValueError("weights must be >= 1")
    n = len(d)
    rows = []
    for i in range(n - 1):
        r = [0] * n
        r[i] = d[i]
        r[i + 1] = -d[i + 1]
        rows.append(r)
    G = group_from_relations(n, IntMatrix.from_rows(rows))
    marked = [0] * n
    marked[0] = d[0]
    return PointedAbelianGroup(G, reduce_element(G, marked))
