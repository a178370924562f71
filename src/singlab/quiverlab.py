"""ADE quiver path algebras and their module calculus, over exact rationals.

Modules here are left modules over the path algebra with paths composed by
concatenation, so an arrow a: s -> t acts on a module by a linear map from
the component at t to the component at s.  With this convention (the one the
hom and extension formulas in this package are written against):

* the projective P_v has (P_v)_u = span of paths u -> v, Hom(P_v, M) = M_v;
* Ext^1(S_v, S_w) counts the arrows starting at w and ending at v;
* a representation morphism X: M -> N satisfies
  X_s . act_M(a) = act_N(a) . X_t for every arrow a: s -> t.

Everything is computed by exact rational linear algebra from one two-term
complex per pair of modules (Ringel 1976):

    delta: C^0 = sum_v Hom(M_v, N_v) -> C^1 = sum_a Hom(M_t(a), N_s(a)),
    delta(X)_a = X_s . act_M(a) - act_N(a) . X_t,

built once by `_coboundary` as sparse rows together with its columns, the
images of the unit vectors of C^0, and handed to `linalg`, which only
eliminates.  Hom(M, N) is the kernel of the rows.  Ext^1(M, N) is the
cokernel: its basis is the unit cocycles at the entries of C^1 that lead no
row of the echelon form of the columns, and a cocycle is a coboundary
exactly when it adds no independent vector to the columns.  Blocks are
flattened row-major, one per vertex in C^0 and one per arrow in C^1.  An
explicit projective resolution gives Ext^1 by a second, independent route,
kept for the tests.  Representation entries are `int` when integral and
`Fraction` otherwise, and `_product` is the one dense matrix product.

Shifted sums of modules model the bounded derived category -- legitimate
because path algebras of acyclic quivers are hereditary, so every complex
splits into its cohomology.  Morphism spaces between shifted modules are
assembled from Hom and Ext^1 blocks; chains of generator-ghost maps with
nonzero composite certify lower bounds for generation time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .abgroup import IntMatrix, int_tuple
from .decompose import ADEType

__all__ = [
    "Quiver",
    "Representation",
    "DerivedObject",
    "DerivedMorphism",
    "GhostCertificate",
    "ComplexOfReps",
    "ade_quiver",
    "cartan_matrix",
    "coxeter_polynomial",
    "tensor_cartan",
    "loewy_length",
    "loewy_length_tensor",
    "tensor_nilpotency_degree",
    "ext_simples",
    "simple_rep",
    "projective_rep",
    "rep_hom",
    "ext_rep",
    "ext_class_is_zero",
    "ext_via_resolution",
    "projective_resolution",
    "euler_form",
    "hom_basis",
    "is_ghost",
    "ghost_lower_bound",
    "split_complex",
]


def _topological_order(vertices, succ):
    """Kahn's order of `vertices` along the successor lists `succ[v]`, or
    None when the graph has a directed cycle."""
    indeg = {v: 0 for v in vertices}
    for v in vertices:
        for t in succ[v]:
            indeg[t] += 1
    order = [v for v in vertices if not indeg[v]]
    for v in order:  # the list grows while it is read
        for t in succ[v]:
            indeg[t] -= 1
            if not indeg[t]:
                order.append(t)
    return order if len(order) == len(indeg) else None


class Quiver:
    """A finite quiver with vertices 1..n; must be acyclic where required.

    A topological order of the vertices is found once, when the quiver is
    built, and is None for a quiver with a directed cycle.
    """

    __slots__ = ("num_vertices", "arrows", "_succ", "_order")

    def __init__(self, num_vertices: int, arrows):
        (num_vertices,) = int_tuple((num_vertices,))
        if num_vertices < 0:
            raise ValueError(f"negative vertex count {num_vertices}")
        arrows = tuple(int_tuple(arrow) for arrow in arrows)
        for s, t in arrows:
            if not (1 <= s <= num_vertices and 1 <= t <= num_vertices):
                raise ValueError(f"arrow ({s},{t}) out of range")
        self.num_vertices = num_vertices
        self.arrows = arrows
        # _succ[s]: the targets of the arrows out of s, in arrow order
        self._succ = [[] for _ in range(num_vertices + 1)]
        for s, t in arrows:
            self._succ[s].append(t)
        order = _topological_order(self.vertices(), self._succ)
        self._order = None if order is None else tuple(order)

    def vertices(self):
        return range(1, self.num_vertices + 1)

    def is_acyclic(self) -> bool:
        return self._order is not None

    def require_acyclic(self) -> tuple:
        """A topological order of the vertices; ValueError on a cycle."""
        if self._order is None:
            raise ValueError("quiver has directed cycles")
        return self._order

    def path_counts(self):
        """Matrix of path counts (trivial paths included on the diagonal)."""
        order = self.require_acyclic()
        n = self.num_vertices
        counts = [[0] * (n + 1) for _ in range(n + 1)]
        for v in self.vertices():
            counts[v][v] = 1
        for v in reversed(order):
            for t in self._succ[v]:
                for u in self.vertices():
                    counts[v][u] += counts[t][u]
        return counts

    def paths(self):
        """All paths as vertex tuples (v_0, ..., v_k), trivial paths included."""
        self.require_acyclic()
        out = [(v,) for v in self.vertices()]
        frontier = [(v,) for v in self.vertices()]
        while frontier:
            frontier = [p + (t,) for p in frontier for t in self._succ[p[-1]]]
            out.extend(frontier)
        return out

    def longest_path(self) -> int:
        order = self.require_acyclic()
        best = {v: 0 for v in self.vertices()}
        for v in reversed(order):
            for t in self._succ[v]:
                best[v] = max(best[v], 1 + best[t])
        return max(best.values()) if best else 0

    def __eq__(self, other):
        return (isinstance(other, Quiver) and self.num_vertices == other.num_vertices
                and self.arrows == other.arrows)

    def __hash__(self):
        return hash((self.num_vertices, self.arrows))

    def __repr__(self):
        return f"Quiver({self.num_vertices}, {list(self.arrows)!r})"


def ade_quiver(t: ADEType) -> Quiver:
    """The fixed orientations: linear A_n; D_n forked at n-2; E_n branched at 3.

    The derived category does not depend on the orientation, so fixing one
    loses nothing; equality of Coxeter polynomials is how tensor-product
    identifications are checked downstream.
    """
    if t.family == "A":
        n = t.index
        return Quiver(n, [(i, i + 1) for i in range(1, n)])
    if t.family == "D":
        n = t.index
        arrows = [(i, i + 1) for i in range(1, n - 2)]
        arrows += [(n - 2, n - 1), (n - 2, n)]
        return Quiver(n, arrows)
    n = t.index  # E_n: chain 1-2-3, branch 3->4, chain 3->5->...->n
    arrows = [(1, 2), (2, 3), (3, 4), (3, 5)]
    arrows += [(i, i + 1) for i in range(5, n)]
    return Quiver(n, arrows)


def cartan_matrix(Q: Quiver) -> IntMatrix:
    """Entry (i, j) = number of paths i -> j; unitriangular, determinant 1."""
    counts = Q.path_counts()
    n = Q.num_vertices
    return IntMatrix.from_rows([[counts[i][j] for j in range(1, n + 1)]
                                for i in range(1, n + 1)])


def _unitriangular_order(C: IntMatrix):
    """A vertex order in which the Cartan matrix C is upper unitriangular.

    C must be square with ones on the diagonal, and its off-diagonal support
    (i -> j when C[i, j] != 0) must be acyclic; otherwise ValueError.
    """
    n = C.rows
    if n != C.cols:
        raise ValueError("Cartan matrix must be square")
    if any(C[i, i] != 1 for i in range(n)):
        raise ValueError("Cartan matrix must have ones on the diagonal")
    succ = [[j for j in range(n) if j != i and C[i, j]] for i in range(n)]
    order = _topological_order(range(n), succ)
    if order is None:
        raise ValueError("Cartan matrix support has a directed cycle")
    return order


def _charpoly(A):
    """det(xI - A) of an integer matrix, ascending int coefficients.

    Faddeev-LeVerrier: M_1 = I, c_{n-k} = -tr(A M_k) / k and
    M_{k+1} = A M_k + c_{n-k} I.  The c_{n-k} are the coefficients of the
    characteristic polynomial, integers for integer A, so every M_k is an
    integer matrix and every division is exact; a remainder is an invariant
    breach (AssertionError).
    """
    n = len(A)
    coeffs = [0] * n + [1]
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        AM = _product(A, M, n, n, n)
        c, r = divmod(-sum(AM[i][i] for i in range(n)), k)
        if r:
            raise AssertionError("Faddeev-LeVerrier trace not divisible by k")
        coeffs[n - k] = c
        for i in range(n):
            AM[i][i] += c
        M = AM
    return coeffs


def coxeter_polynomial(C: IntMatrix):
    """Characteristic polynomial of Phi = -C^{-T} C, ascending int coefficients.

    C must be the Cartan matrix of an acyclic quiver, its vertices in any
    order: square, ones on the diagonal, and an acyclic off-diagonal
    support; anything else raises ValueError.  In a topological order of
    the support C is upper unitriangular, and reordering the vertices
    conjugates Phi, which leaves its characteristic polynomial alone.
    Everything is integer arithmetic: C^{-1} by back-substitution, Phi as
    int rows, and the exact-division recursion of `_charpoly`.

    A derived-equivalence invariant used one-sidedly: equality is necessary
    for equivalence, inequality refutes it.
    """
    order = _unitriangular_order(C)
    n = len(order)
    U = [[C[i, j] for j in order] for i in order]
    # X = U^{-1}, upper unitriangular: row i is e_i - sum_{k>i} U[i][k] X[k]
    X = [None] * n
    for i in reversed(range(n)):
        row = [int(i == j) for j in range(n)]
        for k in range(i + 1, n):
            u = U[i][k]
            if u:
                row = [x - u * y for x, y in zip(row, X[k])]
        X[i] = row
    # Phi[i] = -sum_k X[k][i] U[k], with X[k][i] = 0 for k > i
    phi = []
    for i in range(n):
        row = [0] * n
        for k in range(i + 1):
            x = X[k][i]
            if x:
                row = [y - x * z for y, z in zip(row, U[k])]
        phi.append(row)
    return _charpoly(phi)


def tensor_cartan(C_A: IntMatrix, C_B: IntMatrix) -> IntMatrix:
    """Cartan matrix of a tensor-product algebra: the Kronecker product."""
    if C_A.rows != C_A.cols or C_B.rows != C_B.cols:
        raise ValueError("Cartan matrices must be square")
    return C_A.kronecker(C_B)


def loewy_length(Q: Quiver) -> int:
    """Longest path length + 1 (nilpotency degree of the arrow ideal)."""
    return Q.longest_path() + 1


def loewy_length_tensor(lengths) -> int:
    """Loewy length of a tensor product: sum LL_i - (count - 1)."""
    lengths = list(lengths)
    if not lengths:
        raise ValueError("empty sequence of Loewy lengths")
    return sum(lengths) - (len(lengths) - 1)


def tensor_nilpotency_degree(quivers) -> int:
    """Direct nilpotency computation for a tensor product of path algebras.

    Basis elements of the tensor algebra are tuples of paths; the radical is
    spanned by tuples of total length >= 1.  Powers of the radical are
    computed by actually multiplying basis tuples (componentwise path
    concatenation), so this is an oracle for `loewy_length_tensor`.
    """
    quivers = list(quivers)
    if not quivers:
        raise ValueError("empty product")
    path_lists = [Q.paths() for Q in quivers]
    radical = [combo for combo in itertools.product(*path_lists)
               if sum(len(p) - 1 for p in combo) >= 1]

    def mul(a, b):
        out = []
        for p, q in zip(a, b):
            if p[-1] != q[0]:
                return None
            out.append(p + q[1:])
        return tuple(out)

    if not radical:
        return 1
    power = list(radical)
    t = 1
    while power:
        nxt = set()
        for a in power:
            for b in radical:
                ab = mul(a, b)
                if ab is not None:
                    nxt.add(ab)
        power = sorted(nxt)
        if power:
            t += 1
    # N^t was the last nonzero power, so the Loewy length is t + 1
    return t + 1


def _vertex(Q: Quiver, v) -> int:
    """v as a vertex of Q; ValueError unless it is an integer in 1..n."""
    (v,) = int_tuple((v,))
    if not 1 <= v <= Q.num_vertices:
        raise ValueError(f"vertex {v} out of range")
    return v


def ext_simples(Q: Quiver, v: int, v_prime: int, t: int) -> int:
    """dim Ext^t(S_v, S_v'): 1 at t=0 iff v = v'; arrows v' -> v at t=1.

    Hereditary algebras have no higher extensions, so the answer is 0 for
    t >= 2.
    """
    v, v_prime = _vertex(Q, v), _vertex(Q, v_prime)
    (t,) = int_tuple((t,))
    if t == 0:
        return 1 if v == v_prime else 0
    if t == 1:
        return Q._succ[v_prime].count(v)
    return 0


# ---------------------------------------------------------------------------
# representations


def _rational(x):
    """x as an exact rational: an `int` when integral, else a `Fraction`."""
    if type(x) is not int:
        x = Fraction(x)
        if x.denominator == 1:
            x = x.numerator
    return x


class Representation:
    """A finite-dimensional module: dims per vertex, a matrix per arrow.

    maps[k] is the action of arrows[k]: a (dim at source) x (dim at target)
    matrix over the rationals, applied to the component at the target, as
    a tuple of row tuples whose entries are `int` when integral and
    `Fraction` otherwise.
    """

    __slots__ = ("quiver", "dims", "maps")

    def __init__(self, quiver: Quiver, dims, maps=None):
        quiver.require_acyclic()
        dims = int_tuple(dims)
        if len(dims) != quiver.num_vertices:
            raise ValueError("one dimension per vertex required")
        if any(d < 0 for d in dims):
            raise ValueError("negative dimension")
        self.quiver = quiver
        self.dims = dims
        if maps is None:
            maps = [[[0] * dims[t - 1]] * dims[s - 1] for s, t in quiver.arrows]
        if len(maps) != len(quiver.arrows):
            raise ValueError("one map per arrow required")
        for (s, t), M in zip(quiver.arrows, maps):
            if len(M) != dims[s - 1] or any(len(r) != dims[t - 1] for r in M):
                raise ValueError(f"map for arrow ({s},{t}) has wrong shape")
        self.maps = tuple(tuple(tuple(map(_rational, row)) for row in M)
                          for M in maps)

    def dim(self, v: int) -> int:
        return self.dims[v - 1]

    def total_dim(self) -> int:
        return sum(self.dims)

    def __eq__(self, other):
        return (isinstance(other, Representation) and self.quiver == other.quiver
                and self.dims == other.dims and self.maps == other.maps)

    def __hash__(self):
        return hash((self.quiver, self.dims, self.maps))

    def __repr__(self):
        return f"Representation(dims={self.dims})"


def simple_rep(Q: Quiver, v: int) -> Representation:
    """S_v: one-dimensional at v, zero elsewhere."""
    v = _vertex(Q, v)
    return Representation(Q, [1 if u == v else 0 for u in Q.vertices()])


def _paths_to(Q: Quiver):
    """paths[v][u]: the paths u -> v as vertex tuples, in `Q.paths()` order."""
    paths = {v: {u: [] for u in Q.vertices()} for v in Q.vertices()}
    for p in Q.paths():
        paths[p[-1]][p[0]].append(p)
    return paths


def projective_rep(Q: Quiver, v: int) -> Representation:
    """P_v: component at u spanned by the paths u -> v; top S_v.

    Hom(P_v, M) = M_v, so these detect every module component.
    """
    paths_to_v = _paths_to(Q)[_vertex(Q, v)]
    dims = [len(paths_to_v[u]) for u in Q.vertices()]
    # the arrow s -> t sends the path q: t -> v to (s,) + q: s -> v
    maps = [[[int(p == (s,) + q) for q in paths_to_v[t]] for p in paths_to_v[s]]
            for s, t in Q.arrows]
    return Representation(Q, dims, maps)


def _product(X, Y, n, k, m):
    """X (n x k) times Y (k x m), the one dense matrix product here; the
    shapes are explicit so that zero-dimensional blocks cannot lose them."""
    return [[sum(X[a][b] * Y[b][c] for b in range(k)) for c in range(m)]
            for a in range(n)]


def _flatten(blocks, shapes):
    """Concatenate the row-major entries of blocks of the given shapes."""
    return [block[i][j] for block, (rows, cols) in zip(blocks, shapes)
            for i in range(rows) for j in range(cols)]


def _split(vec, shapes):
    """Cut a flat vector into row-major blocks of the given shapes."""
    blocks = []
    pos = 0
    for rows, cols in shapes:
        blocks.append([vec[pos + i * cols:pos + (i + 1) * cols]
                       for i in range(rows)])
        pos += rows * cols
    return blocks


def _coboundary(M: Representation, N: Representation):
    """(rows, columns, shapes0, shapes1) of delta: C^0 -> C^1 for (M, N).

    delta is built once as sparse {index: value} dicts: `rows` has one per
    entry of C^1, indexed by the entries of C^0, and `columns`, the images
    of the unit vectors of C^0, one per entry of C^0, indexed by the
    entries of C^1.  shapes0 has the (rows, cols) of Hom(M_v, N_v) per
    vertex, shapes1 that of Hom(M_t(a), N_s(a)) per arrow.
    """
    if M.quiver != N.quiver:
        raise ValueError("representations over different quivers")
    Q = M.quiver
    shapes0 = [(N.dim(v), M.dim(v)) for v in Q.vertices()]
    shapes1 = [(N.dim(s), M.dim(t)) for s, t in Q.arrows]
    off0 = list(itertools.accumulate((r * c for r, c in shapes0), initial=0))
    rows = []
    columns = [{} for _ in range(off0[-1])]
    for k, (s, t) in enumerate(Q.arrows):
        A = M.maps[k]   # M_t -> M_s
        B = N.maps[k]   # N_t -> N_s
        # s != t (the quiver is acyclic), so the X_s and X_t entries differ
        for i in range(N.dim(s)):
            for j in range(M.dim(t)):
                row = {off0[s - 1] + i * M.dim(s) + c: A[c][j]
                       for c in range(M.dim(s)) if A[c][j]}
                row.update((off0[t - 1] + c * M.dim(t) + j, -B[i][c])
                           for c in range(N.dim(t)) if B[i][c])
                for col, x in row.items():
                    columns[col][len(rows)] = x
                rows.append(row)
    return rows, columns, shapes0, shapes1


def _extend_span(spanning, candidates):
    """The candidates that enlarge span(spanning), chosen greedily in order."""
    n = len(spanning)
    return [candidates[i - n]
            for i in linalg.independent_rows(spanning + candidates) if i >= n]


def rep_hom(M: Representation, N: Representation):
    """(dimension, basis) of the intertwiner space Hom(M, N) = ker delta."""
    rows, columns, shapes0, _ = _coboundary(M, N)
    kernel = linalg.nullspace(rows, cols=len(columns))
    basis = [dict(zip(M.quiver.vertices(), _split(vec, shapes0))) for vec in kernel]
    return len(basis), basis


def ext_rep(M: Representation, N: Representation):
    """(dimension, cocycle basis) of Ext^1(M, N) = coker delta.

    A cocycle is a matrix per arrow, Hom(M_{t(a)}, N_{s(a)}).  The basis is
    the unit vectors of C^1 at the entries that lead no row of the echelon
    form of the image of delta: with that echelon basis they form a
    triangular basis of C^1, so they complete the image.
    """
    rows, columns, _, shapes1 = _coboundary(M, N)
    n1 = len(rows)
    leading = set(linalg.pivot_columns(columns))
    classes = [dict(enumerate(_split([int(e == r) for e in range(n1)], shapes1)))
               for r in range(n1) if r not in leading]
    return len(classes), classes


def ext_class_is_zero(M: Representation, N: Representation, cocycle) -> bool:
    """Whether a cocycle is a coboundary (the trivial extension class)."""
    _, columns, _, shapes1 = _coboundary(M, N)
    vec = _flatten([cocycle[k] for k in range(len(shapes1))], shapes1)
    return not _extend_span(columns, [vec])


def projective_resolution(M: Representation):
    """The standard resolution 0 -> P1 -> P0 -> M -> 0 as representations.

    P0 = sum_v P_v tensor M_v, P1 = sum_{a: s->t} P_s tensor M_t, and the
    inclusion sends p tensor m to (p.a) tensor m - p tensor (a.m).
    """
    Q = M.quiver
    projs = {v: projective_rep(Q, v) for v in Q.vertices()}
    p0_parts = [(v, i) for v in Q.vertices() for i in range(M.dim(v))]
    p1_parts = [(k, j) for k, (s, t) in enumerate(Q.arrows) for j in range(M.dim(t))]
    P0 = _direct_sum([projs[v] for v, _ in p0_parts], Q)
    P1 = _direct_sum([projs[Q.arrows[k][0]] for k, _ in p1_parts], Q)

    # the inclusion P1 -> P0, one vertex at a time in path coordinates
    bases = _paths_to(Q)

    def entry(v, i, q, k, j, p):
        """The coefficient of q tensor e_i (q: u -> v) in the image of
        p tensor e_j (p: u -> s) from the summand of the arrow k: s -> t:
        1 from (p . a) tensor e_j, -act[i][j] from -p tensor (a . e_j)."""
        s, t = Q.arrows[k]
        if v == t and i == j and q == p + (t,):
            return 1
        return -M.maps[k][i][j] if v == s and q == p else 0

    iota = {}
    for u in Q.vertices():
        cols = [(k, j, p) for k, j in p1_parts for p in bases[Q.arrows[k][0]][u]]
        iota[u] = [[entry(v, i, q, *col) for col in cols]
                   for v, i in p0_parts for q in bases[v][u]]
    return P0, P1, iota


def _direct_sum(reps, Q: Quiver) -> Representation:
    dims = [sum(r.dim(v) for r in reps) for v in Q.vertices()]
    maps = []
    for k, (s, t) in enumerate(Q.arrows):
        M = []
        co = 0  # the block-diagonal rows of the summands, in order
        for r in reps:
            M.extend([0] * co + list(row) + [0] * (dims[t - 1] - co - r.dim(t))
                     for row in r.maps[k])
            co += r.dim(t)
        maps.append(M)
    return Representation(Q, dims, maps)


def ext_via_resolution(M: Representation, N: Representation) -> int:
    """dim Ext^1(M, N) as coker(Hom(P0, N) -> Hom(P1, N)); oracle route."""
    P0, P1, iota = projective_resolution(M)
    _, basis0 = rep_hom(P0, N)
    _, basis1 = rep_hom(P1, N)
    if not basis1:
        return 0
    # matrix of (- . iota): Hom(P0, N) -> Hom(P1, N) in the two bases
    vertices = M.quiver.vertices()
    shapes = [(N.dim(v), P1.dim(v)) for v in vertices]
    images = [_flatten([_product(X[v], iota[v], N.dim(v), P0.dim(v), P1.dim(v))
                        for v in vertices], shapes)
              for X in basis0]
    # rank of the image inside the coordinate space of Hom(P1, N)
    return len(basis1) - linalg.rank(images)


def euler_form(Q: Quiver, dim1, dim2) -> int:
    """sum_v m_v n_v - sum_{a: s->t} m_{t(a)} n_{s(a)}.

    Equals dim Hom(M, N) - dim Ext^1(M, N) for modules with these dimension
    vectors; ValueError unless each has one integer entry per vertex.
    """
    dim1, dim2 = int_tuple(dim1), int_tuple(dim2)
    if not len(dim1) == len(dim2) == Q.num_vertices:
        raise ValueError(f"dimension vectors of lengths {len(dim1)} and "
                         f"{len(dim2)} over {Q.num_vertices} vertices")
    total = sum(m * n for m, n in zip(dim1, dim2))
    for s, t in Q.arrows:
        total -= dim1[t - 1] * dim2[s - 1]
    return total


# ---------------------------------------------------------------------------
# shifted sums of modules: the hereditary derived model


@dataclass(frozen=True)
class DerivedObject:
    """A formal sum of shifted representations (valid hereditary model)."""

    summands: tuple  # ((Representation, shift), ...)

    def __post_init__(self):
        if self.summands:
            Q = self.summands[0][0].quiver
            for rep, _ in self.summands:
                if rep.quiver != Q:
                    raise ValueError("mixed quivers in one object")

    def shifted(self, k: int) -> "DerivedObject":
        return DerivedObject(tuple((r, s + k) for r, s in self.summands))


class DerivedMorphism:
    """A matrix of Hom and Ext^1 components between two shifted sums.

    The (i, j) component lives in Hom(X_i, Y_j[shift difference]); only
    differences 0 (an intertwiner, stored per vertex) and 1 (an extension
    cocycle, stored per arrow) can be nonzero for hereditary algebras.  A
    hom component holds one dim(Y_j, v) x dim(X_i, v) block per vertex v,
    an ext component one dim(Y_j, s) x dim(X_i, t) block per arrow index
    of a = (s, t); any other shape is refused with ValueError, since the
    products of `compose` trust the shapes.
    """

    __slots__ = ("source", "target", "components")

    def __init__(self, source: DerivedObject, target: DerivedObject, components):
        self.source = source
        self.target = target
        self.components = {}
        for (i, j), (kind, data) in components.items():
            if not (0 <= i < len(source.summands) and 0 <= j < len(target.summands)):
                raise ValueError(f"component ({i}, {j}) out of range")
            (X, sx), (Y, sy) = source.summands[i], target.summands[j]
            if X.quiver != Y.quiver:
                raise ValueError("component between different quivers")
            if kind == "hom":
                if sy != sx:
                    raise ValueError("hom component needs equal shifts")
                where = "vertex"
                shapes = {v: (Y.dim(v), X.dim(v)) for v in X.quiver.vertices()}
            elif kind == "ext":
                if sy - sx != 1:
                    raise ValueError("ext component needs shift difference 1")
                where = "arrow"
                shapes = {a: (Y.dim(s), X.dim(t))
                          for a, (s, t) in enumerate(X.quiver.arrows)}
            else:
                raise ValueError(f"unknown component kind {kind!r}")
            if not isinstance(data, dict) or data.keys() != shapes.keys():
                raise ValueError(f"{kind} component ({i}, {j}) needs one "
                                 f"block per {where}")
            for key, (rows, cols) in shapes.items():
                block = data[key]
                if len(block) != rows or any(len(row) != cols for row in block):
                    raise ValueError(
                        f"{kind} component ({i}, {j}), {where} {key}: "
                        f"expected shape {rows}x{cols}")
            self.components[(i, j)] = (kind, data)

    def is_zero(self) -> bool:
        for (i, j), (kind, data) in self.components.items():
            ri = self.source.summands[i][0]
            rj = self.target.summands[j][0]
            if kind == "hom":
                for v in ri.quiver.vertices():
                    if any(x != 0 for row in data[v] for x in row):
                        return False
            else:
                if not ext_class_is_zero(ri, rj, data):
                    return False
        return True

    def compose(self, g: "DerivedMorphism") -> "DerivedMorphism":
        """g after self (self: X -> Y, g: Y -> Z)."""
        if g.source is not self.target and g.source.summands != self.target.summands:
            raise ValueError("morphisms not composable")
        out: dict = {}
        for (i, j), (k1, d1) in self.components.items():
            for (j2, k), (k2, d2) in g.components.items():
                if j2 != j:
                    continue
                ri = self.source.summands[i][0]
                rk = g.target.summands[k][0]
                rj = self.target.summands[j][0]
                Q = ri.quiver
                if k1 == "hom" and k2 == "hom":
                    piece = ("hom", {v: _product(d2[v], d1[v], rk.dim(v),
                                                 rj.dim(v), ri.dim(v))
                                     for v in Q.vertices()})
                elif k1 == "hom" and k2 == "ext":
                    # (e . f)_a = e_a . f_{t(a)}
                    piece = ("ext", {idx: _product(d2[idx], d1[t], rk.dim(s),
                                                   rj.dim(t), ri.dim(t))
                                     for idx, (s, t) in enumerate(Q.arrows)})
                elif k1 == "ext" and k2 == "hom":
                    # (g . e)_a = g_{s(a)} . e_a
                    piece = ("ext", {idx: _product(d2[s], d1[idx], rk.dim(s),
                                                   rj.dim(s), ri.dim(t))
                                     for idx, (s, t) in enumerate(Q.arrows)})
                else:
                    continue  # Ext^1 . Ext^1 lands in Ext^2 = 0
                out[(i, k)] = _add_component(out.get((i, k)), piece)
        return DerivedMorphism(self.source, g.target, out)


def _add_component(existing, piece):
    if existing is None:
        return piece
    kind, data = existing
    kind2, data2 = piece
    if kind != kind2:
        raise AssertionError(f"cannot add a {kind} component to a {kind2} one")
    merged = {key: [[a + b for a, b in zip(r1, r2)]
                    for r1, r2 in zip(data[key], data2[key])] for key in data}
    return (kind, merged)


def hom_basis(X: DerivedObject, Y: DerivedObject):
    """Basis morphisms of Hom(X, Y), one nonzero Hom or Ext^1 block each."""
    out = []
    for i, (ri, si) in enumerate(X.summands):
        for j, (rj, sj) in enumerate(Y.summands):
            diff = sj - si
            if diff == 0:
                _, basis = rep_hom(ri, rj)
                for X_v in basis:
                    out.append(DerivedMorphism(X, Y, {(i, j): ("hom", X_v)}))
            elif diff == 1:
                _, classes = ext_rep(ri, rj)
                for E in classes:
                    out.append(DerivedMorphism(X, Y, {(i, j): ("ext", E)}))
    return out


def is_ghost(f: DerivedMorphism, G: DerivedObject) -> bool:
    """No composite G[i] -> X -> Y survives, for any shift i.

    Hereditary algebras confine Hom(G[i], X) to finitely many shifts (each
    summand sees maps only at its own shift and one below), so the sweep is
    finite and exhaustive.
    """
    shifts = set()
    for _, sx in f.source.summands:
        for _, sg in G.summands:
            shifts.add(sx - sg)
            shifts.add(sx - sg - 1)
    for i in sorted(shifts):
        for p in hom_basis(G.shifted(i), f.source):
            if not p.compose(f).is_zero():
                return False
    return True


@dataclass(frozen=True)
class GhostCertificate:
    """A chain of G-ghost maps with nonzero total composite."""

    generator: DerivedObject
    chain: tuple  # (DerivedMorphism, ...)


def ghost_lower_bound(cert: GhostCertificate) -> int:
    """Validate a ghost chain and return its certified lower bound.

    A chain of n ghost maps for G with nonzero composite shows the source
    lies outside the n-1 cone span of G, so n is a lower bound for the
    generation time of G.  Rejects empty chains, non-ghost maps and zero
    composites.
    """
    chain = list(cert.chain)
    if not chain:
        raise ValueError("ghost chain must contain at least one map")
    for a, b in zip(chain, chain[1:]):
        if a.target.summands != b.source.summands:
            raise ValueError("chain maps are not composable")
    for k, f in enumerate(chain):
        if not is_ghost(f, cert.generator):
            raise ValueError(f"map {k} is not ghost for the generator")
    total = chain[0]
    for f in chain[1:]:
        total = total.compose(f)
    if total.is_zero():
        raise ValueError("total composite is zero")
    return len(chain)


# ---------------------------------------------------------------------------
# complexes of representations and hereditary splitting


@dataclass(frozen=True)
class ComplexOfReps:
    """A bounded complex of representations with square-zero differential."""

    quiver: Quiver
    terms: dict          # degree -> Representation
    differentials: dict  # degree i -> per-vertex matrices C^i -> C^{i+1}


def _check_complex(C: ComplexOfReps):
    """Every differential C^i -> C^{i+1} has the shape of its terms (a
    degree with no term is the zero module), is a morphism, and composes
    to zero with the next; ValueError otherwise.  The shapes are checked
    first, since the products below trust them."""
    zero = Representation(C.quiver, [0] * C.quiver.num_vertices)
    differentials = sorted(C.differentials.items())
    for i, d in differentials:
        M, N = C.terms.get(i, zero), C.terms.get(i + 1, zero)
        for v in C.quiver.vertices():
            block = d.get(v)
            if (block is None or len(block) != N.dim(v)
                    or any(len(row) != M.dim(v) for row in block)):
                raise ValueError(
                    f"differential at degree {i}, vertex {v}: expected "
                    f"shape {N.dim(v)}x{M.dim(v)}")
    for i, d in differentials:
        M, N = C.terms.get(i, zero), C.terms.get(i + 1, zero)
        for k, (s, t) in enumerate(C.quiver.arrows):
            lhs = _product(d[s], M.maps[k], N.dim(s), M.dim(s), M.dim(t))
            rhs = _product(N.maps[k], d[t], N.dim(s), N.dim(t), M.dim(t))
            if lhs != rhs:
                raise ValueError(f"differential at degree {i} is not a morphism")
    for i, d in differentials:
        d_next = C.differentials.get(i + 1)
        if d_next is None:
            continue
        M, N, P = (C.terms.get(j, zero) for j in (i, i + 1, i + 2))
        for v in C.quiver.vertices():
            sq = _product(d_next[v], d[v], P.dim(v), N.dim(v), M.dim(v))
            if any(x != 0 for row in sq for x in row):
                raise ValueError("differential does not square to zero")


def split_complex(C: ComplexOfReps):
    """Cohomology representations with their degrees.

    Valid as a splitting because the path algebra is hereditary: every
    bounded complex is isomorphic in the derived category to the sum of its
    shifted cohomologies.  The Euler identity
    sum (-1)^i dim C^i = sum (-1)^i dim H^i holds vertexwise.
    """
    _check_complex(C)
    out = []
    for i in sorted(C.terms):
        M = C.terms[i]
        d_out, d_in = C.differentials.get(i), C.differentials.get(i - 1)
        h_data = {}
        for v in C.quiver.vertices():
            kernel = linalg.nullspace(d_out[v] if d_out else [], cols=M.dim(v))
            # the image of d_in is spanned by its columns
            image = list(zip(*d_in[v])) if d_in else []
            h_data[v] = _quotient_basis(kernel, image)
        h_dims = [len(h_data[v][0]) for v in C.quiver.vertices()]
        maps = []
        for k, (s, t) in enumerate(C.quiver.arrows):
            # column j: the class of the image of the basis vector h_j at t
            cols = [_project_to_quotient(
                        h_data[s], [sum(a * x for a, x in zip(row, h))
                                    for row in M.maps[k]])
                    for h in h_data[t][0]]
            maps.append([[col[r] for col in cols] for r in range(h_dims[s - 1])])
        H = Representation(C.quiver, h_dims, maps)
        if H.total_dim() > 0:
            out.append((H, i))
    return out


def _quotient_basis(kernel, image):
    """(complement basis vectors, independent image vectors).

    The complement extends the image by kernel vectors; the independent
    image vectors are what projection solves against.
    """
    return _extend_span(image, kernel), _extend_span([], image)


def _project_to_quotient(h_datum, vec):
    """Coordinates of vec in the complement basis modulo the image."""
    complement, img_basis = h_datum
    cols = img_basis + complement
    if not cols:
        if any(x != 0 for x in vec):
            raise AssertionError("nonzero vector in a zero quotient")
        return []
    # one row per coordinate of vec, one column per basis vector
    sol = linalg.solve(list(zip(*cols)), list(vec))
    if sol is None:
        raise AssertionError("vector not in kernel + image span")
    return sol[len(img_basis):]
