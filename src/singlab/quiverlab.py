"""ADE quiver path algebras and their module calculus, over exact rationals.

Modules here are left modules over the path algebra with paths composed by
concatenation, so an arrow a: s -> t acts on a module by a linear map from
the component at t to the component at s.  With this convention (the one the
hom and extension formulas in this package are written against):

* the projective P_v has (P_v)_u = span of paths u -> v, Hom(P_v, M) = M_v;
* Ext^1(S_v, S_w) counts the arrows starting at w and ending at v;
* a representation morphism X: M -> N satisfies
  X_s . act_M(a) = act_N(a) . X_t for every arrow a: s -> t.

Everything is computed by exact rational linear algebra: Hom spaces as
intertwiner kernels, Ext^1 spaces as cokernels of the two-term cochain
complex (equivalently, via an explicit projective resolution, kept as an
independent route for the tests).

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
from .abgroup import IntMatrix
from .decompose import ADEType

__all__ = [
    "Quiver",
    "QuiverAlgebraModel",
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
    "euler_form",
    "hom_basis",
    "is_ghost",
    "ghost_lower_bound",
    "split_complex",
    "algebra_model",
]


class Quiver:
    """A finite quiver with vertices 1..n; must be acyclic where required."""

    __slots__ = ("num_vertices", "arrows")

    def __init__(self, num_vertices: int, arrows):
        arrows = tuple((int(s), int(t)) for s, t in arrows)
        for s, t in arrows:
            if not (1 <= s <= num_vertices and 1 <= t <= num_vertices):
                raise ValueError(f"arrow ({s},{t}) out of range")
        self.num_vertices = num_vertices
        self.arrows = arrows

    def vertices(self):
        return range(1, self.num_vertices + 1)

    def is_acyclic(self) -> bool:
        return self._topological_order() is not None

    def _topological_order(self):
        indeg = {v: 0 for v in self.vertices()}
        for _, t in self.arrows:
            indeg[t] += 1
        queue = [v for v in self.vertices() if indeg[v] == 0]
        order = []
        while queue:
            v = queue.pop()
            order.append(v)
            for s, t in self.arrows:
                if s == v:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        queue.append(t)
        return order if len(order) == self.num_vertices else None

    def require_acyclic(self):
        if not self.is_acyclic():
            raise ValueError("quiver has directed cycles")

    def path_counts(self):
        """Matrix of path counts (trivial paths included on the diagonal)."""
        self.require_acyclic()
        n = self.num_vertices
        counts = [[0] * (n + 1) for _ in range(n + 1)]
        for v in self.vertices():
            counts[v][v] = 1
        for v in reversed(self._topological_order()):
            for s, t in self.arrows:
                if s == v:
                    for u in self.vertices():
                        counts[v][u] += counts[t][u]
        return counts

    def paths(self):
        """All paths as vertex tuples (v_0, ..., v_k), trivial paths included."""
        self.require_acyclic()
        out = [(v,) for v in self.vertices()]
        frontier = [(v,) for v in self.vertices()]
        while frontier:
            fresh = []
            for p in frontier:
                for s, t in self.arrows:
                    if s == p[-1]:
                        fresh.append(p + (t,))
            out.extend(fresh)
            frontier = fresh
        return out

    def longest_path(self) -> int:
        self.require_acyclic()
        best = {v: 0 for v in self.vertices()}
        for v in reversed(self._topological_order()):
            for s, t in self.arrows:
                if s == v:
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


def coxeter_polynomial(C: IntMatrix):
    """Characteristic polynomial of -C^{-T} C, ascending integer coefficients.

    A derived-equivalence invariant used one-sidedly: equality is necessary
    for equivalence, inequality refutes it.
    """
    n = C.rows
    if n != C.cols:
        raise ValueError("Cartan matrix must be square")
    rows = [[Fraction(x) for x in C.row(i)] for i in range(n)]
    if linalg.det(rows) == 0:
        raise ValueError("singular Cartan matrix")
    Cinv_T = linalg.transpose(linalg.inverse(rows))
    phi = [[-x for x in row] for row in linalg.matmul(Cinv_T, rows)]
    coeffs = linalg.charpoly(phi)
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


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


def ext_simples(Q: Quiver, v: int, v_prime: int, t: int) -> int:
    """dim Ext^t(S_v, S_v'): 1 at t=0 iff v = v'; arrows v' -> v at t=1.

    Hereditary algebras have no higher extensions, so the answer is 0 for
    t >= 2.
    """
    for u in (v, v_prime):
        if not (1 <= u <= Q.num_vertices):
            raise ValueError(f"vertex {u} out of range")
    if t == 0:
        return 1 if v == v_prime else 0
    if t == 1:
        return sum(1 for s, tt in Q.arrows if s == v_prime and tt == v)
    return 0


@dataclass(frozen=True)
class QuiverAlgebraModel:
    """Path-algebra shadow: quiver, Cartan matrix, Loewy length, label."""

    quiver: Quiver
    cartan: IntMatrix
    loewy_length: int
    label: str | None = None

    def report(self):
        return {
            "label": self.label,
            "vertices": self.quiver.num_vertices,
            "arrows": [list(a) for a in self.quiver.arrows],
            "cartan": self.cartan.to_rows(),
            "loewy_length": self.loewy_length,
            "coxeter_polynomial": coxeter_polynomial(self.cartan),
        }


def algebra_model(t: ADEType) -> QuiverAlgebraModel:
    Q = ade_quiver(t)
    return QuiverAlgebraModel(Q, cartan_matrix(Q), loewy_length(Q), str(t))


# ---------------------------------------------------------------------------
# representations


class Representation:
    """A finite-dimensional module: dims per vertex, a matrix per arrow.

    maps[k] is the action of arrows[k]: a (dim at source) x (dim at target)
    matrix over the rationals, applied to the component at the target.
    """

    __slots__ = ("quiver", "dims", "maps")

    def __init__(self, quiver: Quiver, dims, maps=None):
        quiver.require_acyclic()
        dims = tuple(int(d) for d in dims)
        if len(dims) != quiver.num_vertices:
            raise ValueError("one dimension per vertex required")
        if any(d < 0 for d in dims):
            raise ValueError("negative dimension")
        self.quiver = quiver
        self.dims = dims
        if maps is None:
            maps = [linalg.zeros(dims[s - 1], dims[t - 1]) for s, t in quiver.arrows]
        clean = []
        for (s, t), M in zip(quiver.arrows, maps):
            M = [[Fraction(x) for x in row] for row in M]
            if len(M) != dims[s - 1] or any(len(r) != dims[t - 1] for r in M):
                raise ValueError(f"map for arrow ({s},{t}) has wrong shape")
            clean.append(M)
        self.maps = tuple(tuple(tuple(row) for row in M) for M in clean)

    def dim(self, v: int) -> int:
        return self.dims[v - 1]

    def total_dim(self) -> int:
        return sum(self.dims)

    def map_rows(self, k: int):
        return [list(row) for row in self.maps[k]]

    def __eq__(self, other):
        return (isinstance(other, Representation) and self.quiver == other.quiver
                and self.dims == other.dims and self.maps == other.maps)

    def __hash__(self):
        return hash((self.quiver, self.dims, self.maps))

    def __repr__(self):
        return f"Representation(dims={self.dims})"


def simple_rep(Q: Quiver, v: int) -> Representation:
    """S_v: one-dimensional at v, zero elsewhere."""
    if not (1 <= v <= Q.num_vertices):
        raise ValueError(f"vertex {v} out of range")
    return Representation(Q, [1 if u == v else 0 for u in Q.vertices()])


def projective_rep(Q: Quiver, v: int) -> Representation:
    """P_v: component at u spanned by the paths u -> v; top S_v.

    Hom(P_v, M) = M_v, so these detect every module component.
    """
    if not (1 <= v <= Q.num_vertices):
        raise ValueError(f"vertex {v} out of range")
    paths_to_v = {}
    for u in Q.vertices():
        paths_to_v[u] = [p for p in Q.paths() if p[0] == u and p[-1] == v]
    dims = [len(paths_to_v[u]) for u in Q.vertices()]
    maps = []
    for s, t in Q.arrows:
        M = linalg.zeros(len(paths_to_v[s]), len(paths_to_v[t]))
        for j, p in enumerate(paths_to_v[t]):
            glued = (s,) + p
            i = paths_to_v[s].index(glued)
            M[i][j] = Fraction(1)
        maps.append(M)
    return Representation(Q, dims, maps)


def _intertwiner_system(M: Representation, N: Representation):
    """Constraint matrix for X: M -> N; unknowns are the stacked X_v entries."""
    Q = M.quiver
    offsets = {}
    total = 0
    for v in Q.vertices():
        offsets[v] = total
        total += N.dim(v) * M.dim(v)
    rows = []
    for k, (s, t) in enumerate(Q.arrows):
        A = M.maps[k]   # M_t -> M_s
        B = N.maps[k]   # N_t -> N_s
        # constraint: X_s A - B X_t = 0, one row per (i, j) entry
        for i in range(N.dim(s)):
            for j in range(M.dim(t)):
                row = [Fraction(0)] * total
                for r in range(M.dim(s)):
                    row[offsets[s] + i * M.dim(s) + r] += A[r][j]
                for r in range(N.dim(t)):
                    row[offsets[t] + r * M.dim(t) + j] -= B[i][r]
                rows.append(row)
    return rows, offsets, total


def _unflatten(M: Representation, N: Representation, offsets, vec):
    out = {}
    for v in M.quiver.vertices():
        X = linalg.zeros(N.dim(v), M.dim(v))
        for i in range(N.dim(v)):
            for j in range(M.dim(v)):
                X[i][j] = vec[offsets[v] + i * M.dim(v) + j]
        out[v] = X
    return out


def rep_hom(M: Representation, N: Representation):
    """(dimension, basis) of the intertwiner space Hom(M, N)."""
    if M.quiver != N.quiver:
        raise ValueError("representations over different quivers")
    rows, offsets, total = _intertwiner_system(M, N)
    if total == 0:
        return 0, []
    kernel = linalg.nullspace(rows, cols=total) if rows else \
        [[Fraction(1) if i == j else Fraction(0) for i in range(total)]
         for j in range(total)]
    basis = [_unflatten(M, N, offsets, vec) for vec in kernel]
    return len(basis), basis


def _ext_complex(M: Representation, N: Representation):
    """The two-term complex C^0 -> C^1 whose cokernel is Ext^1(M, N).

    C^0 = sum_v Hom(M_v, N_v), C^1 = sum_a Hom(M_{t(a)}, N_{s(a)}),
    delta(X)_a = X_s . act_M(a) - act_N(a) . X_t.
    """
    Q = M.quiver
    off0 = {}
    tot0 = 0
    for v in Q.vertices():
        off0[v] = tot0
        tot0 += N.dim(v) * M.dim(v)
    off1 = {}
    tot1 = 0
    for k, (s, t) in enumerate(Q.arrows):
        off1[k] = tot1
        tot1 += N.dim(s) * M.dim(t)
    delta = linalg.zeros(tot1, tot0)
    for k, (s, t) in enumerate(Q.arrows):
        A = M.maps[k]
        B = N.maps[k]
        for i in range(N.dim(s)):
            for j in range(M.dim(t)):
                r = off1[k] + i * M.dim(t) + j
                for c in range(M.dim(s)):
                    delta[r][off0[s] + i * M.dim(s) + c] += A[c][j]
                for c in range(N.dim(t)):
                    delta[r][off0[t] + c * M.dim(t) + j] -= B[i][c]
    return delta, off1, tot0, tot1


def ext_rep(M: Representation, N: Representation):
    """(dimension, cocycle basis) of Ext^1(M, N).

    A cocycle is a matrix per arrow, Hom(M_{t(a)}, N_{s(a)}); classes are
    cocycles modulo the image of the intertwiner-style coboundary.
    """
    if M.quiver != N.quiver:
        raise ValueError("representations over different quivers")
    delta, off1, tot0, tot1 = _ext_complex(M, N)
    if tot1 == 0:
        return 0, []
    cols = [vec for vec in (linalg.transpose(delta) if tot0 else [])]
    image = cols if tot0 else []
    # choose coordinate vectors completing the image to all of C^1
    basis_vecs = []
    current = [row[:] for row in image]
    rk = linalg.rank(current) if current else 0
    for i in range(tot1):
        e = [Fraction(0)] * tot1
        e[i] = Fraction(1)
        trial = current + [e]
        if linalg.rank(trial) > rk:
            current = trial
            rk += 1
            basis_vecs.append(e)
    classes = [_cocycle_from_vec(M, N, off1, v) for v in basis_vecs]
    return len(basis_vecs), classes


def _cocycle_from_vec(M: Representation, N: Representation, off1, vec):
    Q = M.quiver
    out = {}
    for k, (s, t) in enumerate(Q.arrows):
        E = linalg.zeros(N.dim(s), M.dim(t))
        for i in range(N.dim(s)):
            for j in range(M.dim(t)):
                E[i][j] = vec[off1[k] + i * M.dim(t) + j]
        out[k] = E
    return out


def _cocycle_to_vec(M: Representation, N: Representation, cocycle):
    Q = M.quiver
    vec = []
    for k, (s, t) in enumerate(Q.arrows):
        E = cocycle[k]
        for i in range(N.dim(s)):
            for j in range(M.dim(t)):
                vec.append(Fraction(E[i][j]))
    return vec


def ext_class_is_zero(M: Representation, N: Representation, cocycle) -> bool:
    """Whether a cocycle is a coboundary (the trivial extension class)."""
    delta, off1, tot0, tot1 = _ext_complex(M, N)
    vec = _cocycle_to_vec(M, N, cocycle)
    if all(x == 0 for x in vec):
        return True
    if tot0 == 0:
        return False
    return linalg.solve(delta, vec) is not None


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
    def path_basis(v):
        return {u: [p for p in Q.paths() if p[0] == u and p[-1] == v]
                for u in Q.vertices()}
    bases = {v: path_basis(v) for v in Q.vertices()}

    iota = {}
    for u in Q.vertices():
        p0_dim = sum(len(bases[v][u]) for v, _ in p0_parts)
        cols = sum(len(bases[Q.arrows[k][0]][u]) for k, _ in p1_parts)
        X = linalg.zeros(p0_dim, cols)
        col = 0
        for (k, j) in p1_parts:
            s, t = Q.arrows[k]
            act = M.maps[k]  # M_t -> M_s
            for p in bases[s][u]:
                # component (p . a) tensor e_j in the (t, j) block of P0
                glued = p + (t,)
                row = 0
                for (v, i) in p0_parts:
                    if v == t and i == j:
                        row_idx = row + bases[t][u].index(glued)
                        X[row_idx][col] += Fraction(1)
                    row += len(bases[v][u])
                # component -p tensor (a . e_j) spread over the (s, i) blocks
                row = 0
                for (v, i) in p0_parts:
                    if v == s:
                        row_idx = row + bases[s][u].index(p)
                        X[row_idx][col] -= act[i][j]
                    row += len(bases[v][u])
                col += 1
        iota[u] = X
    return P0, P1, iota


def _direct_sum(reps, Q: Quiver) -> Representation:
    if not reps:
        return Representation(Q, [0] * Q.num_vertices)
    dims = [sum(r.dim(v) for r in reps) for v in Q.vertices()]
    maps = []
    for k, (s, t) in enumerate(Q.arrows):
        M = linalg.zeros(dims[s - 1], dims[t - 1])
        ro = co = 0
        for r in reps:
            block = r.maps[k]
            for i in range(r.dim(s)):
                for j in range(r.dim(t)):
                    M[ro + i][co + j] = block[i][j]
            ro += r.dim(s)
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
    def flatten(Xdict):
        vec = []
        for v in M.quiver.vertices():
            for row in Xdict[v]:
                vec.extend(row)
        return vec

    images = []
    for X in basis0:
        comp = {v: linalg.matmul(X[v], iota[v]) for v in M.quiver.vertices()}
        images.append(flatten(comp))
    # rank of the image inside the coordinate space of Hom(P1, N)
    rank_img = linalg.rank(images) if images else 0
    return len(basis1) - rank_img


def euler_form(Q: Quiver, dim1, dim2) -> int:
    """sum_v m_v n_v - sum_{a: s->t} m_{t(a)} n_{s(a)}.

    Equals dim Hom(M, N) - dim Ext^1(M, N) for modules with these dimension
    vectors.
    """
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

    def quiver(self) -> Quiver:
        return self.summands[0][0].quiver


class DerivedMorphism:
    """A matrix of Hom and Ext^1 components between two shifted sums.

    The (i, j) component lives in Hom(X_i, Y_j[shift difference]); only
    differences 0 (an intertwiner, stored per vertex) and 1 (an extension
    cocycle, stored per arrow) can be nonzero for hereditary algebras.
    """

    __slots__ = ("source", "target", "components")

    def __init__(self, source: DerivedObject, target: DerivedObject, components):
        self.source = source
        self.target = target
        self.components = {}
        for (i, j), (kind, data) in components.items():
            ri, si = source.summands[i]
            rj, sj = target.summands[j]
            diff = sj - si
            if kind == "hom" and diff != 0:
                raise ValueError("hom component needs equal shifts")
            if kind == "ext" and diff != 1:
                raise ValueError("ext component needs shift difference 1")
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
        Q = self.source.quiver()
        out: dict = {}
        for (i, j), (k1, d1) in self.components.items():
            for (j2, k), (k2, d2) in g.components.items():
                if j2 != j:
                    continue
                ri = self.source.summands[i][0]
                rk = g.target.summands[k][0]
                rj = self.target.summands[j][0]
                if k1 == "hom" and k2 == "hom":
                    piece = ("hom", {v: linalg.matmul(d2[v], d1[v])
                                     for v in Q.vertices()})
                elif k1 == "hom" and k2 == "ext":
                    # (e . f)_a = e_a . f_{t(a)}
                    piece = ("ext", {idx: linalg.matmul(d2[idx], d1[Q.arrows[idx][1]])
                                     for idx in range(len(Q.arrows))})
                elif k1 == "ext" and k2 == "hom":
                    # (g . e)_a = g_{s(a)} . e_a
                    piece = ("ext", {idx: linalg.matmul(d2[Q.arrows[idx][0]], d1[idx])
                                     for idx in range(len(Q.arrows))})
                else:
                    continue  # Ext^1 . Ext^1 lands in Ext^2 = 0
                out[(i, k)] = _add_component(out.get((i, k)), piece, ri, rk, Q)
        return DerivedMorphism(self.source, g.target, out)


def _add_component(existing, piece, ri, rk, Q: Quiver):
    if existing is None:
        return piece
    kind, data = existing
    kind2, data2 = piece
    assert kind == kind2
    if kind == "hom":
        merged = {v: [[a + b for a, b in zip(r1, r2)]
                      for r1, r2 in zip(data[v], data2[v])] for v in Q.vertices()}
    else:
        merged = {idx: [[a + b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(data[idx], data2[idx])]
                  for idx in range(len(Q.arrows))}
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
    degrees = sorted(C.terms)
    for i in degrees:
        if i + 1 in C.terms and i in C.differentials:
            d = C.differentials[i]
            M, N = C.terms[i], C.terms[i + 1]
            for v in C.quiver.vertices():
                rows = len(d[v])
                cols = len(d[v][0]) if rows else M.dim(v)
                if rows != N.dim(v) or (rows and cols != M.dim(v)):
                    raise ValueError(
                        f"differential at degree {i}, vertex {v}: expected "
                        f"shape {N.dim(v)}x{M.dim(v)}")
            # morphism property per arrow, with explicit shapes so that
            # zero-dimensional components cannot confuse the products
            def prod(X, Y, n, kk, m):
                return [[sum(X[a][b] * Y[b][c] for b in range(kk))
                         for c in range(m)] for a in range(n)]
            for k, (s, t) in enumerate(C.quiver.arrows):
                lhs = prod(d[s], M.map_rows(k), N.dim(s), M.dim(s), M.dim(t))
                rhs = prod(N.map_rows(k), d[t], N.dim(s), N.dim(t), M.dim(t))
                if lhs != rhs:
                    raise ValueError(f"differential at degree {i} is not a morphism")
    for i in degrees:
        if i in C.differentials and i + 1 in C.differentials:
            for v in C.quiver.vertices():
                sq = linalg.matmul(C.differentials[i + 1][v], C.differentials[i][v])
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
    degrees = sorted(C.terms)
    for i in degrees:
        M = C.terms[i]
        h_dims = []
        h_data = {}
        for v in C.quiver.vertices():
            dim_v = M.dim(v)
            d_out = C.differentials.get(i, None)
            d_in = C.differentials.get(i - 1, None)
            out_rows = d_out[v] if (d_out is not None and i + 1 in C.terms) else None
            if out_rows is not None and len(out_rows) > 0:
                kernel = linalg.nullspace(out_rows, cols=dim_v)
            else:
                kernel = [[Fraction(1) if r == j else Fraction(0)
                           for r in range(dim_v)] for j in range(dim_v)]
            if d_in is not None and i - 1 in C.terms:
                img_cols = linalg.transpose(d_in[v]) if d_in[v] else []
                image = [list(col) for col in img_cols]
            else:
                image = []
            h_data[v] = _quotient_basis(kernel, image, dim_v)
            h_dims.append(len(h_data[v][0]))
        maps = []
        for k, (s, t) in enumerate(C.quiver.arrows):
            basis_t = h_data[t][0]
            act = M.map_rows(k)
            cols = []
            for h in basis_t:
                img = [sum(act[r][c] * h[c] for c in range(M.dim(t)))
                       for r in range(M.dim(s))]
                cols.append(_project_to_quotient(h_data[s], img))
            Mk = linalg.zeros(len(h_data[s][0]), len(basis_t))
            for j, col in enumerate(cols):
                for r in range(len(col)):
                    Mk[r][j] = col[r]
            maps.append(Mk)
        H = Representation(C.quiver, h_dims, maps)
        if H.total_dim() > 0:
            out.append((H, i))
    return out


def _quotient_basis(kernel, image, ambient_dim):
    """(complement basis vectors, full basis matrix, image count)."""
    current = [list(v) for v in image]
    rk = linalg.rank(current) if current else 0
    complement = []
    for vec in kernel:
        trial = current + [list(vec)]
        if linalg.rank(trial) > rk:
            current.append(list(vec))
            rk += 1
            complement.append(list(vec))
    # reduced image basis (independent subset) for projection solves
    img_basis = []
    cr = 0
    cur = []
    for vec in image:
        trial = cur + [list(vec)]
        if linalg.rank(trial) > cr:
            cur.append(list(vec))
            cr += 1
            img_basis.append(list(vec))
    return complement, img_basis, ambient_dim


def _project_to_quotient(h_datum, vec):
    """Coordinates of vec in the complement basis modulo the image."""
    complement, img_basis, ambient = h_datum
    cols = img_basis + complement
    if not cols:
        assert all(x == 0 for x in vec)
        return []
    A = linalg.transpose(cols)
    sol = linalg.solve(A, list(vec))
    assert sol is not None, "vector not in kernel + image span"
    return sol[len(img_basis):]
