"""Graded matrix factorizations over multigraded polynomial rings.

A factorization of a potential w consists of two graded free modules and a
pair of maps

    E_{-1} --phi_0--> E_0 --phi_{-1}--> E_{-1}(d)

whose composites both equal w times the identity.  Everything is tracked by
generator degrees: a free module stores one grading-group element per
generator, and an entry of a map from generator j (degree u_j) to generator
i (degree v_i) must be homogeneous of degree u_j - v_i.  Twisting by a group
element a shifts every generator degree down by a and leaves matrices
untouched.

The morphism complex between two factorizations is 2-periodic up to a twist
by d; its cohomology ("strand cohomology") is computed strand by strand by
exact rational linear algebra on the finite homogeneous components, which
are finite because the grading is positive.  Vanishing outside a computed
support range is certified when the cokernels of all four structure maps
are finite length (a power of every variable annihilates them); otherwise
the table carries an explicit window tag.

Polynomials are exact monomial-to-coefficient maps over the rationals; no
floating point appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .abgroup import GroupElement, PointedAbelianGroup, boxminus, group_from_relations
from .abgroup import IntMatrix, reduce_element
from .weightcalc import GradedRingSpec, WeightSequence

__all__ = [
    "Polynomial",
    "RingWithPotential",
    "GradedFreeModule",
    "Factorization",
    "FactorizationMap",
    "StrandCohomology",
    "OrbitSpec",
    "make_factorization",
    "factorization_map",
    "zero_factorization",
    "tensor_ring",
    "one_variable_ring",
    "fermat_ring",
    "standard_objects",
    "k_object",
    "translate",
    "cone",
    "tensor_product",
    "strand_cohomology",
    "default_window",
    "endo_algebra_check",
    "restrict_grading",
    "orbit_hom_check",
]


class Polynomial:
    """Sparse exact polynomial: exponent tuple -> nonzero Fraction."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        for exps, c in (terms or {}).items():
            c = Fraction(c)
            if c != 0:
                exps = tuple(int(e) for e in exps)
                if len(exps) != nvars:
                    raise ValueError("exponent tuple of wrong length")
                clean[exps] = clean.get(exps, Fraction(0)) + c
        self.terms = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def monomial(cls, nvars: int, exps, coeff=1) -> "Polynomial":
        return cls(nvars, {tuple(exps): Fraction(coeff)})

    @classmethod
    def variable(cls, nvars: int, i: int, power: int = 1) -> "Polynomial":
        exps = [0] * nvars
        exps[i] = power
        return cls(nvars, {tuple(exps): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Polynomial(self.nvars, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) - c
        return Polynomial(self.nvars, out)

    def __neg__(self):
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial(self.nvars,
                              {e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Polynomial(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def render(self, names) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exps in sorted(self.terms):
            c = self.terms[exps]
            mono = "*".join(f"{names[i]}^{e}" if e > 1 else names[i]
                            for i, e in enumerate(exps) if e)
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            else:
                bits.append(f"{c}*{mono}")
        return " + ".join(bits)

    def __repr__(self):
        return f"Polynomial({self.terms!r})"


class RingWithPotential:
    """A positively multigraded polynomial ring with a chosen potential.

    Wraps a GradedRingSpec (grading group pointed at the potential degree,
    one degree per variable) together with variable names and the potential
    itself, which must be homogeneous of the marked degree.
    """

    def __init__(self, spec: GradedRingSpec, names, potential: Polynomial):
        self.spec = spec
        self.names = tuple(names)
        if len(self.names) != spec.num_variables():
            raise ValueError("one name per variable required")
        if potential.nvars != spec.num_variables():
            raise ValueError("potential over the wrong number of variables")
        self.potential = potential
        self._monomial_cache: dict = {}
        for exps in potential.terms:
            if self.monomial_degree(exps) != spec.potential_degree:
                raise ValueError("potential is not homogeneous of the marked degree")

    @property
    def grading(self) -> PointedAbelianGroup:
        return self.spec.grading

    def nvars(self) -> int:
        return len(self.names)

    def degree_of(self, e: GroupElement) -> int:
        return self.spec.degree(e)

    def monomial_degree(self, exps) -> GroupElement:
        out = self.grading.group.zero()
        for i, e in enumerate(exps):
            if e:
                out = out + e * self.spec.generator_degrees[i]
        return out

    def monomials_of(self, target: GroupElement):
        """All exponent tuples of the given multidegree (finite: positive grading)."""
        key = (target.canonical)
        hit = self._monomial_cache.get(key)
        if hit is not None:
            return hit
        k = self.nvars()
        gen_degs = self.spec.generator_degrees
        zdegs = [self.degree_of(a) for a in gen_degs]
        found = []

        def rec(idx, acc, remaining, rem_deg):
            if rem_deg < 0:
                return
            if idx == k:
                if remaining.is_zero():
                    found.append(tuple(acc))
                return
            step = gen_degs[idx]
            cur = remaining
            for e in range(rem_deg // zdegs[idx] + 1):
                acc.append(e)
                rec(idx + 1, acc, cur, rem_deg - e * zdegs[idx])
                acc.pop()
                cur = cur - step
        rec(0, [], target, self.degree_of(target))
        result = tuple(sorted(found))
        self._monomial_cache[key] = result
        return result

    def signature(self):
        return (self.grading.group.signature(), self.grading.marked.canonical,
                tuple(a.canonical for a in self.spec.generator_degrees),
                tuple(sorted(self.potential.terms.items())))

    def same_ring(self, other: "RingWithPotential") -> bool:
        return self.signature() == other.signature()

    def report(self):
        return {
            "grading": self.grading.report(),
            "variables": list(self.names),
            "variable_degrees": [list(a.coordinates)
                                 for a in self.spec.generator_degrees],
            "potential": self.potential.render(self.names),
            "potential_degree": list(self.spec.potential_degree.coordinates),
        }


@dataclass(frozen=True)
class GradedFreeModule:
    """A free module recorded by the degrees of its generators."""

    twists: tuple  # GroupElement per generator

    @property
    def rank(self) -> int:
        return len(self.twists)

    def twist(self, a: GroupElement) -> "GradedFreeModule":
        return GradedFreeModule(tuple(u - a for u in self.twists))

    def concat(self, other: "GradedFreeModule") -> "GradedFreeModule":
        return GradedFreeModule(self.twists + other.twists)


def _zero_matrix(rows, cols, nvars):
    return tuple(tuple(Polynomial.zero(nvars) for _ in range(cols))
                 for _ in range(rows))


def _matmul_poly(A, B, nvars):
    rows = len(A)
    inner = len(B)
    cols = len(B[0]) if inner else 0
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = Polynomial.zero(nvars)
            for t in range(inner):
                if not A[i][t].is_zero() and not B[t][j].is_zero():
                    acc = acc + A[i][t] * B[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _check_homogeneous(ring: RingWithPotential, matrix, source: GradedFreeModule,
                       target: GradedFreeModule, label: str):
    for i in range(target.rank):
        for j in range(source.rank):
            forced = source.twists[j] - target.twists[i]
            for exps in matrix[i][j].terms:
                if ring.monomial_degree(exps) != forced:
                    raise ValueError(
                        f"{label}[{i}][{j}] has an entry of the wrong degree")


class Factorization:
    """A validated graded factorization of the ring's potential."""

    __slots__ = ("ring", "e_neg", "e_zero", "phi0", "phi_neg")

    def __init__(self, ring, e_neg, e_zero, phi0, phi_neg, _validated=False):
        self.ring = ring
        self.e_neg = e_neg
        self.e_zero = e_zero
        self.phi0 = phi0
        self.phi_neg = phi_neg
        if not _validated:
            _validate_factorization(self)

    @property
    def rank_pair(self):
        return (self.e_neg.rank, self.e_zero.rank)

    def twist(self, a: GroupElement) -> "Factorization":
        return Factorization(self.ring, self.e_neg.twist(a), self.e_zero.twist(a),
                             self.phi0, self.phi_neg, _validated=True)

    def shift_once(self) -> "Factorization":
        """E[1] = (E_0, E_{-1}(d), -phi_{-1}, -phi_0 retwisted).

        Both structure maps pick up the sign, exactly as in the diagonal
        blocks of the totalization; negating only one of them would produce
        a factorization of -w instead of w.
        """
        d = self.ring.spec.potential_degree
        neg = self.e_zero
        zero = self.e_neg.twist(d)
        phi0 = tuple(tuple(-p for p in row) for row in self.phi_neg)
        phi_neg = tuple(tuple(-p for p in row) for row in self.phi0)
        return Factorization(self.ring, neg, zero, phi0, phi_neg,
                             _validated=True)

    def unshift_once(self) -> "Factorization":
        """E[-1]: the inverse of shift_once."""
        d = self.ring.spec.potential_degree
        neg = self.e_zero.twist(-d)
        zero = self.e_neg
        phi0 = tuple(tuple(-p for p in row) for row in self.phi_neg)
        phi_neg = tuple(tuple(-p for p in row) for row in self.phi0)
        return Factorization(self.ring, neg, zero, phi0, phi_neg,
                             _validated=True)

    def report(self):
        names = self.ring.names
        return {
            "ring": self.ring.report(),
            "twists_neg": [list(u.coordinates) for u in self.e_neg.twists],
            "twists_zero": [list(v.coordinates) for v in self.e_zero.twists],
            "phi0": [[p.render(names) for p in row] for row in self.phi0],
            "phi_neg": [[p.render(names) for p in row] for row in self.phi_neg],
        }

    def __eq__(self, other):
        return (isinstance(other, Factorization)
                and self.ring.signature() == other.ring.signature()
                and tuple(u.canonical for u in self.e_neg.twists)
                == tuple(u.canonical for u in other.e_neg.twists)
                and tuple(u.canonical for u in self.e_zero.twists)
                == tuple(u.canonical for u in other.e_zero.twists)
                and self.phi0 == other.phi0 and self.phi_neg == other.phi_neg)

    def __repr__(self):
        return f"Factorization(ranks={self.rank_pair})"


def _validate_factorization(E: Factorization):
    ring = E.ring
    nv = ring.nvars()
    r_neg, r_zero = E.e_neg.rank, E.e_zero.rank
    if len(E.phi0) != r_zero or any(len(row) != r_neg for row in E.phi0):
        raise ValueError("phi0 has the wrong shape")
    if len(E.phi_neg) != r_neg or any(len(row) != r_zero for row in E.phi_neg):
        raise ValueError("phi_neg has the wrong shape")
    d = ring.spec.potential_degree
    _check_homogeneous(ring, E.phi0, E.e_neg, E.e_zero, "phi0")
    _check_homogeneous(ring, E.phi_neg, E.e_zero, E.e_neg.twist(d), "phi_neg")
    w = ring.potential
    comp1 = _matmul_poly(E.phi_neg, E.phi0, nv)
    comp2 = _matmul_poly(E.phi0, E.phi_neg, nv)
    for comp, rank, name in ((comp1, r_neg, "phi_neg . phi0"),
                             (comp2, r_zero, "phi0 . phi_neg")):
        for i in range(rank):
            for j in range(rank):
                expected = w if i == j else Polynomial.zero(nv)
                if comp[i][j] != expected:
                    raise ValueError(f"{name} is not w times the identity")


def make_factorization(ring: RingWithPotential, twists_neg, twists_zero,
                       phi0, phi_neg) -> Factorization:
    """Build and fully validate a factorization.

    `phi0` maps E_{-1} to E_0 (rows indexed by E_0 generators), `phi_neg`
    maps E_0 to E_{-1}(d).  Rejects inhomogeneous entries and composites
    different from w times the identity.
    """
    e_neg = GradedFreeModule(tuple(twists_neg))
    e_zero = GradedFreeModule(tuple(twists_zero))
    phi0 = tuple(tuple(p for p in row) for row in phi0)
    phi_neg = tuple(tuple(p for p in row) for row in phi_neg)
    return Factorization(ring, e_neg, e_zero, phi0, phi_neg)


def zero_factorization(ring: RingWithPotential) -> Factorization:
    return make_factorization(ring, (), (), (), ())


def translate(E: Factorization, shift: int = 0,
              twist: GroupElement | None = None) -> Factorization:
    """Shift by [shift] and twist by (twist); [2] acts like twisting by d."""
    out = E
    for _ in range(shift if shift > 0 else 0):
        out = out.shift_once()
    for _ in range(-shift if shift < 0 else 0):
        out = out.unshift_once()
    if twist is not None:
        out = out.twist(twist)
    return out


@dataclass(frozen=True)
class FactorizationMap:
    """A closed degree-zero map f: E -> F given by its two components.

    f_neg: E_{-1} -> F_{-1} (rows = F_{-1} generators) and
    f_zero: E_0 -> F_0.
    """

    source: Factorization
    target: Factorization
    f_neg: tuple
    f_zero: tuple

    def closedness_defect(self):
        E, F = self.source, self.target
        nv = E.ring.nvars()
        c1 = _sub_poly(_matmul_poly(self.f_zero, E.phi0, nv),
                       _matmul_poly(F.phi0, self.f_neg, nv))
        c2 = _sub_poly(_matmul_poly(self.f_neg, E.phi_neg, nv),
                       _matmul_poly(F.phi_neg, self.f_zero, nv))
        return c1, c2

    def is_closed(self) -> bool:
        c1, c2 = self.closedness_defect()
        return _all_zero(c1) and _all_zero(c2)


def _sub_poly(A, B):
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def _all_zero(A) -> bool:
    return all(p.is_zero() for row in A for p in row)


def factorization_map(E: Factorization, F: Factorization, f_neg, f_zero,
                      check: bool = True) -> FactorizationMap:
    if not E.ring.same_ring(F.ring):
        raise ValueError("factorizations over different rings")
    f = FactorizationMap(E, F,
                         tuple(tuple(p for p in row) for row in f_neg),
                         tuple(tuple(p for p in row) for row in f_zero))
    _check_homogeneous(E.ring, f.f_neg, E.e_neg, F.e_neg, "f_neg")
    _check_homogeneous(E.ring, f.f_zero, E.e_zero, F.e_zero, "f_zero")
    if check and not f.is_closed():
        raise ValueError("map does not commute with the structure maps")
    return f


def cone(f: FactorizationMap) -> Factorization:
    """The totalization of E -> F in two steps, with the block matrices

        phi0     = [[phi0^F, f_zero], [0, -phi_neg^E]]
        phi_neg  = [[phi_neg^F, f_neg], [0, -phi0^E]]

    on components T_{-1} = F_{-1} + E_0 and T_0 = F_0 + E_{-1}(d).
    """
    if not f.is_closed():
        raise ValueError("cone needs a closed degree-zero map")
    E, F = f.source, f.target
    ring = E.ring
    nv = ring.nvars()
    d = ring.spec.potential_degree
    t_neg = F.e_neg.concat(E.e_zero)
    t_zero = F.e_zero.concat(E.e_neg.twist(d))
    zero_block_1 = _zero_matrix(E.e_neg.rank, F.e_neg.rank, nv)
    zero_block_2 = _zero_matrix(E.e_zero.rank, F.e_zero.rank, nv)
    phi0 = _block_matrix([[F.phi0, f.f_zero],
                          [zero_block_1, _neg_matrix(E.phi_neg)]])
    phi_neg = _block_matrix([[F.phi_neg, f.f_neg],
                             [zero_block_2, _neg_matrix(E.phi0)]])
    return Factorization(ring, t_neg, t_zero, phi0, phi_neg)


def _neg_matrix(A):
    return tuple(tuple(-p for p in row) for row in A)


def _block_matrix(blocks):
    out = []
    for block_row in blocks:
        heights = {len(b) for b in block_row}
        assert len(heights) == 1
        h = heights.pop()
        for i in range(h):
            row = []
            for b in block_row:
                row.extend(b[i])
            out.append(tuple(row))
    return tuple(out)


# ---------------------------------------------------------------------------
# standard rings and objects


def one_variable_ring(d: int, name: str = "x") -> RingWithPotential:
    """k[x] graded by Z with deg x = 1 and potential x^d."""
    if d < 2:
        raise ValueError("potential degree must be at least 2")
    from .weightcalc import spec_from_weights
    spec = spec_from_weights(WeightSequence([d]))
    w = Polynomial.variable(1, 0, d)
    return RingWithPotential(spec, (name,), w)


def fermat_ring(weights, names=None) -> RingWithPotential:
    """k[x_0..x_n] graded by the weight group, potential sum x_i^{d_i}."""
    from .weightcalc import spec_from_weights
    d = WeightSequence(weights)
    spec = spec_from_weights(d)
    k = len(d)
    if names is None:
        names = tuple(f"x{i}" for i in range(k))
    w = Polynomial.zero(k)
    for i, di in enumerate(d.entries):
        w = w + Polynomial.variable(k, i, di)
    return RingWithPotential(spec, names, w)


def standard_objects(ring: RingWithPotential):
    """E_1, ..., E_{d-1} for a one-variable potential x^d.

    E_i is the rank-(1,1) factorization (x^i, x^{d-i}) with the E_0
    generator in degree zero, so the E_{-1} generator sits in degree i.
    """
    if ring.nvars() != 1:
        raise ValueError("standard objects need a one-variable ring")
    exps = list(ring.potential.terms)
    d = exps[0][0]
    gen = ring.spec.generator_degrees[0]
    zero = ring.grading.group.zero()
    out = []
    for i in range(1, d):
        phi0 = ((Polynomial.variable(1, 0, i),),)
        phi_neg = ((Polynomial.variable(1, 0, d - i),),)
        out.append(make_factorization(ring, (i * gen,), (zero,), phi0, phi_neg))
    return out


def k_object(ring: RingWithPotential, a: GroupElement | None = None) -> Factorization:
    """The stabilized residue field k(a): E_{d-1} twisted by a."""
    objs = standard_objects(ring)
    E = objs[-1]
    return E if a is None else E.twist(a)


def tensor_product(E: Factorization, F: Factorization) -> Factorization:
    """Exterior product of factorizations for the sum of the potentials.

    Components  X_{-1} = E_{-1} F_0 + E_0 F_{-1},
                X_0    = E_0 F_0 + (E_{-1} F_{-1})(d)
    with the usual signed Koszul blocks; the ambient ring is the tensor
    ring graded by the box-minus product of the two gradings.
    """
    ring = tensor_ring(E.ring, F.ring)
    nv = ring.nvars()
    nE, nF = E.ring.nvars(), F.ring.nvars()
    A = ring.grading

    def lift_E(p: Polynomial) -> Polynomial:
        return Polynomial(nv, {exps + (0,) * nF: c for exps, c in p.terms.items()})

    def lift_F(p: Polynomial) -> Polynomial:
        return Polynomial(nv, {(0,) * nE + exps: c for exps, c in p.terms.items()})

    nE_gen = E.ring.grading.group.num_generators
    nF_gen = F.ring.grading.group.num_generators

    def pair(u: GroupElement, v: GroupElement) -> GroupElement:
        return reduce_element(A.group, list(u.coordinates) + list(v.coordinates))

    assert nE_gen + nF_gen == A.group.num_generators

    d = ring.spec.potential_degree
    x_neg = tuple(pair(u, v) for u in E.e_neg.twists for v in F.e_zero.twists) + \
        tuple(pair(u, v) for u in E.e_zero.twists for v in F.e_neg.twists)
    x_zero = tuple(pair(u, v) for u in E.e_zero.twists for v in F.e_zero.twists) + \
        tuple(pair(u, v) - d for u in E.e_neg.twists for v in F.e_neg.twists)

    def kron(Amat, Bmat, sign=1):
        out = []
        for i1 in range(len(Amat)):
            for i2 in range(len(Bmat)):
                row = []
                for j1 in range(len(Amat[0]) if Amat else 0):
                    for j2 in range(len(Bmat[0]) if Bmat else 0):
                        row.append(sign * (lift_E(Amat[i1][j1]) * lift_F(Bmat[i2][j2])))
                out.append(tuple(row))
        return out

    def id_poly(ring_small, rank):
        nvs = ring_small.nvars()
        one = Polynomial(nvs, {(0,) * nvs: 1})
        zero = Polynomial.zero(nvs)
        return [[one if i == j else zero for j in range(rank)] for i in range(rank)]

    idE_neg = id_poly(E.ring, E.e_neg.rank)
    idE_zero = id_poly(E.ring, E.e_zero.rank)
    idF_neg = id_poly(F.ring, F.e_neg.rank)
    idF_zero = id_poly(F.ring, F.e_zero.rank)

    # phi0: X_{-1} -> X_0, blocks [[a x 1, 1 x b], [-1 x b', a' x 1]]
    phi0 = _block_matrix([
        [kron(E.phi0, idF_zero), kron(idE_zero, F.phi0)],
        [kron(idE_neg, F.phi_neg, sign=-1), kron(E.phi_neg, idF_neg)],
    ])
    # phi_neg: X_0 -> X_{-1}(d), blocks [[a' x 1, -1 x b], [1 x b', a x 1]]
    phi_neg = _block_matrix([
        [kron(E.phi_neg, idF_zero), kron(idE_neg, F.phi0, sign=-1)],
        [kron(idE_zero, F.phi_neg), kron(E.phi0, idF_neg)],
    ])
    return make_factorization(ring, x_neg, x_zero, phi0, phi_neg)


def tensor_ring(R1: RingWithPotential, R2: RingWithPotential) -> RingWithPotential:
    """The tensor ring with grading R1 boxminus R2 and potential w + v."""
    A = boxminus(R1.grading, R2.grading)
    n1 = R1.grading.group.num_generators
    n2 = R2.grading.group.num_generators
    gens = []
    for a in R1.spec.generator_degrees:
        gens.append(reduce_element(A.group, list(a.coordinates) + [0] * n2))
    for a in R2.spec.generator_degrees:
        gens.append(reduce_element(A.group, [0] * n1 + list(a.coordinates)))
    spec = GradedRingSpec(A, tuple(gens))
    k1, k2 = R1.nvars(), R2.nvars()
    w = Polynomial(k1 + k2, {exps + (0,) * k2: c
                             for exps, c in R1.potential.terms.items()})
    v = Polynomial(k1 + k2, {(0,) * k1 + exps: c
                             for exps, c in R2.potential.terms.items()})
    return RingWithPotential(spec, R1.names + R2.names, w + v)


# ---------------------------------------------------------------------------
# morphism strands and their cohomology


@dataclass(frozen=True)
class StrandCohomology:
    """Dimensions of H^{2l+eps}(Hom(E, F)) per strand (eps, l).

    `certification` is ('certified', (l_lo, l_hi)) when vanishing outside
    the stored range is proven (finite-length cokernels plus a graded
    support bound), or ('windowed', L) when only the window [-L, L] was
    inspected.
    """

    entries: dict          # (eps, l) -> dimension
    certification: tuple

    def dim(self, eps: int, l: int) -> int:
        if (eps, l) in self.entries:
            return self.entries[(eps, l)]
        if self.certification[0] == "certified":
            return 0
        raise ValueError(f"strand ({eps},{l}) outside the computed window")

    def nonzero(self):
        return sorted(((k, v) for k, v in self.entries.items() if v),
                      key=lambda kv: (kv[0][1], kv[0][0]))

    def total(self) -> int:
        return sum(self.entries.values())

    def to_json(self):
        table = {f"H[{2 * l + eps}] (eps={eps}, l={l})": dim
                 for (eps, l), dim in sorted(self.entries.items(),
                                             key=lambda kv: (kv[0][1], kv[0][0]))
                 if dim}
        kind, data = self.certification
        return {"certification": {"kind": kind, "data": list(data) if
                                  isinstance(data, tuple) else data},
                "nonzero": table}


def _hom_components(E: Factorization, F: Factorization, n: int):
    """Source/target graded modules of the two blocks of Hom^n(E, F)."""
    d = E.ring.spec.potential_degree
    l, eps = divmod(n, 2)
    if eps == 0:
        return ((E.e_neg, F.e_neg.twist(l * d)),
                (E.e_zero, F.e_zero.twist(l * d)))
    return ((E.e_neg, F.e_zero.twist(l * d)),
            (E.e_zero, F.e_neg.twist((l + 1) * d)))


def _hom_basis(E: Factorization, F: Factorization, n: int):
    """Monomial basis of Hom^n(E, F): entries (component, row, col, exps)."""
    ring = E.ring
    basis = []
    for comp, (src, tgt) in enumerate(_hom_components(E, F, n)):
        for i in range(tgt.rank):
            for j in range(src.rank):
                forced = src.twists[j] - tgt.twists[i]
                for exps in ring.monomials_of(forced):
                    basis.append((comp, i, j, exps))
    return basis


def _differential_matrix(E, F, n, basis_n, basis_np1):
    """Matrix of the strand differential Hom^n(E, F) -> Hom^{n+1}(E, F).

    The differential sends g to g . phi^E - (-1)^n phi^F . g.  Right
    multiplication by the E map moves a block to the other component; left
    multiplication by the F map keeps it.  Rows follow `basis_np1`, columns
    `basis_n`.
    """
    if not basis_n:
        return []
    index = {key: pos for pos, key in enumerate(basis_np1)}
    rows = [[Fraction(0)] * len(basis_n) for _ in basis_np1]
    sign = 1 if n % 2 else -1

    def add(key, col, c):
        pos = index.get(key)
        if pos is None:
            raise AssertionError("differential left the graded window")
        rows[pos][col] += c

    for col, (comp, i, j, m) in enumerate(basis_n):
        right = E.phi0 if comp else E.phi_neg
        for jj, p in enumerate(right[j]):
            for e, c in p.terms.items():
                add((1 - comp, i, jj, tuple(a + b for a, b in zip(m, e))), col, c)
        left = F.phi0 if (n + comp) % 2 == 0 else F.phi_neg
        for ii, row in enumerate(left):
            for e, c in row[i].terms.items():
                add((comp, ii, j, tuple(a + b for a, b in zip(m, e))), col, sign * c)
    return rows


def default_window(E: Factorization, F: Factorization) -> int:
    """Twist-index window: generator-degree spread plus two potential degrees."""
    ring = E.ring
    degs = [ring.degree_of(u) for u in
            E.e_neg.twists + E.e_zero.twists + F.e_neg.twists + F.e_zero.twists]
    if not degs:
        return 2
    spread = max(degs) - min(degs)
    dd = ring.degree_of(ring.spec.potential_degree)
    return spread // dd + 2


def _graded_solve(ring, matrix, src_twists, tgt_twists, rhs, element_degree):
    """Solve matrix . v = rhs in a fixed homogeneous degree; None if impossible.

    `rhs` is one polynomial per target generator; `element_degree` is the
    degree of the sought module element, so v_j runs over monomials of
    element_degree - src_twists[j].
    """
    var_bases = [ring.monomials_of(element_degree - s) for s in src_twists]
    offsets = []
    total = 0
    for b in var_bases:
        offsets.append(total)
        total += len(b)
    rows = []
    vec = []
    for r in range(len(tgt_twists)):
        out_basis = ring.monomials_of(element_degree - tgt_twists[r])
        out_index = {e: k for k, e in enumerate(out_basis)}
        block = [[Fraction(0)] * total for _ in out_basis]
        for j in range(len(src_twists)):
            p = matrix[r][j]
            if p.is_zero():
                continue
            for v_pos, mono in enumerate(var_bases[j]):
                for exps, c in p.terms.items():
                    prod = tuple(a + b for a, b in zip(exps, mono))
                    k = out_index.get(prod)
                    if k is None:
                        raise AssertionError("graded product left its component")
                    block[k][offsets[j] + v_pos] += c
        target = [Fraction(0)] * len(out_basis)
        for exps, c in rhs[r].terms.items():
            k = out_index.get(exps)
            if k is None:
                return None
            target[k] = c
        rows.extend(block)
        vec.extend(target)
    if total == 0:
        return [] if all(x == 0 for x in vec) else None
    if not rows:
        return [Fraction(0)] * total
    return linalg.solve(rows, vec)


def _annihilator_powers(ring, matrix, src: GradedFreeModule, tgt: GradedFreeModule):
    """Per-variable powers annihilating coker(matrix), or None.

    Searches m with x_k^m e_i in the image for every target generator; the
    bound is generous enough for the shipped batteries and failure simply
    means 'not certified'.
    """
    nv = ring.nvars()
    dd = ring.degree_of(ring.spec.potential_degree)
    powers = []
    for k in range(nv):
        a_k = ring.spec.generator_degrees[k]
        bound = (2 * dd * max(1, tgt.rank)) // ring.degree_of(a_k) + 2
        found = None
        for m in range(1, bound + 1):
            good = True
            for i in range(tgt.rank):
                rhs = [Polynomial.zero(nv) for _ in range(tgt.rank)]
                rhs[i] = Polynomial.variable(nv, k, m)
                elem_deg = m * a_k + tgt.twists[i]
                if _graded_solve(ring, matrix, src.twists, tgt.twists,
                                 rhs, elem_deg) is None:
                    good = False
                    break
            if good:
                found = m
                break
        if found is None:
            return None
        powers.append(found)
    return powers


def _support_interval(ring, powers, tgt: GradedFreeModule):
    """Degrees that can carry nonzero pieces of the (finite length) cokernel."""
    degs = [ring.degree_of(u) for u in tgt.twists]
    lo = min(degs)
    hi = max(degs) + sum((m - 1) * ring.degree_of(a)
                         for m, a in zip(powers, ring.spec.generator_degrees))
    return lo, hi


def _certified_range(E: Factorization, F: Factorization):
    """Twist-index range outside which all strands provably vanish, or None."""
    ring = E.ring
    d = ring.spec.potential_degree
    intervals = {}
    for tag, obj in (("E", E), ("F", F)):
        p0 = _annihilator_powers(ring, obj.phi0, obj.e_neg, obj.e_zero)
        p1 = _annihilator_powers(ring, obj.phi_neg, obj.e_zero, obj.e_neg.twist(d))
        if p0 is None or p1 is None:
            return None
        intervals[tag] = (_support_interval(ring, p0, obj.e_zero),
                          _support_interval(ring, p1, obj.e_neg.twist(d)))
    dd = ring.degree_of(d)
    l_lo, l_hi = None, None
    for (loE, hiE) in intervals["E"]:
        for (loF, hiF) in intervals["F"]:
            # F-side pieces shift by -l*dd; overlap needs
            # loE <= hiF - l*dd and loF - l*dd <= hiE
            hi = (hiF - loE) // dd
            lo = -((hiE - loF) // dd)
            l_lo = lo if l_lo is None else min(l_lo, lo)
            l_hi = hi if l_hi is None else max(l_hi, hi)
    return l_lo - 1, l_hi + 1


def strand_cohomology(E: Factorization, F: Factorization,
                      window: int | None = None,
                      certify: bool = True) -> StrandCohomology:
    """Dimension of every strand H^{2l+eps}(Hom(E, F)) in range.

    With `certify` (and finite-length cokernels on both sides) the result
    carries a proven support range and strands outside it read as zero;
    otherwise the window `window` (default `default_window`) is inspected
    and tagged as such.  Computation is exact linear algebra on the finite
    homogeneous components of the morphism complex.
    """
    if not E.ring.same_ring(F.ring):
        raise ValueError("factorizations over different rings")
    certification = None
    if certify:
        rng = _certified_range(E, F)
        if rng is not None:
            l_lo, l_hi = rng
            certification = ("certified", (l_lo, l_hi))
    if certification is None:
        L = window if window is not None else default_window(E, F)
        l_lo, l_hi = -L, L
        certification = ("windowed", L)

    n_lo, n_hi = 2 * l_lo, 2 * l_hi + 1
    bases = {n: _hom_basis(E, F, n) for n in range(n_lo - 1, n_hi + 2)}
    ranks = {}
    for n in range(n_lo - 1, n_hi + 1):
        D = _differential_matrix(E, F, n, bases[n], bases[n + 1])
        ranks[n] = linalg.rank(D) if D else 0
    entries = {}
    for n in range(n_lo, n_hi + 1):
        l, eps = divmod(n, 2)
        dim = len(bases[n]) - ranks[n] - ranks[n - 1]
        if dim < 0:
            raise AssertionError(f"negative strand dimension at n={n}")
        entries[(eps, l)] = dim
    if certification[0] == "certified":
        for l in (l_lo, l_hi):
            for eps in (0, 1):
                if entries[(eps, l)]:
                    raise AssertionError(
                        "nonzero strand at the certified boundary")
    return StrandCohomology(entries, certification)


def endo_algebra_check(d: int, twist_probe: int = 0) -> dict:
    """Hom dimensions of the standard objects against the A_{d-1} Cartan matrix.

    Computes every strand table among E_1..E_{d-1}, asserts the H^0 matrix
    matches the Cartan matrix of the linear quiver under the reversal
    i -> d-i (reported), and that all other strands vanish in the certified
    range (strong exceptionality).  Raises with a diff on mismatch.
    """
    if d < 2:
        raise ValueError("need potential degree at least 2")
    from .quiverlab import cartan_matrix, ade_quiver
    from .decompose import ADEType
    ring = one_variable_ring(d)
    objs = standard_objects(ring)
    m = d - 1
    h0 = [[0] * m for _ in range(m)]
    others: list = []
    certified = True
    for i in range(m):
        for j in range(m):
            table = strand_cohomology(objs[i], objs[j])
            certified = certified and table.certification[0] == "certified"
            h0[i][j] = table.dim(0, 0)
            for (eps, l), dim in table.nonzero():
                if (eps, l) != (0, 0):
                    others.append(((i + 1, j + 1), (eps, l), dim))
    cartan = cartan_matrix(ade_quiver(ADEType("A", m))).to_rows()
    reversed_h0 = [[h0[m - 1 - i][m - 1 - j] for j in range(m)] for i in range(m)]
    report = {
        "d": d,
        "h0": h0,
        "cartan": cartan,
        "permutation": "reverse (E_i -> vertex d-i)",
        "higher_strands": others,
        "certified": certified,
        "matches": reversed_h0 == cartan and not others,
    }
    if not report["matches"]:
        raise AssertionError(f"endomorphism check failed for d={d}: {report}")
    # the stabilized residue field is exceptional whatever the twist
    k_obj = k_object(ring, twist_probe * ring.spec.generator_degrees[0])
    k_table = strand_cohomology(k_obj, k_obj)
    report["k_object_exceptional"] = (k_table.dim(0, 0) == 1
                                      and k_table.total() == 1)
    if not report["k_object_exceptional"]:
        raise AssertionError(f"k(a) failed exceptionality for d={d}")
    return report


# ---------------------------------------------------------------------------
# grading restriction and orbit identities


class OrbitSpec:
    """A quotient map psi: A -> A/Gamma with finite kernel Gamma.

    The quotient is presented on the same generators with the kernel
    generators added to the relations; psi is coordinatewise.
    """

    def __init__(self, source: PointedAbelianGroup, kernel_generators):
        self.source = source
        self.kernel_generators = tuple(kernel_generators)
        for g in self.kernel_generators:
            if not g.is_torsion():
                raise ValueError("kernel generators must span a finite subgroup")
        G = source.group
        rows = G.relations.to_rows()
        rows += [list(g.coordinates) for g in self.kernel_generators]
        self.quotient = group_from_relations(
            G.num_generators,
            IntMatrix.from_rows(rows) if rows else IntMatrix.zero(0, G.num_generators))
        self.kernel = self._enumerate_kernel()

    def _enumerate_kernel(self):
        zero = self.source.group.zero()
        seen = {zero}
        frontier = [zero]
        while frontier:
            fresh = []
            for e in frontier:
                for g in self.kernel_generators:
                    nxt = e + g
                    if nxt not in seen:
                        seen.add(nxt)
                        fresh.append(nxt)
            frontier = fresh
            if len(seen) > 10000:
                raise ValueError("kernel is unreasonably large")
        return sorted(seen, key=lambda e: e.canonical)

    def apply(self, e: GroupElement) -> GroupElement:
        return reduce_element(self.quotient, e.coordinates)

    def order(self) -> int:
        return len(self.kernel)


def restrict_grading(E: Factorization, psi: OrbitSpec) -> Factorization:
    """Regrade a factorization along psi, revalidating everything.

    The potential degree must stay non-torsion and all variables must keep
    positive degree in the quotient grading.
    """
    ring = E.ring
    if psi.source.group.signature() != ring.grading.group.signature():
        raise ValueError("orbit map defined on a different grading group")
    marked = psi.apply(ring.grading.marked)
    if marked.is_torsion():
        raise ValueError("potential degree becomes torsion in the quotient")
    pointed = PointedAbelianGroup(psi.quotient, marked)
    gens = tuple(psi.apply(a) for a in ring.spec.generator_degrees)
    spec = GradedRingSpec(pointed, gens)  # rejects non-positive degrees
    ring2 = RingWithPotential(spec, ring.names, ring.potential)
    return make_factorization(
        ring2,
        tuple(psi.apply(u) for u in E.e_neg.twists),
        tuple(psi.apply(u) for u in E.e_zero.twists),
        E.phi0, E.phi_neg)


def orbit_hom_check(E: Factorization, F: Factorization, psi: OrbitSpec,
                    window: int) -> dict:
    """Check dim H^n(Hom(RE, RF)) = sum over Gamma of dim H^n(Hom(E, F(g))).

    Both sides are computed independently, strand by strand, in the window;
    the report carries the two tables and any counterexample strands.
    """
    RE = restrict_grading(E, psi)
    RF = restrict_grading(F, psi)
    lhs = strand_cohomology(RE, RF, window=window, certify=False)
    rhs: dict = {}
    for g in psi.kernel:
        t = strand_cohomology(E, F.twist(g), window=window, certify=False)
        for key, dim in t.entries.items():
            rhs[key] = rhs.get(key, 0) + dim
    mismatches = []
    for key in sorted(lhs.entries, key=lambda k: (k[1], k[0])):
        if lhs.entries[key] != rhs.get(key, 0):
            mismatches.append({"strand": list(key), "restricted": lhs.entries[key],
                               "orbit_sum": rhs.get(key, 0)})
    return {
        "gamma_order": psi.order(),
        "window": window,
        "ok": not mismatches,
        "mismatches": mismatches,
        "restricted_nonzero": [[list(k), v] for k, v in lhs.nonzero()],
        "orbit_sum_nonzero": [[list(k), v] for k, v in
                              sorted(rhs.items(), key=lambda kv: (kv[0][1], kv[0][0]))
                              if v],
    }
