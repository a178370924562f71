"""Graded matrix factorizations over multigraded polynomial rings.

A factorization of a potential w consists of two graded free modules and a
pair of maps

    E_{-1} --phi_0--> E_0 --phi_{-1}--> E_{-1}(d)

whose composites both equal w times the identity.  Everything is tracked by
generator degrees: a factorization keeps a tuple of grading-group elements
per free module, one per generator, and an entry of a map from generator j
(degree u_j) to generator i (degree v_i) must be homogeneous of degree
u_j - v_i.  Twisting by a group element a shifts every generator degree down
by a and leaves matrices untouched.

The morphism complex between two factorizations is 2-periodic up to a twist
by d; its cohomology ("strand cohomology") is computed by exact rational
linear algebra on the finite homogeneous components, which are finite
because the grading is positive.  Over one variable x every block of a
strand holds at most one monomial, so the differentials of all strands of
one parity restrict one scalar matrix, and one elimination per parity gives
every strand's rank; the pairs of a battery (the objects one check pairs
up) stack their matrices on disjoint rows and share those two
eliminations.  Over two or more variables the strands are eliminated
in order: since d o d = 0, the image of one strand's differential lies in
the kernel of the next, so the positions it leads are left out of the next
elimination.  Over one variable the support range is also certified from
generator degrees alone: a structure map phi is square with det phi = c x^e,
nonzero since phi phi' = w I, and by the adjugate x^e (and w) kill
coker phi, which therefore lives in finitely many degrees.  A nonzero
factorization in two or more variables has cokernels of positive
dimension, so its table carries an explicit window tag; for exterior
products of one-variable factorizations the certified table follows from
the factors' tables by the Künneth formula, with no linear algebra on the
product: the Poincaré series {n: dim H^n} of the product is the product
of the factors' series.  `kunneth_table`, the orbit sum of
`orbit_hom_check` and `endo_algebra_check` read the factors' series from
one table per call (`_FactorSeries`), filled for the whole battery by one
elimination per parity, and the first two multiply them with one routine
(`_product_series`).

Rings and factorizations are plain values, as groups are: each fixes an
identity key when it is built, a ring its grading and potential (not its
variable names), a factorization its ring, generator degree pairs and
structure maps, and equality and hashing come from that key.

Group elements are the API: generator twists, gradings and reports.  Inside,
a degree is the pair (torsion residues, integer degree), which determines
the element because the grading has free rank one; validation, monomial
tables, block degrees, windows and cokernel supports all compare and add
such pairs.  Polynomials are exact monomial-to-coefficient maps over the
rationals, coefficients `int` when integral and `Fraction` otherwise; no
floating point appears anywhere.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import add, itemgetter

from . import linalg
from .abgroup import GroupElement, PointedAbelianGroup, boxminus_pair, group_from_relations
from .abgroup import IntMatrix, int_tuple, reduce_element
from .weightcalc import GradedRingSpec, WeightSequence, thom_sebastiani

__all__ = [
    "Polynomial",
    "RingWithPotential",
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
    "kunneth_table",
    "default_window",
    "endo_algebra_check",
    "restrict_grading",
    "orbit_hom_check",
]


class Polynomial:
    """Sparse exact polynomial: exponent tuple -> nonzero coefficient.

    Coefficients are rationals, stored as `int` when integral and as
    `Fraction` otherwise; exponents are non-negative.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars = int_tuple((nvars,))[0]
        clean = {}
        for exps, c in (terms or {}).items():
            if type(c) is not int:
                c = Fraction(c)
            if c:
                exps = int_tuple(exps)
                if len(exps) != nvars:
                    raise ValueError("exponent tuple of wrong length")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent in a polynomial")
                clean[exps] = clean.get(exps, 0) + c
        self.terms = {e: c.numerator if c.denominator == 1 else c
                      for e, c in clean.items() if c}

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def monomial(cls, nvars: int, exps, coeff=1) -> "Polynomial":
        return cls(nvars, {tuple(exps): coeff})

    @classmethod
    def variable(cls, nvars: int, i: int, power: int = 1) -> "Polynomial":
        exps = [0] * nvars
        exps[i] = power
        return cls(nvars, {tuple(exps): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Polynomial(self.nvars, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
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
                out[e] = out.get(e, 0) + c1 * c2
        return Polynomial(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return f"Polynomial({self.terms!r})"


def _degree_pair(spec: GradedRingSpec, u: GroupElement):
    """(torsion residues, integer degree) of u.

    The grading group has free rank one, so the pair determines u; pairs
    add componentwise, residues modulo the invariant factors (`_add_pairs`).
    """
    return u.canonical[0], spec.degree(u)


def _add_pairs(factors, a, b, k=1):
    """The degree pair a + k b."""
    return (tuple([(x + k * y) % t for x, y, t in zip(a[0], b[0], factors)]),
            a[1] + k * b[1])


def _monomial_pair(grading_key, exps):
    """The degree pair sum e_k a_k of a monomial (`grading_key` as below)."""
    factors, gens = grading_key
    out = ((0,) * len(factors), 0)
    for e, a in zip(exps, gens):
        if e:
            out = _add_pairs(factors, out, a, e)
    return out


def _monomial_table(grading_key, residues, degree):
    """Exponent tuples e, in lexicographic order, with sum e_k a_k of the
    canonical torsion residues `residues` and of degree `degree`.
    `_MonomialTables` keeps them for one ring.

    `grading_key` is (invariant factors, ((residues of a_k, deg a_k), ...)).
    Each a_k has positive degree, so the search stops once the degree left
    is negative; it works on residue tuples and integer degrees, never on
    group elements.  The last exponent e is solved, not searched: the degree
    left is e deg a_k and the residues left e times those of a_k, so a
    one-variable table costs O(1).
    """
    factors, gens = grading_key
    *head, (last_step, last_deg) = gens
    found = []

    def rec(idx, res, rem, acc):
        if idx == len(head):
            e, left = divmod(rem, last_deg)
            if (not left and e >= 0
                    and not any((r - e * s) % t
                                for r, s, t in zip(res, last_step, factors))):
                found.append(acc + (e,))
            return
        step, deg = head[idx]
        for e in range(rem // deg + 1):
            rec(idx + 1, res, rem, acc + (e,))
            res = tuple((r - s) % t for r, s, t in zip(res, step, factors))
            rem -= deg

    rec(0, residues, degree, ())
    return tuple(found)


class _MonomialTables(dict):
    """`_monomial_table` of one grading key by (residues, degree), each
    enumerated on first lookup."""

    def __init__(self, grading_key):
        super().__init__()
        self.grading_key = grading_key

    def __missing__(self, pair):
        table = self[pair] = _monomial_table(self.grading_key, *pair)
        return table


class _ShiftTables(dict):
    """Row positions by (source pair, exps e, target pair): the position of
    m + e in the target pair's table for each m of the source pair's table,
    both read from `tables` (a `_MonomialTables`); each found on first
    lookup.  A sum missing from the target table raises AssertionError."""

    def __init__(self, tables):
        super().__init__()
        self.tables = tables
        self.positions = {}

    def __missing__(self, key):
        source, e, target = key
        position = self.positions.get(target)
        if position is None:
            position = self.positions[target] = {
                m: k for k, m in enumerate(self.tables[target])}
        try:
            rows = tuple([position[tuple(map(add, m, e))]
                          for m in self.tables[source]])
        except KeyError:
            raise AssertionError("differential left the graded window") from None
        self[key] = rows
        return rows


class RingWithPotential:
    """A positively multigraded polynomial ring with a chosen potential.

    Wraps a GradedRingSpec (grading group pointed at the potential degree,
    one degree per variable) together with variable names and the potential
    itself, which must be nonzero and homogeneous of the marked degree.
    Two rings are equal when grading and potential agree, whatever the
    variables are called.
    """

    def __init__(self, spec: GradedRingSpec, names, potential: Polynomial):
        self.spec = spec
        self.names = tuple(names)
        if len(self.names) != spec.num_variables():
            raise ValueError("one name per variable required")
        if potential.nvars != spec.num_variables():
            raise ValueError("potential over the wrong number of variables")
        if potential.is_zero():
            raise ValueError("potential must be nonzero")
        self.potential = potential
        # what _monomial_table needs of the grading, its tables and their
        # shift tables, and the tensor rings with this one as first factor
        # (`tensor_ring`), which live as long as the ring
        self._grading_key = (
            spec.grading.group.invariant_factors,
            tuple(_degree_pair(spec, a) for a in spec.generator_degrees))
        self._tables = _MonomialTables(self._grading_key)
        self._shifts = _ShiftTables(self._tables)
        self._tensor_rings = {}
        self._potential_pair = _degree_pair(spec, spec.potential_degree)
        for exps in potential.terms:
            if _monomial_pair(self._grading_key, exps) != self._potential_pair:
                raise ValueError("potential is not homogeneous of the marked degree")
        self._key = (
            self.grading.group, self.grading.marked.canonical,
            tuple(a.canonical for a in spec.generator_degrees),
            tuple(sorted(potential.terms.items())))
        self._hash = hash(self._key)

    def __eq__(self, other):
        return isinstance(other, RingWithPotential) and self._key == other._key

    def __hash__(self):
        return self._hash

    @property
    def grading(self) -> PointedAbelianGroup:
        return self.spec.grading

    def nvars(self) -> int:
        return len(self.names)

    def monomials_of(self, target: GroupElement):
        """All exponent tuples of the given multidegree (finite: positive grading)."""
        return self._tables[_degree_pair(self.spec, target)]


def _zero_matrix(rows, cols, nvars):
    return tuple(tuple(Polynomial.zero(nvars) for _ in range(cols))
                 for _ in range(rows))


def _product_terms(A, B):
    """A . B for matrices of Polynomials, each entry summed in one term dict
    {exps: coefficient} with its zero coefficients dropped."""
    inner = len(B)
    cols = len(B[0]) if inner else 0
    out = []
    for Ai in A:
        row = []
        for j in range(cols):
            acc = {}
            for t in range(inner):
                for e1, c1 in Ai[t].terms.items():
                    for e2, c2 in B[t][j].terms.items():
                        e = tuple(map(add, e1, e2))
                        acc[e] = acc.get(e, 0) + c1 * c2
            row.append({e: c for e, c in acc.items() if c})
        out.append(row)
    return out


def _check_shape(matrix, rows: int, cols: int, label: str):
    """ValueError unless the matrix has `rows` rows of `cols` entries."""
    if len(matrix) != rows or any(len(row) != cols for row in matrix):
        raise ValueError(f"{label} has the wrong shape")


def _check_homogeneous(ring: RingWithPotential, matrix, src, tgt, label: str):
    """Entry [i][j] must be a polynomial in the ring's variables of degree
    src[j] - tgt[i] (generator degree pairs).

    The grading has free rank one, so equal pairs mean equal degrees.
    """
    key = ring._grading_key
    nvars = len(key[1])
    for i, t in enumerate(tgt):
        for j, s in enumerate(src):
            p = matrix[i][j]
            if p.nvars != nvars:
                raise ValueError("exponent tuple of wrong length")
            if p.terms:
                forced = _add_pairs(key[0], s, t, -1)
                for exps in p.terms:
                    if _monomial_pair(key, exps) != forced:
                        raise ValueError(
                            f"{label}[{i}][{j}] has an entry of the wrong degree")


class Factorization:
    """A validated graded factorization of the ring's potential."""

    # Every slot is set when the object is built and never reassigned;
    # twists and shifts build new objects.  `twists_neg` and `twists_zero`
    # are the generator degrees (group elements) of E_{-1} and E_0, and
    # `pairs` their degree pairs and those of E_{-1}(d).  Equality and
    # hashing read `_key`, (ring, pairs, phi0, phi_neg).  `cokernel_support`
    # is `_cokernel_support` of the object, which every strand table reads
    # for both of its objects.
    __slots__ = ("ring", "twists_neg", "twists_zero", "phi0", "phi_neg",
                 "pairs", "cokernel_support", "_key", "_hash")

    def __init__(self, ring, twists_neg, twists_zero, phi0, phi_neg,
                 _validated=False):
        self.ring = ring
        self.twists_neg = twists_neg
        self.twists_zero = twists_zero
        self.phi0 = phi0
        self.phi_neg = phi_neg
        neg, zero = (tuple(_degree_pair(ring.spec, u) for u in twists)
                     for twists in (twists_neg, twists_zero))
        factors, d = ring._grading_key[0], ring._potential_pair
        self.pairs = neg, zero, tuple(_add_pairs(factors, u, d, -1) for u in neg)
        if not _validated:
            _validate_factorization(self)
        self._key = (ring, self.pairs, phi0, phi_neg)
        self._hash = hash(self._key)
        self.cokernel_support = _cokernel_support(self)

    @property
    def rank_pair(self):
        return (len(self.twists_neg), len(self.twists_zero))

    def twist(self, a: GroupElement) -> "Factorization":
        return Factorization(self.ring, tuple(u - a for u in self.twists_neg),
                             tuple(u - a for u in self.twists_zero),
                             self.phi0, self.phi_neg, _validated=True)

    def shift_once(self) -> "Factorization":
        """E[1] = (E_0, E_{-1}(d), -phi_{-1}, -phi_0 retwisted).

        Both structure maps pick up the sign, exactly as in the diagonal
        blocks of the totalization; negating only one of them would produce
        a factorization of -w instead of w.
        """
        d = self.ring.spec.potential_degree
        zero = tuple(u - d for u in self.twists_neg)
        return Factorization(self.ring, self.twists_zero, zero,
                             _neg_matrix(self.phi_neg),
                             _neg_matrix(self.phi0), _validated=True)

    def __eq__(self, other):
        return isinstance(other, Factorization) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Factorization(ranks={self.rank_pair})"


def _validate_factorization(E: Factorization):
    """The three checks of a factorization, each a ValueError: the shapes
    of phi0 and phi_neg, their homogeneity for E's generator degrees
    (`_check_degrees`), and phi_neg phi0 = w I and phi0 phi_neg = w I.

    Each entry of a product is formed once as a term dict and compared
    with the potential's terms on the diagonal and with {} off it; the
    entries are Polynomials in the ring's variables (`_check_homogeneous`),
    so their products need no second exponent check.
    """
    r_neg, r_zero = len(E.twists_neg), len(E.twists_zero)
    _check_shape(E.phi0, r_zero, r_neg, "phi0")
    _check_shape(E.phi_neg, r_neg, r_zero, "phi_neg")
    _check_degrees(E)
    w = E.ring.potential.terms
    for A, B, name in ((E.phi_neg, E.phi0, "phi_neg . phi0"),
                       (E.phi0, E.phi_neg, "phi0 . phi_neg")):
        for i, row in enumerate(_product_terms(A, B)):
            for j, entry in enumerate(row):
                if entry != (w if i == j else {}):
                    raise ValueError(f"{name} is not w times the identity")


def _check_degrees(E: Factorization):
    """Both structure maps must be homogeneous for E's generator degrees."""
    neg, zero, shifted = E.pairs
    _check_homogeneous(E.ring, E.phi0, neg, zero, "phi0")
    _check_homogeneous(E.ring, E.phi_neg, zero, shifted, "phi_neg")


def make_factorization(ring: RingWithPotential, twists_neg, twists_zero,
                       phi0, phi_neg) -> Factorization:
    """Build and fully validate a factorization.

    `phi0` maps E_{-1} to E_0 (rows indexed by E_0 generators), `phi_neg`
    maps E_0 to E_{-1}(d).  Rejects inhomogeneous entries and composites
    different from w times the identity.
    """
    phi0 = tuple(tuple(p for p in row) for row in phi0)
    phi_neg = tuple(tuple(p for p in row) for row in phi_neg)
    return Factorization(ring, tuple(twists_neg), tuple(twists_zero), phi0, phi_neg)


def zero_factorization(ring: RingWithPotential) -> Factorization:
    return make_factorization(ring, (), (), (), ())


def translate(E: Factorization, shift: int = 0,
              twist: GroupElement | None = None) -> Factorization:
    """Shift by [shift] and twist by (twist).

    E[2] = E(d) on the nose, so E[2q + r] = E[r](q d) with r in {0, 1}.
    """
    half, odd = divmod(shift, 2)
    out = E.shift_once() if odd else E
    if half:
        out = out.twist(E.ring.spec.potential_degree * half)
    if twist is not None:
        out = out.twist(twist)
    return out


@dataclass(frozen=True)
class FactorizationMap:
    """A closed degree-zero map f: E -> F given by its two components.

    f_neg: E_{-1} -> F_{-1} (rows = F_{-1} generators) and
    f_zero: E_0 -> F_0.  Checked when built, like a factorization: one
    ring, the shapes, homogeneity of degree zero and commuting with the
    structure maps, each a ValueError.
    """

    source: Factorization
    target: Factorization
    f_neg: tuple
    f_zero: tuple

    def __post_init__(self):
        E, F = self.source, self.target
        if E.ring != F.ring:
            raise ValueError("factorizations over different rings")
        (e_neg, e_zero, _), (t_neg, t_zero, _) = E.pairs, F.pairs
        _check_shape(self.f_neg, len(t_neg), len(e_neg), "f_neg")
        _check_shape(self.f_zero, len(t_zero), len(e_zero), "f_zero")
        _check_homogeneous(E.ring, self.f_neg, e_neg, t_neg, "f_neg")
        _check_homogeneous(E.ring, self.f_zero, e_zero, t_zero, "f_zero")
        if not self.is_closed():
            raise ValueError("map does not commute with the structure maps")

    def is_closed(self) -> bool:
        """f_0 phi0^E = phi0^F f_{-1} and f_{-1} phi_neg^E = phi_neg^F f_0,
        entry by entry as term dicts (`_product_terms`)."""
        E, F = self.source, self.target
        return (_product_terms(self.f_zero, E.phi0)
                == _product_terms(F.phi0, self.f_neg)
                and _product_terms(self.f_neg, E.phi_neg)
                == _product_terms(F.phi_neg, self.f_zero))


def factorization_map(E: Factorization, F: Factorization,
                      f_neg, f_zero) -> FactorizationMap:
    """The closed map (f_neg, f_zero): E -> F, its blocks as tuples of
    rows; `FactorizationMap` checks it."""
    return FactorizationMap(E, F, tuple(tuple(p for p in row) for row in f_neg),
                            tuple(tuple(p for p in row) for row in f_zero))


def cone(f: FactorizationMap) -> Factorization:
    """The totalization of E -> F in two steps, with the block matrices

        phi0     = [[phi0^F, f_zero], [0, -phi_neg^E]]
        phi_neg  = [[phi_neg^F, f_neg], [0, -phi0^E]]

    on components T_{-1} = F_{-1} + E_0 and T_0 = F_0 + E_{-1}(d).
    """
    E, F = f.source, f.target
    ring = E.ring
    nv = ring.nvars()
    d = ring.spec.potential_degree
    t_neg = F.twists_neg + E.twists_zero
    t_zero = F.twists_zero + tuple(u - d for u in E.twists_neg)
    zero_block_1 = _zero_matrix(len(E.twists_neg), len(F.twists_neg), nv)
    zero_block_2 = _zero_matrix(len(E.twists_zero), len(F.twists_zero), nv)
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
        if len(heights) != 1:
            raise AssertionError("blocks in one block row differ in height")
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
    return fermat_ring([d], (name,))


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
    ring graded by the box-minus product of the two gradings, where a
    generator of degree (u, v) is placed by `boxminus_pair`.
    """
    ring = tensor_ring(E.ring, F.ring)
    nv = ring.nvars()
    pair = functools.partial(boxminus_pair, ring.grading.group)
    d = ring.spec.potential_degree
    x_neg = tuple(pair(u, v) for u in E.twists_neg for v in F.twists_zero) + \
        tuple(pair(u, v) for u in E.twists_zero for v in F.twists_neg)
    x_zero = tuple(pair(u, v) for u in E.twists_zero for v in F.twists_zero) + \
        tuple(pair(u, v) - d for u in E.twists_neg for v in F.twists_neg)

    def kron(Amat, Bmat, sign=1):
        """Amat (x) Bmat for term-dict matrices over E's and F's variables,
        which are disjoint: a product monomial joins the exponent tuples."""
        return [tuple(Polynomial(nv, {ea + eb: sign * ca * cb
                                      for ea, ca in a.items() for eb, cb in b.items()})
                      for a in rowA for b in rowB)
                for rowA in Amat for rowB in Bmat]

    def one(twists, nvars: int):
        return [[{(0,) * nvars: 1} if i == j else {} for j in range(len(twists))]
                for i in range(len(twists))]

    a, a_neg, b, b_neg = ([[p.terms for p in row] for row in M]
                          for M in (E.phi0, E.phi_neg, F.phi0, F.phi_neg))
    nE, nF = E.ring.nvars(), F.ring.nvars()
    oneE_neg, oneE_zero = one(E.twists_neg, nE), one(E.twists_zero, nE)
    oneF_neg, oneF_zero = one(F.twists_neg, nF), one(F.twists_zero, nF)
    # phi0: X_{-1} -> X_0, blocks [[a x 1, 1 x b], [-1 x b', a' x 1]]
    phi0 = _block_matrix([
        [kron(a, oneF_zero), kron(oneE_zero, b)],
        [kron(oneE_neg, b_neg, sign=-1), kron(a_neg, oneF_neg)],
    ])
    # phi_neg: X_0 -> X_{-1}(d), blocks [[a' x 1, -1 x b], [1 x b', a x 1]]
    phi_neg = _block_matrix([
        [kron(a_neg, oneF_zero), kron(oneE_neg, b, sign=-1)],
        [kron(oneE_zero, b_neg), kron(a, oneF_neg)],
    ])
    return make_factorization(ring, x_neg, x_zero, phi0, phi_neg)


def tensor_ring(R1: RingWithPotential, R2: RingWithPotential) -> RingWithPotential:
    """The tensor ring of the sum w + v (`thom_sebastiani`), graded by
    R1 boxminus R2.

    R1 keeps one per (R2, R2's variable names), so the products of one
    battery share one ring and its monomial tables; the names are part of
    the key because ring equality leaves them out.
    """
    key = R2, R2.names
    ring = R1._tensor_rings.get(key)
    if ring is None:
        spec = thom_sebastiani(R1.spec, R2.spec)
        k1, k2 = R1.nvars(), R2.nvars()
        w = Polynomial(k1 + k2, {exps + (0,) * k2: c
                                 for exps, c in R1.potential.terms.items()})
        v = Polynomial(k1 + k2, {(0,) * k1 + exps: c
                                 for exps, c in R2.potential.terms.items()})
        ring = R1._tensor_rings[key] = RingWithPotential(
            spec, R1.names + R2.names, w + v)
    return ring


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

    def total(self) -> int:
        return sum(self.entries.values())


def _block_layout(E: Factorization, F: Factorization):
    """The blocks of Hom^0(E, F) and Hom^1(E, F) with the differential's
    terms: for each parity, a list of (degree, terms) per block.  The one
    reader of the structure maps for both strand routes.

    The blocks of a parity are (component, row, col) in lexicographic
    order: an entry maps generator `col` of the source module to generator
    `row` of the target, and its degree is the source pair minus the
    target pair (`_degree_pair`).  Since Hom^{n+2}(E, F) = Hom^n(E, F(d)),
    Hom^{2l+eps} has the blocks of Hom^eps with l*d added to every degree.

    The differential sends g to g . phi^E - (-1)^n phi^F . g, so the
    monomial m of a block goes to m + e in the blocks of the other parity
    named by its terms (target block index, exps e, coefficient).  Right
    multiplication by the E map (phi_neg on component 0, phi0 on
    component 1) moves a block to the other component; left multiplication
    by the F map (phi0 when eps + component is even, phi_neg when odd)
    keeps it, and its terms carry the sign -(-1)^eps.  Coefficients are
    ints where the structure maps have integral coefficients.  Within one
    block's terms the pairs (target block, e) are distinct, so each term of
    a monomial lands on its own row: right and left terms land in different
    components, and a `Polynomial` stores no zero coefficient.  Over one
    variable an entry is one monomial, so the target blocks alone are
    distinct.
    """
    factors = E.ring._grading_key[0]
    (e_neg, e_zero, _), (f_neg, f_zero, f_shifted) = E.pairs, F.pairs
    # both modules of E have its rank r and both of F its rank s, so block
    # (comp, i, j) of either parity is (comp * s + i) * r + j; entry jj of
    # row j of the E map takes it to (1 - comp, i, jj), entry ii of column i
    # of the F map to (comp, ii, j).  Plain loops: this runs once per pair,
    # and over one variable most blocks have a term or two.
    r, s = len(e_neg), len(f_neg)
    out = []
    for eps, targets in enumerate(((f_neg, f_zero), (f_zero, f_shifted))):
        sign = 1 if eps else -1
        blocks = []
        for comp, (sources, right) in enumerate(((e_neg, E.phi_neg), (e_zero, E.phi0))):
            left = (F.phi0, F.phi_neg)[(eps + comp) % 2]
            for i, (t_res, t_deg) in enumerate(targets[comp]):
                to_right = ((1 - comp) * s + i) * r
                for j, (s_res, s_deg) in enumerate(sources):
                    terms = []
                    for jj, p in enumerate(right[j]):
                        for e, c in p.terms.items():
                            terms.append((to_right + jj, e, c))
                    for ii, row in enumerate(left):
                        for e, c in row[i].terms.items():
                            terms.append(((comp * s + ii) * r + j, e, sign * c))
                    res = ()
                    if factors:
                        res = tuple([(x - y) % t for x, y, t in zip(s_res, t_res, factors)])
                    blocks.append(((res, s_deg - t_deg), terms))
        out.append(blocks)
    return out


def _multi_variable_ranks(E, F, n_lo, n_hi):
    """(sizes, ranks): the dimension of Hom^n(E, F) and the rank of the
    differential out of it, by n for n_lo - 1 <= n <= n_hi.  Serves any
    ring; `strand_cohomology` uses it over two or more variables.

    Hom^n has a monomial basis, block by block in the order of
    `_block_layout`, the one reader of the structure maps, and within a
    block in the order of its monomial table.  Each block's monomials go to
    rows of the target blocks of its terms, read from the ring's shift
    tables; a monomial missing from its target table raises
    AssertionError ("differential left the graded window").

    d o d = 0: on g in Hom^n, d(d g) is the sum over two-step paths.  Two
    right steps give g . phi^E phi^E = g . w, two left steps give
    -phi^F phi^F . g = -w . g, and the mixed paths give
    -(-1)^n phi^F . g . phi^E and +(-1)^n phi^F . g . phi^E, which cancel;
    w is central, so d o d = 0.  Both objects are factorizations of one
    potential over one ring, which `strand_cohomology` checks.  So the
    image of the differential into Hom^n lies in the kernel of the one out
    of it.  Let P be the leading positions of an echelon basis of that
    image: those basis vectors and the unit vectors at the positions
    outside P form a triangular basis of Hom^n, and the differential kills
    the former.  So only the positions outside P are eliminated, and the
    leading columns found there (`linalg.pivot_columns`) are P for the next
    strand; the rank is their count.  The first strand has no image
    before it and is eliminated in full.
    """
    maps = _block_layout(E, F)
    ring = E.ring
    factors, tables, shifts = ring._grading_key[0], ring._tables, ring._shifts
    d_res, d_deg = ring._potential_pair

    def strand(n):
        """The table key and row offset of each block of Hom^n, and its size."""
        l, eps = divmod(n, 2)
        shift_res, shift = [l * r for r in d_res], l * d_deg
        keys, offsets, size = [], [], 0
        for (res, deg), _ in maps[eps]:
            if factors:
                res = tuple([(x + y) % t for x, y, t in zip(res, shift_res, factors)])
            key = res, deg + shift
            keys.append(key)
            offsets.append(size)
            size += len(tables[key])
        return keys, offsets, size

    sizes, ranks = {}, {}
    keys, offsets, size = strand(n_lo - 1)
    leading = set()
    for n in range(n_lo - 1, n_hi + 1):
        sizes[n] = size
        target_keys, target_offsets, size = strand(n + 1)
        rows = []
        for (_, terms), key, offset in zip(maps[n % 2], keys, offsets):
            live = [q for q in range(len(tables[key])) if offset + q not in leading]
            if not live:
                continue
            block = [{} for _ in live]
            for t, e, c in terms:
                positions, base = shifts[key, e, target_keys[t]], target_offsets[t]
                for row, q in zip(block, live):
                    row[base + positions[q]] = c
            rows += block
        leading = set(linalg.pivot_columns(rows))
        ranks[n] = len(leading)
        keys, offsets = target_keys, target_offsets
    return sizes, ranks


def _one_variable_ranks(pairs):
    """`_multi_variable_ranks` of every (E, F, n_lo, n_hi) in `pairs`, all
    over one variable x, from one elimination per parity for the whole
    list: a list of (sizes, ranks), one per entry.

    For the potential x^D, a block of Hom^eps of degree (res, deg) has
    degree (res, deg) + l d in Hom^{2l+eps}, so it holds at most one
    monomial there, x^(e0 + l D) with e0 = deg / deg x.  The monomial is
    there when deg x divides deg, e0 deg x has the residues res (tested
    only when the grading has torsion), and e0 + l D >= 0, that is from the
    threshold l = -(e0 // D) on.  The differential sends that monomial to
    fixed multiples of the monomials of its target blocks: the signed
    coefficients of its terms.  Degrees and terms both come from
    `_block_layout`, the one reader of the structure maps.  So every strand
    differential of parity eps is one scalar matrix restricted to the
    columns of the blocks present at l; its rows need no restriction, since
    a present block maps into present blocks.  One pass over the blocks of
    each parity finds each block's threshold and builds a column only for a
    block that is ever present.  With the columns sorted by threshold the
    present ones are a prefix, and the columns chosen by
    `linalg.independent_rows` give the rank of every prefix: the number of
    chosen columns inside it.

    The pairs share the two eliminations.  Each pair's rows are its own
    target blocks, offset by the 2 r s blocks per parity of the pairs
    before it, and its columns, sorted by threshold, follow theirs.  Rows
    of different pairs are disjoint, so a column is independent of the
    earlier columns exactly when it is independent of the earlier columns
    of its own pair: each pair's chosen columns, read back by bisect on its
    own slice, are those it would get alone.
    """
    matrices, layouts, base = ([], []), [], 0
    for E, F, _, _ in pairs:
        factors, ((a_res, a),) = E.ring._grading_key
        top = E.ring._potential_pair[1] // a
        layout = []
        for matrix, blocks in zip(matrices, _block_layout(E, F)):
            columns = []
            for (res, deg), terms in blocks:
                e0, off = divmod(deg, a)
                if off or factors and any((e0 * q - x) % t
                                          for x, q, t in zip(res, a_res, factors)):
                    continue
                column = {}
                for t, _, c in terms:
                    column[base + t] = c
                columns.append((-(e0 // top), column))
            columns.sort(key=itemgetter(0))
            levels, columns = zip(*columns) if columns else ((), ())
            layout.append((len(matrix), levels))
            matrix += columns
        layouts.append(layout)
        base += len(blocks)
    chosen = [linalg.independent_rows(matrix) for matrix in matrices]
    out = []
    for (_, _, n_lo, n_hi), layout in zip(pairs, layouts):
        # per parity: the pair's first column, its thresholds, the chosen
        # columns and the index of the pair's first one among them
        parities = [(start, levels, picks, bisect_left(picks, start))
                    for (start, levels), picks in zip(layout, chosen)]
        sizes, ranks = {}, {}
        for n in range(n_lo - 1, n_hi + 1):
            start, levels, picks, first = parities[n % 2]
            sizes[n] = size = bisect_right(levels, n // 2)
            ranks[n] = bisect_left(picks, start + size, first) - first
        out.append((sizes, ranks))
    return out


def default_window(E: Factorization, F: Factorization) -> int:
    """Twist-index window: generator-degree spread plus two potential degrees."""
    degs = [u[1] for X in (E, F) for pairs in X.pairs[:2] for u in pairs]
    if not degs:
        return 2
    return (max(degs) - min(degs)) // E.ring._potential_pair[1] + 2


def _cokernel_support(obj: Factorization):
    """Support intervals of coker(phi0) and coker(phi_neg), or None.

    Over one variable x of degree a each structure map phi is square, and
    det phi = c x^e with e = (sum of source degrees - sum of target degrees)
    / a is nonzero, because phi phi' = w I with w = c' x^D nonzero.  By the
    adjugate, adj(phi) phi = det(phi) I, so x^e kills coker phi, as does
    w = phi phi'; hence x^m with m = max(1, min(e, D)) does, and coker phi
    lives in degrees min tgt to max tgt + (m - 1) a.  The zero object has
    two zero cokernels (intervals None).  A nonzero object over two or more
    variables has a cokernel of positive dimension (a maximal Cohen-Macaulay
    module over R/(w)), so it is not certified.
    """
    neg, zero, shifted = obj.pairs
    if not zero:
        return None, None
    ring = obj.ring
    if ring.nvars() != 1:
        return None
    a = ring._grading_key[1][0][1]
    top = ring._potential_pair[1] // a

    def interval(src, tgt):
        e = (sum(s[1] for s in src) - sum(t[1] for t in tgt)) // a
        degs = [t[1] for t in tgt]
        return min(degs), max(degs) + (max(1, min(e, top)) - 1) * a

    return interval(neg, zero), interval(zero, shifted)


def _certified_range(E: Factorization, F: Factorization):
    """Twist-index range outside which all strands provably vanish, or None.

    Hom with the zero object vanishes, so a pair with a zero object gets
    (0, 0) over any ring.  Otherwise both objects need cokernel supports
    (`_cokernel_support`): strand l pairs E's degrees with F's shifted by
    -l deg w, so it vanishes unless some piece of E and some piece of F
    overlap, that is lo_E <= hi_F - l deg w and lo_F - l deg w <= hi_E.
    """
    if not E.twists_zero or not F.twists_zero:
        return 0, 0
    support_E, support_F = E.cokernel_support, F.cokernel_support
    if support_E is None or support_F is None:
        return None
    dd = E.ring._potential_pair[1]
    (lo_E0, hi_E0), (lo_E1, hi_E1) = support_E
    (lo_F0, hi_F0), (lo_F1, hi_F1) = support_F
    return (-((max(hi_E0, hi_E1) - min(lo_F0, lo_F1)) // dd) - 1,
            (max(hi_F0, hi_F1) - min(lo_E0, lo_E1)) // dd + 1)


def _strand_dims(strands, l_lo, l_hi, certified: bool) -> dict:
    """{n: dim H^n} for 2 l_lo <= n <= 2 l_hi + 1 from a route's (sizes,
    ranks).  A negative dimension raises AssertionError, and so does, when
    the range is `certified`, a nonzero strand at l_lo or l_hi."""
    sizes, ranks = strands
    dims = {}
    for n in range(2 * l_lo, 2 * l_hi + 2):
        dim = sizes[n] - ranks[n] - ranks[n - 1]
        if dim < 0:
            raise AssertionError(f"negative strand dimension at n={n}")
        dims[n] = dim
    if certified:
        for l in (l_lo, l_hi):
            if dims[2 * l] or dims[2 * l + 1]:
                raise AssertionError("nonzero strand at the certified boundary")
    return dims


def strand_cohomology(E: Factorization, F: Factorization,
                      window: int | None = None) -> StrandCohomology:
    """Dimension of every strand H^{2l+eps}(Hom(E, F)) in range.

    With no `window`, the result carries a proven support range, and
    strands outside it read as zero, when either object is zero (Hom
    vanishes, range (0, 0), over any ring) or both are over one variable:
    each structure map phi has det phi = c x^e, and by the adjugate
    x^min(e, deg_x w) kills coker phi, which bounds its degrees
    (`_cokernel_support`); for other objects the window `default_window`
    is used.  A given `window` L >= 0 asks for the strands with
    -L <= l <= L, tagged as windowed, whatever the objects; a negative one
    raises ValueError.  Computation is exact linear algebra on the finite
    homogeneous components of the morphism complex.  The blocks of Hom^n,
    their degrees and the differential's terms are read from the structure
    maps once per pair, by `_block_layout` alone, for both parities
    (Hom^{n+2}(E, F) = Hom^n(E, F(d))).  Over one variable every strand's
    dimension and rank comes from one elimination per parity
    (`_one_variable_ranks` with a one-pair list, the only one-variable
    route; `_FactorSeries` hands it a whole battery of factor pairs, which
    share those two eliminations, and checks each table as this function
    does, by `_strand_dims`).  Over more variables the strands are
    eliminated in order, each only on the positions outside the leading
    positions of the previous strand's image, which d o d = 0 lets it skip
    (`_multi_variable_ranks`).  For exterior products of
    one-variable factors, `kunneth_table` gives the certified table from
    the factors' tables instead; `orbit_hom_check` uses this function,
    windowed, only for its restricted side.
    """
    if E.ring != F.ring:
        raise ValueError("factorizations over different rings")
    if window is not None and window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    rng = _certified_range(E, F) if window is None else None
    if rng is not None:
        l_lo, l_hi = rng
        certification = ("certified", rng)
    else:
        L = default_window(E, F) if window is None else window
        l_lo, l_hi = -L, L
        certification = ("windowed", L)

    n_lo, n_hi = 2 * l_lo, 2 * l_hi + 1
    if E.ring.nvars() == 1:
        (strands,) = _one_variable_ranks([(E, F, n_lo, n_hi)])
    else:
        strands = _multi_variable_ranks(E, F, n_lo, n_hi)
    dims = _strand_dims(strands, l_lo, l_hi, rng is not None)
    return StrandCohomology({(n % 2, n // 2): dim for n, dim in dims.items()},
                            certification)


def _exponent(ring: RingWithPotential) -> int:
    """D for the potential x^D of a one-variable ring: deg w / deg x."""
    return ring._potential_pair[1] // ring._grading_key[1][0][1]


class _FactorSeries(dict):
    """The Hom series of one-variable factor pairs, for one battery (the
    objects one check pairs up): (E, F, r) -> (series, (l_lo, l_hi)), the
    Poincaré series {n: dim H^n} of Hom(E, F(r deg x)) and its certified
    range, 0 <= r < D for the potential x^D.

    Built from every triple (E, F, w) the battery reads, each stored under
    its residue r = w mod D, and filled at once: all distinct entries share
    the two eliminations of one `_one_variable_ranks` call, and their
    strands pass the checks of `strand_cohomology` (`_strand_dims`).  Keys
    are values: a ring's value leaves out variable names, so factors of x^m
    and y^m share an entry.  A factor over more than one variable, or a
    pair over two rings, raises ValueError, and a table that is not
    certified AssertionError.
    """

    def __init__(self, triples):
        super().__init__()
        ranges: dict = {}
        battery = []
        for E, F, w in triples:
            r = w % _exponent(E.ring)
            if (E, F, r) in ranges:
                continue
            # each distinct key is checked once, before its table is read
            if E.ring.nvars() != 1:
                raise ValueError("Künneth factors must be over one-variable rings")
            if E.ring != F.ring:
                raise ValueError("factorizations over different rings")
            twisted = F.twist(r * F.ring.spec.generator_degrees[0]) if r else F
            rng = ranges[E, F, r] = _certified_range(E, twisted)
            if rng is None:
                raise AssertionError("a Künneth factor table is not certified")
            battery.append((E, twisted, 2 * rng[0], 2 * rng[1] + 1))
        for (key, rng), strands in zip(ranges.items(), _one_variable_ranks(battery)):
            dims = _strand_dims(strands, *rng, True)
            self[key] = {n: dim for n, dim in dims.items() if dim}, rng


def _product_series(tables, Es, Fs, w) -> dict:
    """The Poincaré series of Hom(E_1 ⊠ ... ⊠ E_m, F_1(w_1) ⊠ ... ⊠ F_m(w_m)),
    F_k twisted by w_k times the degree of its variable: the product of the
    factor series in `tables` (a `_FactorSeries`).

    For the potential x^m and w_k = q m + r, F(w_k a) is F(r a) twisted by
    q deg(x^m), and H^{n-2q}(Hom(E, F(w_k a))) = H^n(Hom(E, F(r a))): factor
    k is read at residue r and moved by the exponent offset -2q.
    """
    series = {0: 1}
    for E, F, wk in zip(Es, Fs, w):
        q, r = divmod(wk, _exponent(E.ring))
        factor, _ = tables[E, F, r]
        product: dict = {}
        for n1, c1 in series.items():
            for n2, c2 in factor.items():
                n = n1 + n2 - 2 * q
                product[n] = product.get(n, 0) + c1 * c2
        series = product
    return series


def kunneth_table(factors_E, factors_F) -> StrandCohomology:
    """Strand cohomology of Hom(E_1 ⊠ ... ⊠ E_m, F_1 ⊠ ... ⊠ F_m) by Künneth.

    The factors are one-variable factorizations, E_k and F_k over the same
    ring.  The morphism complex of the exterior products is the tensor
    product of the factors' complexes (Ballard-Favero-Katzarkov,
    arXiv:1105.3177), so its Poincaré series sum_n dim H^n t^n is the
    product of the factors' series (`_product_series` at w = 0), read from
    their certified tables; no linear algebra on the product is done.
    Factor k vanishes outside l_lo_k < l < l_hi_k, so the product vanishes
    outside degrees sum 2(l_lo_k + 1) <= n <= sum 2(l_hi_k - 1) + 1; the
    certified range adds one zero strand on each side, as in
    `strand_cohomology`.  A factor table that is not certified is an
    invariant breach (AssertionError).
    """
    if not factors_E or len(factors_E) != len(factors_F):
        raise ValueError("Künneth needs one F factor per E factor")
    zeros = [0] * len(factors_E)
    tables = _FactorSeries(zip(factors_E, factors_F, zeros))
    series = _product_series(tables, factors_E, factors_F, zeros)
    ranges = [tables[E, F, 0][1] for E, F in zip(factors_E, factors_F)]
    l_lo = sum(lo + 1 for lo, _ in ranges) - 1
    l_hi = sum(2 * hi - 1 for _, hi in ranges) // 2 + 1
    entries = {(eps, l): series.get(2 * l + eps, 0)
               for l in range(l_lo, l_hi + 1) for eps in (0, 1)}
    return StrandCohomology(entries, ("certified", (l_lo, l_hi)))


def endo_algebra_check(d: int) -> tuple:
    """Hom dimensions of the standard objects against the A_{d-1} Cartan matrix.

    Reads every certified series among E_1..E_{d-1} from one `_FactorSeries`
    and asserts that the H^0 matrix matches the Cartan matrix of the linear
    quiver under the reversal i -> d-i, and that all other strands vanish
    (strong exceptionality).  The stabilized residue field k(0) is E_{d-1},
    so its exceptionality is the last diagonal entry of that check.  Returns
    (h0, cartan); raises AssertionError naming d and the tables on mismatch;
    ValueError when d < 2.
    """
    from .quiverlab import cartan_matrix, ade_quiver
    from .decompose import ADEType
    objs = standard_objects(one_variable_ring(d))
    m = d - 1
    tables = _FactorSeries((E, F, 0) for E in objs for F in objs)
    h0 = [[0] * m for _ in range(m)]
    others: list = []
    for i, E in enumerate(objs):
        for j, F in enumerate(objs):
            series, _ = tables[E, F, 0]
            h0[i][j] = series.get(0, 0)
            # a series runs by n = 2l + eps, the order its table stores them
            for n, dim in series.items():
                if n:
                    others.append(((i + 1, j + 1), (n % 2, n // 2), dim))
    cartan = cartan_matrix(ade_quiver(ADEType("A", m))).to_rows()
    reversed_h0 = [[h0[m - 1 - i][m - 1 - j] for j in range(m)] for i in range(m)]
    if reversed_h0 != cartan or others:
        raise AssertionError(f"endomorphism check failed for d={d}: h0 {h0}, "
                             f"cartan {cartan}, higher strands {others}")
    return h0, cartan


# ---------------------------------------------------------------------------
# grading restriction and orbit identities


class OrbitSpec:
    """A quotient map psi: A -> A/Gamma with finite kernel Gamma.

    The quotient is presented on the same generators with the kernel
    generators added to the relations; psi is coordinatewise.  Gamma is
    finite, so tors(A/Gamma) = tors(A)/Gamma and the two Smith forms give
    |Gamma| before Gamma is enumerated: an order above 10 000 is refused
    (ValueError), and an enumeration of another size is an AssertionError.
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
        self.quotient = group_from_relations(G.num_generators,
                                             IntMatrix.from_rows(rows))
        order = G.torsion_order() // self.quotient.torsion_order()
        if order > 10000:
            raise ValueError("kernel is unreasonably large")
        self.kernel = self._enumerate_kernel()
        if len(self.kernel) != order:
            raise AssertionError(f"kernel enumeration found {len(self.kernel)} "
                                 f"elements, the Smith forms {order}")

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
        return sorted(seen, key=lambda e: e.canonical)

    def apply(self, e: GroupElement) -> GroupElement:
        return reduce_element(self.quotient, e.coordinates)

    def order(self) -> int:
        return len(self.kernel)


def restrict_grading(E: Factorization, psi: OrbitSpec) -> Factorization:
    """Regrade a factorization along psi, re-checking homogeneity.

    The potential degree must stay non-torsion and all variables must keep
    positive degree in the quotient grading.  Each call builds its own
    regraded ring and stores nothing; `orbit_hom_check` regrades a whole
    battery into one ring.
    """
    return _restrict_all([E], psi)[0]


def _restrict_all(objects, psi: OrbitSpec) -> list:
    """`restrict_grading` of each of `objects` into one regraded ring, whose
    monomial tables they then share; ValueError when the objects are over
    different rings.

    The regraded objects keep the source's structure maps.  Their shapes and
    the identity phi phi' = w I do not depend on the grading and were
    checked when the source was built, so only homogeneity in the quotient
    grading is checked again (ValueError).
    """
    if not objects:
        return []
    ring = objects[0].ring
    if any(X.ring != ring for X in objects):
        raise ValueError("factorizations over different rings")
    if psi.source.group != ring.grading.group:
        raise ValueError("orbit map defined on a different grading group")
    # refuses a potential degree that becomes torsion in the quotient
    pointed = PointedAbelianGroup(psi.quotient, psi.apply(ring.grading.marked))
    gens = tuple(psi.apply(a) for a in ring.spec.generator_degrees)
    spec = GradedRingSpec(pointed, gens)  # rejects non-positive degrees
    ring2 = RingWithPotential(spec, ring.names, ring.potential)
    out = []
    for X in objects:
        Y = Factorization(ring2, tuple(psi.apply(u) for u in X.twists_neg),
                          tuple(psi.apply(u) for u in X.twists_zero),
                          X.phi0, X.phi_neg, _validated=True)
        _check_degrees(Y)
        out.append(Y)
    return out


def orbit_hom_check(objects, psi: OrbitSpec, window: int) -> list:
    """Check dim H^n(Hom(RE, RF)) = sum over Gamma of dim H^n(Hom(E, F(g))).

    Each object is a tuple (E_1, ..., E_m) of one-variable factors standing
    for E_1 ⊠ ... ⊠ E_m, over the tensor ring whose grading psi restricts.
    Runs over every ordered pair (E, F) of `objects`, and the two sides are
    computed by different routes:

    * the restricted side by windowed linear algebra (`strand_cohomology`)
      on the folded `tensor_product`s, all regraded into one ring, whose
      monomial tables every pair shares (ValueError when the products are
      over different rings);
    * the orbit-sum side as one Poincaré series, the sum over g in Gamma
      of the Künneth products `_product_series` forms from one
      `_FactorSeries` for the whole battery, as `kunneth_table` does.  A
      twist by g twists factor k by coordinate w_k of `g.coordinates` times
      its generator; another lift of g differs by d_i e_i - d_j e_j, which
      moves two factors' strands by +2 and -2 and leaves the product alone.

    Returns ((i, j), mismatches) for each pair, in row-major order; each
    mismatch is ((eps, l), restricted, orbit_sum), in (l, eps) order over
    the strands of the window.
    """
    restricted = _restrict_all([functools.reduce(tensor_product, obj)
                                for obj in objects], psi)
    lifts = [g.coordinates for g in psi.kernel]
    if any(len(w) != len(obj) for obj in objects for w in lifts):
        raise ValueError("a lift of g needs one coordinate per factor")
    tables = _FactorSeries((Ek, Fk, wk) for E in objects for F in objects
                           for w in lifts for Ek, Fk, wk in zip(E, F, w))
    out = []
    for i, (E, RE) in enumerate(zip(objects, restricted)):
        for j, (F, RF) in enumerate(zip(objects, restricted)):
            lhs = strand_cohomology(RE, RF, window=window)
            orbit: dict = {}
            for w in lifts:
                for n, dim in _product_series(tables, E, F, w).items():
                    orbit[n] = orbit.get(n, 0) + dim
            mismatches = []
            for key in sorted(lhs.entries, key=lambda k: (k[1], k[0])):
                rhs = orbit.get(2 * key[1] + key[0], 0)
                if lhs.entries[key] != rhs:
                    mismatches.append((key, lhs.entries[key], rhs))
            out.append(((i, j), mismatches))
    return out
