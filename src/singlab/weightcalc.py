"""Weight-sequence and graded-ring calculus.

A weight sequence (d_0, ..., d_n) encodes the potential sum x_i^{d_i}; its
weight group grades the polynomial ring with deg x_i = e_i.  This module
computes the attached numerology exactly: the hypersurface parameter
mu = lcm(d) * (-1 + sum 1/d_i), the Gorenstein twist eta = -d + sum a_i of a
graded ring presentation, counts of exceptional objects and complementary
blocks, decomposition summaries for the three sign cases, Thom-Sebastiani
sums of graded rings, and the graded doubling that adds two quadric
variables to force mu > 0.

mu is computed in integers as sum lcm/d_i - lcm; mu_bar = mu / lcm is the
one `fractions.Fraction`, exact, and nothing is ever rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .abgroup import (GroupElement, PointedAbelianGroup, boxminus, boxminus_pair,
                      int_tuple, pointed_Z, weight_group)

__all__ = [
    "WeightSequence",
    "GradedRingSpec",
    "GorensteinData",
    "SODSummary",
    "mu_values",
    "gorenstein_parameter",
    "sod_summary",
    "exceptional_count",
    "complement_count",
    "knoerrer_double",
    "thom_sebastiani",
    "concat",
    "spec_from_weights",
]


class WeightSequence:
    """A multiset of integer weights d_i >= 1; equality is order-insensitive.
    ValueError on a weight that is not an integer."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(sorted(int_tuple(entries)))
        if not entries:
            raise ValueError("empty weight sequence")
        if entries[0] < 1:
            raise ValueError("weights must be >= 1")
        self.entries = entries

    @property
    def n(self) -> int:
        return len(self.entries) - 1

    def lcm(self) -> int:
        return math.lcm(*self.entries)

    def product(self) -> int:
        return math.prod(self.entries)

    def has_unit_weight(self) -> bool:
        """A weight 1 collapses the factorization category to zero."""
        return self.entries[0] == 1

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, WeightSequence) and self.entries == other.entries

    def __lt__(self, other):
        return self.entries < other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"WeightSequence({list(self.entries)!r})"


def concat(d: WeightSequence, e: WeightSequence) -> WeightSequence:
    """Multiset union; mu_bar(d + e) = mu_bar(d) + mu_bar(e) + 1."""
    return WeightSequence(d.entries + e.entries)


def mu_values(d: WeightSequence):
    """(mu_bar, mu, sign_class) for a weight sequence.

    mu = sum lcm/d_i - lcm over lcm = lcm(d), an integer; mu_bar = mu / lcm
    = -1 + sum 1/d_i exactly; sign_class is the strict trichotomy
    'negative' / 'zero' / 'positive'.
    """
    lcm = d.lcm()
    mu = sum(lcm // x for x in d.entries) - lcm
    sign_class = "zero" if mu == 0 else ("positive" if mu > 0 else "negative")
    return Fraction(mu, lcm), mu, sign_class


@dataclass(frozen=True)
class GradedRingSpec:
    """A positively graded polynomial ring with a potential degree.

    `grading` is a pointed rank-one group whose marked element is the
    potential degree d, positive under the normalized degree map;
    `generator_degrees` are the degrees a_i of the variables, all positive.
    """

    grading: PointedAbelianGroup
    generator_degrees: tuple

    def __post_init__(self):
        if self.grading.group.free_rank != 1:
            raise ValueError("grading group must have free rank 1")
        for a in self.generator_degrees:
            if self.grading.degree(a) <= 0:
                raise ValueError("ring is not positively graded")

    @property
    def potential_degree(self) -> GroupElement:
        return self.grading.marked

    def degree(self, e: GroupElement) -> int:
        return self.grading.degree(e)

    def num_variables(self) -> int:
        return len(self.generator_degrees)


def spec_from_weights(d: WeightSequence) -> GradedRingSpec:
    """The graded-ring presentation of sum x_i^{d_i} over its weight group."""
    B = weight_group(d.entries)
    gens = tuple(B.group.generator(i) for i in range(len(d)))
    return GradedRingSpec(B, gens)


@dataclass(frozen=True)
class GorensteinData:
    """The Gorenstein twist eta = -d + sum a_i and its degree mu."""

    eta: GroupElement
    mu: int


def gorenstein_parameter(spec: GradedRingSpec) -> GorensteinData:
    """eta = -d + sum of generator degrees, mu = deg(eta)."""
    eta = -spec.potential_degree
    for a in spec.generator_degrees:
        eta = eta + a
    return GorensteinData(eta, spec.degree(eta))


@dataclass(frozen=True)
class SODSummary:
    """Count-level shadow of the three-case decomposition theorem.

    We do not construct the twisted line bundles or the semi-orthogonal
    functors, only block degrees, object kinds and multiplicities: that is
    the computable content.
    """

    case: str            # 'positive' | 'zero' | 'negative'
    mu: int
    torsion: int
    blocks: tuple        # ((degree, kind, count), ...) in decomposition order
    residual: str        # 'factorization' | 'geometry' | 'equivalence'

    def block_count(self) -> int:
        return len(self.blocks)

    def complement_total(self) -> int:
        return sum(b[2] for b in self.blocks)


def sod_summary(spec: GradedRingSpec) -> SODSummary:
    """Block degrees and per-degree counts for the sign of mu.

    mu > 0: the geometry side decomposes with line-bundle blocks in degrees
    -mu, ..., -1 and the factorization category as residual component.
    mu < 0: the factorization side decomposes with stabilized-residue blocks
    in degrees -mu-1, ..., 0 and the geometry side as residual.  mu = 0: the
    two sides are equivalent and there are no blocks.  Every per-degree
    count is the torsion order of the grading group.
    """
    g = gorenstein_parameter(spec)
    torsion = spec.grading.group.torsion_order()
    if g.mu > 0:
        blocks = tuple((deg, "line_bundle", torsion) for deg in range(-g.mu, 0))
        return SODSummary("positive", g.mu, torsion, blocks, "factorization")
    if g.mu < 0:
        blocks = tuple((deg, "stabilized_residue", torsion)
                       for deg in range(-g.mu - 1, -1, -1))
        return SODSummary("negative", g.mu, torsion, blocks, "geometry")
    return SODSummary("zero", 0, torsion, (), "equivalence")


def exceptional_count(d: WeightSequence) -> int:
    """prod(d_i - 1) + mu * prod(d_i) / lcm(d), the integer
    prod(d_i - 1) + (prod d_i) * (-1 + sum 1/d_i).

    For a nonnegative sequence this is the length of a full exceptional
    collection on the geometry side; in general it is the residual count
    left after removing the complementary blocks from the prod(d_i - 1)
    exceptional objects of the quiver side.
    """
    _, mu, _ = mu_values(d)
    return math.prod(x - 1 for x in d.entries) + mu * (d.product() // d.lcm())


def complement_count(d: WeightSequence) -> int:
    """|mu| * torsion order: the number of complementary exceptional objects."""
    _, mu, _ = mu_values(d)
    torsion = d.product() // d.lcm()
    return abs(mu) * torsion


def thom_sebastiani(s: GradedRingSpec, t: GradedRingSpec) -> GradedRingSpec:
    """The ring of a sum w(x) + v(y) in disjoint variables.

    The grading is s's boxminus t's, marked at the common potential degree;
    the generator degrees are s's followed by t's, each a pair with zero in
    the other component (`boxminus_pair`).
    """
    A = boxminus(s.grading, t.grading)
    zero_s, zero_t = s.grading.group.zero(), t.grading.group.zero()
    gens = tuple(boxminus_pair(A.group, a, zero_t) for a in s.generator_degrees) + \
        tuple(boxminus_pair(A.group, zero_s, b) for b in t.generator_degrees)
    return GradedRingSpec(A, gens)


def knoerrer_double(spec: GradedRingSpec) -> GradedRingSpec:
    """Add two quadric variables: the sum with u^2, then with v^2.

    The grading becomes A [] (Z,2) [] (Z,2) and the two new generators are
    the images of 1 in the Z factors.  The resulting Gorenstein degree is
    strictly positive.
    """
    Z2 = pointed_Z(2)
    quadric = GradedRingSpec(Z2, (Z2.group.generator(0),))
    doubled = thom_sebastiani(thom_sebastiani(spec, quadric), quadric)
    g = gorenstein_parameter(doubled)
    if g.mu <= 0:
        raise AssertionError("doubled Gorenstein degree must be positive")
    return doubled
