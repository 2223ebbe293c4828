"""The ring of F-valued functions on a finite discrete space, its
maximal spectrum with the Zariski topology, and the point-to-kernel map.

Every function on a finite discrete space is continuous, so the ring is
just F^n with pointwise operations. Every ideal of F^n is I_V, the
functions vanishing on some set V of points; the brute-force oracle
checks this independently at tiny sizes by enumerating element sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    InfiniteField,
    MixedFields,
    NotProper,
    ParseError,
    PointOutOfRange,
    TooLarge,
)
from .field_core import (
    FieldDescriptor,
    enumerate_field,
    format_element,
    format_field,
    parse_element,
)

ORACLE_GUARD = 12          # max ring size for subset enumeration
SPECTRUM_GUARD = 10 ** 6   # max ring size to enumerate, max closed-set count


@dataclass(frozen=True)
class FiniteSpace:
    """A discrete space with points 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("the space must be non-empty")

    def points(self):
        return range(self.size)


@dataclass(frozen=True)
class RingElement:
    """A function on a finite discrete space: one field value per point."""

    field: FieldDescriptor
    values: tuple

    def __post_init__(self):
        for v in self.values:
            if v.field != self.field:
                raise MixedFields(f"{self.field} vs {v.field}")

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, tuple(field.element(v) for v in ints))

    @classmethod
    def zeros(cls, field, size):
        return cls(field, (field.zero(),) * size)

    @classmethod
    def indicator(cls, field, size, point):
        values = [field.zero()] * size
        values[point] = field.one()
        return cls(field, tuple(values))

    @property
    def size(self):
        return len(self.values)

    @property
    def is_zero(self):
        return all(v.is_zero for v in self.values)

    def _same(self, other):
        if not isinstance(other, RingElement):
            raise TypeError(f"expected RingElement, got {type(other).__name__}")
        if other.field != self.field or other.size != self.size:
            raise MixedFields("ring elements live in different rings")

    def __add__(self, other):
        self._same(other)
        return RingElement(self.field, tuple(
            a + b for a, b in zip(self.values, other.values)))

    def __neg__(self):
        return RingElement(self.field, tuple(-v for v in self.values))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._same(other)
        return RingElement(self.field, tuple(
            a * b for a, b in zip(self.values, other.values)))

    def scale(self, c):
        return RingElement(self.field, tuple(c * v for v in self.values))

    def zero_set(self):
        return frozenset(i for i, v in enumerate(self.values) if v.is_zero)

    def __str__(self):
        return ",".join(format_element(v) for v in self.values)

    def __repr__(self):
        return f"RingElement({self})"


def parse_ring_element(field, line) -> RingElement:
    """One function per line: comma-separated field-element literals.

    A ParseError carries the offset of the bad character in the line.
    """
    if not line.strip():
        raise ParseError(line, 0, "comma-separated field-element literals")
    values, start = [], 0
    for part in line.split(","):
        try:
            values.append(parse_element(field, part))
        except ParseError as exc:
            lead = len(part) - len(part.lstrip())
            raise ParseError(line, start + lead + exc.pos,
                             exc.expected) from None
        start += len(part) + 1
    return RingElement(field, tuple(values))


def all_ring_elements(space: FiniteSpace, field: FieldDescriptor):
    """Every function on the space, in lexicographic order."""
    if not field.is_finite:
        raise InfiniteField("the function ring is finite only for finite F")
    size = field.order ** space.size
    if size > SPECTRUM_GUARD:
        raise TooLarge("function ring too large to enumerate",
                       guard="SPECTRUM_GUARD", limit=SPECTRUM_GUARD,
                       requested=size)
    elements = enumerate_field(field)
    return [RingElement(field, values)
            for values in itertools.product(elements, repeat=space.size)]


@dataclass(frozen=True)
class IdealRepr:
    """The ideal I_V of all functions vanishing on a set V of points.

    Every ideal of F^n has this form. I_V is proper iff V is non-empty
    and maximal iff V is a single point.
    """

    space: FiniteSpace
    field: FieldDescriptor
    vanishing: frozenset

    def __post_init__(self):
        vanishing = frozenset(self.vanishing)
        for x in vanishing:
            if not 0 <= x < self.space.size:
                raise PointOutOfRange(
                    f"point {x} not in a space of size {self.space.size}")
        object.__setattr__(self, "vanishing", vanishing)

    def contains(self, f: RingElement) -> bool:
        return all(f.values[x].is_zero for x in self.vanishing)

    @property
    def is_proper(self):
        return bool(self.vanishing)

    def element_set(self) -> frozenset:
        """Materialize the full element set (guarded by ring size)."""
        return frozenset(
            f for f in all_ring_elements(self.space, self.field)
            if self.contains(f))

    def is_maximal(self) -> bool:
        return len(self.vanishing) == 1


def gelfand_map(space: FiniteSpace, field: FieldDescriptor, x: int) -> IdealRepr:
    """The kernel of evaluation at x: all functions vanishing there."""
    return IdealRepr(space, field, {x})


def enumerate_ideals_bruteforce(space: FiniteSpace, field: FieldDescriptor):
    """All ideals of the function ring, as element sets, by direct subset
    enumeration.

    Checks every subset containing zero for closure under addition and
    under multiplication by arbitrary ring elements. Only feasible for
    tiny rings; guarded accordingly.
    """
    n = field.order ** space.size
    if n > ORACLE_GUARD:
        raise TooLarge(
            f"ring has {n} elements; oracle guard is {ORACLE_GUARD}",
            guard="ORACLE_GUARD", limit=ORACLE_GUARD, requested=n)
    ring = all_ring_elements(space, field)
    zero_idx = next(i for i, f in enumerate(ring) if f.is_zero)
    index = {f: i for i, f in enumerate(ring)}
    add_table = [[index[ring[i] + ring[j]] for j in range(n)] for i in range(n)]
    mul_table = [[index[ring[i] * ring[j]] for j in range(n)] for i in range(n)]
    ideals = []
    for mask in range(1 << n):
        if not (mask >> zero_idx) & 1:
            continue
        members = [i for i in range(n) if (mask >> i) & 1]
        ok = True
        for i in members:
            for j in members:
                if not (mask >> add_table[i][j]) & 1:
                    ok = False
                    break
            if not ok:
                break
            for j in range(n):
                if not (mask >> mul_table[j][i]) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            ideals.append(frozenset(ring[i] for i in members))
    return ideals


def maximal_ideals(ideals, one: RingElement):
    """The proper ideals that no other listed proper ideal strictly
    contains. Applied to the oracle's complete list, these are exactly
    the maximal ideals."""
    proper = [I for I in ideals if one not in I]
    return [I for I in proper if not any(I < J for J in proper)]


@dataclass(frozen=True)
class ZariskiSpace:
    """The maximal spectrum with its Zariski closed-set family.

    Closed sets are recorded as subsets of point indices via the
    point -> kernel correspondence.
    """

    points: tuple  # IdealRepr per space point
    closed_sets: frozenset  # frozenset of frozensets of point indices


def max_spectrum(space: FiniteSpace, field: FieldDescriptor) -> ZariskiSpace:
    """Compute Max(C(X,F)) and its Zariski topology.

    The basic closed set C_f = {M : f in M} is the zero set of f. Since
    1 - 1_S vanishes exactly on S, every subset of points is a zero
    set, so the closed sets are the 2^n zero patterns of the functions
    1 - 1_S; they are already closed under union and intersection.
    """
    n = space.size
    if 2 ** n > SPECTRUM_GUARD:
        raise TooLarge(f"2^{n} closed sets exceed the guard {SPECTRUM_GUARD}",
                       guard="SPECTRUM_GUARD", limit=SPECTRUM_GUARD,
                       requested=2 ** n)
    points = tuple(gelfand_map(space, field, x) for x in space.points())
    zero, one = field.zero(), field.one()
    unit = RingElement(field, (one,) * n)
    closed = set()
    for mask in range(1 << n):
        indicator = RingElement(field, tuple(
            one if (mask >> x) & 1 else zero for x in space.points()))
        closed.add((unit - indicator).zero_set())
    return ZariskiSpace(points, frozenset(closed))


def preimage_of_ideal(space, field, M: IdealRepr) -> frozenset:
    """Points where every member of the ideal vanishes."""
    if not M.is_proper:
        raise NotProper("the whole ring has no preimage point set")
    return M.vanishing


def check_homeomorphism(space: FiniteSpace, field: FieldDescriptor,
                        use_oracle=None) -> dict:
    """Verify the point/maximal-ideal correspondence at finite scale.

    Checks injectivity, surjectivity onto the structurally-found
    maximal ideals (cross-checked with the brute-force oracle when its
    guard permits), and equality of the Zariski topology with the
    discrete topology. Only the finite discrete instance is checked;
    nothing is claimed about infinite spaces.
    """
    n = space.size
    ring_size = field.order ** n
    if use_oracle is None:
        use_oracle = ring_size <= ORACLE_GUARD

    spectrum = max_spectrum(space, field)
    kernels = spectrum.points

    injective = len({M.vanishing for M in kernels}) == n
    preimages_ok = all(
        preimage_of_ideal(space, field, kernels[x]) == frozenset({x})
        for x in space.points())
    structurally_maximal = all(M.is_maximal() for M in kernels)

    oracle_agrees = None
    if use_oracle:
        one = RingElement(field, (field.one(),) * n)
        oracle_max = maximal_ideals(enumerate_ideals_bruteforce(space, field),
                                    one)
        structural_max = {M.element_set() for M in kernels}
        oracle_agrees = set(oracle_max) == structural_max

    # 2^n distinct subsets of the n points are all of them: discrete
    points = frozenset(space.points())
    topology_match = len(spectrum.closed_sets) == 2 ** n and all(
        S <= points for S in spectrum.closed_sets)

    bijective = injective and structurally_maximal and preimages_ok \
        and (oracle_agrees is not False)
    passed = bijective and topology_match
    return {
        "space_size": n,
        "field": format_field(field),
        "max_ideal_count": len(kernels),
        "bijective": bijective,
        "topology_match": topology_match,
        "oracle_checked": bool(use_oracle),
        "closed_set_count": len(spectrum.closed_sets),
        "passed": passed,
    }
