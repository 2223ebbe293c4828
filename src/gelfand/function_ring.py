"""The ring of F-valued functions on a finite discrete space, its
maximal spectrum with the Zariski topology, and the point-to-kernel map.

Every function on a finite discrete space is continuous, so the ring is
just F^n with pointwise operations. Every ideal of F^n is I_V, the
functions vanishing on some set V of points; the brute-force oracle
checks this independently at tiny sizes by enumerating element sets.
A closed set of the spectrum is held as an int bitmask of points, bit x
for the kernel at x, since 2^n of them are held at once.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import (
    InfiniteField,
    MixedFields,
    ParseError,
    PointOutOfRange,
    TooLarge,
)
from .field_core import (
    FIELD_TABLE_CAP,
    FieldDescriptor,
    enumerate_field,
    format_element,
    format_field,
    from_payload,
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


_new = object.__new__
_set = object.__setattr__


@dataclass(frozen=True, init=False, repr=False, slots=True)
class RingElement:
    """A function on a finite discrete space: one field value per point.

    It holds the values' payloads, so that its operators (`+`, `-`, `*`,
    `scale`) compute with the field's payload operations `add`, `neg`
    and `mul`, and build each result once through `from_payloads`, which
    skips the constructor's check, as `from_payload` does for a field
    element. The public constructor takes field elements and checks that
    each lies in the field; `values` wraps the payloads back into field
    elements.
    """

    field: FieldDescriptor
    payloads: tuple

    def __init__(self, field, values):
        values = tuple(values)
        for v in values:
            if v.field != field:
                raise MixedFields(f"{field} vs {v.field}")
        _set(self, "field", field)
        _set(self, "payloads", tuple(v.payload for v in values))

    @classmethod
    def from_payloads(cls, field, payloads):
        """A ring element from a tuple of payloads already in canonical
        form, as the field operations produce them."""
        f = _new(cls)
        _set(f, "field", field)
        _set(f, "payloads", payloads)
        return f

    @classmethod
    def zeros(cls, field, size):
        return cls(field, (field.zero(),) * size)

    @property
    def values(self):
        F = self.field
        return tuple(from_payload(F, a) for a in self.payloads)

    @property
    def size(self):
        return len(self.payloads)

    @property
    def is_zero(self):
        return all(map(self.field.is_zero, self.payloads))

    def _same(self, other):
        """The field that self and other share."""
        if not isinstance(other, RingElement):
            raise TypeError(f"expected RingElement, got {type(other).__name__}")
        if other.field != self.field or other.size != self.size:
            raise MixedFields("ring elements live in different rings")
        return self.field

    def __add__(self, other):
        F = self._same(other)
        return RingElement.from_payloads(
            F, tuple(map(F.add, self.payloads, other.payloads)))

    def __neg__(self):
        F = self.field
        return RingElement.from_payloads(F, tuple(map(F.neg, self.payloads)))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = self._same(other)
        return RingElement.from_payloads(
            F, tuple(map(F.mul, self.payloads, other.payloads)))

    def scale(self, c):
        """c times self, for a field element c."""
        F = self.field
        if c.field != F:
            raise MixedFields(f"{F} vs {c.field}")
        mul, c = F.mul, c.payload
        return RingElement.from_payloads(
            F, tuple(mul(c, a) for a in self.payloads))

    def __str__(self):
        return ",".join(format_element(v) for v in self.values)

    def __repr__(self):
        return f"RingElement({self})"


def parse_ring_element(field, line) -> RingElement:
    """One function per line: comma-separated field-element literals.

    A literal in its canonical text form is looked up in the field's
    literal table; any other goes through `parse_element`. A ParseError
    carries the offset of the bad character in the line.
    """
    if not line.strip():
        raise ParseError(line, 0, "comma-separated field-element literals")
    table = _literal_table(field)
    payloads, start = [], 0
    for part in line.split(","):
        a = table.get(part)
        if a is None:
            try:
                a = parse_element(field, part).payload
            except ParseError as exc:
                lead = len(part) - len(part.lstrip())
                raise ParseError(line, start + lead + exc.pos,
                                 exc.expected) from None
        payloads.append(a)
        start += len(part) + 1
    return RingElement.from_payloads(field, tuple(payloads))


@functools.lru_cache(maxsize=16)
def _literal_table(field):
    """Each element's canonical text mapped to its payload, for a finite
    field of at most FIELD_TABLE_CAP elements; empty for any other."""
    if not field.is_finite or field.order > FIELD_TABLE_CAP:
        return {}
    return {format_element(x): x.payload for x in enumerate_field(field)}


def all_ring_elements(space: FiniteSpace, field: FieldDescriptor):
    """Every function on the space, in lexicographic order."""
    if not field.is_finite:
        raise InfiniteField("the function ring is finite only for finite F")
    size = field.order ** space.size
    if size > SPECTRUM_GUARD:
        raise TooLarge("function ring too large to enumerate",
                       guard="SPECTRUM_GUARD", limit=SPECTRUM_GUARD,
                       requested=size)
    elements = [x.payload for x in enumerate_field(field)]
    return [RingElement.from_payloads(field, payloads)
            for payloads in itertools.product(elements, repeat=space.size)]


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
        if f.field != self.field or f.size != self.space.size:
            raise MixedFields("the function and the ideal live in "
                              "different rings")
        is_zero, payloads = self.field.is_zero, f.payloads
        return all(is_zero(payloads[x]) for x in self.vanishing)

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


def check_guards(space: FiniteSpace, field: FieldDescriptor,
                 use_oracle=None) -> bool:
    """Check the guards of `check_homeomorphism` without doing its work:
    SPECTRUM_GUARD on the 2^n closed sets, and, when use_oracle is true,
    a finite field and ORACLE_GUARD on the ring. Returns whether the
    oracle runs: when asked to, or by default when F is finite and
    ORACLE_GUARD admits the ring."""
    n = space.size
    if 2 ** n > SPECTRUM_GUARD:
        raise TooLarge(f"2^{n} closed sets exceed the guard {SPECTRUM_GUARD}",
                       guard="SPECTRUM_GUARD", limit=SPECTRUM_GUARD,
                       requested=2 ** n)
    if not field.is_finite:
        if use_oracle:
            raise InfiniteField("the ideal oracle enumerates the ring, "
                                "which needs a finite field")
        return False
    ring_size = field.order ** n
    if use_oracle and ring_size > ORACLE_GUARD:
        raise TooLarge(
            f"ring has {ring_size} elements; oracle guard is {ORACLE_GUARD}",
            guard="ORACLE_GUARD", limit=ORACLE_GUARD, requested=ring_size)
    return bool(use_oracle) or ring_size <= ORACLE_GUARD


def enumerate_ideals_bruteforce(space: FiniteSpace, field: FieldDescriptor):
    """All ideals of the function ring, as element sets, by direct subset
    enumeration.

    Checks every subset containing zero for closure under addition and
    under multiplication by arbitrary ring elements, read off add and mul
    tables that the field's payload operations fill pointwise on payload
    tuples. Only feasible for tiny rings; guarded accordingly.
    """
    n = field.order ** space.size
    check_guards(space, field, use_oracle=True)
    ring = all_ring_elements(space, field)
    zero_idx = next(i for i, f in enumerate(ring) if f.is_zero)
    payloads = [f.payloads for f in ring]
    index = {a: i for i, a in enumerate(payloads)}
    add, mul = field.add, field.mul
    add_table = [[index[tuple(map(add, a, b))] for b in payloads]
                 for a in payloads]
    mul_table = [[index[tuple(map(mul, a, b))] for b in payloads]
                 for a in payloads]
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

    Each closed set is an int bitmask of point indices via the
    point -> kernel correspondence: bit x is set when the kernel at x
    lies in the set.
    """

    points: tuple  # IdealRepr per space point
    closed_sets: frozenset  # frozenset of int bitmasks of points


def max_spectrum(space: FiniteSpace, field: FieldDescriptor) -> ZariskiSpace:
    """Compute Max(C(X,F)) and its Zariski topology.

    The basic closed set C_f = {M : f in M} is the zero set of f. Since
    1 - 1_S vanishes exactly on S, every subset of points is a zero
    set, so the closed sets are the 2^n zero patterns of the functions
    1 - 1_S; they are already closed under union and intersection.
    Each 1 - 1_S is computed as 1 + (-1_S) with the field's payload
    operations `add` and `neg`, and its zero set read with `is_zero`
    straight into a bitmask; no ring element and no point set is built.
    """
    n = space.size
    check_guards(space, field)
    points = tuple(gelfand_map(space, field, x) for x in space.points())
    add, neg, is_zero = field.add, field.neg, field.is_zero
    zero, one = field.zero().payload, field.one().payload
    unit = (one,) * n
    bits = [1 << x for x in space.points()]
    closed = frozenset(
        sum(itertools.compress(
            bits, map(is_zero, map(add, unit, map(neg, indicator)))))
        for indicator in itertools.product((zero, one), repeat=n))
    return ZariskiSpace(points, closed)


def check_homeomorphism(space: FiniteSpace, field: FieldDescriptor,
                        use_oracle=None) -> dict:
    """Verify the point/maximal-ideal correspondence at finite scale.

    The kernels are the ideals `gelfand_map` builds, each vanishing at
    one point, so they are maximal by construction. What is checked is
    that the n points give n distinct kernels (`max_ideal_count` counts
    distinct vanishing sets), that the brute-force oracle's maximal
    ideals are exactly the kernels, when its guard permits, and that the
    Zariski closed sets are all 2^n subsets of the n points, i.e. the
    topology is discrete. Only the finite discrete instance is checked;
    nothing is claimed about infinite spaces.
    """
    n = space.size
    use_oracle = check_guards(space, field, use_oracle)
    spectrum = max_spectrum(space, field)
    kernels, closed = spectrum.points, spectrum.closed_sets
    distinct = len({M.vanishing for M in kernels})

    oracle_agrees = None
    if use_oracle:
        one = RingElement(field, (field.one(),) * n)
        oracle_max = maximal_ideals(enumerate_ideals_bruteforce(space, field),
                                    one)
        structural_max = {M.element_set() for M in kernels}
        oracle_agrees = set(oracle_max) == structural_max

    # 2^n distinct masks below 2^n are all the subsets: discrete
    topology_match = len(closed) == 2 ** n and max(closed) >> n == 0
    bijective = distinct == n and oracle_agrees is not False
    return {
        "space_size": n,
        "field": format_field(field),
        "max_ideal_count": distinct,
        "bijective": bijective,
        "topology_match": topology_match,
        "oracle_checked": bool(use_oracle),
        "closed_set_count": len(closed),
        "passed": bijective and topology_match,
    }
