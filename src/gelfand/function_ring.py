"""The ring of F-valued functions on a finite discrete space, its
maximal spectrum with the Zariski topology, and the point-to-kernel map.

Every function on a finite discrete space is continuous, so the ring is
just F^n with pointwise operations. Every ideal of F^n is I_V, the
functions vanishing on some set V of points; the ideal oracle checks
this independently at tiny sizes, summing principal ideals aR. It works
on element indices, in `all_ring_elements` order: the ring's sum and
product tables are read off the field's q x q tables, and an ideal is
an int mask of elements, bit i for element i.
A closed set of the spectrum is an int bitmask of points, bit x for the
kernel at x. The closed-set family is a `range` of such masks, decided by
the two field values 1 - 1 and 1 - 0 and never stored set by set, so a
caller compares it with another family through `set(...)`.
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
    format_field,
    from_payload,
    parse_payload_at,
    power_within,
)

ORACLE_GUARD = 12          # max ring size for the ideal oracle
# max ring size to enumerate, and max 2^n closed-set count: a bound on
# the input, as the closed-set family is a range, never stored set by set
SPECTRUM_GUARD = 10 ** 6


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

    It holds the values' payloads and defines no arithmetic: route III's
    update maps the field's payload operations over the payload tuples
    and builds the result through `from_payloads`, which skips the
    constructor's check, as `from_payload` does for a field element, and
    the ideal oracle reads the ring's tables off the field's q x q ones.
    The public constructor takes field elements and checks that each
    lies in the field; `values` wraps the payloads back into field
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

    @property
    def values(self):
        F = self.field
        return tuple(from_payload(F, a) for a in self.payloads)

    @property
    def size(self):
        return len(self.payloads)

    def __str__(self):
        return ",".join(map(self.field.format, self.payloads))

    def __repr__(self):
        return f"RingElement({self})"


def parse_ring_element(field, line) -> RingElement:
    """One function per line: comma-separated field-element literals.

    The literals are looked up in the field's memo (`_literals`) by one
    `map`; only the texts it lacks are read, by `parse_payload_at` at
    their offsets in the line, so that a ParseError carries its offset,
    and each new payload is kept under its text, up to FIELD_TABLE_CAP
    texts.
    """
    if not line.strip():
        raise ParseError(line, 0, "comma-separated field-element literals")
    memo = _literals(field)
    parts = line.split(",")
    payloads = list(map(memo.get, parts))
    if None in payloads:   # a text the memo lacks: the line in turn
        payloads, start = [], 0
        for part in parts:
            a = memo.get(part)
            if a is None:
                a = parse_payload_at(field, line, start, start + len(part))
                if len(memo) < FIELD_TABLE_CAP:
                    memo[part] = a
            payloads.append(a)
            start += len(part) + 1
    return RingElement.from_payloads(field, tuple(payloads))


@functools.lru_cache(maxsize=16)
def _literals(field):
    """The payloads `parse_payload_at` gave for the field, by literal
    text: a memo of the parser alone, filled by `parse_ring_element`."""
    return {}


def all_ring_elements(space: FiniteSpace, field: FieldDescriptor):
    """Every function on the space, in lexicographic order."""
    if not field.is_finite:
        raise InfiniteField("the function ring is finite only for finite F")
    TooLarge.check("SPECTRUM_GUARD", SPECTRUM_GUARD,
                   power_within(field.order, space.size, SPECTRUM_GUARD),
                   lambda: "function ring too large to enumerate")
    payloads = range(field.order)   # a finite field's element indices
    return [RingElement.from_payloads(field, values)
            for values in itertools.product(payloads, repeat=space.size)]


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

    def is_maximal(self) -> bool:
        return len(self.vanishing) == 1


def gelfand_map(space: FiniteSpace, field: FieldDescriptor, x: int) -> IdealRepr:
    """The kernel of evaluation at x: all functions vanishing there."""
    return IdealRepr(space, field, {x})


def check_guards(space: FiniteSpace, field: FieldDescriptor,
                 force_oracle: bool = False) -> bool:
    """Check the guards of `check_homeomorphism` without doing its work:
    SPECTRUM_GUARD on the 2^n closed sets, and, when the oracle is
    forced, a finite field and ORACLE_GUARD on the ring. Returns whether
    the oracle runs: when forced, or else when F is finite and
    ORACLE_GUARD admits the ring."""
    n = space.size
    TooLarge.check("SPECTRUM_GUARD", SPECTRUM_GUARD,
                   power_within(2, n, SPECTRUM_GUARD),
                   lambda: f"2^{n} closed sets exceed the guard "
                   f"{SPECTRUM_GUARD}")
    if not field.is_finite:
        if force_oracle:
            raise InfiniteField("the ideal oracle enumerates the ring, "
                                "which needs a finite field")
        return False
    ring_size = field.order ** n
    if force_oracle:
        TooLarge.check("ORACLE_GUARD", ORACLE_GUARD, ring_size,
                       lambda: f"ring has {ring_size} elements; oracle "
                       f"guard is {ORACLE_GUARD}")
    return force_oracle or ring_size <= ORACLE_GUARD


def _ring_table(op, q, n):
    """The table of a pointwise operation of F^n on element indices,
    read off the field's q x q table of op: entry [i][j] is the index
    of op(f_i, f_j). An element's index reads its payloads as base-q
    digits, the last coordinate lowest, the order of `all_ring_elements`;
    so the table for one more coordinate puts q x q blocks side by side."""
    field_table = [[op(a, b) for b in range(q)] for a in range(q)]
    table = [[0]]
    for _ in range(n):
        table = [[s * q + t for s in row for t in digits]
                 for row in table for digits in field_table]
    return table


def _is_closed(add, I):
    """Whether the element mask I is closed under the sum table add."""
    members = [i for i in range(len(add)) if I >> i & 1]
    return set(members).issuperset([add[i][j] for i in members
                                    for j in members])


def enumerate_ideals_bruteforce(space: FiniteSpace, field: FieldDescriptor):
    """All ideals of the function ring, as ascending int masks of element
    indices in `all_ring_elements` order, summed from its principal
    ideals: in a commutative ring with 1, every ideal is the sum of the
    aR over its elements a, and aR is row a of the product table. The
    ring's tables are read off the field's q x q ones (`_ring_table`).
    One pass takes the distinct rows J in ascending order and at J's
    turn adds I + J for each ideal I listed before it, so after the
    turns of J_1..J_k every sum of a nonempty subset of them is listed,
    and after the last every ideal. I + J is the union of the cosets
    i + J, read off row i of the sum table, over the i in I not in the
    union yet; it is skipped when one ideal holds the other, as the sum
    is then the larger one. A summed mask is listed only if it holds
    element 0, the zero function, and is closed under the sum table, as
    an ideal is an additive group; with a ring's tables every summed
    mask is. Guarded by ORACLE_GUARD.
    """
    check_guards(space, field, force_oracle=True)
    q, n = field.order, space.size
    add = _ring_table(field.add, q, n)
    ideals = set()
    for J in sorted({sum(1 << j for j in set(row))
                     for row in _ring_table(field.mul, q, n)}):
        members = [j for j in range(len(add)) if J >> j & 1]
        for I in list(ideals):
            if I & J in (I, J):   # one holds the other
                continue
            S, rest = 0, I
            while rest:   # I's first element not in S yet: its coset
                i = (rest & -rest).bit_length() - 1
                row = add[i]
                for j in members:
                    S |= 1 << row[j]
                rest &= ~S & ~(1 << i)   # ends even if i is not in i + J
            ideals.add(S)
        ideals.add(J)
    return [I for I in sorted(ideals) if I & 1 and _is_closed(add, I)]


def maximal_ideals(ideals, unit: int):
    """The proper ideals that no other listed proper ideal strictly
    contains, for ideals as element masks and `unit` the bit of the
    ring's 1. Applied to the oracle's complete list, these are exactly
    the maximal ideals."""
    proper = [I for I in ideals if not I & unit]
    return [I for I in proper
            if not any(I & J == I != J for J in proper)]


@dataclass(frozen=True)
class ZariskiSpace:
    """The maximal spectrum with its Zariski closed-set family.

    Each closed set is an int bitmask of point indices via the
    point -> kernel correspondence: bit x is set when the kernel at x
    lies in the set. `max_spectrum` gives the family in closed form, as
    a `range` of masks that holds no set; compare it through `set(...)`.
    """

    points: tuple  # IdealRepr per space point
    closed_sets: range  # the int bitmasks of the closed sets


def max_spectrum(space: FiniteSpace, field: FieldDescriptor) -> ZariskiSpace:
    """Compute Max(C(X,F)) and its Zariski topology.

    The basic closed set C_f = {M : f in M} is the zero set of f, and
    the zero sets of the 2^n functions 1 - 1_S are closed under union
    and intersection. As 1 - 1_S is 1 - 1 on S and 1 - 0 off it, only
    those two values are computed, with the field's payload operations
    `add`, `neg` and `is_zero`, and the zero set of 1 - 1_S is S, its
    complement, both or neither. When exactly one value is zero, as in
    every field, S -> zero set reaches every mask and the family is
    `range(2^n)`; otherwise it is the one mask `full` or `0`.
    """
    n = space.size
    check_guards(space, field)
    points = tuple(gelfand_map(space, field, x) for x in space.points())
    add, neg, is_zero = field.add, field.neg, field.is_zero
    zero, one = field.canonical(0), field.canonical(1)
    on, off = (is_zero(add(one, neg(a))) for a in (one, zero))
    if on != off:   # S -> S or S -> its complement: every mask
        closed = range(1 << n)
    else:           # every S gives the full set (both zero) or none
        only = (1 << n) - 1 if on else 0
        closed = range(only, only + 1)
    return ZariskiSpace(points, closed)


def check_homeomorphism(space: FiniteSpace, field: FieldDescriptor,
                        force_oracle: bool = False) -> dict:
    """Verify the point/maximal-ideal correspondence at finite scale.

    The kernels are the ideals `gelfand_map` builds, each vanishing at
    one point, so they are maximal by construction. What is checked is
    that the n points give n distinct kernels (`max_ideal_count` counts
    distinct vanishing sets), that the ideal oracle's maximal
    ideals are exactly the kernels, when its guard permits (as element
    masks, each kernel's read through `contains`), and that the
    Zariski closed sets are all 2^n subsets of the n points, i.e. the
    topology is discrete. Only the finite discrete instance is checked;
    nothing is claimed about infinite spaces.
    """
    n = space.size
    run_oracle = check_guards(space, field, force_oracle)
    spectrum = max_spectrum(space, field)
    kernels, closed = spectrum.points, spectrum.closed_sets
    distinct = len({M.vanishing for M in kernels})

    oracle_agrees = None
    if run_oracle:
        ring = all_ring_elements(space, field)
        one = (field.canonical(1),) * n
        unit = next(i for i, f in enumerate(ring) if f.payloads == one)
        oracle_max = maximal_ideals(enumerate_ideals_bruteforce(space, field),
                                    1 << unit)
        kernel_masks = {sum(1 << i for i, f in enumerate(ring)
                            if M.contains(f)) for M in kernels}
        oracle_agrees = set(oracle_max) == kernel_masks

    # the family is every subset, range(2^n), compared in O(1): discrete
    topology_match = closed == range(1 << n)
    bijective = distinct == n and oracle_agrees is not False
    return {
        "space_size": n,
        "field": format_field(field),
        "max_ideal_count": distinct,
        "bijective": bijective,
        "topology_match": topology_match,
        "oracle_checked": run_oracle,
        "closed_set_count": len(closed),
        "passed": bijective and topology_match,
    }
