"""Polynomials whose only zero is the origin, and their verification.

The n-variable form is the composition tower
f2(f2(...f2(x1, x2)...), xn) over the homogenization f2 of a root-free
monic univariate f of degree m. A `Tower` keeps it nested: it evaluates
a point with n - 1 evaluations of f2 (over Q on integer pairs, with no
gcd per operation), verifies a finite field level by level from a q x q
table of f2, and expands to a `MultiPoly` only for a report (`expand`,
which `build_fn` calls), under FORM_TERMS_GUARD. Each level of the
expansion substitutes the form h so far into f2 (`compose_last`): a
power h^i with i divisible by the characteristic p is the Frobenius
image of h^(i/p), exponents times p and coefficients to the p-th
power, and any other is one product h^(i-1)*h. The expanded form
stays the reference: `verify_vanishing_exhaustive` checks any form term
by term at every point. An `AnisotropicWitness` (base, arity,
verification) prints the form that `build_fn` expands, or the guard's
refusal in its place. Over Q a caller-supplied witness is refused on a
rational root before its seeded samples (`verify_witness_sampled`,
through `RationalTower.verify_sampled`), which are evaluated on
(numerator, denominator) int pairs. The other stand-ins over the
rationals are the positive-definite norm form on Q(sqrt(d)) and the
valuation identity for x^2 - p*y^2, also checked on ints.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    ArityMismatch,
    HasRoot,
    InfiniteField,
    MixedFields,
    TooLarge,
    WrongKind,
)
from .field_core import (
    FieldDescriptor,
    FieldElement,
    Q,
    Qsqrt,
    base_digits,
    enumerate_field,
    first_rational_root,
    first_root,
    from_payload,
    is_prime,
)
from .poly import (
    MultiPoly,
    compose_last,
    format_poly,
    homogenize2,
    point_payloads,
)

EXHAUSTIVE_GUARD = 10 ** 7
FORM_TERMS_GUARD = 2 ** 10   # max terms of the form a tower level expands


@dataclass(frozen=True)
class ExhaustivePassed:
    points_checked: int
    passed = True
    mode = "exhaustive"

    def to_json(self):
        return {"mode": self.mode, "points_checked": self.points_checked}


@dataclass(frozen=True)
class ValuationPassed:
    samples: int
    prime: int = dataclasses.field(default=None, compare=False)
    passed = True
    mode = "valuation"

    def to_json(self):
        return {"mode": self.mode, "samples": self.samples,
                "prime": self.prime}


@dataclass(frozen=True)
class SampledPassed:
    samples: int
    passed = True
    mode = "sampled"
    note = ("nonvanishing checked on seeded samples only; "
            "the root-free witness is supplied by the caller")

    def to_json(self):
        return {"mode": self.mode, "samples": self.samples, "note": self.note}


@dataclass(frozen=True)
class Failed:
    counterexample: tuple
    passed = False
    mode = "failed"

    def to_json(self):
        return {"mode": self.mode,
                "counterexample": [str(x) for x in self.counterexample]}


@dataclass(frozen=True)
class Tower:
    """The arity-n composition tower f2(f2(...f2(x1, x2)...), xn), kept
    nested. f2 is the homogenized base, or None for n = 1, where the
    tower is x1. `Tower.over` builds it from the univariate base.
    """

    field: FieldDescriptor
    f2: MultiPoly
    arity: int

    @staticmethod
    def over(f: MultiPoly, n: int) -> Tower:
        """The tower over a monic univariate f of degree at least 2 (any
        f for n = 1). The base is not checked to be root-free, which the
        form's only zero at the origin needs; `build_fn` checks it."""
        if n < 1:
            raise ValueError("arity must be at least 1")
        if f.arity != 1:
            raise ValueError("base polynomial must be univariate")
        field = f.field
        kind = RationalTower if isinstance(field, Q) else Tower
        if n == 1:
            return kind(field, None, 1)
        m = f.degree
        if m is None or m < 2:
            raise ValueError("base polynomial must have degree at least 2")
        return kind(field, homogenize2(f), n)

    @property
    def degree(self):
        """m^(n-1): each level raises the degree m-fold."""
        return 1 if self.f2 is None else self.f2.degree ** (self.arity - 1)

    def evaluate(self, point) -> FieldElement:
        """The value at a tuple of field elements."""
        F = self.field
        return from_payload(
            F, self.evaluate_payloads(point_payloads(F, self.arity, point)))

    def evaluate_payloads(self, xs):
        """The value, as a payload, at the point whose coordinates have
        the payloads xs: n - 1 evaluations of f2."""
        f2, value = self.f2, xs[0]
        for x in xs[1:]:
            value = f2.evaluate_payloads((value, x))
        return value

    def verify_exhaustive(self):
        """Check over all of F^n that the tower vanishes exactly at the
        origin, without expanding it.

        Elements are coded by their payloads, which in a finite field
        are their indices (positions in `enumerate_field`), where 0 is
        the zero element. T[u][v] codes f2(u, v); starting from the
        values of x1, each further variable replaces every value v by
        the row T[v], so the values stay in lexicographic point order
        and a reported counterexample is the smallest one, as with
        `verify_vanishing_exhaustive(self.expand())`.
        """
        field, n = self.field, self.arity
        points = _enumeration_size(field, n)
        q = field.order
        values = list(range(q))
        if n > 1:
            f2 = self.f2.evaluate_payloads
            table = [[f2((u, v)) for v in range(q)] for u in range(q)]
            for _ in range(n - 1):
                values = list(itertools.chain.from_iterable(
                    map(table.__getitem__, values)))
        try:
            bad = 0 if values[0] != 0 else values.index(0, 1)
        except ValueError:
            return ExhaustivePassed(points)
        digits = base_digits(bad, q, n)
        return Failed(tuple(field.element_at(i) for i in reversed(digits)))

    def expand(self) -> MultiPoly:
        """The tower as a MultiPoly: n - 1 `compose_last` levels.

        FORM_TERMS_GUARD bounds the term count of each level's input. It
        is checked on the exact count before each level, and first on a
        lower bound of every level's count, so that a tower sure to
        exceed it is refused before any product. In the term c*y^i*z^j
        of f2 the exponent j of the new variable is m - i, so the terms
        of f2 give the expansion disjoint slices c*h^i*z^j, and h^i has
        at least one term. When i is 1 or a power of the characteristic
        p it has exactly as many terms as h, by the fact `compose_last`
        builds it from: h^(p^k) is the Frobenius image of h^(p^(k-1)),
        each exponent times p and each coefficient to the p-th power,
        with no product and no term merged or lost.
        """
        form = MultiPoly.variable(self.field, 1, 0)
        if self.f2 is None:
            return form
        p = self.field.characteristic
        keep = sum(_keeps_terms(mono[0], p) for mono, _ in self.f2.terms)
        rest = len(self.f2.terms) - keep
        bound = 1
        for level in range(1, self.arity):
            _check_form_terms(level, bound)
            bound = keep * bound + rest
        for level in range(1, self.arity):
            _check_form_terms(level, len(form.terms))
            form = compose_last(self.f2, form)
        return form

    def structure(self):
        """The nesting, for a report that does not print the form."""
        n = self.arity
        nest = "x1"
        if n > 4:
            nest = f"f2(...f2(x1, x2)..., x{n - 1})"
        else:
            for k in range(2, n):
                nest = f"f2({nest}, x{k})"
        return {"f2": format_poly(self.f2), "nesting": f"f2({nest}, x{n})",
                "levels": n - 1}


class RationalTower(Tower):
    """A tower over Q, evaluated on integer pairs.

    f2 is homogeneous of degree m, so with T_{k-1} = N/E and x_k = a/b,
    T_k = f2(N*b, a*E) / (E*b)^m. With L the lcm of the denominators of
    f2's coefficients, N_k = (L*f2)(N*b, a*E) and E_k = L*(E*b)^m are
    integers and E_k is not zero: the zero test reads N != 0, and a
    value becomes one Fraction at the end. No pair needs lowest terms.
    """

    @cached_property
    def _cleared(self):
        """L, and the terms (i, j, c) of L*f2 with int coefficients."""
        terms = self.f2.terms
        lcm = math.lcm(*(c.payload.denominator for _, c in terms))
        return lcm, [(i, j, int(c.payload * lcm)) for (i, j), c in terms]

    def _pair(self, pairs):
        """(N, E) at the point whose coordinates are the int pairs
        (numerator, denominator)."""
        num, den = pairs[0]
        if self.f2 is None:
            return num, den
        lcm, terms = self._cleared
        m = self.f2.degree
        for a, b in pairs[1:]:
            u, v = num * b, a * den
            num = sum(c * u ** i * v ** j for i, j, c in terms)
            den = lcm * (den * b) ** m
        return num, den

    def evaluate_payloads(self, xs):
        return Fraction(*self._pair([_ratio(x) for x in xs]))

    def verify_sampled(self, points):
        """Check that the tower vanishes at the origin and at none of the
        given points, read on int pairs: the origin first, then the
        points in order; the first violation is reported, and a pass
        covers only the points given. Each coordinate is anything
        `_ratio` reads, an int pair in lowest terms or not; a point
        without exactly n coordinates is refused before any is
        evaluated. Only a counterexample is made into elements, in
        lowest terms."""
        points = [[_ratio(x) for x in pt] for pt in points]
        for pt in points:
            if len(pt) != self.arity:
                raise ArityMismatch(f"point has {len(pt)} coordinates, "
                                    f"arity is {self.arity}")
        origin = [(0, 1)] * self.arity
        bad = _first_violation(lambda pt: self._pair(pt)[0] == 0,
                               itertools.chain([origin], points),
                               lambda pt: not any(a for a, _ in pt))
        if bad is None:
            return SampledPassed(len(points))
        return Failed(tuple(from_payload(self.field, Fraction(a, b))
                            for a, b in bad))


def _ratio(x):
    """(numerator, denominator) of an element of Q or of a number that
    `Fraction` reads (an int, a Fraction, a float, a Decimal or a string
    like '1/2'); an int pair (numerator, denominator) is returned as it
    is, once its denominator is checked to be nonzero. An element of
    another field is refused."""
    if isinstance(x, tuple):
        if not x[1]:
            raise ZeroDivisionError(f"the pair {x} has denominator 0")
        return x
    if isinstance(x, FieldElement):
        if not isinstance(x.field, Q):
            raise WrongKind(f"expected an element of Q, got one of {x.field}")
        x = x.payload
    elif not isinstance(x, numbers.Rational):
        x = Fraction(x)
    return x.numerator, x.denominator


def _keeps_terms(i, p):
    """Whether h^i has as many terms as h for every polynomial h over a
    field of characteristic p: i is 1 or a power of p > 0."""
    while p and i > 1 and i % p == 0:
        i //= p
    return i == 1


def _check_form_terms(level, terms):
    if terms > FORM_TERMS_GUARD:
        raise TooLarge(
            f"level {level} of the tower expansion composes a form of at "
            f"least {terms} terms; the form-terms guard is "
            f"{FORM_TERMS_GUARD}",
            guard="FORM_TERMS_GUARD", limit=FORM_TERMS_GUARD,
            requested=terms)


def _enumeration_size(field, n):
    """q^n, once F is checked to be finite and q^n within the guard."""
    if not field.is_finite:
        raise InfiniteField("exhaustive verification needs a finite field")
    size = field.order ** n
    if size > EXHAUSTIVE_GUARD:
        raise TooLarge(f"q^n = {size} exceeds the enumeration guard",
                       guard="EXHAUSTIVE_GUARD", limit=EXHAUSTIVE_GUARD,
                       requested=size)
    return size


def build_fn(f: MultiPoly, n: int) -> MultiPoly:
    """The arity-n composition tower over a root-free monic univariate f,
    expanded (`Tower.expand`, under FORM_TERMS_GUARD).

    n = 1 gives the identity polynomial; for n >= 2 the result has
    degree m^(n-1) and zero constant term. It need not be homogeneous:
    over F_2 with n = 3 it is x1^4 + ... + x3^2. Over a finite field
    the root-free precondition is re-verified here; over an infinite
    field the caller vouches for the witness.
    """
    field, m = f.field, f.degree
    # a shape that Tower.over refuses is left to it; a rooted base
    # reports its first root before homogenize2 can find it not monic
    if n > 1 and field.is_finite and f.arity == 1 and (m or 0) >= 2:
        root = first_root(field, [f.coefficient((i,)).payload
                                  for i in range(m + 1)], 0)
        if root is not None:
            raise HasRoot(from_payload(field, root))
    return Tower.over(f, n).expand()


def verify_vanishing_exhaustive(g: MultiPoly):
    """Check over all of F^n that g vanishes exactly at the origin.

    Points are visited in lexicographic order, so a reported
    counterexample is the smallest one.
    """
    field = g.field
    points = _enumeration_size(field, g.arity)
    elements = enumerate_field(field)
    bad = _first_violation(lambda pt: g.evaluate(pt).is_zero,
                           itertools.product(elements, repeat=g.arity))
    return ExhaustivePassed(points) if bad is None else Failed(bad)


def verify_tower_exhaustive(f: MultiPoly, n: int):
    """`Tower.verify_exhaustive` on the arity-n tower over f; the q^n
    guard is checked before the base. The base is not required to be
    root-free.
    """
    _enumeration_size(f.field, n)
    return Tower.over(f, n).verify_exhaustive()


def verify_witness_sampled(f: MultiPoly, n: int, points):
    """The arity-n tower over a monic f over Q: f's rational roots
    first, then `RationalTower.verify_sampled` at the points, whose
    coordinates are elements of Q or (numerator, denominator) int pairs.

    For n >= 2 a rational root r of f (`first_rational_root`, under
    RATIONAL_ROOT_GUARD) gives the zero (r, 1, 0, ..., 0) off the
    origin, as f2(r, 1) = f(r) = 0 and f2(0, 0) = 0; it is reported
    before any sample is evaluated. A pass covers only the points given.
    A base over another field is refused; a finite field is verified
    exhaustively (`verify_tower_exhaustive`).
    """
    if not isinstance(f.field, Q):
        raise WrongKind("sampled witnesses are over Q")
    tower = Tower.over(f, n)
    if n > 1:
        F = f.field
        root = first_rational_root([f.coefficient((i,)).payload
                                    for i in range(f.degree + 1)])
        if root is not None:
            return Failed((from_payload(F, root), F.one())
                          + (F.zero(),) * (n - 2))
    return tower.verify_sampled(points)


def _first_violation(vanishes, points,
                     at_origin=lambda pt: all(x.is_zero for x in pt)):
    """The first point where g is zero off the origin or nonzero at it,
    given whether g vanishes at a point and whether the point is the
    origin (by default, a point of field elements)."""
    for pt in points:
        if at_origin(pt) != vanishes(pt):
            return pt
    return None


@dataclass(frozen=True)
class AnisotropicWitness:
    """The tower of the given arity over a base, with its verification
    evidence."""

    base: MultiPoly
    arity: int
    verification: object

    def to_json(self):
        """The record, with the form that `build_fn` expands, or with
        `form_withheld` (the refusal and the nesting) in its place when
        FORM_TERMS_GUARD refuses the expansion."""
        tower = Tower.over(self.base, self.arity)
        record = {"base": format_poly(self.base), "arity": self.arity}
        try:
            record["form"] = format_poly(build_fn(self.base, self.arity))
        except TooLarge as exc:
            record["form_withheld"] = {
                "guard": exc.guard, "limit": exc.limit,
                "requested": exc.requested, **tower.structure()}
        record["degree"] = tower.degree
        record["verification"] = self.verification.to_json()
        return record


def norm_form_eval(points) -> FieldElement:
    """Sum of norms of a tuple of Q(sqrt(d)) elements, as a rational.

    The value is >= 0 and is 0 exactly when every entry is zero, since
    d < 0 makes each norm positive definite.
    """
    points = tuple(points)
    if not points:
        raise ValueError("need at least one element")
    owner = points[0].field
    if not isinstance(owner, Qsqrt):
        raise WrongKind("norm form is defined over Q(sqrt(d))")
    acc = Q().zero()
    for x in points:
        if x.field != owner:
            raise MixedFields(f"{owner} vs {x.field}")
        acc = acc + x.norm()
    return acc


def _multiplicity(n, p):
    """The exponent of p in the nonzero int n."""
    if n == 0:
        raise ValueError("multiplicity of 0 is undefined")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def valuation_identity_check(p: int, samples):
    """Certify x^2 - p*y^2 != 0 for sampled rational pairs.

    For (x, y) != (0, 0) the identity
    v_p(x^2 - p*y^2) = min(2*v_p(x), 1 + 2*v_p(y)) holds because the two
    candidates have opposite parity; a finite valuation means the value
    is nonzero. The pair (0, 0) gives value 0 and passes.

    Each coordinate is anything `_ratio` reads: an element of Q (one of
    another field is refused), a number that `Fraction` reads or an int
    pair (numerator, denominator). With x = a/b and y = c/d,
    x^2 - p*y^2 = N/(b*d)^2 where N = (a*d)^2 - p*(c*b)^2, so
    v_p(value) = v_p(N) - 2*(v_p(b) + v_p(d)), v_p(x) = v_p(a) - v_p(b)
    and v_p(y) = v_p(c) - v_p(d): the check runs on ints, and no pair
    needs lowest terms. p is checked to be prime once, before any sample.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    checked = 0
    for x, y in samples:
        a, b = _ratio(x)
        c, d = _ratio(y)
        if a or c:
            vb, vd = _multiplicity(b, p), _multiplicity(d, p)
            # a zero coordinate has infinite valuation: None
            vx = 2 * (_multiplicity(a, p) - vb) if a else None
            vy = 1 + 2 * (_multiplicity(c, p) - vd) if c else None
            rhs = vy if vx is None else vx if vy is None else min(vx, vy)
            ad, cb = a * d, c * b
            num = ad * ad - p * cb * cb
            if not num or _multiplicity(num, p) - 2 * (vb + vd) != rhs:
                return Failed((Fraction(a, b), Fraction(c, d)))
        checked += 1
    return ValuationPassed(checked, p)
