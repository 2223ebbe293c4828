"""Polynomials whose only zero is the origin, and their verification.

The n-variable form is built from a root-free monic univariate f by
homogenizing to f2 and composing into the last variable repeatedly.
Over finite fields the zero locus is checked exhaustively: the tower
itself level by level from a q x q table of f2
(`verify_tower_exhaustive`), and any expanded form term by term at
every point (`verify_vanishing_exhaustive`, the generic reference).
Over the rationals the chosen stand-ins are the positive-definite norm
form on Q(sqrt(d)), the valuation identity for x^2 - p*y^2, and a
check on seeded sample points.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import HasRoot, InfiniteField, MixedFields, TooLarge, WrongKind
from .field_core import (
    FieldElement,
    Q,
    QUADRATIC,
    base_digits,
    enumerate_field,
    padic_valuation,
)
from .poly import MultiPoly, compose_last, format_poly, homogenize2

EXHAUSTIVE_GUARD = 10 ** 7


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


def build_fn(f: MultiPoly, n: int) -> MultiPoly:
    """The arity-n composition tower over a root-free monic univariate f.

    n = 1 gives the identity polynomial; for n >= 2 the result has
    degree m^(n-1) and zero constant term. It need not be homogeneous:
    over F_2 with n = 3 it is x1^4 + ... + x3^2. Over a finite field
    the root-free precondition is re-verified here; over an infinite
    field the caller vouches for the witness.
    """
    if n < 1:
        raise ValueError("arity must be at least 1")
    if f.arity != 1:
        raise ValueError("base polynomial must be univariate")
    field = f.field
    if n == 1:
        return MultiPoly.variable(field, 1, 0)
    m = f.degree
    if m is None or m < 2:
        raise ValueError("base polynomial must have degree at least 2")
    if field.is_finite:
        for a in enumerate_field(field):
            if f.evaluate((a,)).is_zero:
                raise HasRoot(a)
    f2 = homogenize2(f)
    fn = MultiPoly.variable(field, 1, 0)
    for _ in range(n - 1):
        fn = compose_last(f2, fn)
    return fn


def verify_vanishing_exhaustive(g: MultiPoly):
    """Check over all of F^n that g vanishes exactly at the origin.

    Points are visited in lexicographic order, so a reported
    counterexample is the smallest one.
    """
    field = g.field
    if not field.is_finite:
        raise InfiniteField("exhaustive verification needs a finite field")
    q, n = field.order, g.arity
    if q ** n > EXHAUSTIVE_GUARD:
        raise TooLarge(f"q^n = {q ** n} exceeds the enumeration guard")
    elements = enumerate_field(field)
    bad = _first_violation(g, itertools.product(elements, repeat=n))
    return ExhaustivePassed(q ** n) if bad is None else Failed(bad)


def verify_tower_exhaustive(f: MultiPoly, n: int):
    """Check over all of F^n that the arity-n tower over f vanishes
    exactly at the origin, without expanding it.

    Elements are coded by their field index (their position in
    `enumerate_field`), where 0 is the zero element. T[u][v] codes
    f2(u, v); starting from the values of x1, each further variable
    replaces every value v by the row T[v], so the values stay in
    lexicographic point order and a reported counterexample is the
    smallest one, as with `verify_vanishing_exhaustive(build_fn(f, n))`.
    The base is not required to be root-free.
    """
    field = f.field
    if not field.is_finite:
        raise InfiniteField("exhaustive verification needs a finite field")
    if n < 1:
        raise ValueError("arity must be at least 1")
    q = field.order
    if q ** n > EXHAUSTIVE_GUARD:
        raise TooLarge(f"q^n = {q ** n} exceeds the enumeration guard")
    if f.arity != 1:
        raise ValueError("base polynomial must be univariate")
    values = list(range(q))
    if n > 1:
        if f.degree is None or f.degree < 2:
            raise ValueError("base polynomial must have degree at least 2")
        f2 = homogenize2(f)
        elements = enumerate_field(field)
        table = [[field.index(f2.evaluate((u, v))) for v in elements]
                 for u in elements]
        for _ in range(n - 1):
            values = list(itertools.chain.from_iterable(
                map(table.__getitem__, values)))
    try:
        bad = 0 if values[0] != 0 else values.index(0, 1)
    except ValueError:
        return ExhaustivePassed(q ** n)
    digits = base_digits(bad, q, n)
    return Failed(tuple(field.element_at(i) for i in reversed(digits)))


def verify_vanishing_sampled(g: MultiPoly, points):
    """Check that g vanishes at the origin and at none of the given
    nonzero points; the origin is checked first. A pass covers only the
    points given, not all of F^n.
    """
    points = list(points)
    origin = tuple(g.field.zero() for _ in range(g.arity))
    bad = _first_violation(g, itertools.chain([origin], points))
    return SampledPassed(len(points)) if bad is None else Failed(bad)


def _first_violation(g, points):
    """The first point where g is zero off the origin or nonzero at it."""
    for pt in points:
        at_origin = all(x.is_zero for x in pt)
        if at_origin != g.evaluate(pt).is_zero:
            return pt
    return None


@dataclass(frozen=True)
class AnisotropicWitness:
    """A built form together with its verification evidence."""

    base: MultiPoly
    arity: int
    form: MultiPoly
    verification: object

    def to_json(self):
        return {
            "base": format_poly(self.base),
            "arity": self.arity,
            "form": format_poly(self.form),
            "degree": self.form.degree,
            "verification": self.verification.to_json(),
        }


def norm_form_eval(points) -> FieldElement:
    """Sum of norms of a tuple of Q(sqrt(d)) elements, as a rational.

    The value is >= 0 and is 0 exactly when every entry is zero, since
    d < 0 makes each norm positive definite.
    """
    points = tuple(points)
    if not points:
        raise ValueError("need at least one element")
    owner = points[0].field
    if owner.kind != QUADRATIC:
        raise WrongKind("norm form is defined over Q(sqrt(d))")
    acc = Q().zero()
    for x in points:
        if x.field != owner:
            raise MixedFields(f"{owner} vs {x.field}")
        acc = acc + x.norm()
    return acc


def valuation_identity_check(p: int, samples):
    """Certify x^2 - p*y^2 != 0 for sampled rational pairs.

    For (x, y) != (0, 0) the identity
    v_p(x^2 - p*y^2) = min(2*v_p(x), 1 + 2*v_p(y)) holds because the two
    candidates have opposite parity; a finite valuation means the value
    is nonzero. The pair (0, 0) must give value 0.
    """
    checked = 0
    for x, y in samples:
        x, y = Fraction(x), Fraction(y)
        value = x * x - p * y * y
        if x == 0 and y == 0:
            if value != 0:
                return Failed((x, y))
        else:
            vx = padic_valuation(x, p)
            vy = padic_valuation(y, p)
            lhs = padic_valuation(value, p)
            rhs = min(vx + vx, vy + vy + 1)
            if lhs.is_infinite or lhs != rhs:
                return Failed((x, y))
        checked += 1
    return ValuationPassed(checked, p)
