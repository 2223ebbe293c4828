"""Nowhere-vanishing combinations from covers of a finite space.

A cover is a list of functions with no common zero. Three routes
produce an element of the ideal they generate that never vanishes:
plugging the cover into an origin-only-vanishing form (route I),
interpolating the finite image to the constant 1 (route II), and
iteratively subtracting a multiple chosen to avoid the image in the
projective line (route III).
"""

from __future__ import annotations

from dataclasses import dataclass

from .anisotropic import Tower, build_fn
from .errors import (
    AvoidanceExhausted,
    CommonZero,
    InfiniteField,
    MixedFields,
    OriginInJ,
)
from .field_core import (
    FieldDescriptor,
    FieldElement,
    enumerate_field,
    format_element,
)
from .function_ring import FiniteSpace, RingElement
from .poly import MultiPoly, format_poly


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of P1(F) in canonical form: [u, 1] or [1, 0]."""

    u: FieldElement
    v: FieldElement

    @classmethod
    def of(cls, u, v):
        if u.field != v.field:
            raise MixedFields(f"{u.field} vs {v.field}")
        if v.is_zero:
            if u.is_zero:
                raise ValueError("[0, 0] is not a projective point")
            return cls(u.field.one(), u.field.zero())
        return cls(u / v, v.field.one())

    @property
    def is_infinite(self):
        return self.v.is_zero


@dataclass(frozen=True)
class Cover:
    """Functions with no common zero on a finite discrete space."""

    space: FiniteSpace
    field: FieldDescriptor
    functions: tuple  # RingElements


def check_cover(psis) -> Cover:
    """Validate the no-common-zero property; report the smallest common
    zero otherwise."""
    psis = tuple(psis)
    if not psis:
        raise ValueError("need at least one function")
    field = psis[0].field
    size = psis[0].size
    for psi in psis:
        if psi.field != field or psi.size != size:
            raise MixedFields("functions live in different rings")
    for x in range(size):
        if all(psi.values[x].is_zero for psi in psis):
            raise CommonZero(x)
    return Cover(FiniteSpace(size), field, psis)


def image_points(cover: Cover):
    """The exact image of x -> (psi_1(x), ..., psi_n(x)); the origin is
    excluded by the cover property."""
    image = {tuple(psi.values[x] for psi in cover.functions)
             for x in cover.space.points()}
    return sorted(image, key=lambda pt: tuple(v.payload for v in pt))


def indicator_poly(a, F: FieldDescriptor) -> MultiPoly:
    """Product of (1 - (x_i - a_i)^(q-1)): 1 at a, 0 elsewhere on F^n.

    By Lucas' theorem binom(q-1, j) = (-1)^j mod p, so (x - b)^(q-1) is
    the sum of b^(q-1-j) x^j over j < q, with 0^0 = 1. The factors'
    coefficients are read off that sum and their product is written out
    term by term, with no polynomial arithmetic.
    """
    if not F.is_finite:
        raise InfiniteField("indicator polynomials need a finite field")
    mul, add, neg = F.mul, F.add, F.neg
    terms = {(): 1}
    for b in a:
        b = b.payload
        powers = [1]  # b^0 .. b^(q-1)
        for _ in range(F.order - 1):
            powers.append(mul(powers[-1], b))
        coeffs = [add(1, neg(powers[-1]))] + [neg(c)
                                              for c in reversed(powers[:-1])]
        factor = [(j, c) for j, c in enumerate(coeffs) if c]
        terms = {m + (j,): mul(c, f)
                 for m, c in terms.items() for j, f in factor}
    return MultiPoly.from_payloads(F, len(a), terms)


def interpolate_case2(J, F: FieldDescriptor, arity: int) -> MultiPoly:
    """Sum of indicator polynomials over J: identically 1 on J, 0 at the
    origin, and with zero constant term (the origin is excluded)."""
    J = list(J)
    if not J:
        raise ValueError("J must be non-empty")
    for a in J:
        if len(a) != arity:
            raise ValueError("points of J must match the arity")
        if all(x.is_zero for x in a):
            raise OriginInJ("J must not contain the origin")
    add = F.add
    acc = {}
    for a in J:
        for m, c in indicator_poly(tuple(a), F).terms:
            c = c.payload
            acc[m] = add(acc[m], c) if m in acc else c
    return MultiPoly.from_payloads(F, arity, acc)


@dataclass(frozen=True)
class CombinationCertificate:
    """A certified nowhere-vanishing element of a cover's ideal.

    Routes I and II carry a polynomial witness with zero constant term;
    route III carries a coefficient tuple for a linear combination.
    """

    mode: str  # "CaseI" | "CaseII" | "CaseIII"
    cover: Cover
    composite: RingElement
    witness: MultiPoly = None
    coefficients: tuple = None
    per_step_log: tuple = ()

    def to_json(self):
        record = {
            "mode": self.mode,
            "witness": (format_poly(self.witness) if self.witness is not None
                        else [format_element(c) for c in self.coefficients]),
            "composite_values": [format_element(v)
                                 for v in self.composite.values],
            "pass": certify(self)["pass"],
        }
        if self.per_step_log:
            record["per_step_log"] = list(self.per_step_log)
        return record


def _by_column(cover: Cover, evaluate) -> RingElement:
    """The function x -> evaluate(psi_1(x), ..., psi_n(x)). Its value at
    a point depends only on the point's column of function values, so
    evaluate is called once per distinct column."""
    columns = list(zip(*(psi.values for psi in cover.functions)))
    keys = [tuple(v.payload for v in col) for col in columns]
    value_at = {}
    for key, col in zip(keys, columns):
        if key not in value_at:
            value_at[key] = evaluate(col)
    return RingElement(cover.field, tuple(value_at[key] for key in keys))


def combine_case1(cover: Cover, base: MultiPoly) -> CombinationCertificate:
    """Plug the cover into the origin-only-vanishing form built on base.

    The witness is the expanded form, which FORM_TERMS_GUARD may refuse;
    the composite is the nested tower's value on each column, so
    `certify`, which evaluates the witness, cross-checks it.
    """
    n = len(cover.functions)
    witness = build_fn(base, n)
    composite = _by_column(cover, Tower.over(base, n).evaluate)
    return CombinationCertificate("CaseI", cover, composite, witness=witness)


def combine_case2(cover: Cover) -> CombinationCertificate:
    """Interpolate the cover's finite image to the constant 1."""
    n = len(cover.functions)
    J = image_points(cover)
    witness = interpolate_case2(J, cover.field, n)
    composite = _by_column(cover, witness.evaluate)
    return CombinationCertificate("CaseII", cover, composite, witness=witness)


def unit_combination_case3(cover: Cover) -> CombinationCertificate:
    """Linear combination that never vanishes, by projective avoidance.

    Maintains psi~ = sum of coefficients times functions; at step i it
    restricts to the points where the remaining functions all vanish,
    takes the image of [psi~, psi_i] in P1(F), and subtracts a*psi_i for
    the enumeration-smallest a with [a,1] outside the image. An empty
    restriction is treated as vacuous (any a works).
    """
    field = cover.field
    if not field.is_finite:
        raise InfiniteField("the avoidance route is implemented for finite F")
    psis = cover.functions
    n = len(psis)
    size = cover.space.size
    coeffs = [field.one()] + [field.zero()] * (n - 1)
    current = psis[0]
    log = []
    for i in range(1, n):
        rest = psis[i + 1:]
        y_points = [x for x in range(size)
                    if all(r.values[x].is_zero for r in rest)]
        image = set()
        for x in y_points:
            u, v = current.values[x], psis[i].values[x]
            if u.is_zero and v.is_zero:
                # cannot happen on a valid cover restricted this way
                raise CommonZero(x)
            image.add(ProjectivePoint.of(u, v))
        chosen = None
        for a in enumerate_field(field):
            if ProjectivePoint.of(a, field.one()) not in image:
                chosen = a
                break
        if chosen is None:
            raise AvoidanceExhausted(i)
        coeffs[i] = -chosen
        current = current - psis[i].scale(chosen)
        # the replaced function together with the remaining ones must
        # still cover the space
        for x in range(size):
            if current.values[x].is_zero and \
                    all(r.values[x].is_zero for r in rest):
                raise CommonZero(x)
        log.append({
            "step": i + 1,
            "chosen_a": format_element(chosen),
            "image_size": len(image),
            "restricted_points": len(y_points),
            "cover_restored": True,
        })
    return CombinationCertificate(
        "CaseIII", cover, current,
        coefficients=tuple(coeffs), per_step_log=tuple(log))


def certify(cert: CombinationCertificate) -> dict:
    """Recompute the composite from scratch and confirm the contract.

    Checks that the composite never vanishes, that a polynomial witness
    has zero constant term (ideal membership for routes I/II), and that
    a route-III composite really equals the linear combination.
    """
    cover = cert.cover
    checks = {"nonvanishing": True, "ideal_membership": True,
              "recomputation": True}
    failing_point = None

    if cert.witness is not None:
        recomputed = _by_column(cover, cert.witness.evaluate)
        if not cert.witness.constant_term().is_zero:
            checks["ideal_membership"] = False
    else:
        acc = RingElement.zeros(cover.field, cover.space.size)
        for c, psi in zip(cert.coefficients, cover.functions):
            acc = acc + psi.scale(c)
        recomputed = acc

    if recomputed != cert.composite:
        checks["recomputation"] = False
    for x in cover.space.points():
        if recomputed.values[x].is_zero:
            checks["nonvanishing"] = False
            failing_point = x
            break

    result = {"pass": all(checks.values()), **checks}
    if failing_point is not None:
        result["failing_point"] = failing_point
    return result
