"""Nowhere-vanishing combinations from covers of a finite space.

A cover is a list of functions with no common zero. Three routes
produce an element of the ideal they generate that never vanishes:
plugging the cover into an origin-only-vanishing form (route I),
interpolating the finite image to the constant 1 (route II), and
iteratively subtracting a multiple chosen to avoid the image in the
projective line (route III).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .anisotropic import FORM_TERMS_GUARD, Tower, build_fn
from .errors import (
    AvoidanceExhausted,
    CommonZero,
    InfiniteField,
    MixedFields,
    OriginInJ,
    TooLarge,
)
from .field_core import FieldDescriptor, format_element, from_payload
from .function_ring import FiniteSpace, RingElement
from .poly import MultiPoly, format_poly


def projective_payloads(F: FieldDescriptor, u, v):
    """The payloads of the canonical form of [u, v] in P1(F), for payloads
    u and v: (u * v^-1, 1), or (1, 0) when v is zero."""
    if F.is_zero(v):
        if F.is_zero(u):
            raise ValueError("[0, 0] is not a projective point")
        return F.one().payload, F.zero().payload
    return F.mul(u, F.inv(v)), F.one().payload


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
    is_zero = field.is_zero
    for x, column in enumerate(zip(*(psi.payloads for psi in psis))):
        if all(map(is_zero, column)):
            raise CommonZero(x)
    return Cover(FiniteSpace(size), field, psis)


def image_points(cover: Cover):
    """The exact image of x -> (psi_1(x), ..., psi_n(x)), its points
    given by their payloads, in order; the origin is excluded by the
    cover property."""
    return sorted(set(zip(*(psi.payloads for psi in cover.functions))))


def indicator_poly(a, F: FieldDescriptor) -> MultiPoly:
    """Product of (1 - (x_i - a_i)^(q-1)): 1 at a, 0 elsewhere on F^n;
    the one-point case of `interpolate_case2`'s transform."""
    if not F.is_finite:
        raise InfiniteField("indicator polynomials need a finite field")
    return MultiPoly.from_payloads(
        F, len(a), _indicator_sum(F, [tuple(x.payload for x in a)]))


def interpolate_case2(J, F: FieldDescriptor, arity: int) -> MultiPoly:
    """Sum of indicator polynomials over the points of J, each taken
    once: identically 1 on J, 0 at the origin, and with zero constant
    term (the origin is excluded)."""
    return _interpolant(F, arity, [tuple(x.payload for x in a) for a in J])


def _interpolant(F, arity, J) -> MultiPoly:
    """`interpolate_case2` on points given by their payloads. An
    indicator's factor for a_i has q - 1 terms, or 2 if a_i is 0, and
    no exponent reaches q: FORM_TERMS_GUARD is checked on that bound."""
    if not J:
        raise ValueError("J must be non-empty")
    for a in J:
        if len(a) != arity:
            raise ValueError("points of J must match the arity")
        if all(map(F.is_zero, a)):
            raise OriginInJ("J must not contain the origin")
    if not F.is_finite:
        raise InfiniteField("indicator polynomials need a finite field")
    q = F.order
    bound = min(sum(math.prod(q - 1 if b else 2 for b in a) for a in J),
                q ** arity)
    if bound > FORM_TERMS_GUARD:
        raise TooLarge(f"route II's interpolant may have {bound} terms; the "
                       f"form-terms guard is {FORM_TERMS_GUARD}",
                       guard="FORM_TERMS_GUARD", limit=FORM_TERMS_GUARD,
                       requested=bound)
    return MultiPoly.from_payloads(F, arity, _indicator_sum(F, J))


def _indicator_sum(F, J):
    """The sum of the indicators of the payload points J, each taken
    once, as a {monomial: payload} dict without zeros, by a transform
    one axis at a time: the keys start as the points, and the pass over
    axis k replaces each key's a_k by the exponents j of the factor for
    a_k, multiplying coefficients and adding those that meet. By Lucas'
    theorem binom(q-1, j) = (-1)^j mod p, so (x - b)^(q-1) is the sum of
    b^(q-1-j) x^j over j < q, with 0^0 = 1: the factor's coefficients
    are read off that sum once per distinct b.
    """
    q, mul, add, neg = F.order, F.mul, F.add, F.neg
    terms, factors = dict.fromkeys(J, 1), {}
    for k in range(len(J[0])):
        acc = {}
        for key, c in terms.items():
            b = key[k]
            if b not in factors:
                coeffs = [add(int(j == 0), neg(F.pow(b, q - 1 - j)))
                          for j in range(q)]
                factors[b] = [(j, f) for j, f in enumerate(coeffs) if f]
            for j, f in factors[b]:
                m = key[:k] + (j,) + key[k + 1:]
                t = mul(c, f)
                acc[m] = add(acc[m], t) if m in acc else t
        terms = {m: c for m, c in acc.items() if c}
    return terms


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


def _by_column(cover: Cover, f) -> RingElement:
    """The function x -> f(psi_1(x), ..., psi_n(x)), for a MultiPoly or
    Tower f in the cover's n variables, read by `f.evaluate_payloads`.
    Its value at a point depends only on the point's column of payloads,
    so f is evaluated once per distinct column."""
    if (f.field, f.arity) != (cover.field, len(cover.functions)):
        raise MixedFields("a polynomial in the cover's functions needs "
                          "their field and one variable per function")
    keys = list(zip(*(psi.payloads for psi in cover.functions)))
    value_at = {key: f.evaluate_payloads(key) for key in dict.fromkeys(keys)}
    return RingElement.from_payloads(cover.field,
                                     tuple(map(value_at.__getitem__, keys)))


def combine_case1(cover: Cover, base: MultiPoly) -> CombinationCertificate:
    """Plug the cover into the origin-only-vanishing form built on base.

    The witness is the expanded form, which FORM_TERMS_GUARD may refuse;
    the composite is the nested tower's value on each column, so
    `certify`, which evaluates the witness, cross-checks it.
    """
    n = len(cover.functions)
    witness = build_fn(base, n)
    composite = _by_column(cover, Tower.over(base, n))
    return CombinationCertificate("CaseI", cover, composite, witness=witness)


def combine_case2(cover: Cover) -> CombinationCertificate:
    """Interpolate the cover's finite image to the constant 1.

    The image's points are distinct, so the interpolant is 1 at each of
    them and the composite is the constant one, with nothing evaluated;
    `certify` evaluates the witness once per distinct column.
    """
    F = cover.field
    witness = _interpolant(F, len(cover.functions), image_points(cover))
    composite = RingElement.from_payloads(
        F, (F.one().payload,) * cover.space.size)
    return CombinationCertificate("CaseII", cover, composite, witness=witness)


def unit_combination_case3(cover: Cover) -> CombinationCertificate:
    """Linear combination that never vanishes, by projective avoidance.

    Maintains psi~ = sum of coefficients times functions; at step i it
    restricts to the points where the remaining functions all vanish,
    takes the image of [psi~, psi_i] in P1(F), and subtracts a*psi_i for
    the enumeration-smallest a with [a,1] outside the image. An empty
    restriction is treated as vacuous (any a works). The route reads the
    functions' payloads: the image is a set of canonical payload pairs
    (`projective_payloads`), the candidates a are the payloads in
    enumeration order, and psi~ is updated by the ring operators, which
    compute on payloads; field elements are built for the certificate
    and the log only.
    """
    field = cover.field
    if not field.is_finite:
        raise InfiniteField("the avoidance route is implemented for finite F")
    is_zero, one = field.is_zero, field.one().payload
    psis = cover.functions
    n = len(psis)
    size = cover.space.size
    coeffs = [one] + [field.zero().payload] * (n - 1)
    current = psis[0]
    log = []
    for i in range(1, n):
        rest = [r.payloads for r in psis[i + 1:]]
        y_points = [x for x in range(size)
                    if all(is_zero(r[x]) for r in rest)]
        image = set()
        u_at, v_at = current.payloads, psis[i].payloads
        for x in y_points:
            u, v = u_at[x], v_at[x]
            if is_zero(u) and is_zero(v):
                # cannot happen on a valid cover restricted this way
                raise CommonZero(x)
            image.add(projective_payloads(field, u, v))
        # a payload is the element's index in enumeration order
        a = next((a for a in range(field.order)
                  if projective_payloads(field, a, one) not in image), None)
        if a is None:
            raise AvoidanceExhausted(i)
        chosen = from_payload(field, a)
        coeffs[i] = field.neg(a)
        current = current - psis[i].scale(chosen)
        # the replaced function together with the remaining ones must
        # still cover the space
        u_at = current.payloads
        for x in range(size):
            if is_zero(u_at[x]) and all(is_zero(r[x]) for r in rest):
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
        coefficients=tuple(from_payload(field, c) for c in coeffs),
        per_step_log=tuple(log))


def certify(cert: CombinationCertificate) -> dict:
    """Recompute the composite from scratch and confirm the contract.

    Checks that the composite never vanishes, that a polynomial witness
    has zero constant term (ideal membership for routes I/II), and that
    the composite equals the witness's values on the cover, evaluated
    once per distinct column, or the route-III linear combination.
    """
    cover = cert.cover
    checks = {"nonvanishing": True, "ideal_membership": True,
              "recomputation": True}
    failing_point = None

    if cert.witness is not None:
        recomputed = _by_column(cover, cert.witness)
        if not cert.witness.constant_term().is_zero:
            checks["ideal_membership"] = False
    else:
        recomputed = RingElement.zeros(cover.field, cover.space.size)
        for c, psi in zip(cert.coefficients, cover.functions):
            recomputed = recomputed + psi.scale(c)

    if recomputed != cert.composite:
        checks["recomputation"] = False
    is_zero = cover.field.is_zero
    for x, a in enumerate(recomputed.payloads):
        if is_zero(a):
            checks["nonvanishing"] = False
            failing_point = x
            break

    result = {"pass": all(checks.values()), **checks}
    if failing_point is not None:
        result["failing_point"] = failing_point
    return result
