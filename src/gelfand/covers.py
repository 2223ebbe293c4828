"""Nowhere-vanishing combinations from covers of a finite space.

A cover is a list of functions with no common zero. Three routes
produce an element of the ideal they generate that never vanishes:
plugging the cover into an origin-only-vanishing form (route I),
interpolating the finite image to 1 by linear factors, over any field
(route II), and iteratively subtracting a multiple chosen to avoid the
image in the projective line (route III).
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
from .field_core import FieldDescriptor
from .function_ring import FiniteSpace, RingElement
from .poly import MultiPoly, format_poly


@dataclass(frozen=True)
class Cover:
    """Functions with no common zero on a finite discrete space, with
    its points partitioned by their last nonzero function: `steps[i]`
    holds, ascending, the points where psi_(i+1) does not vanish and
    every later function does."""

    space: FiniteSpace
    field: FieldDescriptor
    functions: tuple  # RingElements
    steps: tuple  # tuples of points, one per function


def check_cover(psis) -> Cover:
    """Validate the no-common-zero property; report the smallest common
    zero otherwise.

    Each function, from the last down, splits the pending points (at
    first all of them) into its step, where it does not vanish, and the
    rest, which stay pending, in order: the first left is the smallest.
    """
    psis = tuple(psis)
    if not psis:
        raise ValueError("need at least one function")
    field = psis[0].field
    size = psis[0].size
    for i, psi in enumerate(psis, 1):
        if psi.field != field:
            raise MixedFields("functions live in different rings")
        if psi.size != size:
            raise MixedFields(f"function {i} has {psi.size} values, "
                              f"function 1 has {size}")
    is_zero = field.is_zero
    steps, pending = [], range(size)
    for psi in reversed(psis):
        payloads, zeros, nonzero = psi.payloads, [], []
        for x in pending:
            (zeros if is_zero(payloads[x]) else nonzero).append(x)
        steps.append(tuple(nonzero))
        pending = zeros
    if pending:
        raise CommonZero(pending[0])
    return Cover(FiniteSpace(size), field, psis, tuple(reversed(steps)))


def image_points(cover: Cover):
    """The exact image of x -> (psi_1(x), ..., psi_n(x)), its points
    given by their payloads, in order; the origin is excluded by the
    cover property."""
    return sorted(set(zip(*(psi.payloads for psi in cover.functions))))


def indicator_poly(a, F: FieldDescriptor) -> MultiPoly:
    """Product of (1 - (x_i - a_i)^(q-1)): 1 at a, 0 elsewhere on F^n.
    By Lucas' theorem binom(q-1, j) = (-1)^j mod p, so (x - b)^(q-1) is
    the sum of b^(q-1-j) x^j over j < q, with 0^0 = 1."""
    if not F.is_finite:
        raise InfiniteField("indicator polynomials need a finite field")
    q, add, neg = F.order, F.add, F.neg
    factors = [_terms(F, [add(int(j == 0), neg(F.pow(x.payload, q - 1 - j)))
                          for j in range(q)]) for x in a]
    return MultiPoly.from_payloads(F, len(a), _product_over_axes(F, factors))


def _interpolant(F, arity, J) -> MultiPoly:
    """1 - prod over a in J of (1 - x_i/a_i), i the first axis where a
    is nonzero, for the payload points J, over any field: 1 on J, as
    the factor for a is 0 at a, and 0 at the origin, where every factor
    is 1, so the constant term is zero. P_i, the product of 1 - x_i/c
    over the distinct first nonzero values c on axis i, takes one linear
    step per value; the P_i share no variable, so the interpolant has
    exactly prod t_i - 1 terms, t_i those of P_i, checked against
    FORM_TERMS_GUARD before the product."""
    values = [set() for _ in range(arity)]
    for a in J:
        lead = next((i for i, b in enumerate(a) if not F.is_zero(b)), None)
        if lead is None:
            raise OriginInJ("J must not contain the origin")
        values[lead].add(a[lead])
    factors = [_linear_product(F, cs) for cs in values]
    count = math.prod(map(len, factors)) - 1
    TooLarge.check("FORM_TERMS_GUARD", FORM_TERMS_GUARD, count,
                   lambda: f"route II's interpolant has exactly {count} "
                   f"terms; the form-terms guard is {FORM_TERMS_GUARD}")
    product = _product_over_axes(F, factors)
    del product[(0,) * arity]
    return MultiPoly.from_payloads(F, arity, {m: F.neg(c)
                                              for m, c in product.items()})


def _linear_product(F, values):
    """The `_terms` of the product of 1 - x/c over the payloads c."""
    mul, add, zero = F.mul, F.add, F.canonical(0)
    coeffs = [F.canonical(1)]
    for c in values:
        r = F.neg(F.inv(c))  # 1 - x/c = 1 + r*x
        coeffs = [add(u, mul(r, v))
                  for u, v in zip(coeffs + [zero], [zero] + coeffs)]
    return _terms(F, coeffs)


def _terms(F, coeffs):
    """A univariate polynomial's (exponent, payload) pairs without zeros,
    from its coefficient payloads, low degree first."""
    return [(j, c) for j, c in enumerate(coeffs) if not F.is_zero(c)]


def _product_over_axes(F, factors):
    """The product of univariate factors given by `_terms`, the k-th in
    x_k, as a {monomial: payload} dict: the factors share no variable,
    so no two terms merge."""
    mul, terms = F.mul, {(): F.canonical(1)}
    for factor in factors:
        terms = {m + (j,): mul(c, f)
                 for m, c in terms.items() for j, f in factor}
    return terms


@dataclass(frozen=True)
class CombinationCertificate:
    """A certified nowhere-vanishing element of a cover's ideal: the
    composite g(psi_1, ..., psi_n) of a polynomial witness g with zero
    constant term. Route III's witness is its linear form, printed as
    its n coefficients, zeros included."""

    mode: str  # "CaseI" | "CaseII" | "CaseIII"
    cover: Cover
    composite: RingElement
    witness: MultiPoly
    per_step_log: tuple = ()

    def to_json(self):
        g, F = self.witness, self.cover.field
        if self.mode == "CaseIII":
            coeffs, zero = dict(g.payload_terms), F.canonical(0)
            witness = [F.format(coeffs.get(_variable(g.arity, i), zero))
                       for i in range(g.arity)]
        else:
            witness = format_poly(g)
        record = {
            "mode": self.mode,
            "witness": witness,
            "composite_values": list(map(F.format, self.composite.payloads)),
            "pass": certify(self)["pass"],
        }
        if self.per_step_log:
            record["per_step_log"] = list(self.per_step_log)
        return record


def _variable(n, i):
    """The monomial x_(i+1) in n variables."""
    return (0,) * i + (1,) + (0,) * (n - i - 1)


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
    """Interpolate the cover's finite image to the constant 1, so the
    composite is the constant one, with nothing evaluated; `certify`
    evaluates the witness once per distinct column."""
    F = cover.field
    witness = _interpolant(F, len(cover.functions), image_points(cover))
    composite = RingElement.from_payloads(
        F, (F.canonical(1),) * cover.space.size)
    return CombinationCertificate("CaseII", cover, composite, witness=witness)


def unit_combination_case3(cover: Cover) -> CombinationCertificate:
    """Linear combination that never vanishes, by projective avoidance.

    Builds psi~ = sum of coefficients times functions; at step i it
    restricts to the points where the remaining functions all vanish,
    takes the image of [psi~, psi_i] in P1(F), and subtracts a*psi_i for
    the enumeration-smallest a with [a,1] outside the image. An empty
    restriction is treated as vacuous (any a works). The route reads the
    functions' payloads: the image is the set of forbidden values u/v,
    with None for [1:0], and the candidates a are the payloads in
    enumeration order. The witness is the linear form sum of c_i x_i,
    c_i = -a.

    Each point is read once, at its step in `cover.steps`: the
    restriction of step i is the points of steps 0 to i; those of
    earlier steps, where psi_i vanishes, put [1:0] in the image; one of
    step i puts u/v, u = psi~ at that point alone from the nonzero
    coefficients so far, written as its composite value, to which
    c_i*v is added if c_i is nonzero, as later functions vanish there.
    """
    field = cover.field
    if not field.is_finite:
        raise InfiniteField("the avoidance route is implemented for finite F")
    is_zero, add, mul, inv = field.is_zero, field.add, field.mul, field.inv
    psis = [psi.payloads for psi in cover.functions]
    n = len(psis)
    first = psis[0]
    coeffs = [field.canonical(1)] + [field.canonical(0)] * (n - 1)
    composite = list(first)  # final at the points of step 0
    terms = []  # (c_k, psi_k) for each nonzero c_k so far, 0 < k
    restricted = len(cover.steps[0])
    log = []
    for i in range(1, n):
        v_at, step = psis[i], cover.steps[i]
        # [1:0] is the image of the points of earlier steps
        image = {None} if restricted else set()
        full = len(image) + field.order
        for x in step:
            u = first[x]
            for c, row in terms:
                v = row[x]
                if not is_zero(v):
                    u = add(u, mul(c, v))
            composite[x] = u
            image.add(mul(u, inv(v_at[x])))
            if len(image) == full:   # every candidate a is forbidden
                raise AvoidanceExhausted(i)
        # a payload is the element's index in enumeration order
        a = next(a for a in range(field.order) if a not in image)
        c = coeffs[i] = field.neg(a)
        if not is_zero(c):
            terms.append((c, v_at))
            for x in step:
                composite[x] = add(composite[x], mul(c, v_at[x]))
        restricted += len(step)
        log.append({"step": i + 1, "chosen_a": field.format(a),
                    "image_size": len(image),
                    "restricted_points": restricted})
    witness = MultiPoly.from_payloads(
        field, n, {_variable(n, i): c for i, c in enumerate(coeffs)})
    return CombinationCertificate(
        "CaseIII", cover, RingElement.from_payloads(field, tuple(composite)),
        witness, tuple(log))


def certify(cert: CombinationCertificate) -> dict:
    """Recompute the composite from scratch and confirm the contract.

    Evaluates the witness on the cover once per distinct column, and
    checks that its constant term is zero (ideal membership), that the
    result equals the composite, and that it never vanishes.
    """
    recomputed = _by_column(cert.cover, cert.witness)
    is_zero = cert.cover.field.is_zero
    failing_point = next((x for x, a in enumerate(recomputed.payloads)
                          if is_zero(a)), None)
    checks = {"nonvanishing": failing_point is None,
              "ideal_membership": all(any(m) for m, _ in
                                      cert.witness.payload_terms),
              "recomputation": recomputed == cert.composite}
    result = {"pass": all(checks.values()), **checks}
    if failing_point is not None:
        result["failing_point"] = failing_point
    return result
