"""Sparse exact multivariate polynomials.

Terms are kept as (monomial, payload) pairs in descending
graded-lexicographic order with no zero coefficients, so the
representation is canonical: two polynomials are equal exactly when
their term tuples are equal, and printing followed by parsing is a
bit-exact round trip. `compose_last` substitutes a form
into the last variable of a bivariate one by products
(`MultiPoly.__mul__`), one level of the composition tower; the tower
itself is expanded without any product of polynomials
(`anisotropic.Tower.expand`), so these products stay a reference that
shares no code with it.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    ArityMismatch,
    MixedFields,
    NotMonic,
    ParseError,
    ZeroPolynomial,
)
from .field_core import (
    FieldDescriptor,
    FieldElement,
    from_payload,
    parse_payload_at,
)


@dataclass(frozen=True)
class MultiPoly:
    """A sparse polynomial over one field, with fixed arity, holding its
    coefficients' payloads as `RingElement` holds its values'."""

    field: FieldDescriptor
    arity: int
    payload_terms: tuple  # ((monomial, payload), ...) in canonical order

    @classmethod
    def from_dict(cls, field, arity, coeffs):
        """Build from a {monomial: FieldElement} mapping, dropping zeros;
        every coefficient must lie in field, and each monomial left must
        be `arity` exponents >= 0 (the one check of monomials)."""
        for c in coeffs.values():
            if c.field != field:
                raise MixedFields(f"{field} vs {c.field}")
        for m, c in coeffs.items():
            if not c.is_zero and (len(m) != arity or min(m, default=0) < 0):
                raise ArityMismatch(f"monomial {m} does not fit arity {arity}")
        return cls.from_payloads(field, arity,
                                 {m: c.payload for m, c in coeffs.items()})

    @classmethod
    def from_payloads(cls, field, arity, coeffs):
        """Build from a {monomial: payload} mapping, as the kernels below
        produce it, dropping zeros and sorting the rest, each payload
        stored as it is; its monomials are trusted, not checked."""
        is_zero = field.is_zero
        items = [(tuple(m), a) for m, a in coeffs.items() if not is_zero(a)]
        # descending total degree, then descending lexicographic
        items.sort(key=lambda mc: (sum(mc[0]), mc[0]), reverse=True)
        return cls(field, arity, tuple(items))

    @classmethod
    def zero(cls, field, arity):
        return cls(field, arity, ())

    @classmethod
    def constant(cls, field, arity, c):
        return cls.from_dict(field, arity, {(0,) * arity: c})

    @property
    def terms(self):
        """((monomial, FieldElement), ...), wrapped on each read."""
        F = self.field
        return tuple((m, from_payload(F, a)) for m, a in self.payload_terms)

    @property
    def is_zero(self):
        return not self.payload_terms

    @property
    def degree(self):
        """Max total degree, or None for the zero polynomial."""
        terms = self.payload_terms
        return sum(terms[0][0]) if terms else None

    def _check(self, other):
        if not isinstance(other, MultiPoly):
            raise TypeError(f"expected MultiPoly, got {type(other).__name__}")
        if other.field != self.field:
            raise MixedFields(f"{self.field} vs {other.field}")
        if other.arity != self.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")

    def __add__(self, other):
        self._check(other)
        add = self.field.add
        acc = dict(self.payload_terms)
        for m, c in other.payload_terms:
            acc[m] = add(acc[m], c) if m in acc else c
        return MultiPoly.from_payloads(self.field, self.arity, acc)

    def __mul__(self, other):
        F = self.field
        if isinstance(other, FieldElement):
            if other.field != F:
                raise MixedFields(f"{F} vs {other.field}")
            s, mul = other.payload, F.mul
            return MultiPoly.from_payloads(
                F, self.arity, {m: mul(a, s) for m, a in self.payload_terms})
        self._check(other)
        return MultiPoly.from_payloads(
            F, self.arity, _times(self.payload_terms, other.payload_terms, F))

    def evaluate(self, point):
        """Exact evaluation at a tuple of field elements."""
        F = self.field
        return from_payload(
            F, self.evaluate_payloads(point_payloads(F, self.arity, point)))

    def evaluate_payloads(self, xs):
        """The value, as a payload, at the point whose coordinates have
        the payloads xs; each power x_i^e that a term needs is computed
        once per call, x_i^1 is x_i itself, and a term with a zero
        coordinate is skipped, as 0^e = 0 for the e >= 1 of the plan."""
        F = self.field
        mul, add, power, is_zero = F.mul, F.add, F.pow, F.is_zero
        pairs, plan, acc = self._evaluation_plan
        powers = [None if is_zero(xs[i]) else xs[i] if e == 1
                  else power(xs[i], e) for i, e in pairs]
        for term, factors in plan:
            for j in factors:
                x = powers[j]
                if x is None:   # a zero coordinate: the term is 0
                    break
                term = mul(term, x)
            else:
                acc = add(acc, term)
        return acc

    @cached_property
    def _evaluation_plan(self):
        """The distinct (variable, exponent) pairs with a nonzero
        exponent; per term its coefficient's payload and the positions
        of its pairs in that list; and the zero payload."""
        position = {}
        plan = [(a, tuple(position.setdefault((i, e), len(position))
                          for i, e in enumerate(m) if e))
                for m, a in self.payload_terms]
        return list(position), plan, self.field.canonical(0)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"MultiPoly({format_poly(self)!r} over {self.field})"


def point_payloads(field, arity, point):
    """The payloads of a point's coordinates, once the point is checked
    to have `arity` coordinates in `field`."""
    point = tuple(point)
    if len(point) != arity:
        raise ArityMismatch(
            f"point has {len(point)} coordinates, arity is {arity}")
    for x in point:
        if x.field != field:
            raise MixedFields(f"{field} vs {x.field}")
    return tuple(x.payload for x in point)


def univariate(field, coeffs):
    """Univariate polynomial from coefficients, low degree first.

    Integer coefficients are lifted into the field.
    """
    acc = {}
    for i, c in enumerate(coeffs):
        if isinstance(c, int):
            c = field.element(c)
        if not c.is_zero:
            acc[(i,)] = c
    return MultiPoly.from_dict(field, 1, acc)


def homogenize2(f: MultiPoly) -> MultiPoly:
    """y^m * f(x/y) for monic univariate f of degree m >= 1."""
    if f.arity != 1:
        raise ArityMismatch("homogenization takes a univariate polynomial")
    if f.is_zero:
        raise ZeroPolynomial("cannot homogenize the zero polynomial")
    F, m, lead = f.field, f.degree, f.payload_terms[0][1]
    if m < 1:
        raise ZeroPolynomial("degree must be at least 1")
    if lead != F.canonical(1):
        raise NotMonic(f"leading coefficient is {F.format(lead)}")
    return MultiPoly.from_payloads(
        F, 2, {(e[0], m - e[0]): a for e, a in f.payload_terms})


def compose_last(g2: MultiPoly, h: MultiPoly) -> MultiPoly:
    """g2(h(x_1..x_n), x_{n+1}) expanded to canonical form: each term
    c*y^i*z^j of g2 adds c*x_{n+1}^j times h^i, and each power h^i is one
    product h^(i-1)*h (`MultiPoly.__mul__`)."""
    if g2.arity != 2:
        raise ArityMismatch("outer polynomial must be bivariate")
    if g2.field != h.field:
        raise MixedFields(f"{g2.field} vs {h.field}")
    F, n = h.field, h.arity
    h = MultiPoly(F, n + 1, tuple((m + (0,), a) for m, a in h.payload_terms))
    powers = [MultiPoly.constant(F, n + 1, F.one())]
    result = MultiPoly.zero(F, n + 1)
    for (i, j), c in g2.payload_terms:
        while len(powers) <= i:
            powers.append(powers[-1] * h)
        result = result + powers[i] * MultiPoly.from_payloads(
            F, n + 1, {(0,) * n + (j,): c})
    return result


def _times(left, right, field):
    """The product of two polynomials given as (monomial, payload) pairs,
    as a {monomial: payload} mapping, zero coefficients included."""
    mul, add = field.mul, field.add
    acc = {}
    for m1, a1 in left:
        for m2, a2 in right:
            m = tuple(map(operator.add, m1, m2))
            c = mul(a1, a2)
            acc[m] = add(acc[m], c) if m in acc else c
    return acc


# ---------------------------------------------------------------------------
# text form


_ATOMIC_COEFF = re.compile(r"^\d+(/\d+)?$")


def format_poly(f: MultiPoly) -> str:
    if f.is_zero:
        return "0"
    F, parts = f.field, []
    for mono, c in f.payload_terms:
        c_txt = F.format(c)
        if not _ATOMIC_COEFF.match(c_txt):
            c_txt = f"({c_txt})"
        factors = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                   for i, e in enumerate(mono) if e]
        if c_txt != "1" or not factors:   # a unit coefficient is implied
            factors.insert(0, c_txt)
        parts.append("*".join(factors))
    return " + ".join(parts)


_VAR_RE = re.compile(r"^x(\d*)(?:\^(\d+))?$")
_LEADING_COEFF = re.compile(r"\d+(?:/\d+)?")


def _split_terms(text):
    """Split on top-level '+' and '-'; a minus is kept with its term.

    Returns (offset, term, close) triples, offsets into text: close is
    that of the ')' matching the term's first top-level '(', or None.
    """
    terms, depth, start, opened, close = [], 0, 0, 0, None
    for i, ch in enumerate(text):
        if ch == "(":
            if depth == 0:
                opened = i
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(text, i, "balanced parentheses")
            if depth == 0 and close is None:
                close = i
        elif depth == 0 and ch in "+-" and i > start:
            terms.append((start, text[start:i], close))
            start, close = i + 1 if ch == "+" else i, None
    if depth != 0:
        raise ParseError(text, opened, "a ')' closing this '('")
    if start == len(text):
        raise ParseError(text, start, "a term after '+'")
    terms.append((start, text[start:], close))
    return terms


def _parse_term(field, text, start, term, close):
    """Parse one term at offset start of text, with close from
    `_split_terms`, to (payload, exponents); errors carry offsets."""
    negate = term.startswith("-")
    if negate:
        term = term[1:]
        if not term:
            raise ParseError(text, start, "a term after '-'")
        start += 1
    if term[0] == "(":
        coeff = parse_payload_at(field, text, start + 1, close)
        pos = close + 1 - start
    elif term[0] != "x":
        m = _LEADING_COEFF.match(term)
        if not m:
            raise ParseError(text, start, "a coefficient or variable")
        coeff = parse_payload_at(field, text, start, start + m.end())
        pos = m.end()
    else:
        coeff, pos = field.canonical(1), 0
    if term.startswith("*", pos):   # pos is 0 only before an 'x'
        pos += 1
    exps = {}
    if pos < len(term):
        for piece in term[pos:].split("*"):
            vm = _VAR_RE.match(piece)
            if not vm:
                raise ParseError(text, start + pos,
                                 f"a variable like x1 or x2^3 (got {piece!r})")
            idx = int(vm.group(1)) if vm.group(1) else 1
            if idx < 1:
                raise ParseError(text, start + pos,
                                 "variable indices start at 1")
            e = int(vm.group(2)) if vm.group(2) else 1
            exps[idx - 1] = exps.get(idx - 1, 0) + e
            pos += len(piece) + 1
    if negate:
        coeff = field.neg(coeff)
    return coeff, exps


def parse_poly(field, text, arity=None) -> MultiPoly:
    """Parse the polynomial text form, e.g. 'x1^2 + x1*x2 + x2^2'.

    A bare 'x' is accepted as an alias for 'x1'. The arity is inferred
    from the largest variable index unless given explicitly; a negative
    one raises ArityMismatch. A ParseError carries the offset of the
    offending term in text, or of the bad character in a coefficient
    (`parse_payload_at`).
    """
    compact = text.replace(" ", "")
    if not compact:
        raise ParseError(text, 0, "a polynomial")
    try:
        parsed = [(i, *_parse_term(field, compact, i, t, close))
                  for i, t, close in _split_terms(compact)]
        max_idx = max((max(e) + 1 for _, _, e in parsed if e), default=1)
        if arity is None:
            arity = max_idx
        for i, _, exps in parsed:
            if exps and max(exps) >= arity:
                raise ParseError(compact, i, f"variables within arity {arity}")
    except ParseError as exc:
        # map the offset in the space-free text back to the input
        offsets = [i for i, ch in enumerate(text) if ch != " "] + [len(text)]
        raise ParseError(text, offsets[exc.pos], exc.expected) from None
    if arity < 0:
        raise ArityMismatch(f"arity must be at least 0, got {arity}")
    add, acc = field.add, {}
    for _, coeff, exps in parsed:
        mono = tuple(exps.get(i, 0) for i in range(arity))
        acc[mono] = add(acc[mono], coeff) if mono in acc else coeff
    return MultiPoly.from_payloads(field, arity, acc)
