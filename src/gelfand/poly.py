"""Sparse exact multivariate polynomials.

Terms are kept in descending graded-lexicographic order with no zero
coefficients, so the representation is canonical: two polynomials are
equal exactly when their term tuples are equal, and printing followed
by parsing is a bit-exact round trip.
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
    format_element,
    from_payload,
    parse_element,
)


@dataclass(frozen=True)
class MultiPoly:
    """A sparse polynomial over one field, with fixed arity."""

    field: FieldDescriptor
    arity: int
    terms: tuple  # ((monomial, coefficient), ...) in canonical order

    @classmethod
    def from_dict(cls, field, arity, coeffs):
        """Build from a {monomial: FieldElement} mapping, dropping zeros;
        every coefficient must lie in field."""
        for c in coeffs.values():
            if c.field != field:
                raise MixedFields(f"{field} vs {c.field}")
        return cls.from_payloads(field, arity,
                                 {m: c.payload for m, c in coeffs.items()})

    @classmethod
    def from_payloads(cls, field, arity, coeffs):
        """Build from a {monomial: payload} mapping, as the kernels below
        produce it, dropping zeros and wrapping each payload once."""
        is_zero = field.is_zero
        items = [(tuple(m), from_payload(field, a))
                 for m, a in coeffs.items() if not is_zero(a)]
        for m, _ in items:
            if len(m) != arity or min(m, default=0) < 0:
                raise ArityMismatch(f"monomial {m} does not fit arity {arity}")
        # descending total degree, then descending lexicographic
        items.sort(key=lambda mc: (sum(mc[0]), mc[0]), reverse=True)
        return cls(field, arity, tuple(items))

    @classmethod
    def zero(cls, field, arity):
        return cls(field, arity, ())

    @classmethod
    def constant(cls, field, arity, c):
        return cls.from_dict(field, arity, {(0,) * arity: c})

    @classmethod
    def variable(cls, field, arity, index):
        """The coordinate polynomial x_{index+1}."""
        if not 0 <= index < arity:
            raise ArityMismatch(f"variable index {index} out of range")
        mono = tuple(1 if i == index else 0 for i in range(arity))
        return cls.from_dict(field, arity, {mono: field.one()})

    @property
    def is_zero(self):
        return not self.terms

    @property
    def degree(self):
        """Max total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return sum(self.terms[0][0])

    def coefficient(self, mono):
        for m, c in self.terms:
            if m == tuple(mono):
                return c
        return self.field.zero()

    def constant_term(self):
        return self.coefficient((0,) * self.arity)

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
        acc = {m: c.payload for m, c in self.terms}
        for m, c in other.terms:
            c = c.payload
            acc[m] = add(acc[m], c) if m in acc else c
        return MultiPoly.from_payloads(self.field, self.arity, acc)

    def __mul__(self, other):
        F = self.field
        if isinstance(other, FieldElement):
            if other.field != F:
                raise MixedFields(f"{F} vs {other.field}")
            s, mul = other.payload, F.mul
            return MultiPoly.from_payloads(
                F, self.arity, {m: mul(c.payload, s) for m, c in self.terms})
        self._check(other)
        return MultiPoly.from_payloads(F, self.arity, dict(_times(
            [(m, c.payload) for m, c in self.terms],
            [(m, c.payload) for m, c in other.terms], F)))

    def evaluate(self, point):
        """Exact evaluation at a tuple of field elements."""
        F = self.field
        return from_payload(
            F, self.evaluate_payloads(point_payloads(F, self.arity, point)))

    def evaluate_payloads(self, xs):
        """The value, as a payload, at the point whose coordinates have
        the payloads xs; each power x_i^e that a term needs is computed
        once per call."""
        F = self.field
        mul, add, power = F.mul, F.add, F.pow
        pairs, plan, acc = self._evaluation_plan
        powers = [power(xs[i], e) for i, e in pairs]
        for term, factors in plan:
            for j in factors:
                term = mul(term, powers[j])
            acc = add(acc, term)
        return acc

    @cached_property
    def _evaluation_plan(self):
        """The distinct (variable, exponent) pairs with a nonzero
        exponent; per term its coefficient's payload and the positions
        of its pairs in that list; and the zero payload."""
        position = {}
        plan = [(c.payload, tuple(position.setdefault((i, e), len(position))
                                  for i, e in enumerate(m) if e))
                for m, c in self.terms]
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
    m = f.degree
    if m < 1:
        raise ZeroPolynomial("degree must be at least 1")
    if not (f.coefficient((m,)) - f.field.one()).is_zero:
        raise NotMonic(f"leading coefficient is {f.coefficient((m,))}")
    return MultiPoly.from_dict(
        f.field, 2, {(e[0], m - e[0]): c for e, c in f.terms})


def compose_last(g2: MultiPoly, h: MultiPoly) -> MultiPoly:
    """g2(h(x_1..x_n), x_{n+1}) expanded to canonical form.

    By substitution: a term c*y^i*z^j of g2 adds c times every term of
    h^i with the exponent j of x_{n+1} appended to its monomial. The
    powers h^i that g2 needs are lists of (monomial, payload) pairs in
    h's own arity, each built once. When the characteristic p > 0
    divides i, h^i is the Frobenius image of h^(i/p):
    (sum a*x^m)^p = sum a^p*x^(p*m), as every cross term of a p-th power
    has a binomial coefficient divisible by p, so each exponent is
    multiplied by p and each coefficient raised to the p-th power, and
    no two terms merge or vanish. Any other h^i is one product
    h^(i-1)*h, with its zero coefficients dropped.
    """
    if g2.arity != 2:
        raise ArityMismatch("outer polynomial must be bivariate")
    if g2.field != h.field:
        raise MixedFields(f"{g2.field} vs {h.field}")
    n = h.arity
    field = h.field
    mul, add, p = field.mul, field.add, field.characteristic
    base = [(m, a.payload) for m, a in h.terms]
    powers = {0: [((0,) * n, field.canonical(1))], 1: base}

    def power(want):
        """h^want, with the powers it rests on that are not built yet."""
        chain, i = [], want
        while i not in powers:
            chain.append(i)
            i = i // p if p and i % p == 0 else i - 1
        for i in reversed(chain):
            if p and i % p == 0:
                powers[i] = [(tuple(e * p for e in m), field.pow(a, p))
                             for m, a in powers[i // p]]
            else:
                powers[i] = _times(powers[i - 1], base, field)
        return powers[want]

    acc = {}
    for (i, j), c in g2.terms:
        c = c.payload
        for m, a in power(i):
            mono = m + (j,)
            term = mul(a, c)
            acc[mono] = add(acc[mono], term) if mono in acc else term
    return MultiPoly.from_payloads(field, n + 1, acc)


def _times(left, right, field):
    """The product of two polynomials given as (monomial, payload) lists,
    as such a list without zero coefficients."""
    mul, add, is_zero = field.mul, field.add, field.is_zero
    acc = {}
    for m1, a1 in left:
        for m2, a2 in right:
            m = tuple(map(operator.add, m1, m2))
            c = mul(a1, a2)
            acc[m] = add(acc[m], c) if m in acc else c
    return [(m, c) for m, c in acc.items() if not is_zero(c)]


# ---------------------------------------------------------------------------
# text form


_ATOMIC_COEFF = re.compile(r"^\d+(/\d+)?$")


def format_poly(f: MultiPoly) -> str:
    if f.is_zero:
        return "0"
    parts = []
    for mono, c in f.terms:
        vars_txt = "*".join(
            f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
            for i, e in enumerate(mono) if e)
        c_txt = format_element(c)
        if not _ATOMIC_COEFF.match(c_txt):
            c_txt = f"({c_txt})"
        if not vars_txt:
            parts.append(c_txt)
        elif c_txt == "1":
            parts.append(vars_txt)
        else:
            parts.append(f"{c_txt}*{vars_txt}")
    return " + ".join(parts)


_VAR_RE = re.compile(r"^x(\d*)(?:\^(\d+))?$")


def _split_terms(text):
    """Split on top-level '+' and '-'; a minus is kept with its term.

    Returns (offset, term) pairs, offsets into text.
    """
    terms, depth, start, opened = [], 0, 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            if depth == 0:
                opened = i
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(text, i, "balanced parentheses")
        elif depth == 0 and ch in "+-" and i > start:
            terms.append((start, text[start:i]))
            start = i + 1 if ch == "+" else i
    if depth != 0:
        raise ParseError(text, opened, "a ')' closing this '('")
    terms.append((start, text[start:]))
    return [(i, t) for i, t in terms if t]


def _parse_coefficient(field, text, start, end):
    try:
        return parse_element(field, text[start:end])
    except ParseError as exc:
        raise ParseError(text, start + exc.pos, exc.expected) from None


def _parse_term(field, text, start, term):
    """Parse one term found at offset start of text; errors carry
    offsets into text."""
    negate = term.startswith("-")
    if negate:
        term = term[1:]
        if not term:
            raise ParseError(text, start, "a term after '-'")
        start += 1
    coeff = field.one()
    pos = 0
    if term.startswith("("):
        # _split_terms has checked that the parentheses balance
        depth = 0
        for pos, ch in enumerate(term):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    break
        coeff = _parse_coefficient(field, text, start + 1, start + pos)
        pos += 1
        if pos < len(term) and term[pos] == "*":
            pos += 1
    elif term[0] != "x":
        m = re.match(r"\d+(?:/\d+)?", term)
        if not m:
            raise ParseError(text, start, "a coefficient or variable")
        coeff = _parse_coefficient(field, text, start, start + m.end())
        pos = m.end()
        if pos < len(term) and term[pos] == "*":
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
        coeff = -coeff
    return coeff, exps


def parse_poly(field, text, arity=None) -> MultiPoly:
    """Parse the polynomial text form, e.g. 'x1^2 + x1*x2 + x2^2'.

    A bare 'x' is accepted as an alias for 'x1'. The arity is inferred
    from the largest variable index unless given explicitly. A
    ParseError carries the offset of the offending term in text.
    """
    compact = text.replace(" ", "")
    if not compact:
        raise ParseError(text, 0, "a polynomial")
    try:
        parsed = [(i, *_parse_term(field, compact, i, t))
                  for i, t in _split_terms(compact)]
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
    acc = {}
    for _, coeff, exps in parsed:
        mono = tuple(exps.get(i, 0) for i in range(arity))
        acc[mono] = acc[mono] + coeff if mono in acc else coeff
    return MultiPoly.from_dict(field, arity, acc)
