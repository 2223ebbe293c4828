"""Exact arithmetic for the supported field instances.

Four kinds of field are supported: prime fields F_p, extension fields
F_{p^k} presented as F_p[t]/(modulus), the rationals Q, and imaginary
quadratic extensions Q(sqrt(d)) with d < 0. Every value is immutable
and kept in a unique canonical form, so equality is structural and all
downstream choices that break ties by "smallest element" are
reproducible. No floating point is used anywhere.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering

from .errors import (
    DivisionByZero,
    InfiniteField,
    MixedFields,
    NoneFound,
    ParseError,
    TooLarge,
    WrongKind,
)

PRIME = "prime"
EXTENSION = "extension"
RATIONAL = "rational"
QUADRATIC = "quadratic"

MAX_EXTENSION_DEGREE = 8
ROOTFREE_SEARCH_GUARD = 10 ** 7


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


# ---------------------------------------------------------------------------
# dense polynomials over F_p, as plain int lists (low degree first);
# only used internally for extension-field moduli and inverses


def _pdeg(a):
    d = len(a) - 1
    while d >= 0 and a[d] == 0:
        d -= 1
    return d


def _ptrim(a):
    d = _pdeg(a)
    return a[:d + 1]


def _psub(a, b, p):
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return [(x - y) % p for x, y in zip(a, b)]


def _pmul(a, b, p):
    if _pdeg(a) < 0 or _pdeg(b) < 0:
        return [0]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _pdivmod(a, b, p):
    db = _pdeg(b)
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [0] * max(len(a), 1)
    binv = pow(b[db], p - 2, p) if b[db] != 1 else 1
    for i in range(_pdeg(rem) - db, -1, -1):
        c = rem[db + i] * binv % p
        if c == 0:
            continue
        quo[i] = c
        for j in range(db + 1):
            rem[j + i] = (rem[j + i] - c * b[j]) % p
    return _ptrim(quo) or [0], _ptrim(rem) or [0]


def _base_p_digits(idx, p, k):
    """The k base-p digits of idx, least significant first."""
    digits = []
    for _ in range(k):
        idx, d = divmod(idx, p)
        digits.append(d)
    return tuple(digits)


def _is_irreducible(modulus, p):
    """Exhaustive check: no monic factor of degree 1..k//2 divides it."""
    k = _pdeg(modulus)
    if k <= 0:
        return False
    for deg in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            cand = list(tail) + [1]
            _, rem = _pdivmod(list(modulus), cand, p)
            if _pdeg(rem) < 0:
                return False
    return True


def _first_irreducible(p, k):
    """Lexicographically first monic irreducible of degree k over F_p.

    Candidates are ordered by the integer value of their lower
    coefficient tuple in base p (constant coefficient least significant).
    """
    for idx in range(p ** k):
        cand = _base_p_digits(idx, p, k) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise NoneFound(f"no irreducible polynomial of degree {k} over F_{p}")


# ---------------------------------------------------------------------------
# field descriptors


@dataclass(frozen=True)
class FieldDescriptor:
    """An exact field instance: F_p, F_{p^k}, Q, or Q(sqrt(d)), d < 0."""

    kind: str
    p: int = 0
    k: int = 1
    modulus: tuple = ()
    d: int = 0

    def __post_init__(self):
        if self.kind == PRIME:
            if not is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")
        elif self.kind == EXTENSION:
            if not is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")
            if not 1 <= self.k <= MAX_EXTENSION_DEGREE:
                raise ValueError(
                    f"extension degree must be in 1..{MAX_EXTENSION_DEGREE}")
            if len(self.modulus) != self.k + 1 or self.modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree k")
            if any(not 0 <= c < self.p for c in self.modulus):
                raise ValueError("modulus coefficients must lie in [0, p)")
            if not _is_irreducible(list(self.modulus), self.p):
                raise ValueError("modulus is reducible over F_p")
        elif self.kind == RATIONAL:
            pass
        elif self.kind == QUADRATIC:
            if self.d >= 0:
                raise ValueError("d must be a negative non-square integer")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @property
    def is_finite(self):
        return self.kind in (PRIME, EXTENSION)

    @property
    def order(self):
        if not self.is_finite:
            raise InfiniteField("infinite field has no order")
        return self.p ** self.k if self.kind == EXTENSION else self.p

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        if self.kind == PRIME:
            return FieldElement(self, n % self.p)
        if self.kind == EXTENSION:
            return FieldElement(self, (n % self.p,) + (0,) * (self.k - 1))
        if self.kind == RATIONAL:
            return FieldElement(self, Fraction(n))
        return FieldElement(self, (Fraction(n), Fraction(0)))

    def element(self, payload):
        """Construct an element from a raw payload, canonicalizing it."""
        if self.kind == PRIME:
            return FieldElement(self, int(payload) % self.p)
        if self.kind == EXTENSION:
            coeffs = tuple(int(c) % self.p for c in payload)
            if len(coeffs) != self.k:
                raise ValueError(f"payload must have {self.k} coefficients")
            return FieldElement(self, coeffs)
        if self.kind == RATIONAL:
            return FieldElement(self, Fraction(payload))
        a, b = payload
        return FieldElement(self, (Fraction(a), Fraction(b)))

    def __str__(self):
        return format_field(self)

    def __repr__(self):
        return f"FieldDescriptor({format_field(self)})"


def Fp(p):
    return FieldDescriptor(PRIME, p=p)


def Fq(p, k, modulus=None):
    if modulus is None:
        # validated before the search, which is exponential in k
        if not is_prime(p) or not 1 <= k <= MAX_EXTENSION_DEGREE:
            raise ValueError(f"F_{p}^{k} is not a supported extension field")
        modulus = _first_irreducible(p, k)
    return FieldDescriptor(EXTENSION, p=p, k=k, modulus=tuple(modulus))


def Q():
    return FieldDescriptor(RATIONAL)


def Qsqrt(d):
    return FieldDescriptor(QUADRATIC, d=d)


# ---------------------------------------------------------------------------
# field elements


@dataclass(frozen=True)
class FieldElement:
    """An immutable field value in canonical form.

    Payload by kind: residue in [0,p) (prime), length-k coefficient
    tuple (extension, constant coefficient first), Fraction (rational),
    pair of Fractions a + b*sqrt(d) (quadratic).
    """

    field: FieldDescriptor
    payload: object

    def _same(self, other):
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.field != self.field:
            raise MixedFields(f"{self.field} vs {other.field}")

    @property
    def is_zero(self):
        k = self.field.kind
        if k == PRIME:
            return self.payload == 0
        if k == EXTENSION:
            return all(c == 0 for c in self.payload)
        if k == RATIONAL:
            return self.payload == 0
        return self.payload[0] == 0 and self.payload[1] == 0

    def __bool__(self):
        return not self.is_zero

    def __add__(self, other):
        self._same(other)
        F = self.field
        if F.kind == PRIME:
            return FieldElement(F, (self.payload + other.payload) % F.p)
        if F.kind == EXTENSION:
            return FieldElement(F, tuple((x + y) % F.p for x, y in
                                         zip(self.payload, other.payload)))
        if F.kind == RATIONAL:
            return FieldElement(F, self.payload + other.payload)
        a1, b1 = self.payload
        a2, b2 = other.payload
        return FieldElement(F, (a1 + a2, b1 + b2))

    def __neg__(self):
        F = self.field
        if F.kind == PRIME:
            return FieldElement(F, (-self.payload) % F.p)
        if F.kind == EXTENSION:
            return FieldElement(F, tuple((-x) % F.p for x in self.payload))
        if F.kind == RATIONAL:
            return FieldElement(F, -self.payload)
        a, b = self.payload
        return FieldElement(F, (-a, -b))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._same(other)
        F = self.field
        if F.kind == PRIME:
            return FieldElement(F, (self.payload * other.payload) % F.p)
        if F.kind == EXTENSION:
            prod = _pmul(list(self.payload), list(other.payload), F.p)
            _, rem = _pdivmod(prod, list(F.modulus), F.p)
            rem = rem + [0] * (F.k - len(rem))
            return FieldElement(F, tuple(rem[:F.k]))
        if F.kind == RATIONAL:
            return FieldElement(F, self.payload * other.payload)
        a1, b1 = self.payload
        a2, b2 = other.payload
        return FieldElement(F, (a1 * a2 + F.d * b1 * b2, a1 * b2 + a2 * b1))

    def inv(self):
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        F = self.field
        if F.kind == PRIME:
            return FieldElement(F, pow(self.payload, -1, F.p))
        if F.kind == EXTENSION:
            lm, low = [1], list(self.payload)
            hm, high = [0], list(F.modulus)
            while _pdeg(low) > 0:
                quo, rem = _pdivmod(high, low, F.p)
                nm = _psub(hm, _pmul(quo, lm, F.p), F.p)
                hm, high = lm, low
                lm, low = nm, rem
            c_inv = pow(low[0], -1, F.p)
            out = [x * c_inv % F.p for x in lm]
            out = out + [0] * (F.k - len(out))
            return FieldElement(F, tuple(out[:F.k]))
        if F.kind == RATIONAL:
            return FieldElement(F, 1 / self.payload)
        a, b = self.payload
        n = a * a - F.d * b * b
        return FieldElement(F, (a / n, -b / n))

    def __truediv__(self, other):
        self._same(other)
        return self * other.inv()

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self):
        if self.field.kind != QUADRATIC:
            raise WrongKind("conjugate is defined on quadratic elements only")
        a, b = self.payload
        return FieldElement(self.field, (a, -b))

    def norm(self):
        """x * conjugate(x) as a rational; positive definite since d < 0."""
        if self.field.kind != QUADRATIC:
            raise WrongKind("norm is defined on quadratic elements only")
        a, b = self.payload
        return FieldElement(Q(), a * a - self.field.d * b * b)

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"<{format_element(self)} in {format_field(self.field)}>"


def conjugate(x):
    return x.conjugate()


def norm(x):
    return x.norm()


def element_sort_key(x: FieldElement):
    """Deterministic total order on elements of one field.

    For finite fields this is the canonical enumeration order.
    """
    k = x.field.kind
    if k == PRIME:
        return (x.payload,)
    if k == EXTENSION:
        return tuple(reversed(x.payload))
    if k == RATIONAL:
        return (x.payload,)
    return x.payload


# ---------------------------------------------------------------------------
# enumeration and root-free search


def enumerate_field(F: FieldDescriptor):
    """All elements of a finite field, in canonical stable order.

    Prime fields list residues 0..p-1; extension fields follow the
    base-p integer value of the coefficient tuple, so F_4 comes out as
    [0, 1, t, t+1].
    """
    if not F.is_finite:
        raise InfiniteField(f"{F} is not finite")
    if F.kind == PRIME:
        return [FieldElement(F, v) for v in range(F.p)]
    return [FieldElement(F, _base_p_digits(idx, F.p, F.k))
            for idx in range(F.order)]


def eval_univariate(coeffs, a):
    """Evaluate a univariate polynomial (coefficients low to high) at a."""
    acc = a.field.zero()
    for c in reversed(coeffs):
        acc = acc * a + c
    return acc


def find_rootfree_monic(F: FieldDescriptor, m: int):
    """First monic degree-m polynomial over finite F without roots in F.

    Returns the coefficient tuple (low degree first, length m+1, leading
    coefficient one). Candidates are scanned in lexicographic order on
    the lower coefficient tuple, so the result is deterministic.
    """
    if m < 2:
        raise ValueError("degree must be at least 2: every monic linear "
                         "polynomial has a root")
    if not F.is_finite:
        raise InfiniteField("root-free search requires a finite field")
    if F.order ** m > ROOTFREE_SEARCH_GUARD:
        raise TooLarge(f"q^m = {F.order ** m} exceeds the search guard")
    elements = enumerate_field(F)
    one = F.one()
    for tail in itertools.product(elements, repeat=m):
        coeffs = tail + (one,)
        if all(not eval_univariate(coeffs, a).is_zero for a in elements):
            return coeffs
    raise NoneFound(f"no root-free monic of degree {m} over {F}")


def rootfree_scan_position(F: FieldDescriptor, coeffs):
    """1-based position of a monic coefficient tuple in the candidate
    order of `find_rootfree_monic`: the tail read as base-q digits of
    `enumerate_field` indices, most significant first."""
    index = {x: i for i, x in enumerate(enumerate_field(F))}
    position = 0
    for c in coeffs[:-1]:
        position = position * F.order + index[c]
    return position + 1


# ---------------------------------------------------------------------------
# p-adic valuations


@total_ordering
class Valuation:
    """An integer valuation value, or +infinity (the valuation of 0)."""

    __slots__ = ("_v",)

    def __init__(self, value=None):
        if value is not None and not isinstance(value, int):
            raise TypeError("valuation value must be an int or None")
        self._v = value

    @property
    def is_infinite(self):
        return self._v is None

    @property
    def value(self):
        if self._v is None:
            raise ValueError("infinite valuation has no integer value")
        return self._v

    def __eq__(self, other):
        if isinstance(other, Valuation):
            return self._v == other._v
        if isinstance(other, int):
            return self._v == other
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, int):
            other = Valuation(other)
        if not isinstance(other, Valuation):
            return NotImplemented
        if self._v is None:
            return False
        if other._v is None:
            return True
        return self._v < other._v

    def __add__(self, other):
        if isinstance(other, int):
            other = Valuation(other)
        if not isinstance(other, Valuation):
            return NotImplemented
        if self._v is None or other._v is None:
            return Valuation()
        return Valuation(self._v + other._v)

    __radd__ = __add__

    def __hash__(self):
        return hash(self._v)  # agrees with equality to ints

    def __repr__(self):
        return "Valuation(+inf)" if self._v is None else f"Valuation({self._v})"


def _multiplicity(n, p):
    if n == 0:
        raise ValueError("multiplicity of 0 is undefined")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def padic_valuation(r, p) -> Valuation:
    """v_p of a rational: multiplicity of p in the numerator minus the
    multiplicity in the denominator; v_p(0) = +infinity."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if isinstance(r, FieldElement):
        if r.field.kind != RATIONAL:
            raise WrongKind("p-adic valuation applies to rational elements")
        r = r.payload
    r = Fraction(r)
    if r == 0:
        return Valuation()
    return Valuation(_multiplicity(r.numerator, p)
                     - _multiplicity(r.denominator, p))


# ---------------------------------------------------------------------------
# text form: format and parse


def format_field(F: FieldDescriptor) -> str:
    if F.kind == PRIME:
        return f"Fp({F.p})"
    if F.kind == EXTENSION:
        return f"Fq({F.p},{F.k},{_format_tpoly(F.modulus)})"
    if F.kind == RATIONAL:
        return "Q"
    return f"Q(sqrt({F.d}))"


def _format_tpoly(coeffs) -> str:
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            var = "t" if i == 1 else f"t^{i}"
            parts.append(var if c == 1 else f"{c}*{var}")
    return "+".join(parts) if parts else "0"


_TPOLY_TERM = re.compile(r"^(?:(\d+)\*?)?t(?:\^(\d+))?$|^(\d+)$")


def _parse_tpoly(text, p, base_pos):
    coeffs = {}
    pos = base_pos
    for part in text.split("+"):
        m = _TPOLY_TERM.match(part)
        if not m:
            raise ParseError(text, pos, "a term like 't^2', '2*t' or '1'")
        if m.group(3) is not None:
            deg, c = 0, int(m.group(3))
        else:
            deg = int(m.group(2)) if m.group(2) else 1
            c = int(m.group(1)) if m.group(1) else 1
        coeffs[deg] = (coeffs.get(deg, 0) + c) % p
        pos += len(part) + 1
    k = max(coeffs)
    return tuple(coeffs.get(i, 0) for i in range(k + 1))


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def expect(self, literal):
        if not self.text.startswith(literal, self.pos):
            raise ParseError(self.text, self.pos, repr(literal))
        self.pos += len(literal)

    def regex(self, pattern, expected):
        m = re.compile(pattern).match(self.text, self.pos)
        if not m:
            raise ParseError(self.text, self.pos, expected)
        self.pos = m.end()
        return m.group(0)

    def until(self, stop_char, expected):
        idx = self.text.find(stop_char, self.pos)
        if idx < 0:
            raise ParseError(self.text, len(self.text), expected)
        out = self.text[self.pos:idx]
        start = self.pos
        self.pos = idx
        return out, start

    def end(self):
        if self.pos != len(self.text):
            raise ParseError(self.text, self.pos, "end of input")


def parse_field(text: str) -> FieldDescriptor:
    """Parse a field descriptor: Fp(5), Fq(2,3,t^3+t+1), Q, Q(sqrt(-1)).

    Fq(p,k) without a modulus picks the first irreducible one.
    """
    s = _Scanner(text.strip())
    if s.text.startswith("Fp("):
        s.expect("Fp(")
        p = int(s.regex(r"\d+", "a prime"))
        s.expect(")")
        s.end()
        return Fp(p)
    if s.text.startswith("Fq("):
        s.expect("Fq(")
        p = int(s.regex(r"\d+", "a prime"))
        s.expect(",")
        k = int(s.regex(r"\d+", "an extension degree"))
        if s.text[s.pos:] == ")":
            return Fq(p, k)
        s.expect(",")
        body, start = s.until(")", "')' closing the modulus")
        modulus = _parse_tpoly(body, p, start)
        s.expect(")")
        s.end()
        if len(modulus) - 1 != k:
            raise ParseError(text, start, f"a degree-{k} modulus")
        return Fq(p, k, modulus)
    if s.text.startswith("Q(sqrt("):
        s.expect("Q(sqrt(")
        d = int(s.regex(r"-?\d+", "an integer"))
        s.expect("))")
        s.end()
        return Qsqrt(d)
    if s.text == "Q":
        return Q()
    raise ParseError(text, 0, "one of Fp(, Fq(, Q, Q(sqrt(")


def format_element(x: FieldElement) -> str:
    F = x.field
    if F.kind == PRIME:
        return str(x.payload)
    if F.kind == EXTENSION:
        return _format_tpoly(x.payload)
    if F.kind == RATIONAL:
        return str(x.payload)
    a, b = x.payload
    if b == 0:
        return str(a)
    root = f"sqrt({F.d})"
    bpart = root if abs(b) == 1 else f"{abs(b)}*{root}"
    if a == 0:
        return bpart if b > 0 else "-" + bpart
    return f"{a}{'+' if b > 0 else '-'}{bpart}"


_QUADRATIC_RE = re.compile(
    r"^(?:(?P<a>-?\d+(?:/\d+)?)(?=[+-]))?(?P<sign>[+-])?"
    r"(?:(?P<b>\d+(?:/\d+)?)\*)?sqrt\((?P<d>-\d+)\)$")


def parse_element(F: FieldDescriptor, text: str) -> FieldElement:
    """Parse a field element literal in the field's text form."""
    text = text.strip()
    if F.kind == PRIME:
        if not re.fullmatch(r"-?\d+", text):
            raise ParseError(text, 0, "an integer residue")
        return F.element(int(text))
    if F.kind == EXTENSION:
        coeffs = _parse_tpoly(text, F.p, 0)
        if len(coeffs) > F.k:
            raise ParseError(text, 0, f"a polynomial in t of degree < {F.k}")
        return F.element(coeffs + (0,) * (F.k - len(coeffs)))
    if F.kind == RATIONAL:
        if not re.fullmatch(r"-?\d+(/\d+)?", text):
            raise ParseError(text, 0, "a rational like -3 or 5/6")
        return F.element(Fraction(text))
    if "sqrt" not in text:
        if not re.fullmatch(r"-?\d+(/\d+)?", text):
            raise ParseError(text, 0, "a rational or a+b*sqrt(d) literal")
        return F.element((Fraction(text), Fraction(0)))
    m = _QUADRATIC_RE.match(text)
    if not m or int(m.group("d")) != F.d:
        raise ParseError(text, 0, f"an a+b*sqrt({F.d}) literal")
    a = Fraction(m.group("a")) if m.group("a") else Fraction(0)
    b = Fraction(m.group("b")) if m.group("b") else Fraction(1)
    if m.group("sign") == "-":
        b = -b
    return F.element((a, b))
