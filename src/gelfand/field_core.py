"""Exact arithmetic for the supported field instances.

Each kind of field is one `FieldDescriptor` subclass: prime fields F_p,
extension fields F_{p^k} = F_p[t]/(modulus), the rationals Q, and
imaginary quadratic fields Q(sqrt(d)), d < 0. The class owns all that
depends on the kind: validation, the canonical form of an element's
payload, arithmetic on payloads and text form. `FieldElement` is one
immutable (field, payload) pair that delegates to its field. Canonical
payloads make equality structural, and the payload is the element
order: in a finite field it is the element's index in
`enumerate_field`, an int, so sorting by payload gives that canonical
order and ties broken by "smallest element" are reproducible. An
extension field with at most `FIELD_TABLE_CAP` elements multiplies,
inverts and adds through log/antilog (Zech) tables built on first use
(by XOR over F_2); a larger one multiplies coefficient lists. No
floating point is used anywhere.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DivisionByZero,
    InfiniteField,
    MixedFields,
    NoneFound,
    ParseError,
    TooLarge,
    WrongKind,
)

MAX_EXTENSION_DEGREE = 8
ROOTFREE_SEARCH_GUARD = 10 ** 7
RATIONAL_ROOT_GUARD = 10 ** 9   # max |L*c0| and L*f's leading coefficient


# the first 13 primes; as Miller-Rabin bases they decide every n below
# _MR_EXACT_BELOW (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime: trial division by the first 13 primes, then
    Miller-Rabin to those bases. A composite verdict is always right,
    and below _MR_EXACT_BELOW (about 3.3 * 10^24) so is a prime one;
    above it a prime verdict is confirmed by trial division up to
    sqrt(n), which for a large prime does not finish in practice."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        i = 43
        while i * i <= n:
            if n % i == 0:
                return False
            i += 2
    return True


# ---------------------------------------------------------------------------
# dense polynomials over F_p, as int sequences (low degree first); only
# used internally for extension-field moduli and products


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _pmod(a, m, p):
    """a modulo the monic m of degree k, as k coefficients."""
    k = len(m) - 1
    rem = list(a) + [0] * (k - len(a))
    for i in range(len(rem) - 1, k - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        for j in range(k):
            rem[i - k + j] = (rem[i - k + j] - c * m[j]) % p
    return rem[:k]


def base_digits(n, base, count):
    """The count base-`base` digits of n, least significant first."""
    digits = []
    for _ in range(count):
        n, d = divmod(n, base)
        digits.append(d)
    return tuple(digits)


def _is_irreducible(modulus, p):
    """Exhaustive check on a monic modulus of degree k: no monic factor
    of degree 1..k//2 divides it."""
    k = len(modulus) - 1
    for deg in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            if not any(_pmod(modulus, tail + (1,), p)):
                return False
    return True


def _first_irreducible(p, k):
    """Lexicographically first monic irreducible of degree k over F_p.

    Candidates are ordered by the integer value of their lower
    coefficient tuple in base p (constant coefficient least significant).
    """
    for idx in range(p ** k):
        cand = base_digits(idx, p, k) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise NoneFound(f"no irreducible polynomial of degree {k} over F_{p}")


# ---------------------------------------------------------------------------
# field elements


_new = object.__new__
_set = object.__setattr__


@dataclass(frozen=True, init=False, repr=False, slots=True)
class FieldElement:
    """An immutable field value in canonical form.

    Payload by kind: the element's index in `enumerate_field` (prime:
    the residue in [0,p); extension: the int in [0,p^k) whose base-p
    digits, least significant first, are the coefficients of the
    element as a polynomial in t), Fraction (rational), pair of
    Fractions a + b*sqrt(d) (quadratic). The constructor brings the
    payload into that form through its field, or raises ValueError; an
    int is the constant c mod p in a finite field.
    """

    field: FieldDescriptor
    payload: object

    def __init__(self, field, payload):
        _set(self, "field", field)
        _set(self, "payload", field.canonical(payload))

    def _same(self, other):
        """The field that self and other share."""
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        F = self.field
        if other.field is not F and other.field != F:
            raise MixedFields(f"{F} vs {other.field}")
        return F

    @property
    def is_zero(self):
        return self.field.is_zero(self.payload)

    def __bool__(self):
        return not self.is_zero

    def __add__(self, other):
        F = self._same(other)
        return from_payload(F, F.add(self.payload, other.payload))

    def __neg__(self):
        F = self.field
        return from_payload(F, F.neg(self.payload))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = self._same(other)
        return from_payload(F, F.mul(self.payload, other.payload))

    def inv(self):
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        F = self.field
        return from_payload(F, F.inv(self.payload))

    def __truediv__(self, other):
        self._same(other)
        return self * other.inv()

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a non-negative integer")
        F = self.field
        return from_payload(F, F.pow(self.payload, e))

    def conjugate(self):
        return self.field.conjugate(self)

    def norm(self):
        """x * conjugate(x) as a rational; positive definite since d < 0."""
        return self.field.norm(self)

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"<{format_element(self)} in {format_field(self.field)}>"


def from_payload(field, payload):
    """An element from a payload already in canonical form, as the
    field operations produce it; skips the constructor's checks."""
    x = _new(FieldElement)
    _set(x, "field", field)
    _set(x, "payload", payload)
    return x


# ---------------------------------------------------------------------------
# field descriptors, one class per kind


class FieldDescriptor:
    """An exact field instance: F_p, F_{p^k}, Q, or Q(sqrt(d)), d < 0.

    Each kind is a frozen dataclass subclass, hashed by its fields. It
    defines `canonical(payload)`, the payload operations `add`, `neg`,
    `mul` and `inv` (of a nonzero payload), which take and return
    canonical payloads, its own text form `__str__` and the element
    text form `parse(text)`; the defaults below fit scalar payloads.
    `FieldElement` wraps each result of these operations once, and the
    hot kernels call them on payloads directly. Elements are ordered by
    their payloads.
    """

    kind = None
    is_finite = False
    characteristic = 0

    def __eq__(self, other):
        # identity first: elements, polynomials and ring elements compare
        # their descriptors on every operation
        return self is other or (type(other) is type(self)
                                 and vars(other) == vars(self))

    @property
    def order(self):
        raise InfiniteField("infinite field has no order")

    def element(self, payload):
        """Construct an element from a raw payload, canonicalizing it."""
        return FieldElement(self, payload)

    def zero(self):
        return FieldElement(self, 0)

    def one(self):
        return FieldElement(self, 1)

    def is_zero(self, a):
        return a == 0

    def pow(self, a, e):
        """a**e for an int e >= 0 by square-and-multiply: a**(2^k) takes
        k products, and the unit is built for e = 0 only, never as a
        factor."""
        mul, result = self.mul, None if e else self.canonical(1)
        while e:
            if e & 1:
                result = a if result is None else mul(result, a)
            e >>= 1
            if e:
                a = mul(a, a)
        return result

    def format(self, x):
        return str(x.payload)

    def conjugate(self, x):
        raise WrongKind("conjugate is defined on quadratic elements only")

    def norm(self, x):
        raise WrongKind("norm is defined on quadratic elements only")

    def __repr__(self):
        return f"FieldDescriptor({format_field(self)})"


class FiniteField(FieldDescriptor):
    """The finite kinds: an element's payload is its index in
    `enumerate_field`."""

    is_finite = True

    @property
    def characteristic(self):
        return self.p

    def element_at(self, i):
        """The element at position i mod q of `enumerate_field`."""
        return from_payload(self, i % self.order)


@dataclass(frozen=True, eq=False, unsafe_hash=True, repr=False)
class PrimeField(FiniteField):
    """F_p; an element's payload is its residue."""

    p: int
    kind = "prime"

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def order(self):
        return self.p

    def canonical(self, payload):
        return int(payload) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def __str__(self):
        return f"Fp({self.p})"

    def parse(self, text):
        _scan(text, 0, [(r"-?\d+", "an integer residue")])
        return self.element(int(text))


# fields with at most this many elements do their arithmetic through
# log/antilog tables; larger ones multiply coefficient lists
FIELD_TABLE_CAP = 2 ** 16


@dataclass(frozen=True, eq=False, unsafe_hash=True, repr=False)
class ExtensionField(FiniteField):
    """F_{p^k} = F_p[t]/(modulus); an element's payload is the int whose
    base-p digits, least significant first, are its k coefficients,
    constant coefficient first.

    For q <= FIELD_TABLE_CAP, the arithmetic reads tables indexed by
    the payload, built on first use from a primitive element g (the
    scheme of the `galois` package, https://github.com/mhostetter/galois):
    `_exp[i]` = g^i and `_log[g^i]` = i, so that a product is
    g^(log a + log b), and Zech logarithms `_zech[d]` = log(1 + g^d),
    so that g^i + g^j = g^(i + zech[j - i]). The zero element has the
    sentinel log 2(q-1), whose sums index a run of zeros at the end of
    `_exp`. Over F_2 the sum is the XOR of payloads. Above the cap,
    `_log` is None and the operations decode the digits and multiply by
    `_pmul`/`_pmod`.
    """

    p: int
    k: int
    modulus: tuple = None
    kind = "extension"
    # kept out of the instance dict, so that equality and hashing see
    # the dataclass fields only; filled by __getattr__ on first use
    __slots__ = ("_log", "_exp", "_zech")

    def __post_init__(self):
        """Without a modulus, the first irreducible one is picked."""
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if not 1 <= self.k <= MAX_EXTENSION_DEGREE:
            raise ValueError(
                f"extension degree must be in 1..{MAX_EXTENSION_DEGREE}")
        # p and k are checked first: the search is exponential in k
        _set(self, "modulus", tuple(_first_irreducible(self.p, self.k)
                                    if self.modulus is None else self.modulus))
        if len(self.modulus) != self.k + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if any(not 0 <= c < self.p for c in self.modulus):
            raise ValueError("modulus coefficients must lie in [0, p)")
        if not _is_irreducible(self.modulus, self.p):
            raise ValueError("modulus is reducible over F_p")

    def __getattr__(self, name):
        # reached only while the table slots are empty
        if name not in ExtensionField.__slots__:
            raise AttributeError(name)
        self._build_tables()
        return getattr(self, name)

    def __reduce__(self):
        # copies and pickles start without tables
        return type(self), (self.p, self.k, self.modulus)

    def _build_tables(self):
        q, p = self.order, self.p
        if q > FIELD_TABLE_CAP:
            _set(self, "_log", None)
            return
        n = q - 1
        g = self._primitive()
        exp, power = [], (1,)
        for _ in range(n):
            exp.append(self._encode(power))
            power = self._dmul(power, g)
        log = [2 * n] * q
        for i, a in enumerate(exp):
            log[a] = i
        # 1 + g^d changes the constant coefficient, the lowest digit, only
        _set(self, "_zech", [log[a - a % p + (a + 1) % p] for a in exp])
        _set(self, "_exp", exp + exp + [0] * (2 * n + 1))
        _set(self, "_log", log)

    def _primitive(self):
        """The digits of the first element, in index order, of order
        q - 1: the first g with g^((q-1)/r) != 1 for each prime r."""
        n = self.order - 1
        primes = [r for r in range(2, n + 1) if n % r == 0 and is_prime(r)]
        for i in range(1, n + 1):
            g = self._digits(i)
            if all(self._encode(self._dpow(g, n // r)) != 1 for r in primes):
                return g
        raise NoneFound(f"no primitive element in {self}")

    @property
    def order(self):
        return self.p ** self.k

    def _digits(self, a):
        return base_digits(a, self.p, self.k)

    def _encode(self, digits):
        i = 0
        for c in reversed(digits):
            i = i * self.p + c
        return i

    def _dmul(self, u, v):
        return tuple(_pmod(_pmul(u, v, self.p), self.modulus, self.p))

    def _dpow(self, u, e):
        result = (1,)
        for bit in bin(e)[2:]:
            result = self._dmul(result, result)
            if bit == "1":
                result = self._dmul(result, u)
        return result

    def canonical(self, payload):
        """An int is a constant; a sequence gives all k coefficients."""
        if isinstance(payload, int):
            return payload % self.p
        coeffs = [int(c) % self.p for c in payload]
        if len(coeffs) != self.k:
            raise ValueError(f"payload must have {self.k} coefficients")
        return self._encode(coeffs)

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        log = self._log
        if log is None:
            return self._encode([(u + v) % self.p for u, v in
                                 zip(self._digits(a), self._digits(b))])
        if not a:
            return b
        if not b:
            return a
        la = log[a]
        return self._exp[la + self._zech[log[b] - la]]

    def neg(self, a):
        if self.p == 2:
            return a
        log = self._log
        if log is None:
            return self._encode([-u % self.p for u in self._digits(a)])
        # -1 = g^((q-1)/2)
        return self._exp[log[a] + (len(log) - 1) // 2]

    def mul(self, a, b):
        log = self._log
        if log is None:
            return self._encode(self._dmul(self._digits(a), self._digits(b)))
        return self._exp[log[a] + log[b]]

    def inv(self, a):
        log = self._log
        if log is None:
            return self.pow(a, self.order - 2)
        return self._exp[len(log) - 1 - log[a]]

    def pow(self, a, e):
        log = self._log
        if log is None:
            return super().pow(a, e)
        if not a:
            return 0 if e else 1
        return self._exp[log[a] * e % (len(log) - 1)]

    def __str__(self):
        return f"Fq({self.p},{self.k},{_format_tpoly(self.modulus)})"

    def format(self, x):
        return _format_tpoly(self._digits(x.payload))

    def parse(self, text):
        coeffs = _parse_tpoly(text, 0, len(text), self.p, self.k - 1)
        return self.element(coeffs + (0,) * (self.k - len(coeffs)))


@dataclass(frozen=True, eq=False, unsafe_hash=True, repr=False)
class RationalField(FieldDescriptor):
    """Q; an element's payload is a Fraction."""

    kind = "rational"

    def canonical(self, payload):
        return Fraction(payload)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / a

    def __str__(self):
        return "Q"

    def parse(self, text):
        _scan(text, 0, [(_RATIONAL, "a rational like -3 or 5/6")])
        return self.element(Fraction(text))


@dataclass(frozen=True, eq=False, unsafe_hash=True, repr=False)
class QuadraticField(FieldDescriptor):
    """Q(sqrt(d)), d < 0; an element's payload is the pair of Fractions
    (a, b) of a + b*sqrt(d)."""

    d: int
    kind = "quadratic"

    def __post_init__(self):
        if self.d >= 0:
            raise ValueError("d must be a negative non-square integer")

    def canonical(self, payload):
        """A rational number is the element with b = 0."""
        a, b = payload if isinstance(payload, (tuple, list)) else (payload, 0)
        return (Fraction(a), Fraction(b))

    def is_zero(self, u):
        return not any(u)

    def add(self, u, v):
        (a1, b1), (a2, b2) = u, v
        return (a1 + a2, b1 + b2)

    def neg(self, u):
        a, b = u
        return (-a, -b)

    def mul(self, u, v):
        (a1, b1), (a2, b2) = u, v
        return (a1 * a2 + self.d * b1 * b2, a1 * b2 + a2 * b1)

    def inv(self, u):
        a, b = u
        n = a * a - self.d * b * b
        return (a / n, -b / n)

    def conjugate(self, x):
        a, b = x.payload
        return from_payload(self, (a, -b))

    def norm(self, x):
        a, b = x.payload
        return from_payload(Q(), a * a - self.d * b * b)

    def __str__(self):
        return f"Q(sqrt({self.d}))"

    def format(self, x):
        a, b = x.payload
        if b == 0:
            return str(a)
        root = f"sqrt({self.d})"
        bpart = root if abs(b) == 1 else f"{abs(b)}*{root}"
        if a == 0:
            return bpart if b > 0 else "-" + bpart
        return f"{a}{'+' if b > 0 else '-'}{bpart}"

    def parse(self, text):
        if re.fullmatch(_RATIONAL, text):
            return self.element(Fraction(text))
        head = _QUADRATIC_HEAD.match(text)
        a, sign, b, star = head.groups()
        if b and not star and re.compile(_ZERO_DENOMINATOR).match(
                text, head.end()):
            raise ParseError(text, head.end() + 1, "a nonzero denominator")
        # what may stand at the end of the head, where 'sqrt(' is missing
        expected = ("'*' or a sign" if b and not star else
                    "'sqrt('" if b else
                    "a number or 'sqrt('" if sign else
                    "a number, a sign or 'sqrt('")
        _, d, _ = _scan(text, head.end(),
                        [(r"sqrt\(", expected)] + _QUADRATIC_TAIL)
        if b and not star:
            raise ParseError(text, head.end(3), "'*'")
        if int(d[0]) != self.d:
            raise ParseError(text, d.start(), f"sqrt({self.d})")
        b = Fraction(b or 1)
        return self.element((Fraction(a or 0), -b if sign == "-" else b))


Fp, Fq, Q, Qsqrt = PrimeField, ExtensionField, RationalField, QuadraticField


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
    return [F.element_at(i) for i in range(F.order)]


def first_root(F: FieldDescriptor, coeffs, start):
    """The first root at or after index start, or None, of the polynomial
    over finite F with payload coefficients coeffs (low degree first), by
    Horner's rule on payloads; a root is an index, i.e. a payload."""
    mul, add = F.mul, F.add
    top, rest = coeffs[-1], coeffs[-2::-1]
    for a in range(start, F.order):
        acc = top
        for c in rest:
            acc = add(mul(acc, a), c)
        if not acc:
            return a
    return None


def first_rational_root(coeffs):
    """The first rational root, or None, of the polynomial with Fraction
    coefficients coeffs (low degree first, the last nonzero), by the
    rational root theorem.

    With L the lcm of the denominators, L*f has int coefficients, and a
    root in lowest terms is +-u/v with u | L*c0 and v dividing L*f's
    leading coefficient (L for a monic f); 0 is a root exactly when
    c0 = 0. Candidates are tried by v, then u, ascending, u/v before
    -u/v, each by Horner's rule on v^m*L*f(s/v) in ints.
    RATIONAL_ROOT_GUARD bounds |L*c0| and the leading coefficient, and
    is checked before any trial division.
    """
    lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * lcm) for c in coeffs]
    if not ints[0]:
        return Fraction(0)
    size = max(abs(ints[0]), abs(ints[-1]))
    if size > RATIONAL_ROOT_GUARD:
        raise TooLarge(
            f"the rational root test divides |L*c0| = {abs(ints[0])} and "
            f"the leading coefficient {abs(ints[-1])}; the guard is "
            f"{RATIONAL_ROOT_GUARD}", guard="RATIONAL_ROOT_GUARD",
            limit=RATIONAL_ROOT_GUARD, requested=size)
    numerators = _divisors(abs(ints[0]))
    rest = ints[-2::-1]
    for v in _divisors(abs(ints[-1])):
        for u in numerators:
            if math.gcd(u, v) != 1:
                continue
            for s in (u, -u):
                acc, w = ints[-1], v
                for a in rest:
                    acc, w = acc * s + a * w, w * v
                if not acc:
                    return Fraction(s, v)
    return None


def _divisors(n):
    """The positive divisors of n >= 1, ascending, by trial division."""
    low, high = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            low.append(d)
            if d * d != n:
                high.append(n // d)
        d += 1
    return low + high[::-1]


def find_rootfree_monic(F: FieldDescriptor, m: int):
    """First monic degree-m polynomial over finite F without roots in F.

    Returns the coefficient tuple (low degree first, length m+1, leading
    coefficient one), the first in lexicographic order on the lower
    coefficients, c0 first; `candidates_scanned` is its position in that
    order (`rootfree_scan_position`). As f(0) = c0, the tails with c0 = 0
    are ruled out without evaluation: the scan starts at the first tail
    with c0 != 0 and tries the nonzero elements only.
    """
    if m < 2:
        raise ValueError("degree must be at least 2: every monic linear "
                         "polynomial has a root")
    if not F.is_finite:
        raise InfiniteField("root-free search requires a finite field")
    q = F.order
    candidates = q ** m
    if candidates > ROOTFREE_SEARCH_GUARD:
        raise TooLarge(f"q^m = {candidates} exceeds the search guard",
                       guard="ROOTFREE_SEARCH_GUARD",
                       limit=ROOTFREE_SEARCH_GUARD, requested=candidates)
    # payloads are indices, and the payload of one is 1
    for tail in itertools.product(range(1, q), *[range(q)] * (m - 1)):
        if first_root(F, tail + (1,), 1) is None:
            return tuple(from_payload(F, c) for c in tail) + (F.one(),)
    raise NoneFound(f"no root-free monic of degree {m} over {F}")


def rootfree_scan_position(F: FieldDescriptor, coeffs):
    """1-based position of a monic coefficient tuple in the candidate
    order of `find_rootfree_monic`: the tail's payloads, which are
    element indices, read as base-q digits, most significant first."""
    position = 0
    for c in coeffs[:-1]:
        position = position * F.order + c.payload
    return position + 1


# ---------------------------------------------------------------------------
# text form: format and parse


def format_field(F: FieldDescriptor) -> str:
    return str(F)


# a zero denominator is not part of a literal
_NUMBER = r"\d+(?:/0*[1-9]\d*)?"
_RATIONAL = "-?" + _NUMBER
# [a][+-][b*]sqrt(d): a head that always matches, then 'sqrt(' and the
# tail pieces for _scan; a rational part a stands only before a sign, so
# 12*sqrt(-3) has b = 12. The '*' after b is optional here so that a
# missing one is reported where it belongs
_QUADRATIC_HEAD = re.compile(
    rf"(?:({_RATIONAL})(?=[+-]))?([+-]?)(?:({_NUMBER})(\*)?)?")
_QUADRATIC_TAIL = [(r"-?\d+", "an integer"), (r"\)", "')'")]
# what stops a number short of its '/': a denominator of zeros or none
_ZERO_DENOMINATOR = r"/0*(?![1-9])"


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


def _parse_tpoly(text, start, end, p, max_degree):
    """Coefficients mod p, constant first, of the polynomial in t written
    in text[start:end]; errors carry the offset of the bad term in text."""
    coeffs = {}
    pos = start
    for part in text[start:end].split("+"):
        m = _TPOLY_TERM.match(part)
        if not m:
            raise ParseError(text, pos, "a term like 't^2', '2*t' or '1'")
        if m.group(3) is not None:
            deg, c = 0, int(m.group(3))
        else:
            deg = int(m.group(2)) if m.group(2) else 1
            c = int(m.group(1)) if m.group(1) else 1
        if deg > max_degree:
            raise ParseError(text, pos,
                             f"a term in t of degree at most {max_degree}")
        coeffs[deg] = (coeffs.get(deg, 0) + c) % p
        pos += len(part) + 1
    return tuple(coeffs.get(i, 0) for i in range(max(coeffs) + 1))


def _scan(text, pos, pieces):
    """Match (pattern, expected) pieces one after another from pos to the
    end of text; the matches, or a ParseError where a piece fails."""
    matches = []
    for pattern, expected in pieces:
        m = re.compile(pattern).match(text, pos)
        if not m:
            raise ParseError(text, pos, expected)
        matches.append(m)
        pos = m.end()
    if pos != len(text):
        raise ParseError(text, pos, "end of input")
    return matches


def parse_field(text: str) -> FieldDescriptor:
    """Parse a field descriptor: Fp(5), Fq(2,3,t^3+t+1), Q, Q(sqrt(-1)).

    Fq(p,k) without a modulus picks the first irreducible one.
    """
    text = text.strip()
    if text == "Q":
        return Q()
    if text.startswith("Fp("):
        p, _ = _scan(text, 3, [(r"\d+", "a prime"), (r"\)", "')'")])
        return Fp(int(p[0]))
    if text.startswith("Q(sqrt("):
        d, _ = _scan(text, 7, [(r"-?\d+", "an integer"), (r"\)\)", "'))'")])
        return Qsqrt(int(d[0]))
    if text.startswith("Fq("):
        p, _, k, body, _ = _scan(text, 3, [
            (r"\d+", "a prime"), (",", "','"), (r"\d+", "an extension degree"),
            (r"(,[^)]*)?", ""), (r"\)", "')'")])
        p, k = int(p[0]), int(k[0])
        if not body[0]:
            return Fq(p, k)
        modulus = _parse_tpoly(text, body.start() + 1, body.end(), p, k)
        if len(modulus) - 1 != k:
            raise ParseError(text, body.start() + 1, f"a degree-{k} modulus")
        return Fq(p, k, modulus)
    raise ParseError(text, 0, "one of Fp(, Fq(, Q, Q(sqrt(")


def format_element(x: FieldElement) -> str:
    return x.field.format(x)


def parse_element(F: FieldDescriptor, text: str) -> FieldElement:
    """Parse a field element literal in the field's text form; a
    ParseError carries the offset of the bad character or term in the
    stripped literal."""
    return F.parse(text.strip())
