"""Polynomials whose only zero is the origin, and their verification.

The n-variable form is the composition tower
f2(f2(...f2(x1, x2)...), xn) over the homogenization f2 of a root-free
monic univariate f of degree m. A `Tower` holds f and keeps the form
nested: it evaluates a point with n - 1 evaluations of f2 (over Q on
integer pairs, with no gcd per operation), verifies a finite field by
streaming the rows of f2's q x q table, built by f2(u, v) = v^m * f(u/v)
and listed only for n >= 3, where later levels look rows up, and expands
to a `MultiPoly` only for a report (`expand`, which `build_fn` calls),
under FORM_TERMS_GUARD. The expansion multiplies no polynomials in several
variables: as f2 is homogeneous, the terms of T_k^e are those of the
T_(k-1)^j times the coefficients of the univariate power f^e, so each
term of the form is one chain of exponents, built in one pass from xn
down, and the guard counts each level's terms exactly from the powers
of f alone, before that level is built. A power f^e with e divisible
by the characteristic p is the Frobenius image of f^(e/p), exponents
times p and coefficients to the p-th power, and any other is one
product f^(e-1)*f. The expanded form stays the reference:
`verify_vanishing_exhaustive` checks any form term by term at every
point. `Tower.record` writes the base, the arity, the expanded form (or
the guard's refusal in its place) and a verification. Over Q the tower
is refused on a rational root of f, each candidate evaluated on int
pairs as a sample is, before its seeded samples are read
(`RationalTower.verify_sampled`), which are then read and evaluated one
at a time. The other stand-ins over the rationals are the
positive-definite norm form on Q(sqrt(d)) and the valuation identity for
x^2 - p*y^2, also checked on ints.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
import operator
import sys
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
    RATIONALS,
    FieldDescriptor,
    FieldElement,
    Q,
    Qsqrt,
    base_digits,
    enumerate_field,
    first_root,
    from_payload,
    is_prime,
    payload_values,
    power_within,
    rootfree_payloads,
)
from .poly import MultiPoly, format_poly, homogenize2, point_payloads

EXHAUSTIVE_GUARD = 10 ** 7
FORM_TERMS_GUARD = 2 ** 10   # max terms of a tower level's form, counted first
RATIONAL_ROOT_GUARD = 10 ** 9   # max |L*c0| and L*f's leading coefficient


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
    """The arity-n composition tower f2(f2(...f2(x1, x2)...), xn) over a
    univariate base, kept nested. f2 is the homogenized base, or None for
    n = 1, where the tower is x1. `Tower.over` builds it from the base.
    """

    base: MultiPoly
    f2: MultiPoly
    arity: int

    @staticmethod
    def over(f: MultiPoly, n: int) -> Tower:
        """The tower over a monic univariate f of degree at least 2 (any
        f for n = 1). The base is not checked to be root-free, which the
        form's only zero at the origin needs: `build_fn` checks it over a
        finite field, and `verify_sampled` over Q."""
        if n < 1:
            raise ValueError("arity must be at least 1")
        if f.arity != 1:
            raise ValueError("base polynomial must be univariate")
        kind = RationalTower if isinstance(f.field, Q) else Tower
        if n == 1:
            return kind(f, None, 1)
        m = f.degree
        if m is None or m < 2:
            raise ValueError("base polynomial must have degree at least 2")
        return kind(f, homogenize2(f), n)

    @property
    def field(self) -> FieldDescriptor:
        return self.base.field

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
        the zero element. T[u][v] codes f2(u, v); from the values of x1,
        each further variable replaces every value v by the row T[v].
        So x2 maps x1's values 0..q-1 to T's rows in order, streamed
        from `_f2_rows`, and T is listed only for n >= 3, where rows are
        looked up. The levels stream as one lazy chain in lexicographic
        point order, read up to the first zero off the origin; a
        counterexample is the smallest one, as with
        `verify_vanishing_exhaustive(self.expand())`."""
        field, n = self.field, self.arity
        points = _enumeration_size(field, n)
        q = field.order
        values = iter(range(q))
        if n > 1:
            rows = self._f2_rows()
            table = list(rows) if n > 2 else rows
            values = itertools.chain.from_iterable(table)
            for _ in range(n - 2):
                values = itertools.chain.from_iterable(
                    map(table.__getitem__, values))
        try:
            bad = 0 if next(values) != 0 else operator.indexOf(values, 0) + 1
        except ValueError:
            return ExhaustivePassed(points)
        digits = base_digits(bad, q, n)
        return Failed(tuple(field.element_at(i) for i in reversed(digits)))

    def _f2_rows(self):
        """The rows T[u] = [f2(u, v) for all payloads v], u = 0..q-1 in
        order, each built as it is read, by f2(u, v) = v^m * f(u/v): f is
        evaluated once per payload (`payload_values`), T[u][0] = u^m as f
        is monic, and any other entry is two products v^m * f(u * v^-1)."""
        F, m = self.field, self.f2.degree
        mul, q = F.mul, F.order
        f = list(payload_values(F, dense_payloads(self.base)))
        powers = [F.pow(v, m) for v in range(q)]
        inverses = [0] + [F.inv(v) for v in range(1, q)]
        return ([powers[u]] + [mul(powers[v], f[mul(u, inverses[v])])
                               for v in range(1, q)]
                for u in range(q))

    def expand(self) -> MultiPoly:
        """The tower as a MultiPoly, by exponent chains.

        With [f^e]_j the coefficient of y^j in f(y)^e, f2(y, z)^e =
        z^(m*e) * f(y/z)^e gives T_k^e = sum_j [f^e]_j * T_(k-1)^j *
        x_k^(m*e - j), and T_1^e = x1^e. Distinct j give distinct
        exponents of x_k, so no two terms merge and none vanishes: each
        term of the form is one chain of exponents. One pass builds
        them from the top down, from the chain of T_n^1 (no exponents,
        coefficient 1, e = 1): each level replaces a chain (exponents,
        a, e) by one chain per [f^e]_j = c != 0, with m*e - j
        prepended, coefficient a*c and e = j. The last level, that of
        x2, writes each monomial out whole, x1's exponent j first,
        straight into the form.

        The chains below level L number N_L(1), the terms of the form
        T_L, which the level above composes. FORM_TERMS_GUARD bounds
        T_L for each L = 1..n-1 and is checked on that exact count, the
        sum of the term counts of the powers f^e the chains reach,
        before the level's chains are built.
        """
        F, n = self.field, self.arity
        if self.f2 is None:
            return MultiPoly.from_payloads(F, 1, {(1,): F.canonical(1)})
        power, m, mul = _powers(self.base), self.f2.degree, F.mul
        chains = [((), F.canonical(1), 1)]
        _check_form_terms(1, 1)
        for level in range(2, n):
            _check_form_terms(level, sum(len(power(e)) for _, _, e in chains))
            chains = [((m * e - j,) + mono, mul(a, c), j)
                      for mono, a, e in chains for j, c in power(e)]
        return MultiPoly.from_payloads(F, n, {
            (j, m * e - j) + mono: mul(a, c)
            for mono, a, e in chains for j, c in power(e)})

    def structure(self):
        """The nesting, for a report that does not print the form."""
        n = self.arity
        nest = "x1"
        if n == 1:
            return {"nesting": nest, "levels": 0}
        if n > 4:
            nest = f"f2(...f2(x1, x2)..., x{n - 1})"
        else:
            for k in range(2, n):
                nest = f"f2({nest}, x{k})"
        return {"f2": format_poly(self.f2), "nesting": f"f2({nest}, x{n})",
                "levels": n - 1}

    def record(self, verification):
        """The tower's report with a verification: the base, the arity,
        the form `expand` gives, or `form_withheld` (the refusal
        and the nesting) in its place when FORM_TERMS_GUARD refuses the
        expansion, the degree and the verification. A form that holds an
        int with more digits than Python writes (an exponent or a
        coefficient) is withheld as well, under the guard
        INT_MAX_STR_DIGITS; such a degree is written as the text
        m^(n-1)."""
        record = {"base": format_poly(self.base), "arity": self.arity}
        try:
            record["form"] = format_poly(self.expand())
        except TooLarge as exc:
            record["form_withheld"] = {
                "guard": exc.guard, "limit": exc.limit,
                "requested": exc.requested, **self.structure()}
        except ValueError:  # str(int) past sys.get_int_max_str_digits()
            record["form_withheld"] = {
                "guard": "INT_MAX_STR_DIGITS",
                "limit": sys.get_int_max_str_digits(), "requested": None,
                **self.structure()}
        degree = self.degree
        if _decimal(degree) is None:
            degree = f"{self.f2.degree}^{self.arity - 1}"
        record["degree"] = degree
        record["verification"] = verification.to_json()
        return record


class RationalTower(Tower):
    """A tower over Q, evaluated on integer pairs.

    f2 is homogeneous of degree m, so with T_{k-1} = N/E and x_k = a/b,
    T_k = f2(N*b, a*E) / (E*b)^m. With L the lcm of the denominators of
    f2's coefficients, N_k = (L*f2)(N*b, a*E) and E_k = L*(E*b)^m are
    integers and E_k is not zero: the zero test reads N != 0, and a
    value becomes one Fraction at the end. No pair needs lowest terms:
    a coordinate is any pair of ints with a nonzero denominator of
    either sign, such as the seeded pairs the CLI draws (numerators in
    -99..99, denominators in 1..99), and a pair holding anything but
    ints is refused (`_ratio`). Each level evaluates L*f2 at (u, v) by
    homogeneous Horner's rule on its dense coefficients c_0..c_m of
    u^m, u^(m-1)*v, ..., v^m: N = c_0, then N = N*u + c_k*v^k for
    k = 1..m, the powers of v built one product at a time, so N costs
    3m int products a level and no exponent is read.
    """

    @cached_property
    def _cleared(self):
        """L, the lcm of f's terms' denominators, and the int coefficients
        c_0..c_m of L*f2 from u^m down to v^m, c_k = L times f's coefficient
        of y^(m-k), zeros included, as c_0 and the list c_1..c_m."""
        terms, m = self.base.payload_terms, self.base.degree
        lcm = math.lcm(*(c.denominator for _, c in terms))
        dense = [0] * (m + 1)
        for (i,), c in terms:
            dense[m - i] = c.numerator * (lcm // c.denominator)
        return lcm, dense[0], dense[1:]

    def _pair(self, pairs):
        """(N, E) at the point whose coordinates are the int pairs
        (numerator, denominator)."""
        num, den = pairs[0]
        if self.f2 is None:
            return num, den
        lcm, top, rest = self._cleared
        m = len(rest)
        for a, b in pairs[1:]:
            u, v = num * b, a * den
            num, vk = top, 1
            for c in rest:
                vk *= v
                num = num * u + c * vk
            den = lcm * (den * b) ** m
        return num, den

    def evaluate_payloads(self, xs):
        return Fraction(*self._pair([_ratio(x) for x in xs]))

    def rational_root(self):
        """The first rational root of the base, or None: 0 when c0 = 0,
        else by the rational root theorem on `_cleared`, as a root s/v in
        lowest terms has |s| dividing L*c0 and v dividing L, L*f's
        leading coefficient as f is monic. Candidates go by v, then |s|,
        ascending, s before -s, each decided by the numerator of `_pair`
        at (s/v, 1), L*f2(s, v) = L*v^m*f(s/v). RATIONAL_ROOT_GUARD
        bounds |L*c0| and L before any trial division."""
        lcm, _, rest = self._cleared
        c0 = abs(rest[-1])
        if not c0:
            return Fraction(0)
        TooLarge.check(
            "RATIONAL_ROOT_GUARD", RATIONAL_ROOT_GUARD, max(c0, lcm),
            lambda: "the rational root test divides |L*c0| = {} and the "
            "leading coefficient {}; the guard is {}".format(
                *(_decimal(k) or f"an int of {k.bit_length()} bits"
                  for k in (c0, lcm)), RATIONAL_ROOT_GUARD))
        numerators = _divisors(c0)
        for v in _divisors(lcm):
            for u in numerators:
                if math.gcd(u, v) == 1:
                    for s in (u, -u):
                        if self._pair(((s, v), (1, 1)))[0] == 0:
                            return Fraction(s, v)
        return None

    def verify_sampled(self, points):
        """Check that the tower vanishes at the origin and at none of the
        given points, on int pairs in one pass: the origin first, then
        each point as it is read, so no point is held once checked; the
        first violation is reported, and a pass covers only the points
        given. Each coordinate is anything `_ratio` reads, an int pair in
        lowest terms or not; an int pair with a nonzero denominator, as
        the CLI draws it, is read inline, without `_ratio`, and anything
        else goes through it. A point without exactly n coordinates is
        refused when it is read, after any violation before it. Only a
        counterexample is made into elements, in lowest terms. For n >= 2
        a rational root r of the base gives the zero (r, 1, 0, ..., 0),
        as f2(r, 1) = f(r) = 0 and f2(0, 0) = 0, before any point is
        read: the tower's own integer kernel, `_pair`, decides each
        candidate of the rational root theorem (`rational_root`, under
        RATIONAL_ROOT_GUARD)."""
        F, n = self.field, self.arity
        if self.f2 is not None:
            root = self.rational_root()
            if root is not None:
                return Failed((from_payload(F, root), F.one())
                              + (F.zero(),) * (n - 2))
        # the origin is read first, so `read` ends at the count of points
        for read, point in enumerate(
                itertools.chain([[(0, 1)] * n], points)):
            pt = []
            for x in point:
                if not (type(x) is tuple and len(x) == 2
                        and type(x[0]) is int is type(x[1]) and x[1]):
                    x = _ratio(x)
                pt.append(x)
            if len(pt) != n:
                raise ArityMismatch(f"point has {len(pt)} coordinates, "
                                    f"arity is {n}")
            # a violation is a zero value off the origin or a nonzero one
            # at it; the first numerator decides most points
            if (self._pair(pt)[0] == 0) == (pt[0][0] != 0
                                            or any(a for a, _ in pt)):
                return Failed(tuple(from_payload(F, Fraction(a, b))
                                    for a, b in pt))
        return SampledPassed(read)


def _ratio(x):
    """(numerator, denominator) of an element of Q or of a number that
    `Fraction` reads (an int, a Fraction, a float, a Decimal or a string
    like '1/2'); an int pair (numerator, denominator) is returned as it
    is, once its denominator is checked to be nonzero, and a pair whose
    entries are not ints (read through `operator.index`, so a float or
    a Fraction) raises TypeError, as the sample loops do int arithmetic
    on it. An element of another field is refused."""
    if isinstance(x, tuple):
        a, b = x
        if type(a) is not int or type(b) is not int:
            try:
                x = a, b = operator.index(a), operator.index(b)
            except TypeError:
                raise TypeError(f"an int pair must hold ints, got "
                                f"{type(a).__name__} and "
                                f"{type(b).__name__}") from None
        if not b:
            raise ZeroDivisionError(f"the pair {x} has denominator 0")
        return x
    if isinstance(x, FieldElement):
        if not isinstance(x.field, Q):
            raise WrongKind(f"expected an element of Q, got one of {x.field}")
        x = x.payload
    elif not isinstance(x, numbers.Rational):
        x = Fraction(x)
    return x.numerator, x.denominator


def dense_payloads(f):
    """The payloads of the univariate f's coefficients, low degree first,
    zeros included."""
    dense = [f.field.canonical(0)] * (f.degree + 1)
    for (i,), c in f.payload_terms:
        dense[i] = c
    return dense


def _powers(f):
    """e -> the nonzero coefficients of f(y)^e as (j, payload) pairs, for
    the monic univariate f, each power built once. In characteristic
    p > 0, f^(p*e) is the Frobenius image of f^e: (sum a*y^j)^p = sum
    a^p*y^(p*j), as every cross term of a p-th power has a binomial
    coefficient divisible by p, so no term merges or vanishes. Any other
    f^e is one product f^(e-1)*f, with its zero coefficients dropped; a
    monomial y^m has the powers y^(m*e) without any product."""
    F = f.field
    mul, add, is_zero, p = F.mul, F.add, F.is_zero, F.characteristic
    base = [(mono[0], c) for mono, c in f.payload_terms]
    powers = {0: [(0, F.canonical(1))], 1: base}

    def power(want):
        if len(base) == 1:
            return [(f.degree * want, base[0][1])]
        chain, e = [], want
        while e not in powers:
            chain.append(e)
            e = e // p if p and e % p == 0 else e - 1
        for e in reversed(chain):
            if p and e % p == 0:
                powers[e] = [(j * p, F.pow(a, p)) for j, a in powers[e // p]]
                continue
            acc = {}
            for j1, a1 in powers[e - 1]:
                for j2, a2 in base:
                    c = mul(a1, a2)
                    j = j1 + j2
                    acc[j] = add(acc[j], c) if j in acc else c
            powers[e] = [(j, c) for j, c in acc.items() if not is_zero(c)]
        return powers[want]

    return power


def _divisors(n):
    """The positive divisors of n >= 1, ascending, by trial division."""
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return low + [n // d for d in reversed(low) if d * d != n]


def _decimal(n):
    """The decimal text of the int n, or None when n has more digits
    than Python writes (`sys.get_int_max_str_digits`, from 3.10.7)."""
    try:
        return str(n)
    except ValueError:
        return None


def _check_form_terms(level, terms):
    TooLarge.check(
        "FORM_TERMS_GUARD", FORM_TERMS_GUARD, terms,
        lambda: f"level {level} of the tower expansion composes a form of "
        f"exactly {terms} terms; the form-terms guard is "
        f"{FORM_TERMS_GUARD}")


def _enumeration_size(field, n):
    """q^n, once F is checked to be finite and q^n within the guard."""
    if not field.is_finite:
        raise InfiniteField("exhaustive verification needs a finite field")
    q = field.order
    return TooLarge.check(
        "EXHAUSTIVE_GUARD", EXHAUSTIVE_GUARD,
        power_within(q, n, EXHAUSTIVE_GUARD),
        lambda: f"q^n = {q}^{n} exceeds the enumeration guard")


def rootfree_base(F: FieldDescriptor, m: int) -> MultiPoly:
    """`find_rootfree_monic`'s polynomial, built from its payloads."""
    return MultiPoly.from_payloads(
        F, 1, {(i,): c for i, c in enumerate(rootfree_payloads(F, m))})


def build_fn(f: MultiPoly, n: int) -> MultiPoly:
    """The arity-n composition tower over a root-free monic univariate f,
    expanded by exponent chains (`Tower.expand`, under FORM_TERMS_GUARD,
    which counts each level's terms before that level is built).

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
        root = first_root(field, dense_payloads(f), 0)
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
    for pt in itertools.product(elements, repeat=g.arity):
        if g.evaluate(pt).is_zero != all(x.is_zero for x in pt):
            return Failed(pt)
    return ExhaustivePassed(points)


def norm_form_eval(points) -> FieldElement:
    """Sum of norms of a tuple of Q(sqrt(d)) elements, as a rational.

    The value is >= 0 and is 0 exactly when every entry is zero, since
    d < 0 makes each norm positive definite. Each norm is a Fraction
    computed on the ints of its element's parts (`QuadraticField.norm`);
    their sum is wrapped once, in the one Q descriptor of norms.
    """
    points = tuple(points)
    if not points:
        raise ValueError("need at least one element")
    owner = points[0].field
    if not isinstance(owner, Qsqrt):
        raise WrongKind("norm form is defined over Q(sqrt(d))")
    for x in points:
        if x.field != owner:
            raise MixedFields(f"{owner} vs {x.field}")
    return from_payload(RATIONALS, sum(owner.norm(x.payload) for x in points))


def _multiplicity(n, p):
    """The exponent of p in the nonzero int n."""
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
