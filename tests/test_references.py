"""The earlier two-mechanism versions of the polynomial parser, of
the extension-field power and of the rational root test, a ring-line
parser with no memo and a polynomial formatter that writes each term in
three branches, kept as references.

The polynomial parser once rescanned each parenthesized coefficient for
its ')' and re-raised a coefficient's ParseError by its own rule, and the
primitive element was found by a left-to-right power loop that squared
the unit. The library now has one mechanism for each job (`_split_terms`
gives the ')' offset, `parse_payload_at` places the error, `_power` is
the only loop, and a ring line keeps the payloads it parsed in a memo);
each test here checks that it gives the same results, and the same
errors at the same offsets, as the reference on a seeded corpus. The
ring-line reference parses every literal afresh, so that it shares no
cache with the reader it checks. The rational root test once cleared
denominators and ran a Horner loop of its own; the tower's
`rational_root` now decides each candidate on the integer kernel that
evaluates its samples, and must name the same first root, or the same
refusal, as the reference, and its int coefficients, once read off the
homogenized base's terms, are now read off the base's dense
coefficients and must be the reference's. `format_poly` joins each term's factors as
one list, and must write the reference's text over every kind of field.
The CLI's seeded rationals were once drawn as lists of a given count,
and a p-adic check drew all its x before its first y; they are now one
stream, read as it is drawn, and a witness must get the reference's
points, and a p-adic check the reference's verdict.
The ideal oracle once built the ring's tables on payload tuples and
closed frozensets of element indices under every sum, returning sets of
ring elements; it now reads its tables off the field's q x q tables and
sums ideals as masks in one pass over the principal ideals, and must
list the reference's ideals, as masks, on every ring its guard admits,
on local rings (one of whose ideals needs three principal ideals) and
past its guard. The polynomial evaluator once raised every coordinate by `pow`,
x^1 included, and multiplied every term through a zero coordinate; it
must give the reference's value at zero-heavy points over every kind of
field. The exhaustive verifier once held each level of a tower as a list
of all its values; it now streams the levels, and must give the
reference's verdict and counterexample on root-free and rooted bases
and on planted tables.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

import gelfand.field_core as field_core
import gelfand.function_ring as function_ring
from gelfand import anisotropic, cli
from gelfand.anisotropic import (
    ExhaustivePassed,
    Failed,
    RationalTower,
    Tower,
    ValuationPassed,
    rootfree_base,
    valuation_identity_check,
)
from gelfand.errors import ParseError, TooLarge
from gelfand.field_core import (
    FIELD_TABLE_CAP,
    Fp,
    Fq,
    Q,
    Qsqrt,
    _power,
    base_digits,
    format_element,
    parse_element,
)
from gelfand.function_ring import (
    FiniteSpace,
    RingElement,
    parse_ring_element,
)
from gelfand.poly import (
    _ATOMIC_COEFF,
    _LEADING_COEFF,
    _VAR_RE,
    MultiPoly,
    format_poly,
    parse_poly,
    univariate,
)
from test_function_ring import ORACLE_FIELDS, _local_ring_mul, _mask

# ---------------------------------------------------------------------------
# reference parsers


def _ref_split_terms(text):
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
    if start == len(text):
        raise ParseError(text, start, "a term after '+'")
    terms.append((start, text[start:]))
    return terms


def _ref_parse_coefficient(field, text, start, end):
    try:
        return parse_element(field, text[start:end])
    except ParseError as exc:
        raise ParseError(text, start + exc.pos, exc.expected) from None


def _ref_parse_term(field, text, start, term):
    negate = term.startswith("-")
    if negate:
        term = term[1:]
        if not term:
            raise ParseError(text, start, "a term after '-'")
        start += 1
    pos = 0
    if term.startswith("("):
        depth = 0
        for pos, ch in enumerate(term):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    break
        coeff = _ref_parse_coefficient(field, text, start + 1, start + pos)
        pos += 1
        if pos < len(term) and term[pos] == "*":
            pos += 1
    elif term[0] != "x":
        m = _LEADING_COEFF.match(term)
        if not m:
            raise ParseError(text, start, "a coefficient or variable")
        coeff = _ref_parse_coefficient(field, text, start, start + m.end())
        pos = m.end()
        if pos < len(term) and term[pos] == "*":
            pos += 1
    else:
        coeff = field.one()
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


def _ref_parse_poly(field, text, arity=None):
    compact = text.replace(" ", "")
    if not compact:
        raise ParseError(text, 0, "a polynomial")
    try:
        parsed = [(i, *_ref_parse_term(field, compact, i, t))
                  for i, t in _ref_split_terms(compact)]
        max_idx = max((max(e) + 1 for _, _, e in parsed if e), default=1)
        if arity is None:
            arity = max_idx
        for i, _, exps in parsed:
            if exps and max(exps) >= arity:
                raise ParseError(compact, i, f"variables within arity {arity}")
    except ParseError as exc:
        offsets = [i for i, ch in enumerate(text) if ch != " "] + [len(text)]
        raise ParseError(text, offsets[exc.pos], exc.expected) from None
    acc = {}
    for _, coeff, exps in parsed:
        mono = tuple(exps.get(i, 0) for i in range(arity))
        acc[mono] = acc[mono] + coeff if mono in acc else coeff
    return MultiPoly.from_dict(field, arity, acc)


def _ref_parse_ring_element(field, line):
    """Every literal through `parse_element`, with no table and no memo,
    and a ParseError placed at its offset in the line."""
    if not line.strip():
        raise ParseError(line, 0, "comma-separated field-element literals")
    payloads, start = [], 0
    for part in line.split(","):
        try:
            a = parse_element(field, part).payload
        except ParseError as exc:
            lead = len(part) - len(part.lstrip())
            raise ParseError(line, start + lead + exc.pos,
                             exc.expected) from None
        payloads.append(a)
        start += len(part) + 1
    return RingElement.from_payloads(field, tuple(payloads))


def _ref_format_poly(f):
    if f.is_zero:
        return "0"
    F, parts = f.field, []
    for mono, c in f.payload_terms:
        vars_txt = "*".join(
            f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
            for i, e in enumerate(mono) if e)
        c_txt = F.format(c)
        if not _ATOMIC_COEFF.match(c_txt):
            c_txt = f"({c_txt})"
        if not vars_txt:
            parts.append(c_txt)
        elif c_txt == "1":
            parts.append(vars_txt)
        else:
            parts.append(f"{c_txt}*{vars_txt}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# the seeded corpus

FIELDS = [Fp(5), Fq(2, 3), Q(), Qsqrt(-3)]
# literals that are malformed in some or all of the four fields
BAD_LITERALS = ["1/0", "2/", "0/00", "--1", "-", "", "sqrt(-3)", "sqrt(-2)",
                "3*sqrt(-3)", "3sqrt(-3)", "1+sqrt(-3", "2-sqrt(-3))", "t^2+t",
                "t^9", "2*t", "t+", "x", "1+", "sqrt(", "7", "1/2", "12"]
VARIABLES = ["x", "x1", "x2", "x1^2", "x2^3", "x2*x1", "x^2"]
BAD_VARIABLES = ["x3", "x0", "y", "x^", "x1^0", "x1**x2"]


def _random_literal(F, rng, faulty=True):
    """A canonical literal of a random element of F, or, if faulty, at
    times a literal that is malformed in F or in another field."""
    if faulty and rng.random() < 0.3:
        return rng.choice(BAD_LITERALS)
    if F.is_finite:
        x = F.element_at(rng.randrange(F.order))
    else:
        parts = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                 for _ in range(2)]
        x = F.element(parts if F.kind == "quadratic" else parts[0])
    return format_element(x)


def _random_term(F, rng, faulty):
    lit = _random_literal(F, rng, faulty)
    if F.kind == "quadratic" and rng.random() < 0.2:
        lit = rng.choice(["1+2*sqrt(-3)", "-sqrt(-3)", "1/2-3/4*sqrt(-3)"])
    coeff = rng.choice(["", lit, f"({lit})", f"(({lit}))", f"(-{lit})",
                        f"( {lit} )"] + ["(1)(2)"] * faulty)
    names = VARIABLES + BAD_VARIABLES * faulty
    variables = "*".join(rng.choice(names) for _ in range(rng.randint(0, 2)))
    seps = ["*", "*", "", " * "] + ["**"] * faulty
    sep = rng.choice(seps) if coeff and variables else ""
    return rng.choice(["", "", "-"]) + coeff + sep + variables


def _random_poly(F, rng):
    """A polynomial text and an arity; one text in two is faulty: bad
    literals, variables and joins, and stray or dropped characters."""
    faulty = rng.random() < 0.5
    text = rng.choice(["", "-", " "])
    for k in range(rng.randint(1, 4)):
        if k:
            text += rng.choice([" + ", "+", "-", " - ", "+-"]
                               + ["++"] * faulty)
        text += _random_term(F, rng, faulty)
    for _ in range(rng.choice([0, 1, 2]) if faulty else 0):
        i = rng.randrange(len(text) + 1)
        if rng.random() < 0.25 and text:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice("()*( ") + text[i:]
    return text, rng.choice([None, None, 1, 2, 3] if faulty else [None, 2])


def _random_ring_line(F, rng):
    parts = []
    for _ in range(rng.randint(1, 4)):
        lit = _random_literal(F, rng)
        parts.append(rng.choice(["", " ", "  ", "\t"]) + lit
                     + rng.choice(["", "", " "]))
    return ",".join(parts)


def _outcome(parse, *args):
    try:
        return "ok", parse(*args)
    except ParseError as exc:
        return "ParseError", exc.text, exc.pos, exc.expected
    except Exception as exc:   # any other error must match too
        return type(exc).__name__, str(exc)


def _random_payload(F, rng):
    if F.is_finite:
        return rng.randrange(F.order)
    parts = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             for _ in range(2)]
    return F.canonical(parts if F.kind == "quadratic" else parts[0])


@pytest.mark.parametrize("F", FIELDS + [Fp(2), Qsqrt(-1)], ids=str)
def test_format_poly_matches_the_reference(F):
    rng = random.Random(f"format {F}")
    for _ in range(300):
        # a few payloads, drawn again and again, with zero among them
        pool = [F.canonical(0)] + [_random_payload(F, rng)
                                   for _ in range(rng.randint(1, 4))]
        arity = rng.randint(0, 3)
        coeffs = {tuple(rng.randint(0, 3) for _ in range(arity)):
                  rng.choice(pool) for _ in range(rng.randint(0, 12))}
        f = MultiPoly.from_payloads(F, arity, coeffs)
        assert format_poly(f) == _ref_format_poly(f)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_parse_poly_matches_the_reference(F):
    rng = random.Random(f"poly {F}")
    errors = 0
    for _ in range(1500):
        text, arity = _random_poly(F, rng)
        got = _outcome(parse_poly, F, text, arity)
        assert got == _outcome(_ref_parse_poly, F, text, arity), text
        errors += got[0] != "ok"
    # the corpus holds both outcomes in quantity
    assert errors > 600 and 1500 - errors > 100


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_parse_ring_element_matches_the_reference(F):
    rng = random.Random(f"ring {F}")
    errors = leading = 0
    function_ring._literals.cache_clear()
    for _ in range(600):
        line = _random_ring_line(F, rng)
        expected = _outcome(_ref_parse_ring_element, F, line)
        # the second read takes the memo's hits for every literal the
        # first one read
        for _ in range(2):
            got = _outcome(parse_ring_element, F, line)
            assert got == expected, line
        errors += got[0] != "ok"
        # an error in a literal after its leading whitespace
        leading += got[0] == "ParseError" and line[got[2] - 1:got[2]] in (
            " ", "\t")
    assert errors > 100 and 600 - errors > 100 and leading > 20


@pytest.mark.parametrize("text,pos,expected", [
    ("(1/0)*x", 3, "a nonzero denominator"),
    ("x + (2+sqrt(-3)*x", 4, "a ')' closing this '('"),
    ("-(3*sqrt(-2))*x", 9, "sqrt(-3)"),
    ("(1)*(2)*x", 4, "a variable like x1 or x2^3 (got '(2)')"),
    ("2**x", 2, "a variable like x1 or x2^3 (got '')"),
    ("((1/2) )", 1, "a number, a sign or 'sqrt('"),
])
def test_coefficient_errors_carry_offsets_in_the_polynomial(text, pos,
                                                            expected):
    for parse in (parse_poly, _ref_parse_poly):
        with pytest.raises(ParseError) as exc:
            parse(Qsqrt(-3), text)
        assert (exc.value.pos, exc.value.expected) == (pos, expected)


def test_a_coefficient_error_is_placed_past_leading_whitespace():
    # the earlier rule left the tab out and pointed at the '1'
    text = "(\t1/0)*x"
    with pytest.raises(ParseError) as exc:
        parse_poly(Q(), text)
    assert (exc.value.pos, exc.value.expected) == (3, "end of input")
    assert _outcome(_ref_parse_poly, Q(), text)[2] == 2


# ---------------------------------------------------------------------------
# the extension-field tables and the power loop


def _ref_dpow(F, u, e):
    result = (1,)
    for bit in bin(e)[2:]:
        result = F._dmul(result, result)
        if bit == "1":
            result = F._dmul(result, u)
    return result


def _ref_primitive(F):
    n = F.order - 1
    primes = [r for r in range(2, n + 1)
              if n % r == 0 and field_core.is_prime(r)]
    for i in range(1, n + 1):
        g = F._digits(i)
        if all(F._encode(_ref_dpow(F, g, n // r)) != 1 for r in primes):
            return g
    raise AssertionError(f"no primitive element in {F}")


def _ref_tables(F):
    q, p = F.order, F.p
    n = q - 1
    g = _ref_primitive(F)
    exp, power = [], (1,)
    for _ in range(n):
        exp.append(F._encode(power))
        power = F._dmul(power, g)
    log = [2 * n] * q
    for i, a in enumerate(exp):
        log[a] = i
    zech = [log[a - a % p + (a + 1) % p] for a in exp]
    return log, exp + exp + [0] * (2 * n + 1), zech


TABLED = ([(2, k) for k in range(1, 9)] + [(3, k) for k in range(2, 9)]
          + [(5, k) for k in range(2, 7)] + [(7, k) for k in range(2, 6)]
          + [(13, 4)])


@pytest.mark.parametrize("p,k", TABLED)
def test_tables_and_primitive_match_the_reference(p, k):
    F = Fq(p, k)
    assert F.order <= FIELD_TABLE_CAP
    assert F._primitive() == _ref_primitive(F)
    assert (F._log, F._exp, F._zech) == _ref_tables(F)


def test_a_made_field_needs_no_further_table_build(monkeypatch):
    F = Fq(3, 4)

    def refuse(field):
        raise AssertionError("tables built after the field was made")

    monkeypatch.setattr(field_core, "_tables", refuse)
    one = F.canonical(1)
    for a in range(1, F.order):
        assert F.mul(a, F.inv(a)) == one
        assert F.add(a, F.neg(a)) == 0
    assert F.add(5, 7) == F.canonical(
        [(u + v) % 3 for u, v in zip(F._digits(5), F._digits(7))])


def _counting(mul, unit):
    """mul that counts its calls and refuses the unit as an operand."""
    calls = []

    def counted(a, b):
        assert unit not in (a, b), "a product by the unit"
        calls.append((a, b))
        return mul(a, b)

    return counted, calls


@pytest.mark.parametrize("F", [Fp(101), Fq(2, 8), Fq(17, 4), Q()], ids=str)
def test_power_squares_k_times_for_a_power_of_two(F):
    # a of order above 128, so that no power taken here is the unit
    a = F._encode(F._primitive()) if F.kind == "extension" else 2
    unit = F.canonical(1)
    for k in range(8):
        mul, calls = _counting(F.mul, unit)
        assert _power(mul, a, 2 ** k) == F.pow(a, 2 ** k)
        assert len(calls) == k
    for e in range(1, 70):
        mul, calls = _counting(F.mul, unit)
        expected = a
        for _ in range(e - 1):
            expected = F.mul(expected, a)
        assert _power(mul, a, e) == expected
        assert len(calls) == e.bit_length() - 1 + bin(e).count("1") - 1
    assert F.pow(a, 0) == unit


# ---------------------------------------------------------------------------
# the rational root test


def _ref_first_rational_root(coeffs):
    if not coeffs[0]:
        return Fraction(0)
    lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * lcm) for c in coeffs]
    size = max(abs(ints[0]), abs(ints[-1]))
    if size > 10 ** 9:
        raise TooLarge(
            f"the rational root test divides |L*c0| = {abs(ints[0])} and "
            f"the leading coefficient {abs(ints[-1])}; the guard is "
            f"{10 ** 9}", guard="RATIONAL_ROOT_GUARD",
            limit=10 ** 9, requested=size)
    numerators = _ref_divisors(abs(ints[0]))
    rest = ints[-2::-1]
    for v in _ref_divisors(abs(ints[-1])):
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


def _ref_divisors(n):
    low, high = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            low.append(d)
            if d * d != n:
                high.append(n // d)
        d += 1
    return low + high[::-1]


def _random_rational_base(rng):
    """Monic Fraction coefficients, low degree first: x^2 + c times up to
    three rational linear factors, often with a root 0 (c0 = 0) or a
    pair of roots r and -r, and now and then with a denominator of c
    past RATIONAL_ROOT_GUARD."""
    if rng.random() < 0.1:
        c = Fraction(rng.randint(1, 9), 10 ** 9 + rng.randint(1, 99))
    else:
        c = Fraction(rng.randint(1, 40), rng.randint(1, 12))
    roots = [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
             for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.15:
        roots.append(Fraction(0))
    if rng.random() < 0.4:
        r = Fraction(rng.randint(1, 9), rng.randint(1, 6))
        roots += [r, -r]
    coeffs = [c, Fraction(0), Fraction(1)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def _rational_root(coeffs):
    F = Q()
    f = univariate(F, [F.element(c) for c in coeffs])
    return Tower.over(f, 2).rational_root()


def test_rational_root_matches_the_reference():
    rng = random.Random("rational roots")
    seen = {"root": 0, "none": 0, "zero": 0, "pair": 0, "L > 1": 0,
            "refused": 0}
    for _ in range(600):
        coeffs = _random_rational_base(rng)
        got = _outcome(_rational_root, coeffs)
        assert got == _outcome(_ref_first_rational_root, coeffs), coeffs
        if got[0] != "ok":
            seen["refused"] += 1
            continue
        root = got[1]
        seen["none" if root is None else "root"] += 1
        seen["zero"] += root == 0
        seen["L > 1"] += any(c.denominator > 1 for c in coeffs)
        # -root is a root too, so s must have been tried before -s
        seen["pair"] += bool(root) and not sum(
            c * (-root) ** i for i, c in enumerate(coeffs))
    assert min(seen.values()) > 30, seen


def _ref_cleared(tower):
    """L and the int coefficients of L*f2 from u^m down to v^m, as c_0 and
    the list c_1..c_m, read off f2's terms, as the tower once read them."""
    terms = tower.f2.payload_terms
    lcm = math.lcm(*(c.denominator for _, c in terms))
    dense = [0] * (tower.f2.degree + 1)
    for (_, j), c in terms:
        dense[j] = int(c * lcm)
    return lcm, dense[0], dense[1:]


def _random_sparse_base(rng):
    """Monic Fraction coefficients, low degree first, of degree 2..9, each
    lower coefficient zero six times in ten."""
    m = rng.randint(2, 9)
    return [Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            if rng.random() < 0.4 else Fraction(0)
            for _ in range(m)] + [Fraction(1)]


def test_cleared_matches_the_reference_on_f2_terms():
    rng = random.Random("cleared")
    F = Q()
    seen = {"sparse": 0, "odd degree": 0, "L > 1": 0, "rooted": 0}
    for k in range(400):
        coeffs = (_random_sparse_base if k % 2 else _random_rational_base)(rng)
        tower = Tower.over(univariate(F, [F.element(c) for c in coeffs]), 2)
        assert tower._cleared == _ref_cleared(tower), coeffs
        seen["sparse"] += not all(coeffs[1:-1])
        seen["odd degree"] += len(coeffs) % 2 == 0
        seen["L > 1"] += any(c.denominator > 1 for c in coeffs)
        root = _outcome(_ref_first_rational_root, coeffs)
        seen["rooted"] += root[0] == "ok" and root[1] is not None
    assert min(seen.values()) > 30, seen


# ---------------------------------------------------------------------------
# the CLI's seeded draws


def _ref_seeded_pairs(rng, count):
    """count seeded rationals as (numerator, denominator) int pairs, drawn
    as randint(-99, 99) and then randint(1, 99) draw them, in a list."""
    bits = rng.getrandbits
    pairs = []
    for _ in range(count):
        a = bits(8)
        while a >= 199:
            a = bits(8)
        b = bits(7)
        while b >= 99:
            b = bits(7)
        pairs.append((a - 99, b + 1))
    return pairs


@pytest.mark.parametrize("n", range(1, 6))
def test_witness_points_are_the_reference_draws(monkeypatch, n):
    points = []
    real = RationalTower.verify_sampled

    def recorded(tower, drawn):
        points.extend(list(point) for point in drawn)
        return real(tower, points)

    monkeypatch.setattr(RationalTower, "verify_sampled", recorded)
    monkeypatch.setattr(cli, "_emit", lambda report, out_path: None)
    for seed in range(21):
        points.clear()
        assert cli.main(["anisotropic", "--field", "Q", "--witness",
                         "x^2+1", "--n", str(n), "--seed", str(seed),
                         "--samples", "40"]) == 0
        rng = random.Random(seed)
        assert points == [_ref_seeded_pairs(rng, n) for _ in range(40)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_padic_verdict_is_the_same_in_either_draw_order(p):
    # x^2 - p*y^2 vanishes on Q only at (0, 0), so which pairs are drawn
    # cannot change the verdict: all x before the first y, or x and y
    # drawn in turn, as the CLI's stream draws them
    for seed in range(10):
        rng = random.Random(seed)
        held = zip(_ref_seeded_pairs(rng, 200), _ref_seeded_pairs(rng, 200))
        pairs = cli._seeded_pairs(random.Random(seed))
        streamed = itertools.islice(zip(pairs, pairs), 200)
        assert valuation_identity_check(p, held) == \
            valuation_identity_check(p, streamed) == ValuationPassed(200, p)


# ---------------------------------------------------------------------------
# the ideal oracle on payload tuples


def _ref_enumerate_ideals(space, field):
    """The oracle as it was: the ring's tables indexed by payload tuple,
    |R|^2 tuple sums and products, and each ideal closed under every sum
    I + aR as a frozenset of element indices; the ideals are returned as
    sets of ring elements, sorted by element-index mask."""
    function_ring.check_guards(space, field, force_oracle=True)
    ring = function_ring.all_ring_elements(space, field)
    payloads = [f.payloads for f in ring]
    index = {a: i for i, a in enumerate(payloads)}
    add, mul = field.add, field.mul
    add_table = [[index[tuple(map(add, a, b))] for b in payloads]
                 for a in payloads]
    rows = {frozenset(index[tuple(map(mul, a, b))] for b in payloads)
            for a in payloads}
    ideals, todo = set(rows), list(rows)
    while todo:
        I = todo.pop()
        for J in rows:
            S = frozenset(add_table[i][j] for i in I for j in J)
            if S not in ideals:
                ideals.add(S)
                todo.append(S)
    by_mask = sorted(ideals, key=lambda I: sum(1 << i for i in I))
    return [frozenset(ring[i] for i in I) for I in by_mask]


def _assert_oracle_matches_the_reference(space, field):
    ideals = function_ring.enumerate_ideals_bruteforce(space, field)
    assert ideals == [_mask(space, field, I)
                      for I in _ref_enumerate_ideals(space, field)]
    return ideals


ORACLE_CELLS = [(F, size) for F in ORACLE_FIELDS for size in range(1, 5)
                if F.order ** size <= function_ring.ORACLE_GUARD]


def test_the_guard_admits_eleven_oracle_cells():
    assert len(ORACLE_CELLS) == 11


@pytest.mark.parametrize("field,size", ORACLE_CELLS, ids=str)
def test_oracle_matches_the_reference(field, size):
    _assert_oracle_matches_the_reference(FiniteSpace(size), field)


@pytest.mark.parametrize("size", [1, 2])
def test_oracle_matches_the_reference_on_a_local_ring(monkeypatch, size):
    # (F_2[x, y]/(x, y)^2)^n: at size 1 six ideals, one of them no row
    # aR; at size 2, past the guard, the products of those, 36
    monkeypatch.setattr(type(Fq(2, 3)), "mul", _local_ring_mul)
    monkeypatch.setattr(function_ring, "ORACLE_GUARD", 64)
    ideals = _assert_oracle_matches_the_reference(FiniteSpace(size),
                                                  Fq(2, 3))
    assert len(ideals) == 6 ** size


def test_oracle_matches_the_reference_past_its_guard(monkeypatch):
    monkeypatch.setattr(function_ring, "ORACLE_GUARD", 256)
    ideals = _assert_oracle_matches_the_reference(FiniteSpace(4), Fq(2, 2))
    assert len(ideals) == 16


def test_oracle_sums_three_principal_ideals_on_a_local_ring(monkeypatch):
    # F_2[x, y, z]/(x, y, z)^2 on the payloads 0..15 of F_16: its ideals
    # are the ring and the 16 subspaces of (x, y, z), and (x, y, z) is
    # xR + yR + zR but no sum of two rows aR, so an oracle that summed
    # only pairs of principal ideals would miss it
    monkeypatch.setattr(type(Fq(2, 4)), "mul", _local_ring_mul)
    monkeypatch.setattr(function_ring, "ORACLE_GUARD", 16)
    space, field = FiniteSpace(1), Fq(2, 4)
    ideals = _assert_oracle_matches_the_reference(space, field)
    assert len(ideals) == 17
    maximal = [RingElement.from_payloads(field, (a,)) for a in range(0, 16, 2)]
    assert _mask(space, field, maximal) in ideals


# ---------------------------------------------------------------------------
# polynomial evaluation on payloads


def _ref_evaluate_payloads(f, xs):
    """The evaluator as it was: every (variable, exponent) pair of the
    plan raised by `pow`, x^1 included, and every term multiplied
    through, a zero coordinate included."""
    F = f.field
    mul, add, power = F.mul, F.add, F.pow
    position = {}
    plan = [(a, tuple(position.setdefault((i, e), len(position))
                      for i, e in enumerate(m) if e))
            for m, a in f.payload_terms]
    powers = [power(xs[i], e) for i, e in position]
    acc = F.canonical(0)
    for term, factors in plan:
        for j in factors:
            term = mul(term, powers[j])
        acc = add(acc, term)
    return acc


@pytest.mark.parametrize("F", FIELDS + [Fp(2), Fq(17, 4), Qsqrt(-1)],
                         ids=str)
def test_evaluate_payloads_matches_the_reference(F):
    rng = random.Random(f"evaluate {F}")
    zero = F.canonical(0)
    skipped = linear = 0
    for _ in range(200):
        arity = rng.randint(1, 4)
        coeffs = {tuple(rng.choice([0, 0, 1, 1, 2, 3, 5])
                        for _ in range(arity)): _random_payload(F, rng)
                  for _ in range(rng.randint(0, 8))}
        f = MultiPoly.from_payloads(F, arity, coeffs)
        for _ in range(5):
            # zero-heavy points: each coordinate zero one time in two
            xs = tuple(zero if rng.random() < 0.5 else _random_payload(F, rng)
                       for _ in range(arity))
            assert f.evaluate_payloads(xs) == _ref_evaluate_payloads(f, xs)
            for m, _ in f.payload_terms:
                skipped += any(e and xs[i] == zero for i, e in enumerate(m))
                linear += 1 in m
    # the corpus skips terms and reads x^1 in quantity
    assert skipped > 500 and linear > 500


# ---------------------------------------------------------------------------
# exhaustive verification, each level a list


def _ref_verify_exhaustive(tower):
    """The verifier as it was: each level of the tower a list of all its
    values, read off the q x q table of f2, and the first zero off the
    origin found by `list.index`."""
    field, n = tower.field, tower.arity
    points = anisotropic._enumeration_size(field, n)
    q = field.order
    values = list(range(q))
    if n > 1:
        table = list(tower._f2_rows())
        for _ in range(n - 1):
            values = list(itertools.chain.from_iterable(
                map(table.__getitem__, values)))
    try:
        bad = 0 if values[0] != 0 else values.index(0, 1)
    except ValueError:
        return ExhaustivePassed(points)
    digits = base_digits(bad, q, n)
    return Failed(tuple(field.element_at(i) for i in reversed(digits)))


VERIFIER_FIELDS = [Fp(2), Fp(3), Fp(5), Fq(2, 2), Fq(2, 3), Fq(3, 2)]
VERIFIER_CELLS = [(F, n) for F in VERIFIER_FIELDS for n in range(1, 7)
                  if F.order ** n <= 5 * 10 ** 4]


def _verifier_bases(F):
    """Root-free bases of degrees 2 and 3, and two rooted ones: x^2 + x,
    with the roots 0 and -1, and x^2 - a^2 for the last element a."""
    a = F.element_at(F.order - 1)
    return [rootfree_base(F, 2), rootfree_base(F, 3),
            univariate(F, [0, 1, 1]), univariate(F, [-(a * a), 0, 1])]


@pytest.mark.parametrize("field,n", VERIFIER_CELLS, ids=str)
def test_verifier_matches_the_reference(field, n):
    failed = 0
    for f in _verifier_bases(field):
        tower = Tower.over(f, n)
        result = tower.verify_exhaustive()
        assert result == _ref_verify_exhaustive(tower), (f, n)
        failed += not result.passed
    # each rooted base fails from n = 2 on
    assert failed == (2 if n > 1 else 0)


@pytest.mark.parametrize("field,n", VERIFIER_CELLS, ids=str)
@pytest.mark.parametrize("bad", ["origin", "last"])
def test_verifier_matches_the_reference_on_a_planted_table(
        monkeypatch, field, n, bad):
    # T[u][v] = 0 only at (0, 0); planted, T[0][0] is 1 or T[q-1][q-1]
    # is 0: at n = 2, where the values are T's entries, the one bad
    # value is then at the origin or at the last point
    q = field.order
    table = [[int(u or v) for v in range(q)] for u in range(q)]
    if bad == "origin":
        table[0][0] = 1
    else:
        table[q - 1][q - 1] = 0
    monkeypatch.setattr(Tower, "_f2_rows", lambda self: table)
    tower = Tower.over(rootfree_base(field, 2), n)
    result = tower.verify_exhaustive()
    assert result == _ref_verify_exhaustive(tower)
    if n == 2:
        corner = 0 if bad == "origin" else q - 1
        assert result == Failed((field.element_at(corner),) * 2)
