"""Q and Q(sqrt(d)) payloads, norms and literals against a reference.

The reference below is the earlier, plainer code: every payload goes
through `Fraction(x)`, a norm is a*a - d*b*b in Fraction arithmetic and
a literal is matched by a pattern and then handed to `Fraction(text)`.
The library shares exact Fractions, computes norms on ints and builds
each Fraction from the digit groups that its pattern matched; on a
seeded corpus both must give the same payloads, texts and errors.
"""

import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from gelfand.anisotropic import norm_form_eval
from gelfand.errors import ParseError
from gelfand.field_core import (
    RATIONALS,
    Q,
    Qsqrt,
    format_element,
    from_payload,
    parse_element,
)

DS = (-1, -2, -3, -7)

# ---------------------------------------------------------------------------
# the reference

_NUMBER = r"\d+(?:/0*[1-9]\d*)?"
_RATIONAL = "-?" + _NUMBER
_HEAD = re.compile(rf"(?:({_RATIONAL})(?=[+-]))?([+-]?)(?:({_NUMBER})(\*)?)?")


def ref_canonical(d, payload):
    if d is None:
        return Fraction(payload)
    a, b = payload if isinstance(payload, (tuple, list)) else (payload, 0)
    return (Fraction(a), Fraction(b))


def _ref_scan(text, pos, pieces):
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


def ref_parse(d, text):
    """The payload of the literal text (stripped) over Q (d None) or
    Q(sqrt(d))."""
    if d is None:
        _ref_scan(text, 0, [(_RATIONAL, "a rational like -3 or 5/6")])
        return Fraction(text)
    if re.fullmatch(_RATIONAL, text):
        return (Fraction(text), Fraction(0))
    head = _HEAD.match(text)
    a, sign, b, star = head.groups()
    if b and not star and re.match(r"/0*(?![1-9])", text[head.end():]):
        raise ParseError(text, head.end() + 1, "a nonzero denominator")
    expected = ("'*' or a sign" if b and not star else
                "'sqrt('" if b else
                "a number or 'sqrt('" if sign else
                "a number, a sign or 'sqrt('")
    _, root, _ = _ref_scan(text, head.end(), [
        (r"sqrt\(", expected), (r"-?\d+", "an integer"), (r"\)", "')'")])
    if b and not star:
        raise ParseError(text, head.end(3), "'*'")
    if int(root[0]) != d:
        raise ParseError(text, root.start(), f"sqrt({d})")
    b = Fraction(b or 1)
    return (Fraction(a or 0), -b if sign == "-" else b)


def ref_norm(d, payload):
    a, b = payload
    return a * a - d * b * b


def ref_format(d, payload):
    if d is None:
        return str(payload)
    a, b = payload
    if b == 0:
        return str(a)
    root = f"sqrt({d})"
    bpart = root if abs(b) == 1 else f"{abs(b)}*{root}"
    if a == 0:
        return bpart if b > 0 else "-" + bpart
    return f"{a}{'+' if b > 0 else '-'}{bpart}"


# ---------------------------------------------------------------------------
# the corpus


def _number(rng):
    """Digits of a number: leading zeros on numerator or denominator
    sometimes, a denominator (not reduced) about half the time."""
    num = "0" * (rng.random() < 0.1) + str(rng.randint(0, 120))
    if rng.random() < 0.5:
        return num
    return f"{num}/{'0' * rng.choice((0, 0, 1, 2))}{rng.randint(1, 99)}"


def _literal(rng, d):
    """A well-formed literal of Q(sqrt(d)): an integer or rational part,
    a pure imaginary one (b = +-1 bare) or a mixed one."""
    sign = rng.choice(("", "-"))
    kind = rng.choice(("integer", "rational", "imaginary", "mixed"))
    if kind == "integer":
        return sign + str(rng.randint(0, 999))
    if kind == "rational":
        return sign + _number(rng)
    bpart = (f"sqrt({d})" if rng.random() < 0.25
             else f"{_number(rng)}*sqrt({d})")
    if kind == "imaginary":
        return sign + bpart
    return f"{sign}{_number(rng)}{rng.choice('+-')}{bpart}"


def _corrupt(rng, text):
    """text with one character deleted, replaced or inserted."""
    i = rng.randrange(len(text) + 1)
    c = rng.choice("0123456789/+-*()sqrt ")
    how = rng.choice(("delete", "replace", "insert"))
    if how == "delete" or (how == "replace" and i < len(text)):
        return text[:i] + (c if how == "replace" else "") + text[i + 1:]
    return text[:i] + c + text[i:]


def _corpus(seed, count=400):
    """(d, text) pairs: well-formed literals of each field, literals of
    another d, and corrupted ones."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        d = rng.choice(DS)
        text = _literal(rng, d)
        out.append((d, text))
        out.append((rng.choice([e for e in DS if e != d]), text))
        out.append((d, _corrupt(rng, text)))
    return out


# the malformed literals of test_field_core.test_field_parse_error_position
MALFORMED = ["Fq(2,2,1+t^3)", "t+t^3", "t+x", "1+2*sqrt(-5)", "1+2*sqrt(-3",
             "sqrt(-3)+1", "12a", "3/4x", "1/0", "1/00", "1sqrt(-3)",
             "1+2sqrt(-3)", "1+2*sqr(-3)", "1,2,x", "1, t^2", "1+", "-", "a",
             "", "Fp(x)"]


# ---------------------------------------------------------------------------
# the differential check and its controls


def _outcome(parse, d, text):
    """("ok", payload) or ("error", pos, expected) of one literal."""
    try:
        return ("ok", parse(d, text))
    except ParseError as exc:
        return ("error", exc.pos, exc.expected)


def _library_parse(d, text):
    return parse_element(Q() if d is None else Qsqrt(d), text).payload


def _differences(cases, parse=_library_parse, norm=None):
    """The cases (d, text) whose parse outcome, text or norm differ from
    the reference's; d None is Q."""
    bad = []
    for d, text in cases:
        got = _outcome(parse, d, text.strip())
        want = _outcome(ref_parse, d, text.strip())
        if got != want:
            bad.append((d, text, got, want))
            continue
        if got[0] != "ok":
            continue
        F = Q() if d is None else Qsqrt(d)
        x = from_payload(F, got[1])
        if format_element(x) != ref_format(d, want[1]):
            bad.append((d, text, format_element(x), "format"))
        if d is not None:
            value = (norm or (lambda x: x.norm().payload))(x)
            if value != ref_norm(d, want[1]) or type(value) is not Fraction:
                bad.append((d, text, value, "norm"))
    return bad


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_literals_match_the_reference(seed):
    cases = _corpus(seed)
    # the corpus holds every kind it is meant to
    parsed = [ref_parse(d, t) for d, t in cases
              if _outcome(ref_parse, d, t)[0] == "ok"]
    assert any(a and b for a, b in parsed)
    assert any(not a and b for a, b in parsed)
    assert any(a and not b and a.denominator == 1 for a, b in parsed)
    assert any(b < 0 and b.denominator > 1 for a, b in parsed)
    assert any("/0" in t for d, t in cases)
    assert len(parsed) < len(cases)
    assert _differences(cases) == []
    # the rational and integer literals over Q as well
    q_cases = [(None, t) for d, t in cases if "sqrt" not in t]
    assert sum(_outcome(ref_parse, None, t)[0] == "ok"
               for _, t in q_cases) > 100
    assert _differences(q_cases) == []


@pytest.mark.parametrize("d", [None] + list(DS))
def test_malformed_literals_raise_as_the_reference(d):
    cases = [(d, text) for text in MALFORMED]
    assert all(_outcome(ref_parse, d, t)[0] == "error" for _, t in cases)
    assert _differences(cases) == []


def _dropped_b_sign(d, text):
    a, b = _library_parse(d, text)
    return (a, abs(b))


def _denominator_as_one(d, text):
    return _library_parse(d, re.sub(r"/0*[1-9]\d*", "", text))


def _norm_without_d(x):
    a, b = x.payload
    return a * a + b * b


@pytest.mark.parametrize("mutant", [
    {"parse": _dropped_b_sign}, {"parse": _denominator_as_one},
    {"norm": _norm_without_d}], ids=["b sign", "denominator", "norm d"])
def test_the_corpus_catches_each_control(mutant):
    # d = -1 makes a norm without d equal to the true one: the corpus
    # must hold the other d as well
    assert _differences(_corpus(1), **mutant) != []


# ---------------------------------------------------------------------------
# canonical payloads


def test_exact_fractions_pass_through():
    f, g = Fraction(-7, 12), Fraction(5, 3)
    assert Q().element(f).payload is f
    x = Qsqrt(-3).element((f, g))
    assert x.payload[0] is f and x.payload[1] is g
    assert Qsqrt(-3).element([g, f]).payload[1] is f
    assert Qsqrt(-3).element(f).payload[0] is f


class _Sub(Fraction):
    pass


@pytest.mark.parametrize("value", [
    _Sub(3, 4), True, 3, 0.75, Decimal("0.75"), "3/4", Fraction(6, 8)],
    ids=repr)
def test_other_payloads_become_exact_fractions(value):
    want = Fraction(value)
    for part in (Q().element(value).payload,
                 *Qsqrt(-3).element((value, value)).payload,
                 Qsqrt(-3).element(value).payload[0]):
        assert type(part) is Fraction and part == want
    assert Qsqrt(-3).element(value).payload[1] == 0


def test_three_part_payload_is_refused():
    with pytest.raises(ValueError):
        Qsqrt(-3).element((1, 2, 3))
    with pytest.raises(ValueError):
        Qsqrt(-3).element([Fraction(1), Fraction(2), Fraction(3)])


@pytest.mark.parametrize("d", DS + (-5, -11))
def test_norm_form_matches_the_fraction_sum(d):
    F = Qsqrt(d)
    rng = random.Random(d)
    parts = [Fraction(0)] * 3 + [
        Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(9)]
    for _ in range(60):
        vec = [(rng.choice(parts), rng.choice(parts))
               for _ in range(rng.randint(1, 6))]
        value = norm_form_eval([F.element(pair) for pair in vec])
        assert value.payload == sum((a * a - d * b * b for a, b in vec),
                                    Fraction(0))
        assert type(value.payload) is Fraction
        assert value.field is RATIONALS
    assert norm_form_eval([F.zero()] * 2).is_zero
