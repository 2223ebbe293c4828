"""Tests for exact field arithmetic, enumeration, and parsing."""

import copy
import itertools
import math
import pickle
import random
from fractions import Fraction
from functools import partial

import pytest

import gelfand.anisotropic as anisotropic
import gelfand.field_core as field_core
from gelfand.anisotropic import Tower
from gelfand.field_core import _pmod, _pmul
from gelfand.errors import (
    DivisionByZero,
    InfiniteField,
    MixedFields,
    ParseError,
    TooLarge,
    WrongKind,
)
from gelfand.field_core import (
    FieldElement,
    Fp,
    Fq,
    PrimeField,
    Q,
    Qsqrt,
    enumerate_field,
    find_rootfree_monic,
    first_root,
    format_element,
    format_field,
    parse_element,
    parse_field,
)
from gelfand.function_ring import parse_ring_element
from gelfand.poly import parse_poly, univariate


def test_f5_inverse_matches_exhaustive_search():
    F = Fp(5)
    two = F.element(2)
    # independent oracle: scan all elements for the inverse
    expected = next(a for a in enumerate_field(F) if (two * a) == F.one())
    assert two.inv() == expected
    assert expected == F.element(3)


def test_rational_add():
    F = Q()
    half = F.element(Fraction(1, 2))
    third = F.element(Fraction(1, 3))
    assert (half + third).payload == Fraction(5, 6)


@pytest.mark.parametrize("field", [Fp(5), Fq(2, 2), Q(), Qsqrt(-1)])
def test_additive_inverse(field):
    x = field.element(7)
    assert (x + (-x)).is_zero


def test_mixed_fields_rejected():
    with pytest.raises(MixedFields):
        Fp(3).one() + Fp(5).one()


def test_inv_of_zero():
    with pytest.raises(DivisionByZero):
        Fp(7).zero().inv()


def test_enumerate_f3():
    assert [e.payload for e in enumerate_field(Fp(3))] == [0, 1, 2]


def test_enumerate_f4_order():
    F4 = Fq(2, 2)
    assert [format_element(e) for e in enumerate_field(F4)] == \
        ["0", "1", "t", "t+1"]


def test_enumerate_infinite_field():
    with pytest.raises(InfiniteField):
        enumerate_field(Q())


@pytest.mark.parametrize("p,k", [(2, 1), (2, 3), (3, 2), (5, 2)])
def test_enumerate_counts(p, k):
    F = Fq(p, k) if k > 1 else Fp(p)
    elems = enumerate_field(F)
    assert len(elems) == p ** k
    assert len(set(elems)) == p ** k


def test_find_rootfree_f2():
    coeffs = find_rootfree_monic(Fp(2), 2)
    assert [c.payload for c in coeffs] == [1, 1, 1]  # x^2 + x + 1


def test_find_rootfree_f3():
    coeffs = find_rootfree_monic(Fp(3), 2)
    assert [c.payload for c in coeffs] == [1, 0, 1]  # x^2 + 1


def test_find_rootfree_degree_guard():
    with pytest.raises(ValueError):
        find_rootfree_monic(Fp(2), 1)


@pytest.mark.parametrize("field", [Fp(2), Fp(3), Fp(5), Fq(2, 2), Fq(3, 2)])
def test_rootfree_has_empty_root_set(field):
    # re-check with an independent evaluation loop
    coeffs = find_rootfree_monic(field, 2)
    for a in enumerate_field(field):
        acc = field.zero()
        for i, c in enumerate(coeffs):
            acc = acc + c * a ** i
        assert not acc.is_zero


def _trial_division(n):
    return n >= 2 and all(n % i for i in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 50000) if field_core.is_prime(n)] == \
        [n for n in range(-3, 50000) if _trial_division(n)]
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randrange(10 ** 6, 10 ** 8)
        assert field_core.is_prime(n) == _trial_division(n)


@pytest.mark.parametrize("n,prime", [
    (561, False), (41041, False), (825265, False), (321197185, False),
    # strong pseudoprimes to every prime base up to 37, refused by 41
    (3825123056546413051, False), (318665857834031151167461, False),
    (2 ** 61 - 1, True), (2 ** 64 - 59, True), (10 ** 24 + 7, True),
    # composites above the exact bound are refused by Miller-Rabin alone
    ((2 ** 61 - 1) * (2 ** 31 - 1), False), (10 ** 40 + 1, False)])
def test_is_prime_large_and_pseudoprimes(n, prime):
    assert field_core.is_prime(n) == prime


def test_is_prime_refuses_what_its_bases_cannot_decide():
    # the bound itself is a composite that passes all 13 bases
    with pytest.raises(TooLarge) as info:
        field_core.is_prime(field_core._MR_EXACT_BELOW)
    assert info.value.requested == field_core._MR_EXACT_BELOW


def test_conjugate_and_norm():
    Qi = Qsqrt(-1)
    x = Qi.element((1, 1))
    assert x.conjugate() == Qi.element((1, -1))
    assert x.norm().payload == Fraction(2)
    assert Qi.zero().norm().is_zero
    y = Qi.element((Fraction(3, 2), Fraction(1, 2)))
    assert y.norm().payload == Fraction(5, 2)


def test_norm_multiplicative_seeded():
    Qi = Qsqrt(-1)
    rng = random.Random(7)
    for _ in range(100):
        x = Qi.element((Fraction(rng.randint(-9, 9)),
                        Fraction(rng.randint(-9, 9))))
        y = Qi.element((Fraction(rng.randint(-9, 9)),
                        Fraction(rng.randint(-9, 9))))
        assert (x * y).norm() == x.norm() * y.norm()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        # the descriptor's norm and conjugate act on payloads, and the
        # element's wrap their results
        assert Qi.norm(x.payload) == x.norm().payload
        assert type(Qi.norm(x.payload)) is Fraction
        assert Qi.conjugate(x.payload) == x.conjugate().payload


def test_norm_on_wrong_kind():
    with pytest.raises(WrongKind):
        Fp(3).one().norm()


def _rational_samples(field, rng, count):
    def coeff():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 5))

    if field.kind == "rational":
        return [field.element(coeff()) for _ in range(count)]
    return [field.element((coeff(), coeff())) for _ in range(count)]


@pytest.mark.parametrize("field", [Fp(2), Fp(3), Fp(7), Fq(2, 2), Fq(2, 3),
                                   Fq(3, 2), Q(), Qsqrt(-2)])
def test_field_axioms_sampled(field):
    """Every pair and triple of a finite field, seeded triples of an
    infinite one; also every element's text round-trips, and a finite
    element's payload is its index."""
    one, zero = field.one(), field.zero()
    if field.is_finite:
        elems = enumerate_field(field)
        triples = itertools.product(elems, repeat=3)
        for i, x in enumerate(elems):
            assert x.payload == i
            assert field.element_at(i) == x
    else:
        rng = random.Random(13)
        elems = _rational_samples(field, rng, 40)
        triples = zip(elems, _rational_samples(field, rng, 40),
                      _rational_samples(field, rng, 40))
    for x in elems:
        assert parse_element(field, format_element(x)) == x
    for a, b, c in triples:
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + b) - b == a
        assert a * one == a
        assert a + zero == a
        if not a.is_zero:
            assert a * a.inv() == one
            assert (b / a) * a == b


def test_extension_inverse_exhaustive():
    F8 = Fq(2, 3)
    for a in enumerate_field(F8):
        if a.is_zero:
            continue
        assert a * a.inv() == F8.one()


def test_descriptor_validation():
    with pytest.raises(ValueError):
        Fp(6)
    with pytest.raises(ValueError):
        Fq(2, 2, (0, 1, 1))  # t^2 + t = t(t+1), reducible
    with pytest.raises(ValueError):
        Qsqrt(2)
    with pytest.raises(ValueError):
        Fq(2, 9)


# a field parameter is an int: a float, bool or Fraction equal to one
# would build a field whose payloads or text are not canonical

@pytest.mark.parametrize("n", [5.0, True, Fraction(5)])
def test_is_prime_takes_an_int_only(n):
    with pytest.raises(TypeError, match="is_prime takes an int"):
        field_core.is_prime(n)


@pytest.mark.parametrize("make", [lambda: Fp(5.0), lambda: Fp(True),
                                  lambda: Fq(5.0, 2)])
def test_a_prime_that_is_not_an_int_is_refused(make):
    with pytest.raises(TypeError, match="is_prime takes an int"):
        make()


@pytest.mark.parametrize("k", [True, 2.0])
def test_an_extension_degree_that_is_not_an_int_is_refused(k):
    with pytest.raises(ValueError, match="extension degree must be in"):
        Fq(2, k)


@pytest.mark.parametrize("modulus", [(1.0, 1, 1), (1, True, 1)])
def test_modulus_coefficients_that_are_not_ints_are_refused(modulus):
    with pytest.raises(ValueError, match="modulus coefficients must lie"):
        Fq(2, 2, modulus)


@pytest.mark.parametrize("d", [-1.5, -1.0, Fraction(-3)])
def test_a_quadratic_d_that_is_not_an_int_is_refused(d):
    with pytest.raises(ValueError, match="d must be a negative non-square"):
        Qsqrt(d)


@pytest.mark.parametrize("text", ["Fp(5)", "Fq(2,3,t^3+t+1)", "Q",
                                  "Q(sqrt(-1))", "Fq(3,2,t^2+1)"])
def test_field_text_roundtrip(text):
    assert format_field(parse_field(text)) == text


def test_field_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_field("Fp(x)")
    assert exc.value.pos == 3
    assert "prime" in exc.value.expected
    for parse, text, pos in [
        (parse_field, "Fq(2,2,1+t^3)", 9),  # modulus term of degree > k
        (partial(parse_element, Fq(2, 2)), "t+t^3", 2),  # degree >= k
        (partial(parse_element, Fq(2, 2)), "t+x", 2),
        (partial(parse_element, Qsqrt(-3)), "1+2*sqrt(-5)", 9),  # wrong d
        (partial(parse_element, Qsqrt(-3)), "1+2*sqrt(-3", 11),
        (partial(parse_element, Qsqrt(-3)), "sqrt(-3)+1", 8),
        (partial(parse_element, Fp(5)), "12a", 2),
        (partial(parse_element, Q()), "3/4x", 3),
        (partial(parse_element, Q()), "1/0", 1),  # zero denominator
        (partial(parse_element, Qsqrt(-1)), "1/00", 2),  # zero denominator
        (partial(parse_element, Qsqrt(-3)), "1sqrt(-3)", 1),  # no '*'
        (partial(parse_element, Qsqrt(-3)), "1+2sqrt(-3)", 3),
        (partial(parse_element, Qsqrt(-3)), "1+2*sqr(-3)", 4),
        (partial(parse_ring_element, Fp(5)), "1,2,x", 4),
        (partial(parse_ring_element, Fq(2, 2)), "1, t^2", 3),
    ]:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.pos, exc.value.text) == (pos, text)
    # where 'sqrt(' is missing, the error names every continuation
    for text, pos, names in [("12a", 2, ["'*'", "sign"]),
                             ("1+", 2, ["number", "'sqrt('"]),
                             ("-", 1, ["number", "'sqrt('"]),
                             ("a", 0, ["number", "sign", "'sqrt('"]),
                             ("", 0, ["number", "sign", "'sqrt('"]),
                             ("1/00", 2, ["nonzero denominator"])]:
        with pytest.raises(ParseError) as exc:
            parse_element(Qsqrt(-3), text)
        assert exc.value.pos == pos
        assert all(name in exc.value.expected for name in names), text
    with pytest.raises(ParseError) as exc:
        parse_element(Qsqrt(-3), "1+2*sqr(-3)")
    assert (exc.value.pos, exc.value.expected) == (4, "'sqrt('")


def test_public_constructor_canonicalises():
    assert FieldElement(Fp(5), 7) == Fp(5).element(2)
    assert FieldElement(Fp(5), -1).payload == 4
    F4 = Fq(2, 2)
    assert FieldElement(F4, (3, 2)) == F4.element((1, 0)) == F4.one()
    assert hash(FieldElement(F4, (3, 2))) == hash(F4.one())
    with pytest.raises(ValueError):
        FieldElement(F4, (1, 0, 1))
    assert F4.element_at(4) == F4.zero() and Fp(5).element_at(7).payload == 2
    assert FieldElement(Qsqrt(-1), 3) == Qsqrt(-1).element((3, 0))


@pytest.mark.parametrize("field", [Fp(5), Fq(2, 2)], ids=str)
@pytest.mark.parametrize("payload", [Fraction(1, 2), Fraction(4, 1), 2.7,
                                     2.0, "3", None], ids=repr)
def test_finite_field_refuses_a_payload_that_is_not_an_int(field, payload):
    # 1/2 is 3 in F_5, not the 0 that truncation gave; a payload that is
    # not an int is refused, even one of integral value
    with pytest.raises(ValueError):
        field.element(payload)
    if field.kind == "extension":
        with pytest.raises(ValueError):
            field.element((1, payload))


def test_finite_field_reads_ints_and_bools():
    assert Fp(5).element(True) == Fp(5).one()
    assert Fp(5).element(-7).payload == 3
    assert Fq(2, 2).element((True, 3)) == Fq(2, 2).element((1, 1))
    assert Fq(3, 2).element(5).payload == 2


def test_found_modulus_is_tested_once(monkeypatch):
    calls = []
    real = field_core._is_irreducible
    monkeypatch.setattr(field_core, "_is_irreducible",
                        lambda m, p: calls.append(m) or real(m, p))
    F = Fq(3, 4)
    assert calls.count(F.modulus) == 1
    assert calls[-1] == F.modulus
    # a modulus from the caller is still tested, and a reducible one
    # raises: t^2 + 1 = (t + 1)(t + 2) over F_5
    calls.clear()
    assert Fq(3, 2, [1, 0, 1]).modulus == (1, 0, 1)
    assert calls == [(1, 0, 1)]
    with pytest.raises(ValueError, match="reducible"):
        Fq(5, 2, (1, 0, 1))


def test_descriptor_equality_is_structural():
    assert Fp(5) == Fp(5) and hash(Fp(5)) == hash(Fp(5))
    assert Fq(2, 3) == parse_field("Fq(2,3,t^3+t+1)")
    assert Fq(2, 3) != Fq(2, 3, (1, 0, 1, 1))
    assert Fp(2) != Fq(2, 1) and Q() != Qsqrt(-1)
    assert Fp(5).one() + FieldElement(Fp(5), 1) == Fp(5).element(2)


@pytest.mark.parametrize("field,literals", [
    (Fp(7), ["0", "3", "6"]),
    (Fq(2, 3), ["0", "1", "t^2+t", "t^2+1"]),
    (Q(), ["0", "-2", "5/6"]),
    (Qsqrt(-1), ["0", "1/2+1/2*sqrt(-1)", "-sqrt(-1)", "1-sqrt(-1)", "3/4"]),
])
def test_element_text_roundtrip(field, literals):
    for text in literals:
        x = parse_element(field, text)
        assert format_element(x) == text
        assert parse_element(field, format_element(x)) == x
        # the descriptor parses to a payload, the inverse of its format
        assert field.parse(text) == x.payload
        assert field.format(field.parse(text)) == text


def test_payload_order_is_enumeration_order():
    F = Fq(2, 2)
    elems = enumerate_field(F)
    assert sorted(elems, key=lambda x: x.payload) == elems


def test_first_root_horner():
    F = Fp(5)
    # 3x^2 + 2x + 1 has the value (3 * 4 + 4 + 1) % 5 at 2, so subtracting
    # that value leaves a polynomial with the roots 2 and 4
    value = (3 * 4 + 4 + 1) % 5
    coeffs = ((1 - value) % 5, 2, 3)
    assert first_root(F, coeffs, 0) == 2
    assert first_root(F, coeffs, 3) == 4
    assert first_root(F, (1, 0, 1), 0) == 2      # x^2 + 1 = (x - 2)(x - 3)
    assert first_root(F, (2, 0, 1), 0) is None   # -2 is not a square mod 5


@pytest.mark.parametrize("field,payloads", [
    (Fp(7), [0, 1, 3]),
    (Fq(2, 3), [0, (0, 1, 0), (1, 1, 1)]),
    (Fq(3, 2), [0, (2, 1)]),
    (Q(), [0, Fraction(-3, 2)]),
    (Qsqrt(-2), [0, (Fraction(1, 2), -1)]),
])
def test_power_is_repeated_product(field, payloads):
    for payload in payloads:
        x = field.element(payload)
        product = field.one()
        for e in range(10):
            assert x ** e == product
            product = product * x
        for e in (-1, 1.5):
            with pytest.raises(ValueError):
                x ** e


def test_power_multiplication_count(monkeypatch):
    calls = []
    mul = PrimeField.mul

    def counting(self, x, y):
        calls.append(1)
        return mul(self, x, y)

    monkeypatch.setattr(PrimeField, "mul", counting)
    F = Fp(101)
    for e, count in [(0, 0), (1, 0), (2, 1), (8, 3), (7, 4)]:
        calls.clear()
        result = F.element(3) ** e
        assert len(calls) == count, e
        assert result == F.element(3 ** e)


@pytest.mark.parametrize("field,m", [(Fp(2), 2), (Fp(3), 3), (Fp(5), 2),
                                     (Fq(2, 2), 3), (Fq(3, 2), 2)])
def test_rootfree_scan_skips_zero_constant_and_zero_point(
        monkeypatch, field, m):
    calls = []

    def recording(F, coeffs, start):
        calls.append((coeffs[0], start))
        return first_root(F, coeffs, start)

    monkeypatch.setattr(field_core, "first_root", recording)
    coeffs = find_rootfree_monic(field, m)
    # payloads are indices, and the zero element's is 0
    assert calls and calls[-1][0] == coeffs[0].payload
    assert not any(c0 == 0 or start == 0 for c0, start in calls)


def test_a_descriptor_text_is_parsed_once(monkeypatch):
    calls = []
    real = field_core._is_irreducible
    monkeypatch.setattr(field_core, "_is_irreducible",
                        lambda m, p: calls.append(m) or real(m, p))
    field_core._descriptor.cache_clear()
    fields = [parse_field(text) for text in
              ("Fq(2,3,t^3+t+1)", " Fq(2,3,t^3+t+1)", "Fq(2,3,t^3+t+1)\n")]
    assert calls == [(1, 1, 0, 1)]
    assert all(F is fields[0] for F in fields)
    assert parse_field(" Fp(5) ") is parse_field("Fp(5)")
    assert parse_field("Fq(2,2)") == parse_field("Fq(2,2,t^2+t+1)")


@pytest.mark.parametrize("text,error", [
    ("Fp(x)", ParseError), (" R ", ParseError), ("Fq(2,2,1+t^3)", ParseError),
    ("Fq(2,3,t^3+t+1", ParseError), ("Fp(4)", ValueError),
    ("Fq(2,2,t^2+1)", ValueError)])
def test_a_bad_descriptor_text_raises_on_every_call(text, error):
    for _ in range(3):
        kept = field_core._descriptor.cache_info()
        with pytest.raises(error):
            parse_field(text)
        # each call parses the text again, and keeps nothing
        now = field_core._descriptor.cache_info()
        assert now.misses == kept.misses + 1
        assert now.currsize == kept.currsize


def test_fq_shorthand_picks_first_irreducible():
    assert parse_field("Fq(2,3)") == Fq(2, 3)
    assert parse_field("Fq(3,2)") == Fq(3, 2)
    for text in ("Fq(2,40)", "Fq(4,2)", "Fq(2,0)"):
        with pytest.raises(ValueError):
            parse_field(text)


def test_quadratic_multidigit_roundtrip_seeded():
    rng = random.Random(2718)
    F = Qsqrt(-3)

    def rand_coeff():
        num = rng.choice([rng.randint(10, 999), rng.randint(1, 9)])
        den = rng.choice([1, 1, rng.randint(2, 99)])
        return Fraction(num, den)

    for _ in range(200):
        a = rng.choice([Fraction(0), rand_coeff(), -rand_coeff()])
        b = rng.choice([rand_coeff(), -rand_coeff()])
        x = F.element((a, b))
        assert parse_element(F, format_element(x)) == x
    for text in ("12*sqrt(-3)", "-12*sqrt(-3)", "3/4*sqrt(-3)",
                 "12+34*sqrt(-3)", "-5/7-12*sqrt(-3)"):
        assert format_element(parse_element(F, text)) == text


# ---------------------------------------------------------------------------
# table arithmetic against the coefficient-list product


def _oracle_ops(F):
    """add, neg, mul and inv of F on payload ints, computed on base-p
    digit tuples with `_pmul`/`_pmod` (a prime field is F_p[t]/(t))."""
    p = F.p
    k, modulus = (F.k, F.modulus) if F.kind == "extension" else (1, (0, 1))

    def digits(a):
        return [a // p ** i % p for i in range(k)]

    def encode(ds):
        return sum(c * p ** i for i, c in enumerate(ds))

    def add(a, b):
        return encode([(u + v) % p for u, v in zip(digits(a), digits(b))])

    def neg(a):
        return encode([-u % p for u in digits(a)])

    def mul(a, b):
        return encode(_pmod(_pmul(digits(a), digits(b), p), modulus, p))

    def inv(a):
        result, e = 1, p ** k - 2
        while e:
            if e & 1:
                result = mul(result, a)
            a, e = mul(a, a), e >> 1
        return result

    return add, neg, mul, inv


def _check_against_oracle(F, pairs):
    add, neg, mul, inv = _oracle_ops(F)
    for a, b in pairs:
        assert F.add(a, b) == add(a, b), (F, a, b)
        assert F.mul(a, b) == mul(a, b), (F, a, b)
        assert F.neg(a) == neg(a), (F, a)
        if a:
            assert F.inv(a) == inv(a), (F, a)


@pytest.mark.parametrize("field", [Fp(2), Fp(3), Fp(7), Fq(2, 2), Fq(2, 3),
                                   Fq(3, 2)])
def test_arithmetic_matches_oracle_on_every_pair(field):
    q = field.order
    _check_against_oracle(field, itertools.product(range(q), repeat=2))


@pytest.mark.parametrize("field,count", [(Fq(2, 8), 2000), (Fq(3, 5), 500),
                                         (Fq(17, 4), 300)])
def test_arithmetic_matches_oracle_on_seeded_pairs(field, count):
    """Fq(2,8) and Fq(3,5) use the tables, Fq(17,4) the digit path."""
    assert (field.order > field_core.FIELD_TABLE_CAP) == (field.p == 17)
    rng = random.Random(str(field))
    q = field.order
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(count)]
    _check_against_oracle(field, pairs + [(0, 1), (1, 0), (0, 0)])


@pytest.mark.parametrize("spec", [
    "Fq(2,1)", "Fq(2,2)", "Fq(2,3)", "Fq(2,8)", "Fq(3,1)", "Fq(3,2)",
    "Fq(5,3)", "Fq(7,2)", "Fq(13,2)", "Fq(251,2)"])
def test_negation_matches_digits_on_every_payload(spec):
    """-a is a times -1, whose payload is p - 1, as one table lookup: on
    every payload of tabled fields of characteristic 2 and odd p."""
    F = parse_field(spec)
    assert F._log is not None
    neg = _oracle_ops(F)[1]
    assert [F.neg(a) for a in range(F.order)] == \
        [neg(a) for a in range(F.order)]


def test_extension_payload_is_the_index():
    F = Fq(2, 3)
    assert F.element((1, 1, 0)).payload == 3
    assert F.element(5).payload == 1  # an int is the constant 5 mod 2
    assert Fq(3, 2).element(5).payload == 2
    assert [x.payload for x in enumerate_field(F)] == list(range(8))


def test_descriptor_with_tables_equals_a_fresh_one():
    for spec in ("Fq(2,3)", "Fq(3,2)"):
        built = parse_field(spec)
        x = built.element_at(5)
        assert x * x.inv() == built.one()  # arithmetic on the tables
        fresh = field_core._descriptor.__wrapped__(spec)   # not the memo's
        assert fresh is not built
        assert built == fresh and fresh == built
        assert hash(built) == hash(fresh)
        assert vars(built) == vars(fresh)
        assert len({built, fresh}) == 1
        # copies are made by the constructor, which sets the tables
        for copied in (copy.deepcopy(built),
                       pickle.loads(pickle.dumps(built))):
            assert copied == built and copied.element_at(5) * x.inv() == \
                built.one()


def test_equal_descriptors_share_one_set_of_tables():
    found = parse_field("Fq(2,3)")
    given = parse_field("Fq(2,3,t^3+t+1)")
    assert found is not given and found == given
    assert found._exp is given._exp
    assert found._log is given._log and found._zech is given._zech
    assert parse_field("Fq(2,3,t^3+t^2+1)")._exp is not found._exp
    pairs = list(itertools.product(range(found.order), repeat=2))
    for copied in (copy.copy(found), pickle.loads(pickle.dumps(found))):
        assert copied == found
        for a, b in pairs:
            assert copied.mul(a, b) == found.mul(a, b)
            assert copied.add(a, b) == found.add(a, b)
            if a:
                assert copied.inv(a) == found.inv(a)
        assert copied._exp is found._exp


def test_tables_above_the_cap_stay_unbuilt():
    before = field_core._tables.cache_info()
    F = Fq(17, 4)
    assert F.order > field_core.FIELD_TABLE_CAP
    assert F._log is None
    assert F.mul(F.canonical((1, 2, 3, 4)), 5) == \
        F.canonical((5, 10, 15, 20))
    assert field_core._tables.cache_info() == before


def test_table_cache_holds_a_fixed_number_of_fields():
    assert field_core._tables.cache_parameters()["maxsize"] == 16


def _rational_root(coeffs):
    """The first rational root that the tower over the monic Q base with
    Fraction coefficients coeffs (low degree first) finds, or None."""
    F = Q()
    f = univariate(F, [F.element(c) for c in coeffs])
    return Tower.over(f, 2).rational_root()


def _rational_coeffs(text):
    """Low degree first, from a monic univariate written like x^3-8/27."""
    f = parse_poly(Q(), text)
    coeffs = dict(f.terms)
    return [coeffs.get((i,), f.field.zero()).payload
            for i in range(f.degree + 1)]


@pytest.mark.parametrize("text,root", [
    ("x^2-1", 1), ("x^2-4/9", Fraction(2, 3)), ("x^3-8/27", Fraction(2, 3)),
    ("x^2+7/2*x-15/2", -5), ("x^2+x", 0), ("x^3-2", None),
    ("x^2+1/2", None), ("x^4+3*x^2+2", None)])
def test_first_rational_root_names_the_root(text, root):
    assert _rational_root(_rational_coeffs(text)) == root


def test_first_rational_root_matches_candidate_scan():
    # products of linear factors with small rational roots and x^2 + c;
    # the reference evaluates f at every +-a/b with a, b <= 12
    rng = random.Random(13)
    grid = sorted({Fraction(s * a, b) for a in range(13)
                   for b in range(1, 13) for s in (1, -1)})
    for _ in range(40):
        coeffs = [Fraction(rng.randint(1, 5), rng.randint(1, 3)), 0, 1]
        for _ in range(rng.randint(0, 2)):
            r = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
        roots = [x for x in grid
                 if sum(c * x ** i for i, c in enumerate(coeffs)) == 0]
        found = _rational_root(coeffs)
        assert (found is None) == (not roots)
        assert found is None or found in roots


@pytest.mark.parametrize("text,requested", [
    ("x^2+10000000000", 10 ** 10), ("x^2+1/10000000000", 10 ** 10)])
def test_rational_root_guard_before_trial_division(monkeypatch, text,
                                                   requested):
    def refuse(n):
        raise AssertionError("trial division before the guard")

    monkeypatch.setattr(anisotropic, "_divisors", refuse)
    with pytest.raises(TooLarge) as exc:
        _rational_root(_rational_coeffs(text))
    assert exc.value.guard == "RATIONAL_ROOT_GUARD"
    assert exc.value.limit == anisotropic.RATIONAL_ROOT_GUARD
    assert exc.value.requested == requested
