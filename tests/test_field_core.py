"""Tests for exact field arithmetic, enumeration, and parsing."""

import random
from fractions import Fraction

import pytest

from gelfand.errors import (
    DivisionByZero,
    InfiniteField,
    MixedFields,
    ParseError,
    WrongKind,
)
from gelfand.field_core import (
    Fp,
    Fq,
    Q,
    Qsqrt,
    Valuation,
    element_sort_key,
    enumerate_field,
    eval_univariate,
    find_rootfree_monic,
    format_element,
    format_field,
    padic_valuation,
    parse_element,
    parse_field,
)


def test_f5_inverse_matches_exhaustive_search():
    F = Fp(5)
    two = F.from_int(2)
    # independent oracle: scan all elements for the inverse
    expected = next(a for a in enumerate_field(F) if (two * a) == F.one())
    assert two.inv() == expected
    assert expected == F.from_int(3)


def test_rational_add():
    F = Q()
    half = F.element(Fraction(1, 2))
    third = F.element(Fraction(1, 3))
    assert (half + third).payload == Fraction(5, 6)


@pytest.mark.parametrize("field", [Fp(5), Fq(2, 2), Q(), Qsqrt(-1)])
def test_additive_inverse(field):
    x = field.from_int(7)
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


def test_padic_examples():
    assert padic_valuation(Fraction(12), 2) == Valuation(2)
    assert padic_valuation(Fraction(0), 5).is_infinite
    assert padic_valuation(Fraction(1, 9), 3) == Valuation(-2)


def test_padic_properties_seeded():
    rng = random.Random(42)
    for p in (2, 3, 5):
        for _ in range(100):
            x = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
            y = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
            assert padic_valuation(x * y, p) == \
                padic_valuation(x, p) + padic_valuation(y, p)
            if x + y != 0:
                vx, vy = padic_valuation(x, p), padic_valuation(y, p)
                vsum = padic_valuation(x + y, p)
                assert not vsum < min(vx, vy)
                if vx != vy:
                    assert vsum == min(vx, vy)


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


def test_norm_on_wrong_kind():
    with pytest.raises(WrongKind):
        Fp(3).one().norm()


@pytest.mark.parametrize("field", [Fp(7), Fq(2, 3), Fq(3, 2)])
def test_field_axioms_sampled(field):
    rng = random.Random(11)
    elems = enumerate_field(field)
    one, zero = field.one(), field.zero()
    for _ in range(60):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a * one == a
        assert a + zero == a
        if not a.is_zero:
            assert a * a.inv() == one


def test_quadratic_axioms_sampled():
    F = Qsqrt(-2)
    rng = random.Random(13)
    for _ in range(40):
        a = F.element((Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
                       Fraction(rng.randint(-5, 5), rng.randint(1, 5))))
        b = F.element((Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
                       Fraction(rng.randint(-5, 5), rng.randint(1, 5))))
        assert a * b == b * a
        assert (a + b) - b == a
        if not a.is_zero:
            assert a * a.inv() == F.one()


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


@pytest.mark.parametrize("text", ["Fp(5)", "Fq(2,3,t^3+t+1)", "Q",
                                  "Q(sqrt(-1))", "Fq(3,2,t^2+1)"])
def test_field_text_roundtrip(text):
    assert format_field(parse_field(text)) == text


def test_field_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_field("Fp(x)")
    assert exc.value.pos == 3
    assert "prime" in exc.value.expected


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


def test_element_sort_key_is_enumeration_order():
    F = Fq(2, 2)
    elems = enumerate_field(F)
    assert sorted(elems, key=element_sort_key) == elems


def test_eval_univariate_horner():
    F = Fp(5)
    coeffs = tuple(F.from_int(c) for c in (1, 2, 3))  # 3x^2 + 2x + 1
    assert eval_univariate(coeffs, F.from_int(2)).payload == (3 * 4 + 4 + 1) % 5


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


def test_valuation_hash_agrees_with_int_equality():
    assert hash(Valuation(3)) == hash(3)
    assert Valuation(3) == 3
    assert len({Valuation(3), 3}) == 1
