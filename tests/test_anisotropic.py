"""Tests for origin-only-vanishing forms and their verification."""

import random
from fractions import Fraction

import pytest

from gelfand.anisotropic import (
    ExhaustivePassed,
    Failed,
    ValuationPassed,
    SampledPassed,
    build_fn,
    norm_form_eval,
    valuation_identity_check,
    verify_vanishing_exhaustive,
    verify_vanishing_sampled,
)
from gelfand.errors import HasRoot, TooLarge, WrongKind
from gelfand.field_core import (
    Fp,
    Fq,
    Q,
    Qsqrt,
    enumerate_field,
    find_rootfree_monic,
)
from gelfand.poly import format_poly, parse_poly, univariate


def _base(field, m=2):
    return univariate(field, find_rootfree_monic(field, m))


def test_build_fn_sum_of_squares():
    f = parse_poly(Q(), "x^2 + 1")
    assert format_poly(build_fn(f, 2)) == "x1^2 + x2^2"


def test_build_fn_f2_trivariate():
    f = parse_poly(Fp(2), "x^2 + x + 1")
    f3 = build_fn(f, 3)
    # (x1^2+x1x2+x2^2)^2 + (x1^2+x1x2+x2^2)x3 + x3^2, expanded in char 2
    expected = parse_poly(
        Fp(2),
        "x1^4 + x1^2*x2^2 + x2^4 + x1^2*x3 + x1*x2*x3 + x2^2*x3 + x3^2")
    assert f3 == expected


def test_build_fn_arity_one_is_identity():
    f = parse_poly(Fp(3), "x^2 + 1")
    assert format_poly(build_fn(f, 1)) == "x1"


def test_build_fn_rejects_rooted_base():
    f = parse_poly(Fp(3), "x^2 + 2")  # 1^2 + 2 = 0 mod 3
    with pytest.raises(HasRoot):
        build_fn(f, 2)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                 (3, 4)])
def test_degree_law_and_constant_term(m, n):
    for field in (Fp(2), Fp(3)):
        fn = build_fn(_base(field, m), n)
        assert fn.degree == m ** (n - 1)
        assert fn.constant_term().is_zero
        if n == 2:
            assert fn.is_homogeneous()
        # for n >= 3 the tower is homogeneous only in the weighted sense:
        # the variable added at stage k carries weight m^(k-2)
        weights = [1, 1] + [m ** k for k in range(1, n - 1)]
        for mono, _ in fn.terms:
            assert sum(w * e for w, e in zip(weights, mono)) == m ** (n - 1)


def test_verify_passes_on_f2_quadratic():
    g = parse_poly(Fp(2), "x1^2 + x1*x2 + x2^2")
    result = verify_vanishing_exhaustive(g)
    assert result == ExhaustivePassed(4)


def test_verify_fails_on_product():
    g = parse_poly(Fp(2), "x1*x2")
    result = verify_vanishing_exhaustive(g)
    assert isinstance(result, Failed)
    # the lexicographically smallest offending point
    assert tuple(x.payload for x in result.counterexample) == (0, 1)


def test_verify_f3_arity3():
    g = build_fn(parse_poly(Fp(3), "x^2 + 1"), 3)
    assert verify_vanishing_exhaustive(g) == ExhaustivePassed(27)


def test_verify_guard():
    g = parse_poly(Fp(101), "x1 + x2 + x3 + x4")
    with pytest.raises(TooLarge):
        verify_vanishing_exhaustive(g)


@pytest.mark.parametrize("field", [Fp(2), Fp(3), Fp(5), Fp(7),
                                   Fq(2, 2), Fq(3, 2)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_exhaustive_suite_small_fields(field, n):
    fn = build_fn(_base(field), n)
    result = verify_vanishing_exhaustive(fn)
    assert result == ExhaustivePassed(field.order ** n)


def test_norm_form_examples():
    Qi = Qsqrt(-1)
    zero2 = (Qi.zero(), Qi.zero())
    assert norm_form_eval(zero2).is_zero
    pair = (Qi.element((1, 1)), Qi.element((2, 0)))
    assert norm_form_eval(pair).payload == Fraction(6)
    assert norm_form_eval((Qi.element((0, 1)),)).payload == Fraction(1)


def test_norm_form_invariances():
    Qi = Qsqrt(-1)
    rng = random.Random(3)
    for _ in range(30):
        pts = tuple(Qi.element((Fraction(rng.randint(-5, 5)),
                                Fraction(rng.randint(-5, 5))))
                    for _ in range(3))
        value = norm_form_eval(pts)
        shuffled = list(pts)
        rng.shuffle(shuffled)
        assert norm_form_eval(shuffled) == value
        conj = (pts[0].conjugate(),) + pts[1:]
        assert norm_form_eval(conj) == value


def test_norm_form_wrong_kind():
    with pytest.raises(WrongKind):
        norm_form_eval((Q().one(),))


def test_valuation_identity_examples():
    assert valuation_identity_check(3, [(1, 1)]) == ValuationPassed(1)
    assert valuation_identity_check(2, [(2, 1)]) == ValuationPassed(1)
    assert valuation_identity_check(5, [(0, 0)]) == ValuationPassed(1)


def test_valuation_identity_seeded():
    rng = random.Random(17)
    for p in (2, 3, 5):
        samples = []
        while len(samples) < 100:
            x = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
            y = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
            if x != 0 or y != 0:
                samples.append((x, y))
        assert valuation_identity_check(p, samples) == ValuationPassed(100)


def test_witness_record_json():
    from gelfand.anisotropic import AnisotropicWitness
    field = Fp(3)
    base = _base(field)
    fn = build_fn(base, 2)
    w = AnisotropicWitness(base, 2, fn, verify_vanishing_exhaustive(fn))
    record = w.to_json()
    assert record["degree"] == 2
    assert record["verification"] == {"mode": "exhaustive",
                                      "points_checked": 9}


def test_valuation_result_carries_prime():
    result = valuation_identity_check(3, [(1, 1), (2, 5)])
    assert result.prime == 3
    assert result.to_json() == {"mode": "valuation", "samples": 2,
                                "prime": 3}


def _q_points(coords):
    return [tuple(Q().element(v) for v in pt) for pt in coords]


def test_sampled_passes_on_sum_of_squares():
    g = parse_poly(Q(), "x1^2 + x2^2")
    result = verify_vanishing_sampled(g, _q_points([(1, 1), (0, 3), (-2, 5)]))
    assert result == SampledPassed(3)
    assert result.to_json()["mode"] == "sampled"


def test_sampled_fails_on_isotropic_form():
    g = parse_poly(Q(), "x1^2 - x2^2")
    result = verify_vanishing_sampled(g, _q_points([(1, 2), (1, 1), (3, 1)]))
    assert isinstance(result, Failed)
    assert tuple(x.payload for x in result.counterexample) == (1, 1)


def test_sampled_fails_on_nonzero_constant_at_origin():
    g = parse_poly(Q(), "x1^2 + x2^2 + 1")
    result = verify_vanishing_sampled(g, _q_points([(1, 1)]))
    assert isinstance(result, Failed)
    assert all(x.is_zero for x in result.counterexample)
    assert len(result.counterexample) == 2
