"""Tests for covers and nowhere-vanishing combination certificates."""

import random
from functools import partial

import pytest

from gelfand.anisotropic import Tower
from gelfand.covers import (
    CombinationCertificate,
    ProjectivePoint,
    certify,
    check_cover,
    combine_case1,
    combine_case2,
    image_points,
    indicator_poly,
    interpolate_case2,
    unit_combination_case3,
)
from gelfand.errors import (
    AvoidanceExhausted,
    CommonZero,
    OriginInJ,
    TooLarge,
)
from gelfand.field_core import (
    Fp,
    Fq,
    enumerate_field,
    find_rootfree_monic,
)
from gelfand.function_ring import RingElement
from gelfand.poly import MultiPoly, format_poly, univariate

import itertools


def _re(field, values):
    return RingElement.from_ints(field, values)


def test_check_cover_complementary_supports():
    F = Fp(2)
    cover = check_cover([_re(F, [1, 0]), _re(F, [0, 1])])
    assert cover.space.size == 2


def test_check_cover_common_zero():
    F = Fp(2)
    with pytest.raises(CommonZero) as exc:
        check_cover([_re(F, [1, 0]), _re(F, [1, 0])])
    assert exc.value.point == 1


def test_single_nowhere_zero_function_is_a_cover():
    F = Fp(3)
    cover = check_cover([_re(F, [1, 2, 1])])
    assert len(cover.functions) == 1


def test_image_points():
    F = Fp(2)
    cover = check_cover([_re(F, [1, 0]), _re(F, [0, 1])])
    J = image_points(cover)
    assert {tuple(x.payload for x in pt) for pt in J} == {(1, 0), (0, 1)}
    origin = (F.zero(), F.zero())
    assert origin not in J


def test_image_of_constant_cover():
    F = Fp(5)
    cover = check_cover([_re(F, [1, 1, 1])])
    assert image_points(cover) == [(F.one(),)]


def test_indicator_f2():
    F = Fp(2)
    assert format_poly(indicator_poly((F.one(),), F)) == "x1"


def test_indicator_f3_origin():
    F = Fp(3)
    ind = indicator_poly((F.zero(), F.zero()), F)
    # (1 - x^2)(1 - y^2)
    for pt in itertools.product(enumerate_field(F), repeat=2):
        expected = F.one() if all(x.is_zero for x in pt) else F.zero()
        assert ind.evaluate(pt) == expected


@pytest.mark.parametrize("field", [Fp(2), Fp(3), Fq(2, 2)])
def test_indicator_is_one_at_its_point(field):
    elems = enumerate_field(field)
    for a in itertools.product(elems, repeat=2):
        ind = indicator_poly(a, field)
        assert ind.evaluate(a) == field.one()


def _indicator_by_products(a, F):
    """Reference for indicator_poly: the product of the factors
    1 - (x_i - a_i)^(q-1), each power a (q-1)-fold product."""
    n, minus_one = len(a), -F.one()
    one = MultiPoly.constant(F, n, F.one())
    result = one
    for i, a_i in enumerate(a):
        shifted = MultiPoly.variable(F, n, i) + \
            MultiPoly.constant(F, n, -a_i)
        power = one
        for _ in range(F.order - 1):
            power = power * shifted
        result = result * (one + power * minus_one)
    return result


@pytest.mark.parametrize("field", [Fp(2), Fp(3), Fp(5), Fp(7), Fq(2, 2),
                                   Fq(3, 2)])
def test_indicator_matches_products(field):
    # every a when q^n <= 64, otherwise the origin and 8 seeded points
    rng = random.Random(str(field))
    elems = enumerate_field(field)
    for n in range(1, 5):
        if field.order ** n <= 64:
            points = list(itertools.product(elems, repeat=n))
        else:
            points = [(field.zero(),) * n] + [
                tuple(rng.choice(elems) for _ in range(n)) for _ in range(8)]
        for a in points:
            assert indicator_poly(a, field).terms == \
                _indicator_by_products(a, field).terms


def test_interpolate_makes_no_poly_arithmetic(monkeypatch):
    F = Fq(2, 2)
    elems = enumerate_field(F)
    J = [pt for pt in itertools.product(elems, repeat=2) if any(pt)]
    expected = MultiPoly.zero(F, 2)
    for a in J:
        expected = expected + _indicator_by_products(a, F)

    def refuse(*args):
        raise AssertionError("MultiPoly arithmetic")

    for op in ("__mul__", "__add__"):
        monkeypatch.setattr(MultiPoly, op, refuse)
    assert interpolate_case2(J, F, 2).terms == expected.terms


def test_interpolate_singleton():
    F = Fp(2)
    f = interpolate_case2([(F.one(),)], F, 1)
    assert format_poly(f) == "x1"


def test_interpolate_full_complement_f3():
    F = Fp(3)
    elems = enumerate_field(F)
    J = [pt for pt in itertools.product(elems, repeat=2)
         if any(not x.is_zero for x in pt)]
    f = interpolate_case2(J, F, 2)
    assert f.evaluate((F.zero(), F.zero())).is_zero
    for pt in J:
        assert f.evaluate(pt) == F.one()
    assert f.constant_term().is_zero


def test_interpolate_cross_cancellation_char2():
    F = Fp(2)
    J = [(F.one(), F.zero()), (F.zero(), F.one())]
    assert format_poly(interpolate_case2(J, F, 2)) == "x1 + x2"


def test_interpolate_rejects_origin():
    F = Fp(2)
    with pytest.raises(OriginInJ):
        interpolate_case2([(F.zero(), F.zero())], F, 2)


def test_combine_case1_f3():
    F = Fp(3)
    cover = check_cover([_re(F, [1, 0]), _re(F, [0, 1])])
    base = univariate(F, find_rootfree_monic(F, 2))
    cert = combine_case1(cover, base)
    assert format_poly(cert.witness) == "x1^2 + x2^2"
    assert [x.payload for x in cert.composite.values] == [1, 1]
    assert certify(cert)["pass"]


def test_combine_case1_single_function_identity():
    F = Fp(3)
    psi = _re(F, [1, 2])
    cover = check_cover([psi])
    base = univariate(F, find_rootfree_monic(F, 2))
    cert = combine_case1(cover, base)
    assert format_poly(cert.witness) == "x1"
    assert cert.composite == psi


def test_combine_case1_f2_three_functions():
    F = Fp(2)
    cover = check_cover([_re(F, [1, 0, 0]), _re(F, [0, 1, 0]),
                         _re(F, [0, 0, 1])])
    base = univariate(F, find_rootfree_monic(F, 2))
    cert = combine_case1(cover, base)
    assert all(v == F.one() for v in cert.composite.values)
    assert certify(cert)["pass"]


def test_case3_f5_two_functions():
    F = Fp(5)
    cover = check_cover([_re(F, [1, 0]), _re(F, [0, 1])])
    cert = unit_combination_case3(cover)
    assert [c.payload for c in cert.coefficients] == [1, 4]
    assert [v.payload for v in cert.composite.values] == [1, 4]
    assert certify(cert)["pass"]
    assert cert.per_step_log[0]["chosen_a"] == "1"


def test_case3_single_function():
    F = Fp(5)
    psi = _re(F, [2, 3])
    cert = unit_combination_case3(check_cover([psi]))
    assert [c.payload for c in cert.coefficients] == [1]
    assert cert.composite == psi


def test_case3_avoidance_exhausted_over_f2():
    F = Fp(2)
    cover = check_cover([_re(F, [1, 0]), _re(F, [1, 1])])
    with pytest.raises(AvoidanceExhausted):
        unit_combination_case3(cover)


def test_case3_per_step_invariant_seeded():
    rng = random.Random(2024)
    for _ in range(20):
        q = rng.choice([5, 7, 11])
        F = Fp(q)
        size = rng.randint(2, q - 1)
        n = rng.randint(2, 4)
        cover = check_cover(_random_cover(rng, F, size, n))
        cert = unit_combination_case3(cover)
        assert certify(cert)["pass"]
        assert all(step["cover_restored"] for step in cert.per_step_log)


def _random_cover(rng, field, size, n):
    elems = enumerate_field(field)
    fns = [[rng.choice(elems) for _ in range(size)] for _ in range(n)]
    for x in range(size):
        if all(fns[i][x].is_zero for i in range(n)):
            fns[rng.randrange(n)][x] = rng.choice(elems[1:])
    return [RingElement(field, tuple(v)) for v in fns]


def test_cross_mode_agreement():
    F = Fp(5)
    rng = random.Random(9)
    for _ in range(10):
        cover = check_cover(_random_cover(rng, F, 3, 2))
        base = univariate(F, find_rootfree_monic(F, 2))
        for cert in (combine_case1(cover, base), combine_case2(cover),
                     unit_combination_case3(cover)):
            assert certify(cert)["pass"]


@pytest.mark.parametrize("field", [Fp(2), Fp(3), Fq(2, 2)])
def test_witness_evaluated_once_per_distinct_column(monkeypatch, field):
    rng = random.Random(str(field))
    base = univariate(field, find_rootfree_monic(field, 2))
    evaluate = MultiPoly.evaluate
    calls = []

    def counting(original):
        def wrapper(f, point):
            calls.append((f, tuple(point)))
            return original(f, point)
        return wrapper

    monkeypatch.setattr(MultiPoly, "evaluate", counting(evaluate))
    monkeypatch.setattr(Tower, "evaluate", counting(Tower.evaluate))
    for _ in range(6):
        cover = check_cover(_random_cover(rng, field, 20, rng.randint(1, 3)))
        columns = [tuple(psi.values[x] for psi in cover.functions)
                   for x in cover.space.points()]
        distinct = set(columns)
        for combine in (partial(combine_case1, base=base), combine_case2):
            calls.clear()
            cert = combine(cover)
            # route I evaluates the nested tower, not its expanded
            # witness, and also evaluates its base while building the form
            if combine is combine_case2:
                points = [pt for f, pt in calls if f is cert.witness]
            else:
                assert not [f for f, _ in calls if f is cert.witness]
                points = [pt for f, pt in calls if isinstance(f, Tower)]
            assert len(points) == len(distinct) and set(points) == distinct
            assert cert.composite.values == tuple(
                evaluate(cert.witness, col) for col in columns)
            calls.clear()
            assert certify(cert)["pass"]
            assert len(calls) == len(distinct)


def test_certify_detects_tampering():
    F = Fp(5)
    cover = check_cover([_re(F, [1, 0]), _re(F, [0, 1])])
    good = unit_combination_case3(cover)
    bad = CombinationCertificate(
        "CaseIII", cover, good.composite,
        coefficients=(F.one(), F.zero()))  # combination vanishes at point 1
    report = certify(bad)
    assert not report["pass"]
    assert report["failing_point"] == 1


def test_projective_canonicalization():
    F = Fp(7)
    u, v = F.element(3), F.element(5)
    base = ProjectivePoint.of(u, v)
    for lam in enumerate_field(F):
        if lam.is_zero:
            continue
        assert ProjectivePoint.of(lam * u, lam * v) == base
    inf = ProjectivePoint.of(F.element(2), F.zero())
    assert inf.is_infinite
    assert inf == ProjectivePoint.of(F.element(6), F.zero())
    with pytest.raises(ValueError):
        ProjectivePoint.of(F.zero(), F.zero())


def test_certificate_json_record():
    F = Fp(5)
    cover = check_cover([_re(F, [1, 0]), _re(F, [0, 1])])
    record = unit_combination_case3(cover).to_json()
    assert record["mode"] == "CaseIII"
    assert record["witness"] == ["1", "4"]
    assert record["pass"]
    assert record["per_step_log"][0]["image_size"] == 2


def test_certify_cross_checks_the_nested_route_one(monkeypatch):
    """Route I's composite comes from the nested tower and certify
    re-evaluates the expanded witness, so a corrupted tower value must
    fail the recomputation."""
    F = Fp(5)
    rng = random.Random(11)
    cover = check_cover(_random_cover(rng, F, 12, 3))
    base = univariate(F, find_rootfree_monic(F, 2))
    assert certify(combine_case1(cover, base)) == {
        "pass": True, "nonvanishing": True, "ideal_membership": True,
        "recomputation": True}
    evaluate = Tower.evaluate
    calls = []

    def corrupt_second_column(tower, point):
        calls.append(point)
        value = evaluate(tower, point)
        return value + F.one() if len(calls) == 2 else value

    monkeypatch.setattr(Tower, "evaluate", corrupt_second_column)
    report = certify(combine_case1(cover, base))
    assert len(calls) >= 2
    assert report["recomputation"] is False
    assert report["pass"] is False
    # the witness itself is intact, so the recomputed values never vanish
    assert report["nonvanishing"] and report["ideal_membership"]


def test_route_one_refused_above_form_guard_before_any_product(monkeypatch):
    F = Fp(2)
    rng = random.Random(12)
    cover = check_cover(_random_cover(rng, F, 8, 12))
    base = univariate(F, find_rootfree_monic(F, 2))

    def refuse(*args):
        raise AssertionError("product above the guard")

    monkeypatch.setattr(MultiPoly, "__mul__", refuse)
    with pytest.raises(TooLarge) as info:
        combine_case1(cover, base)
    assert info.value.guard == "FORM_TERMS_GUARD"
    assert info.value.requested == 2047
