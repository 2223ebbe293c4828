"""Tests for covers and nowhere-vanishing combination certificates."""

import math
import random
from functools import partial

import pytest

from gelfand import covers
from gelfand.anisotropic import FORM_TERMS_GUARD, Tower
from gelfand.covers import (
    CombinationCertificate,
    certify,
    check_cover,
    combine_case1,
    combine_case2,
    image_points,
    indicator_poly,
    interpolate_case2,
    projective_payloads,
    unit_combination_case3,
)
from gelfand.errors import (
    AvoidanceExhausted,
    CommonZero,
    MixedFields,
    OriginInJ,
    TooLarge,
)
from gelfand.field_core import (
    Fp,
    Fq,
    enumerate_field,
    find_rootfree_monic,
    from_payload,
)
from gelfand.function_ring import RingElement
from gelfand.poly import MultiPoly, format_poly, univariate

import itertools


def _re(field, values):
    """A function from its values' payloads; in a prime field these are
    the residues."""
    return RingElement.from_payloads(field, tuple(values))


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
    assert image_points(cover) == [(0, 1), (1, 0)]


def test_image_of_constant_cover():
    F = Fp(5)
    cover = check_cover([_re(F, [1, 1, 1])])
    assert image_points(cover) == [(1,)]


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


def _indicator_by_lucas(a, F):
    """Reference for indicator_poly: the product of the factors
    1 - (x_i - a_i)^(q-1), each written from the coefficients that Lucas'
    theorem gives (binom(q-1, j) = (-1)^j mod p, so (x - b)^(q-1) is the
    sum of b^(q-1-j) x^j over j < q), multiplied out term by term."""
    mul, add, neg = F.mul, F.add, F.neg
    terms = {(): 1}
    for b in a:
        b = b.payload
        powers = [1]  # b^0 .. b^(q-1)
        for _ in range(F.order - 1):
            powers.append(mul(powers[-1], b))
        coeffs = [add(1, neg(powers[-1]))] + [neg(c)
                                              for c in reversed(powers[:-1])]
        factor = [(j, c) for j, c in enumerate(coeffs) if c]
        terms = {m + (j,): mul(c, f)
                 for m, c in terms.items() for j, f in factor}
    return MultiPoly.from_payloads(F, len(a), terms)


def _interpolate_by_sum(J, F, arity):
    """Reference for interpolate_case2: the sum of the indicators of the
    points of J."""
    acc = MultiPoly.zero(F, arity)
    for a in J:
        acc = acc + _indicator_by_lucas(a, F)
    return acc


# the fields of the benchmark's cover workload, each with its largest
# number of functions
COVER_FIELDS = [(Fp(2), 6), (Fp(3), 4), (Fp(5), 3), (Fp(7), 2),
                (Fq(2, 2, (1, 1, 1)), 3), (Fq(2, 3, (1, 1, 0, 1)), 2),
                (Fq(2, 3, (1, 0, 1, 1)), 2)]


@pytest.mark.parametrize("field,cap", COVER_FIELDS, ids=str)
def test_interpolant_matches_sum_of_indicators(field, cap):
    rng = random.Random(str(field))
    for k in range(16):
        n = rng.randint(1, cap)
        cover = check_cover(_random_cover(
            rng, field, rng.randint(10, 40), n, zero_heavy=k % 2 == 1))
        J = [tuple(from_payload(field, a) for a in pt)
             for pt in image_points(cover)]
        expected = _interpolate_by_sum(J, field, n).terms
        assert interpolate_case2(J, field, n).terms == expected
        assert combine_case2(cover).witness.terms == expected


def test_interpolate_takes_a_repeated_point_once():
    # J is a set of points: the interpolant stays 1 on each of them
    F = Fp(3)
    J = [(F.one(), F.zero()), (F.one(), F.zero()), (F.zero(), F.one())]
    f = interpolate_case2(J, F, 2)
    assert f.terms == _interpolate_by_sum(J[1:], F, 2).terms
    assert all(f.evaluate(a) == F.one() for a in J)


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


def _random_cover(rng, field, size, n, zero_heavy=False):
    """n functions on size points with no common zero; a zero-heavy
    cover draws zero seven times in ten before a uniform draw."""
    elems = enumerate_field(field)

    def value():
        if zero_heavy and rng.random() < 0.7:
            return elems[0]
        return rng.choice(elems)

    fns = [[value() for _ in range(size)] for _ in range(n)]
    for x in range(size):
        if all(fns[i][x].is_zero for i in range(n)):
            fns[rng.randrange(n)][x] = rng.choice(elems[1:])
    return [RingElement(field, tuple(v)) for v in fns]


def _case3_by_field_elements(cover):
    """Reference for route III on field elements: the image of [psi~, psi_i]
    is a set of canonical pairs built by the elements' division, the
    candidates come from enumerate_field, and psi~ is updated by the
    elements' operators. Returns the coefficients, the step log and the
    composite's values, or raises AvoidanceExhausted."""
    F = cover.field
    one, zero = F.one(), F.zero()

    def projective(u, v):
        return (one, zero) if v.is_zero else (u / v, one)

    psis = [psi.values for psi in cover.functions]
    coeffs = [one] + [zero] * (len(psis) - 1)
    current = psis[0]
    log = []
    for i in range(1, len(psis)):
        rest = psis[i + 1:]
        y_points = [x for x in cover.space.points()
                    if all(r[x].is_zero for r in rest)]
        image = {projective(current[x], psis[i][x]) for x in y_points}
        chosen = next((a for a in enumerate_field(F)
                       if projective(a, one) not in image), None)
        if chosen is None:
            raise AvoidanceExhausted(i)
        coeffs[i] = -chosen
        current = tuple(c - chosen * v for c, v in zip(current, psis[i]))
        log.append({"step": i + 1, "chosen_a": str(chosen),
                    "image_size": len(image),
                    "restricted_points": len(y_points),
                    "cover_restored": True})
    return tuple(coeffs), tuple(log), current


@pytest.mark.parametrize("field", [Fp(5), Fp(7), Fq(2, 2), Fq(2, 3)],
                         ids=str)
def test_case3_matches_field_element_reference(field):
    rng = random.Random(field.order)
    outcomes = set()
    for k in range(80):
        cover = check_cover(_random_cover(
            rng, field, rng.randint(3, 30), rng.randint(2, 4),
            zero_heavy=k % 2 == 1))
        try:
            expected = _case3_by_field_elements(cover)
        except AvoidanceExhausted as exc:
            with pytest.raises(AvoidanceExhausted) as raised:
                unit_combination_case3(cover)
            assert raised.value.step == exc.step
            outcomes.add("exhausted")
            continue
        cert = unit_combination_case3(cover)
        assert (cert.coefficients, cert.per_step_log,
                cert.composite.values) == expected
        outcomes.add("certified")
    assert outcomes == {"certified", "exhausted"}


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
    evaluate = MultiPoly.evaluate_payloads
    calls = []

    def counting(original):
        def wrapper(f, xs):
            calls.append((f, tuple(xs)))
            return original(f, xs)
        return wrapper

    monkeypatch.setattr(MultiPoly, "evaluate_payloads", counting(evaluate))
    monkeypatch.setattr(Tower, "evaluate_payloads",
                        counting(Tower.evaluate_payloads))
    for _ in range(6):
        cover = check_cover(_random_cover(rng, field, 20, rng.randint(1, 3)))
        columns = list(zip(*(psi.payloads for psi in cover.functions)))
        distinct = set(columns)
        for combine in (partial(combine_case1, base=base), combine_case2):
            calls.clear()
            cert = combine(cover)
            if combine is combine_case2:
                # the composite is the constant one, evaluated nowhere
                assert calls == []
            else:
                # route I evaluates the nested tower (and the tower its
                # f2), never the expanded witness
                assert not [f for f, _ in calls if f is cert.witness]
                points = [pt for f, pt in calls if isinstance(f, Tower)]
                assert len(points) == len(distinct)
                assert set(points) == distinct
            calls.clear()
            assert certify(cert)["pass"]
            assert [f for f, _ in calls] == [cert.witness] * len(distinct)
            assert {pt for _, pt in calls} == distinct
            assert cert.composite.payloads == tuple(
                evaluate(cert.witness, col) for col in columns)


def test_certify_rejects_a_changed_route_two_coefficient():
    """Negative control: changing one coefficient of route II's witness
    fails the recomputation exactly when the changed term is nonzero at
    some column of the cover."""
    F = Fp(3)
    rng = random.Random(15)
    caught = 0
    for _ in range(4):
        cover = check_cover(_random_cover(rng, F, 8, 2))
        cert = combine_case2(cover)
        columns = [tuple(psi.values[x] for psi in cover.functions)
                   for x in cover.space.points()]
        for mono, c in cert.witness.terms:
            terms = dict(cert.witness.terms)
            terms[mono] = c + F.one()
            bad = CombinationCertificate(
                "CaseII", cover, cert.composite,
                witness=MultiPoly.from_dict(F, 2, terms))
            seen = any(not math.prod((x ** e for x, e in zip(col, mono)),
                                     start=F.one()).is_zero
                       for col in columns)
            report = certify(bad)
            assert report["recomputation"] is not seen
            assert report["ideal_membership"] is (sum(mono) > 0)
            caught += seen
    assert caught > 0


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
    base = projective_payloads(F, u.payload, v.payload)
    assert base == ((u / v).payload, 1)
    for lam in enumerate_field(F):
        if lam.is_zero:
            continue
        assert projective_payloads(F, (lam * u).payload,
                                   (lam * v).payload) == base
    assert projective_payloads(F, 2, 0) == (1, 0)
    assert projective_payloads(F, 6, 0) == (1, 0)
    with pytest.raises(ValueError):
        projective_payloads(F, 0, 0)


def test_witness_outside_the_covers_ring_is_refused():
    F = Fp(3)
    cover = check_cover([_re(F, [1, 0]), _re(F, [0, 1])])
    cert = combine_case2(cover)
    for witness in (MultiPoly.variable(F, 1, 0),
                    MultiPoly.variable(Fp(5), 2, 0)):
        with pytest.raises(MixedFields):
            certify(CombinationCertificate("CaseII", cover, cert.composite,
                                           witness=witness))
    with pytest.raises(MixedFields):
        combine_case1(cover, univariate(Fp(5), find_rootfree_monic(Fp(5), 2)))


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
    evaluate = Tower.evaluate_payloads
    calls = []

    def corrupt_second_column(tower, xs):
        calls.append(xs)
        value = evaluate(tower, xs)
        return F.add(value, 1) if len(calls) == 2 else value

    monkeypatch.setattr(Tower, "evaluate_payloads", corrupt_second_column)
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


def test_route_two_refused_above_form_guard_before_any_product(monkeypatch):
    F = Fp(7)
    rng = random.Random(13)
    cover = check_cover(_random_cover(rng, F, 6, 7))
    q = F.order
    bound = min(sum(math.prod(q - 1 if b else 2 for b in a)
                    for a in image_points(cover)), q ** 7)

    def refuse(*args):
        raise AssertionError("transform above the guard")

    monkeypatch.setattr(covers, "_indicator_sum", refuse)
    with pytest.raises(TooLarge) as info:
        combine_case2(cover)
    assert (info.value.guard, info.value.limit, info.value.requested) == \
        ("FORM_TERMS_GUARD", FORM_TERMS_GUARD, bound)
    assert bound > FORM_TERMS_GUARD


def test_route_two_admitted_at_the_form_guard():
    # q^n = 2^10 is the guard itself, so any cover of 10 functions over F_2
    # is admitted, however many terms its indicators may have
    F = Fp(2)
    rng = random.Random(14)
    cover = check_cover(_random_cover(rng, F, 12, 10))
    cert = combine_case2(cover)
    assert len(cert.witness.terms) <= FORM_TERMS_GUARD
    assert certify(cert)["pass"]
