"""Tests for covers and nowhere-vanishing combination certificates."""

import math
import random
from fractions import Fraction
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
    Q,
    Qsqrt,
    enumerate_field,
    find_rootfree_monic,
    from_payload,
)
from gelfand.function_ring import RingElement
from gelfand.poly import MultiPoly, format_poly, parse_poly, univariate
from test_poly import forbid_field_elements

import itertools


def _re(field, values):
    """A function from its values' payloads; in a prime field these are
    the residues."""
    return RingElement.from_payloads(field, tuple(values))


def _linear_coefficients(cert):
    """The coefficients c_1, ..., c_n of route III's witness, zeros
    included, once the witness is checked to be a linear form."""
    g = cert.witness
    assert all(sum(m) == 1 for m, _ in g.terms)
    coeffs = dict(g.terms)
    return tuple(coeffs.get(covers._variable(g.arity, i), g.field.zero())
                 for i in range(g.arity))


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
        shifted = parse_poly(F, f"x{i + 1}", n) + \
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


def _payloads(J):
    """The payload points of route II's interpolant, from element points."""
    return [tuple(x.payload for x in a) for a in J]


def _interpolate_by_sum(J, F, arity):
    """Reference for route II's interpolant: the sum of the indicators
    of the points of J."""
    acc = MultiPoly.zero(F, arity)
    for a in J:
        acc = acc + _indicator_by_lucas(a, F)
    return acc


# the fields of the benchmark's cover workload, each with its largest
# number of functions
COVER_FIELDS = [(Fp(2), 6), (Fp(3), 4), (Fp(5), 3), (Fp(7), 2),
                (Fq(2, 2, (1, 1, 1)), 3), (Fq(2, 3, (1, 1, 0, 1)), 2),
                (Fq(2, 3, (1, 0, 1, 1)), 2)]


def _axis_terms_by_products(J, F, arity):
    """Reference for the number of terms of route II's per-axis
    products: for each axis, the MultiPoly product of the factors
    1 - x_i/c over the distinct first nonzero values c on that axis."""
    counts = []
    for i in range(arity):
        values = {a[i] for a in J
                  if next(k for k, b in enumerate(a) if not b.is_zero) == i}
        one = MultiPoly.constant(F, 1, F.one())
        product = one
        for c in values:
            product = product * (one + parse_poly(F, "x1") * -c.inv())
        counts.append(len(product.terms))
    return counts


def _values_on(f, points):
    return [f.evaluate(a) for a in points]


@pytest.mark.parametrize("field,cap", COVER_FIELDS, ids=str)
def test_interpolant_matches_sum_of_indicators(field, cap):
    # on the seeded covers, the interpolant and the sum of indicators are
    # 1 on J and 0 at the origin: their composites agree
    rng = random.Random(str(field))
    for k in range(16):
        n = rng.randint(1, cap)
        cover = check_cover(_random_cover(
            rng, field, rng.randint(10, 40), n, zero_heavy=k % 2 == 1))
        J = [tuple(from_payload(field, a) for a in pt)
             for pt in image_points(cover)]
        witness = covers._interpolant(field, n, image_points(cover))
        assert combine_case2(cover).witness == witness
        assert (0,) * n not in dict(witness.terms)
        assert witness.evaluate((field.zero(),) * n).is_zero
        assert _values_on(witness, J) == [field.one()] * len(J)
        reference = _interpolate_by_sum(J, field, n)
        columns = list(zip(*(psi.values for psi in cover.functions)))
        assert _values_on(witness, columns) == _values_on(reference, columns)
        assert len(witness.terms) == \
            math.prod(_axis_terms_by_products(J, field, n)) - 1


def test_interpolate_takes_a_repeated_point_once():
    # a repeated point, or a repeated first nonzero value, gives one
    # factor: 1 - (1 - x1)(1 - x2) over F_3
    F = Fp(3)
    one, zero, two = F.one(), F.zero(), F.element(2)
    J = [(one, zero), (one, zero), (zero, one), (one, two)]
    f = covers._interpolant(F, 2, _payloads(J))
    assert format_poly(f) == "2*x1*x2 + x1 + x2"
    assert f == covers._interpolant(F, 2, _payloads(J[1:3]))
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
    assert covers._interpolant(F, 2, _payloads(J)).terms == expected.terms


def test_interpolate_singleton():
    f = covers._interpolant(Fp(2), 1, [(1,)])
    assert format_poly(f) == "x1"


def test_interpolate_full_complement_f3():
    F = Fp(3)
    elems = enumerate_field(F)
    J = [pt for pt in itertools.product(elems, repeat=2)
         if any(not x.is_zero for x in pt)]
    f = covers._interpolant(F, 2, _payloads(J))
    assert f.evaluate((F.zero(), F.zero())).is_zero
    for pt in J:
        assert f.evaluate(pt) == F.one()
    assert (0, 0) not in dict(f.terms)


def test_interpolate_cross_cancellation_char2():
    # in characteristic 2, 1 - x/c = 1 + x/c; over F_4 the factors for
    # the three nonzero values multiply to 1 + x^3, their x and x^2
    # terms cancelling within the axis
    f = covers._interpolant(Fp(2), 2, [(1, 0), (0, 1)])
    assert format_poly(f) == "x1*x2 + x1 + x2"
    F = Fq(2, 2)
    J = [(c, F.zero()) for c in enumerate_field(F)[1:]] + [(F.zero(), F.one())]
    f = covers._interpolant(F, 2, _payloads(J))
    assert format_poly(f) == "x1^3*x2 + x1^3 + x2"
    assert all(f.evaluate(a) == F.one() for a in J)


def test_interpolate_rejects_origin():
    with pytest.raises(OriginInJ):
        covers._interpolant(Fp(2), 2, [(0, 0)])


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
    assert [c.payload for c in _linear_coefficients(cert)] == [1, 4]
    assert [v.payload for v in cert.composite.values] == [1, 4]
    assert certify(cert)["pass"]
    assert cert.per_step_log[0]["chosen_a"] == "1"


def test_case3_single_function():
    F = Fp(5)
    psi = _re(F, [2, 3])
    cert = unit_combination_case3(check_cover([psi]))
    assert [c.payload for c in _linear_coefficients(cert)] == [1]
    assert cert.composite == psi


def test_case3_avoidance_exhausted_over_f2():
    F = Fp(2)
    cover = check_cover([_re(F, [1, 0]), _re(F, [1, 1])])
    with pytest.raises(AvoidanceExhausted):
        unit_combination_case3(cover)


def test_case3_restoration_check_catches_a_missed_ratio(monkeypatch):
    # with 1/2 read as 1 the image misses the ratio 3 at point 3, so 3
    # is chosen and the new combination 1 - 3*2 vanishes there
    F = Fp(5)
    inv = type(F).inv
    monkeypatch.setattr(type(F), "inv",
                        lambda self, a: 1 if a == 2 else inv(self, a))
    cover = check_cover([_re(F, [0, 1, 2, 1]), _re(F, [1, 1, 1, 2])])
    with pytest.raises(CommonZero) as exc:
        unit_combination_case3(cover)
    assert exc.value.point == 3


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
        assert (_linear_coefficients(cert), cert.per_step_log,
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
    # the linear form x1 alone vanishes at point 1
    bad = CombinationCertificate("CaseIII", cover, good.composite,
                                 parse_poly(F, "x1", 2))
    report = certify(bad)
    assert not report["pass"]
    assert not report["recomputation"]
    assert report["failing_point"] == 1


def test_certify_rejects_route_three_witness_with_a_constant_term():
    """Negative control: a constant added to route III's linear form
    takes it out of the ideal, although the composite still never
    vanishes and matches the witness's values."""
    F = Fp(5)
    cover = check_cover([_re(F, [1, 0]), _re(F, [0, 1])])
    good = unit_combination_case3(cover)
    # x1 + 4*x2 + 2 takes the values 3 and 1 on the cover
    witness = good.witness + MultiPoly.constant(F, 2, F.element(2))
    bad = CombinationCertificate("CaseIII", cover,
                                 covers._by_column(cover, witness), witness)
    report = certify(bad)
    assert report == {"pass": False, "nonvanishing": True,
                      "ideal_membership": False, "recomputation": True}
    assert certify(good)["pass"]


def test_functions_of_different_sizes_name_their_sizes():
    F = Fp(5)
    with pytest.raises(MixedFields) as exc:
        check_cover([_re(F, [1, 0]), _re(F, [0])])
    assert str(exc.value) == "function 2 has 1 values, function 1 has 2"
    with pytest.raises(MixedFields) as exc:
        check_cover([_re(F, [1, 0]), _re(F, [0, 1]), _re(F, [1, 1, 1])])
    assert str(exc.value) == "function 3 has 3 values, function 1 has 2"


def test_functions_over_different_fields_are_mixed_fields():
    with pytest.raises(MixedFields) as exc:
        check_cover([_re(Fp(5), [1, 0]), _re(Fp(3), [0, 1])])
    assert str(exc.value) == "functions live in different rings"


def test_witness_outside_the_covers_ring_is_refused():
    F = Fp(3)
    cover = check_cover([_re(F, [1, 0]), _re(F, [0, 1])])
    cert = combine_case2(cover)
    for witness in (parse_poly(F, "x1"), parse_poly(Fp(5), "x1", 2)):
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


@pytest.mark.parametrize("field,rows", [
    (Fp(5), [[1, 0, 2, 3], [0, 1, 4, 0]]),
    (Fq(2, 2), [[1, 0, 2, 3], [0, 1, 3, 3]]),
    (Q(), [[1, 0, Fraction(1, 2)], [0, 1, Fraction(-3)]]),
], ids=["Fp(5)", "Fq(2,2)", "Q"])
def test_certify_builds_no_field_element(monkeypatch, field, rows):
    # certify evaluates the witness and reads its constant term on
    # payloads, for each route that the field admits
    cover = check_cover([_re(field, row) for row in rows])
    certs = [combine_case2(cover)]
    if field.is_finite:
        base = univariate(field, find_rootfree_monic(field, 2))
        certs += [combine_case1(cover, base), unit_combination_case3(cover)]
    forbid_field_elements(monkeypatch)
    for cert in certs:
        assert certify(cert) == {"pass": True, "nonvanishing": True,
                                 "ideal_membership": True,
                                 "recomputation": True}


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


def _refuse(*args):
    raise AssertionError("product above the guard")


def test_route_two_refused_above_form_guard_before_any_product(monkeypatch):
    F = Fp(7)
    rng = random.Random(13)
    cover = check_cover(_random_cover(rng, F, 40, 7, zero_heavy=True))
    J = [tuple(from_payload(F, a) for a in pt) for pt in image_points(cover)]
    count = math.prod(_axis_terms_by_products(J, F, 7)) - 1
    monkeypatch.setattr(covers, "_product_over_axes", _refuse)
    with pytest.raises(TooLarge) as info:
        combine_case2(cover)
    assert (info.value.guard, info.value.limit, info.value.requested) == \
        ("FORM_TERMS_GUARD", FORM_TERMS_GUARD, count)
    assert str(info.value) == (f"route II's interpolant has exactly {count} "
                               f"terms; the form-terms guard is 1024")
    assert count > FORM_TERMS_GUARD


def test_route_two_admitted_at_the_form_guard():
    # over F_2 every factor is 1 + x_i, so 10 functions give at most
    # 2^10 - 1 terms and are admitted
    F = Fp(2)
    rng = random.Random(14)
    cover = check_cover(_random_cover(rng, F, 12, 10))
    cert = combine_case2(cover)
    assert len(cert.witness.terms) <= FORM_TERMS_GUARD - 1
    assert certify(cert)["pass"]


def test_route_two_refused_one_axis_past_the_guard(monkeypatch):
    # 11 functions over F_2, each leading an image point: 2^11 - 1 terms
    F = Fp(2)
    cover = check_cover([_re(F, [int(i == x) for x in range(11)])
                         for i in range(11)])
    monkeypatch.setattr(covers, "_product_over_axes", _refuse)
    with pytest.raises(TooLarge) as info:
        combine_case2(cover)
    assert info.value.requested == 2047


def test_route_two_exact_count_at_the_guard_over_q():
    # over Q the factors for positive values have alternating signs and
    # no zero coefficient: 40, 4 and 4 values give 41 * 5 * 5 - 1 = 1024
    # terms, the guard itself; one more value on the last axis is refused
    F = Q()

    def points(last):
        return ([(F.element(c), F.zero(), F.zero()) for c in range(1, 41)]
                + [(F.zero(), F.element(c), F.zero()) for c in range(1, 5)]
                + [(F.zero(), F.zero(), F.element(c))
                   for c in range(1, last + 1)])

    f = covers._interpolant(F, 3, _payloads(points(4)))
    assert len(f.terms) == FORM_TERMS_GUARD
    assert all(f.evaluate(a) == F.one() for a in points(4))
    with pytest.raises(TooLarge) as info:
        covers._interpolant(F, 3, _payloads(points(5)))
    assert info.value.requested == 41 * 5 * 6 - 1


def _rational_cover(rng, F, size, n, value):
    fns = [[value(rng) if rng.random() < 0.6 else F.zero()
            for _ in range(size)] for _ in range(n)]
    for x in range(size):
        if all(fns[i][x].is_zero for i in range(n)):
            fns[rng.randrange(n)][x] = F.one()
    return [RingElement(F, tuple(v)) for v in fns]


@pytest.mark.parametrize("field", [Q(), Qsqrt(-1)], ids=str)
def test_route_two_over_infinite_fields(field):
    rng = random.Random(str(field))

    def value(rng):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        return field.element((a, b) if field.kind == "quadratic" else a)

    for _ in range(12):
        n = rng.randint(1, 3)
        cover = check_cover(_rational_cover(rng, field, rng.randint(2, 8), n,
                                            value))
        cert = combine_case2(cover)
        assert certify(cert)["pass"]
        J = [tuple(from_payload(field, a) for a in pt)
             for pt in image_points(cover)]
        assert len(cert.witness.terms) == \
            math.prod(_axis_terms_by_products(J, field, n)) - 1


def test_certify_rejects_route_two_without_one_axis(monkeypatch):
    """Negative control: route II's witness with the factor of one axis
    dropped. Certify fails exactly when the witness is not 1 on every
    column; dropping the last axis that leads a point leaves the
    product 1 there, so the witness vanishes at that point."""
    F = Fp(5)
    rng = random.Random(16)
    linear_product = covers._linear_product
    for _ in range(10):
        cover = check_cover(_random_cover(rng, F, 10, 3))
        columns = [tuple(from_payload(F, a) for a in col) for col in
                   zip(*(psi.payloads for psi in cover.functions))]
        leads = {next(i for i, b in enumerate(a) if b)
                 for a in image_points(cover)}
        for k in sorted(leads):
            axes = iter(range(3))

            def dropping(F, values):
                return ([(0, 1)] if next(axes) == k
                        else linear_product(F, values))

            monkeypatch.setattr(covers, "_linear_product", dropping)
            bad = combine_case2(cover)
            monkeypatch.undo()
            assert bad.witness != combine_case2(cover).witness
            report = certify(bad)
            assert report["pass"] is (
                _values_on(bad.witness, columns) == [F.one()] * len(columns))
            if k == max(leads):
                assert report["pass"] is False
                assert report["nonvanishing"] is False
