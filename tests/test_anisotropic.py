"""Tests for origin-only-vanishing forms and their verification."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from gelfand import anisotropic
from gelfand.anisotropic import (
    FORM_TERMS_GUARD,
    ExhaustivePassed,
    Failed,
    RationalTower,
    ValuationPassed,
    SampledPassed,
    Tower,
    build_fn,
    norm_form_eval,
    valuation_identity_check,
    verify_vanishing_exhaustive,
)
from gelfand.errors import (
    ArityMismatch,
    HasRoot,
    InfiniteField,
    TooLarge,
    WrongKind,
)
from gelfand.field_core import (
    Fp,
    Fq,
    Q,
    Qsqrt,
    enumerate_field,
    find_rootfree_monic,
)
from gelfand.poly import (
    MultiPoly,
    compose_last,
    format_poly,
    homogenize2,
    parse_poly,
    univariate,
)
from test_poly import (
    _compose_last_by_products,
    _count_payload_products,
    forbid_field_elements,
)


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


def test_build_fn_reports_first_root_before_expanding(monkeypatch):
    def powers(*args):
        raise AssertionError("the powers of f were built before the root "
                             "check")
    monkeypatch.setattr(anisotropic, "_powers", powers)
    f = parse_poly(Fp(5), "x^2 + 1")   # roots 2 and 3
    with pytest.raises(HasRoot) as info:
        build_fn(f, 3)
    assert info.value.root == Fp(5).element(2)


def test_build_fn_root_check_precedes_monic_check():
    # 2*1^2 + 1 = 0 in F_3, and the base is not monic either
    with pytest.raises(HasRoot) as info:
        build_fn(parse_poly(Fp(3), "2*x^2 + 1"), 2)
    assert info.value.root == Fp(3).element(1)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                 (3, 4)])
def test_degree_law_and_constant_term(m, n):
    for field in (Fp(2), Fp(3)):
        fn = build_fn(_base(field, m), n)
        assert fn.degree == m ** (n - 1)
        assert (0,) * n not in dict(fn.terms)
        if n == 2:
            assert all(sum(m) == fn.degree for m, _ in fn.terms)
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


@pytest.mark.parametrize("field", [Fp(2), Fp(3), Fp(5), Fq(2, 2)])
def test_chevalley_warning_negative_control(field):
    """Seeded random polynomials of degree d < n with zero constant term
    have a nontrivial zero (Chevalley-Warning), so the verifier must
    report Failed on forms it did not construct."""
    rng = random.Random(field.order)
    elems = enumerate_field(field)
    for _ in range(8):
        n = rng.randint(2, 4 if field.order <= 4 else 3)
        d = rng.randint(1, n - 1)
        monos = [m for m in itertools.product(range(d + 1), repeat=n)
                 if 1 <= sum(m) <= d]
        chosen = rng.sample(monos, rng.randint(1, len(monos)))
        g = MultiPoly.from_dict(field, n,
                                {m: rng.choice(elems) for m in chosen})
        result = verify_vanishing_exhaustive(g)
        assert isinstance(result, Failed)
        point = result.counterexample
        assert any(not x.is_zero for x in point)
        assert g.evaluate(point).is_zero


@pytest.mark.parametrize("field", [Fp(2), Fp(3), Fp(5), Fp(7),
                                   Fq(2, 2), Fq(3, 2)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_exhaustive_suite_small_fields(field, n):
    fn = build_fn(_base(field), n)
    result = verify_vanishing_exhaustive(fn)
    assert result == ExhaustivePassed(field.order ** n)


# (field, base degree m, largest n) with q^n * terms of the expanded
# form at most about 20k, so the per-term reference stays under a second
DIFFERENTIAL_CASES = [
    (Fp(2), 2, 5), (Fp(2), 3, 5), (Fp(3), 2, 5), (Fp(3), 3, 4),
    (Fp(5), 2, 3), (Fp(5), 3, 3), (Fp(7), 2, 3), (Fp(7), 3, 3),
    (Fq(2, 2), 2, 4), (Fq(2, 2), 3, 4), (Fq(3, 2), 2, 3), (Fq(3, 2), 3, 3),
]


@pytest.mark.parametrize("field,m,n", [
    pytest.param(field, m, n, id=f"{field}-m{m}-n{n}")
    for field, m, top in DIFFERENTIAL_CASES for n in range(1, top + 1)])
def test_tower_verifier_matches_per_term_reference(field, m, n):
    f = _base(field, m)
    expected = verify_vanishing_exhaustive(build_fn(f, n))
    assert expected == ExhaustivePassed(field.order ** n)
    assert Tower.over(f, n).verify_exhaustive() == expected


def _unchecked_tower(f, n):
    """build_fn without its root-free check, for rooted negative controls."""
    f2 = homogenize2(f)
    g = parse_poly(f.field, "x1")
    for _ in range(n - 1):
        g = compose_last(f2, g)
    return g


@pytest.mark.parametrize("n,point", [(2, (1, 2)), (3, (0, 1, 2))])
def test_tower_verifier_fails_on_rooted_base(n, point):
    f = parse_poly(Fp(5), "x^2 + 1")   # 2^2 + 1 = 0 in F_5
    result = Tower.over(f, n).verify_exhaustive()
    assert isinstance(result, Failed)
    assert tuple(x.payload for x in result.counterexample) == point
    assert result == verify_vanishing_exhaustive(_unchecked_tower(f, n))
    if n == 2:
        assert result == verify_vanishing_exhaustive(
            parse_poly(Fp(5), "x1^2 + x2^2"))


def test_tower_verifier_guard_precedes_work(monkeypatch):
    # the q^n guard fires before the q x q table of f2 is built
    tower = Tower.over(parse_poly(Fp(2), "x^2 + x + 1"), 24)
    _forbid(monkeypatch, Tower, "_f2_table")
    with pytest.raises(TooLarge):
        tower.verify_exhaustive()
    with pytest.raises(InfiniteField):
        Tower.over(parse_poly(Q(), "x^2 + 1"), 2).verify_exhaustive()


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
    field = Fp(3)
    base = _base(field)
    fn = build_fn(base, 2)
    record = Tower.over(base, 2).record(verify_vanishing_exhaustive(fn))
    assert list(record) == ["base", "arity", "form", "degree",
                            "verification"]
    assert record["form"] == format_poly(fn)
    assert record["degree"] == 2
    assert record["verification"] == {"mode": "exhaustive",
                                      "points_checked": 9}


def test_valuation_result_carries_prime():
    result = valuation_identity_check(3, [(1, 1), (2, 5)])
    assert result.prime == 3
    assert result.to_json() == {"mode": "valuation", "samples": 2,
                                "prime": 3}


VALUATION_PRIMES = (2, 3, 5, 7, 11, 13)


def _padic(r, p):
    """v_p of a rational: the exponent of p in the numerator minus that
    in the denominator, or None for 0, whose valuation is +infinity."""
    r = Fraction(r)
    if r == 0:
        return None
    v = 0
    for n, sign in ((r.numerator, 1), (r.denominator, -1)):
        while n % p == 0:
            n //= p
            v += sign
    return v


def _min_valuation(*vs):
    """The least of valuations given by `_padic`, None as +infinity."""
    return min((v for v in vs if v is not None), default=None)


def test_padic_examples():
    assert _padic(12, 2) == 2
    assert _padic(Fraction(0), 5) is None
    assert _padic(Fraction(1, 9), 3) == -2
    assert _padic(Fraction(-50, 7), 5) == 2 and _padic(7, 5) == 0


def test_padic_properties_seeded():
    # v(xy) = v(x) + v(y) and v(x + y) >= min(v(x), v(y)), with equality
    # when v(x) != v(y), on seeded rationals that include 0 (v = +inf)
    rng = random.Random(42)
    values = [Fraction(0)] + [Fraction(rng.randint(-50, 50) or 1,
                                       rng.randint(1, 50)) for _ in range(30)]
    for p in (2, 3, 5):
        for x, y in itertools.product(values, repeat=2):
            vx, vy = _padic(x, p), _padic(y, p)
            vxy = None if None in (vx, vy) else vx + vy
            assert _padic(x * y, p) == vxy
            vsum, least = _padic(x + y, p), _min_valuation(vx, vy)
            assert vsum is None or vsum >= least
            if vx != vy:
                assert vsum == least


def _valuation_reference(p, x, y):
    """The identity at one pair, with Fraction arithmetic and `_padic`:
    the reference oracle for the integer kernel."""
    x, y = Fraction(x), Fraction(y)
    value = x * x - p * y * y
    if x == 0 and y == 0:
        return value == 0
    lhs = _padic(value, p)
    vx, vy = _padic(x, p), _padic(y, p)
    return lhs is not None and lhs == _min_valuation(
        None if vx is None else 2 * vx, None if vy is None else 2 * vy + 1)


def _scaled_pairs(rng, p, count):
    """Seeded (x, y), each an int pair (numerator, denominator) whose
    parts carry p^0..3 and a common factor, so most are not reduced;
    zero coordinates occur, and three pairs put them in every place."""
    def coordinate():
        k = rng.randint(1, 6)
        return (rng.randint(-30, 30) * p ** rng.randint(0, 3) * k,
                rng.randint(1, 30) * p ** rng.randint(0, 3) * k)
    pairs = [(coordinate(), coordinate()) for _ in range(count)]
    return pairs + [((0, 1), (5, p)), ((3 * p, p * p), (0, 4)),
                    ((0, 2 * p), (0, 9))]


@pytest.mark.parametrize("p", VALUATION_PRIMES)
def test_valuation_kernel_matches_fraction_reference(p):
    pairs = _scaled_pairs(random.Random(p), p, 300)
    for (a, b), (c, d) in pairs:
        x, y = Fraction(a, b), Fraction(c, d)
        expected = ValuationPassed(1) if _valuation_reference(p, x, y) \
            else Failed((x, y))
        assert valuation_identity_check(p, [((a, b), (c, d))]) == expected
        assert valuation_identity_check(p, [(x, y)]) == expected
    assert valuation_identity_check(p, pairs) == ValuationPassed(len(pairs))


def test_valuation_kernel_checks_the_prime_once_and_builds_no_fraction(
        monkeypatch):
    calls = []
    prime = anisotropic.is_prime
    monkeypatch.setattr(anisotropic, "is_prime",
                        lambda n: calls.append(n) or prime(n))

    def no_fraction(*args):
        raise AssertionError("a Fraction was built")
    monkeypatch.setattr(anisotropic, "Fraction", no_fraction)
    pairs = _scaled_pairs(random.Random(5), 5, 100)
    assert valuation_identity_check(5, pairs) == ValuationPassed(103)
    assert calls == [5]

    def untouched():
        raise AssertionError("a sample was drawn")
        yield
    with pytest.raises(ValueError, match="4 is not prime"):
        valuation_identity_check(4, untouched())


def test_valuation_check_refuses_a_prime_that_is_not_an_int():
    # 5.0 would pass as prime and be reported as "prime": 5.0
    with pytest.raises(TypeError, match="is_prime takes an int"):
        valuation_identity_check(5.0, [((1, 1), (1, 1))])


@pytest.mark.parametrize("p,pair,unreduced,counterexample", [
    (4, (2, 1), ((4, 2), (3, 3)), ["2", "1"]),
    (9, (3, 1), ((6, 2), (-5, -5)), ["3", "1"])])
def test_valuation_kernel_negative_control_composite_p(
        monkeypatch, p, pair, unreduced, counterexample):
    # x^2 - p*y^2 vanishes at (sqrt(p), 1) when p is a square
    prime = anisotropic.is_prime
    monkeypatch.setattr(anisotropic, "is_prime",
                        lambda n: n in (4, 9) or prime(n))
    for bad in (pair, unreduced):
        result = valuation_identity_check(p, [(1, 1), (0, 0), bad])
        assert result == Failed(tuple(map(Fraction, pair)))
        assert result.to_json()["counterexample"] == counterexample


@pytest.mark.parametrize("p,x,y", [
    (3, (1, 1), (1, 1)), (2, (3, 4), (5, 6)), (5, (10, 3), (0, 7)),
    (7, (0, 2), (14, 9))])
def test_valuation_kernel_negative_control_multiplicity_off_by_one(
        monkeypatch, p, x, y):
    # a kernel that miscounts p in N = (a*d)^2 - p*(c*b)^2 must fail a
    # pair that the Fraction oracle passes
    (a, b), (c, d) = x, y
    N = (a * d) ** 2 - p * (c * b) ** 2
    assert N not in (a, b, c, d)
    assert _valuation_reference(p, Fraction(a, b), Fraction(c, d))
    assert valuation_identity_check(p, [(x, y)]) == ValuationPassed(1)
    multiplicity = anisotropic._multiplicity
    monkeypatch.setattr(anisotropic, "_multiplicity",
                        lambda n, q: multiplicity(n, q) + (n == N))
    assert valuation_identity_check(p, [((1, 1), (0, 1)), (x, y)]) == \
        Failed((Fraction(a, b), Fraction(c, d)))


def test_valuation_kernel_reads_numbers_and_refuses_other_fields():
    # what Fraction reads is read: (1/2, 3) as a float, a string, a
    # Decimal and a Fraction alike
    from decimal import Decimal
    expected = ValuationPassed(1)
    for x in (0.5, "1/2", Decimal("0.5"), Fraction(1, 2), Q().element(
            Fraction(1, 2))):
        assert valuation_identity_check(3, [(x, 3)]) == expected
    # x^2 - 2*y^2 at (1/2, 1/2) is -1/4: v_2 = -2 = min(-2, -1)
    assert valuation_identity_check(2, [("1/2", 0.5)]) == expected
    # an element of F_5 is not a rational, whatever its payload
    with pytest.raises(WrongKind):
        valuation_identity_check(3, [(Fp(5).element(2), 1)])
    with pytest.raises(WrongKind):
        valuation_identity_check(3, [(1, Qsqrt(-1).one())])


def test_witness_loop_refuses_other_fields():
    F = Q()
    tower = Tower.over(parse_poly(F, "x^2+1"), 2)
    with pytest.raises(WrongKind):
        tower.verify_sampled([(F.one(), Fp(5).element(2))])
    assert tower.verify_sampled([(0.5, "2/3")]) == SampledPassed(1)
    # a finite field is verified exhaustively, not sampled
    assert not hasattr(Tower.over(_base(Fp(3)), 2), "verify_sampled")


# ---------------------------------------------------------------------------
# the element-level sampled reference, and the tests of the reference


def verify_vanishing_sampled(g, points):
    """Reference for `RationalTower.verify_sampled` on the expanded form
    g, evaluated term by term on field elements: g must vanish at the
    origin, checked first, and at none of the given points, in order;
    the first violation is reported."""
    points = list(points)
    for pt in itertools.chain([(g.field.zero(),) * g.arity], points):
        if all(x.is_zero for x in pt) != g.evaluate(pt).is_zero:
            return Failed(pt)
    return SampledPassed(len(points))


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


# ---------------------------------------------------------------------------
# the nested tower against the expanded form

NESTED_FIELDS = [Fp(2), Fp(3), Fp(5), Fp(7), Fq(2, 2), Fq(3, 2)]
# q^n * terms of the expanded form up to which every point is compared
# and the per-term reference verifier runs; above it, seeded points
PER_TERM_BUDGET = 600_000


@pytest.mark.parametrize("field", NESTED_FIELDS, ids=str)
@pytest.mark.parametrize("n", range(1, 7))
def test_nested_tower_matches_expanded_form(field, n):
    f = _base(field)
    tower = Tower.over(f, n)
    form = build_fn(f, n)
    assert tower.expand() == form
    assert tower.degree == form.degree
    q = field.order
    elems = enumerate_field(field)
    exhaustive = q ** n * len(form.terms) <= PER_TERM_BUDGET
    if exhaustive:
        points = itertools.product(elems, repeat=n)
    else:
        rng = random.Random(f"{field}-{n}")
        points = [tuple(rng.choice(elems) for _ in range(n))
                  for _ in range(400)]
    for pt in points:
        value = tower.evaluate(pt)
        assert value == form.evaluate(pt)
    expected = ExhaustivePassed(q ** n)
    assert tower.verify_exhaustive() == expected
    if exhaustive:
        assert verify_vanishing_exhaustive(form) == expected


def _seeded_rationals(rng, count):
    """Seeded nonzero and zero rationals with various denominators."""
    return [Fraction(rng.randint(-40, 40), rng.randint(1, 30))
            for _ in range(count)]


@pytest.mark.parametrize("witness,top", [
    ("x^2+3", 4), ("x^2-3*x+5", 4), ("x^4+2*x^2+3", 3), ("x^2+1/2", 4),
    ("x^2+1/2*x+2/3", 4), ("x^3+5/7", 3)])
def test_rational_pairs_match_expanded_form(witness, top):
    F = Q()
    f = parse_poly(F, witness)
    rng = random.Random(witness)
    for n in range(1, top + 1):
        tower = Tower.over(f, n)
        form = build_fn(f, n)
        assert tower.expand() == form
        for _ in range(60):
            pt = tuple(F.element(v) for v in _seeded_rationals(rng, n))
            value = tower.evaluate(pt)
            assert value == form.evaluate(pt)
            assert value.payload == form.evaluate_payloads(
                tuple(x.payload for x in pt))
    

def test_rational_tower_zero_test_reads_the_numerator():
    # x^2 - 1 has the roots 1 and -1, so the tower vanishes off the origin
    F = Q()
    tower = Tower.over(parse_poly(F, "x^2 - 1"), 3)
    # T2 = x1^2 - x2^2 = 3, T3 = T2^2 - x3^2 = 0 at x3 = -3
    root = tuple(F.element(v) for v in (2, 1, -3))
    assert tower.evaluate(root).is_zero
    near = tuple(F.element(v) for v in (2, 1, Fraction(-3, 2)))
    assert tower.evaluate(near) == F.element(Fraction(27, 4))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_nested_negative_control_rooted_base_finite(n):
    f = parse_poly(Fp(5), "x^2 + 1")   # 2^2 + 1 = 0 in F_5
    with pytest.raises(HasRoot):
        build_fn(f, n)
    tower = Tower.over(f, n)
    result = tower.verify_exhaustive()
    assert isinstance(result, Failed)
    assert result == verify_vanishing_exhaustive(_unchecked_tower(f, n))
    assert tower.evaluate(result.counterexample).is_zero
    assert tower.expand() == _unchecked_tower(f, n)


@pytest.mark.parametrize("field,text", [(Fp(3), "x^2 + 2"),
                                        (Q(), "x^2 - 1")], ids=str)
def test_rooted_tower_records_its_form_and_failure(field, text):
    # the record expands the tower it holds, with no second root test:
    # over a finite field as over Q, a rooted base writes its form
    # beside the Failed verification, while build_fn still refuses it
    tower = Tower.over(parse_poly(field, text), 3)
    result = (tower.verify_exhaustive() if field.is_finite
              else tower.verify_sampled([]))
    assert isinstance(result, Failed)
    record = tower.record(result)
    assert record["form"] == format_poly(tower.expand())
    assert record["verification"] == result.to_json()
    if field.is_finite:
        with pytest.raises(HasRoot):
            build_fn(tower.base, 3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_nested_negative_control_rooted_base_rational(monkeypatch, n):
    F = Q()
    f = parse_poly(F, "x^2 - 1")
    rng = random.Random(n)
    points = [tuple(F.element(v) for v in _seeded_rationals(rng, n))
              for _ in range(30)]
    # zeros off the origin: x1 = x2 makes every level vanish
    for at in (7, 19):
        pt = [F.element(rng.randint(1, 9)) for _ in range(n)]
        pt[1] = pt[0]
        pt[2:] = [F.zero()] * (n - 2)
        points.insert(at, tuple(pt))
    tower = Tower.over(f, n)
    # the root 1 gives the zero (1, 1, 0, ..., 0) before any sample
    assert tower.verify_sampled(points) == \
        Failed((F.one(), F.one()) + (F.zero(),) * (n - 2))
    # without the root test, the samples find a zero of their own
    monkeypatch.setattr(RationalTower, "rational_root",
                        lambda self: None)
    result = tower.verify_sampled(points)
    assert isinstance(result, Failed)
    assert result.counterexample == points[7]
    assert result == verify_vanishing_sampled(build_fn(f, n), points)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rooted_rational_witness_fails_before_any_sample(n):
    F = Q()
    f = parse_poly(F, "x^2 - 4/9")

    def unread():
        raise AssertionError("a sample was read")
        yield
    result = Tower.over(f, n).verify_sampled(unread())
    assert result == Failed((F.element(Fraction(2, 3)), F.one())
                            + (F.zero(),) * (n - 2))
    assert Tower.over(f, n).evaluate(result.counterexample).is_zero
    assert build_fn(f, n).evaluate(result.counterexample).is_zero


def test_rootfree_rational_witness_is_sampled():
    F = Q()
    f = parse_poly(F, "x^3 - 2")
    points = [tuple(F.element(v) for v in pt)
              for pt in [(1, 2, 3), (0, 0, 1), (-5, 0, 0)]]
    assert Tower.over(f, 3).verify_sampled(points) == SampledPassed(3)
    # n = 1: the form is x1, whatever roots the base has
    assert Tower.over(parse_poly(F, "x^2 - 1"), 1).verify_sampled([]) == \
        SampledPassed(0)


def _pair_points(rng, n, roots):
    """Seeded points of int pairs, most not reduced, with zeros; for each
    root u/v, points (u*k/(v*k), k/k, 0, ..., 0) where a rooted base's
    tower vanishes."""
    def coordinate():
        k = rng.randint(1, 4)
        return rng.randint(-6, 6) * k, rng.randint(1, 6) * k
    points = [[coordinate() for _ in range(n)] for _ in range(40)]
    for r in roots:
        k = rng.randint(1, 4)
        points.append([(r.numerator * k, r.denominator * k), (k, k)]
                      + [(0, rng.randint(1, 9))] * (n - 2))
    return points


@pytest.mark.parametrize("witness,roots", [
    ("x^2+1", []), ("x^2-3*x+5", []), ("x^2+1/2*x+2/3", []),
    ("x^2-1", [1, -1]), ("x^3-8/27", [Fraction(2, 3)]),
    ("x^2-5/6*x+1/6", [Fraction(1, 2), Fraction(1, 3)])])
def test_int_pair_vanishing_matches_expanded_form(monkeypatch, witness,
                                                  roots):
    F = Q()
    f = parse_poly(F, witness)
    rng = random.Random(witness)
    for n in range(2, 5):
        # a rooted base fails at the zero of its root, before any sample
        result = Tower.over(f, n).verify_sampled([])
        if roots:
            r, *rest = result.counterexample
            assert r.payload in roots
            assert rest == [F.one()] + [F.zero()] * (n - 2)
        else:
            assert result == SampledPassed(0)
    # without the root test, the sample loop alone meets the roots' zeros
    monkeypatch.setattr(RationalTower, "rational_root",
                        lambda self: None)
    vanished = 0
    for n in range(1, 5):
        tower = Tower.over(f, n)
        form = tower.expand()
        for pairs in _pair_points(rng, n, roots if n > 1 else []):
            point = tuple(F.element(Fraction(a, b)) for a, b in pairs)
            value = form.evaluate(point)
            num, den = tower._pair(pairs)
            assert (num == 0) == value.is_zero
            assert Fraction(num, den) == value.payload
            assert tower.verify_sampled([pairs]) == \
                verify_vanishing_sampled(form, [point])
            vanished += value.is_zero and any(a for a, _ in pairs)
    assert (vanished > 0) == bool(roots)


def test_witness_loop_builds_elements_only_for_a_counterexample(
        monkeypatch):
    F = Q()
    f = parse_poly(F, "x^2+1/2*x+2/3")
    rng = random.Random(3)
    pairs = [[(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(3)]
             for _ in range(50)]
    elements = [tuple(F.element(Fraction(a, b)) for a, b in pt)
                for pt in pairs]
    tower = Tower.over(f, 3)
    expected = tower.verify_sampled(elements)
    assert expected == SampledPassed(50)

    def forbidden(*args):
        raise AssertionError("an element or a Fraction was built")
    monkeypatch.setattr(anisotropic, "Fraction", forbidden)
    monkeypatch.setattr(anisotropic, "from_payload", forbidden)
    assert tower.verify_sampled(pairs) == expected
    # n = 1: the form is x1, also on int pairs
    assert Tower.over(f, 1).verify_sampled([[(0, 3)], [(2, 4)]]) == \
        SampledPassed(2)


def test_int_pairs_with_denominator_zero_are_refused():
    F = Q()
    f = parse_poly(F, "x^2+1")
    with pytest.raises(ZeroDivisionError, match="denominator 0"):
        Tower.over(f, 2).verify_sampled([[(1, 2), (3, 0)]])
    with pytest.raises(ZeroDivisionError, match="denominator 0"):
        valuation_identity_check(3, [((0, 0), (0, 1))])


def _pair_by_terms(tower, pairs):
    """Reference for `RationalTower._pair`: each level sums the terms
    c*u^i*v^j of L*f2, read from the expanded f2."""
    num, den = pairs[0]
    if tower.f2 is None:
        return num, den
    terms = tower.f2.terms
    lcm = math.lcm(*(c.payload.denominator for _, c in terms))
    m = tower.f2.degree
    for a, b in pairs[1:]:
        u, v = num * b, a * den
        num = sum(int(c.payload * lcm) * u ** i * v ** j
                  for (i, j), c in terms)
        den = lcm * (den * b) ** m
    return num, den


@pytest.mark.parametrize("witness", ["x^4+3*x^2+2", "x^3+5/7", "x^5+1"])
def test_pair_horner_matches_the_term_sum(witness):
    # sparse bases and odd degrees, at unreduced and negative denominators
    F = Q()
    f = parse_poly(F, witness)
    rng = random.Random(witness)
    for n in range(1, 5):
        tower = Tower.over(f, n)
        form = tower.expand()
        for _ in range(12):
            pairs = []
            for _ in range(n):
                k = rng.randint(1, 3)
                pairs.append((rng.randint(-7, 7) * k,
                              rng.choice([-1, 1]) * rng.randint(1, 7) * k))
            num, den = tower._pair(pairs)
            assert (num, den) == _pair_by_terms(tower, pairs)
            value = Fraction(num, den)
            assert value == tower.evaluate_payloads(pairs)
            assert value == form.evaluate_payloads(
                tuple(Fraction(a, b) for a, b in pairs))


def test_int_pairs_must_hold_ints():
    # a float or Fraction entry would run the loops in float or Fraction
    # arithmetic: 1e-200 squared underflows to a zero numerator
    F = Q()
    tower = Tower.over(parse_poly(F, "x^2+1"), 2)
    for bad in ([(1e-200, 1), (1e-200, 1)], [(0.5, 1), (1, 3)],
                [(1, 3), (1, Fraction(1, 2))]):
        with pytest.raises(TypeError, match="must hold ints"):
            tower.verify_sampled([bad])
        with pytest.raises(TypeError, match="must hold ints"):
            tower.evaluate_payloads(bad)
        with pytest.raises(TypeError, match="must hold ints"):
            valuation_identity_check(5, [tuple(bad)])
    # ints pass, and so do bools, which operator.index reads as ints
    for good in ([(1, 2), (-1, 3)], [(True, 1), (1, True)]):
        assert tower.verify_sampled([good]) == SampledPassed(1)
        assert valuation_identity_check(5, [tuple(good)]) == \
            ValuationPassed(1)
    assert tower.evaluate_payloads([(True, 2), (2, -4)]) == Fraction(1, 2)


def test_witness_loop_negative_control_without_the_root_test(monkeypatch):
    # with the rational root test skipped, the root 1 of x^2 - 1 must
    # still be found at a sample where the tower vanishes
    monkeypatch.setattr(RationalTower, "rational_root",
                        lambda self: None)
    F = Q()
    f = parse_poly(F, "x^2-1")
    points = [[(1, 2), (1, 3), (1, 5)], [(2, 2), (3, 3), (0, 5)],
              [(1, 1), (1, 1), (1, 1)]]
    result = Tower.over(f, 3).verify_sampled(points)
    assert result == Failed((F.one(), F.one(), F.zero()))
    assert result.to_json()["counterexample"] == ["1", "1", "0"]


def test_sampled_reads_int_pairs_without_ratio(monkeypatch):
    # the CLI's int pairs are read inline; anything else still goes
    # through _ratio. (0, 1, -1) is a zero of the rooted x^2 - 1 off the
    # origin whose first numerator is 0, so the loop must read past it
    monkeypatch.setattr(RationalTower, "rational_root",
                        lambda self: None)
    seen = []
    ratio = anisotropic._ratio
    monkeypatch.setattr(anisotropic, "_ratio",
                        lambda x: seen.append(x) or ratio(x))
    F = Q()
    tower = Tower.over(parse_poly(F, "x^2 - 1"), 3)
    points = [[(1, 2), (1, 3), (1, 5)], [(0, 7), (2, 2), (-3, 3)]]
    assert tower.verify_sampled(points) == \
        Failed((F.zero(), F.one(), -F.one()))
    assert seen == []
    others = [Fraction(1, 2), (True, 3), F.element(5)]
    assert tower.verify_sampled([others]) == SampledPassed(1)
    assert seen == others


def test_nested_sampled_checks_the_origin_and_keeps_order():
    F = Q()
    tower = Tower.over(parse_poly(F, "x^2 + 1"), 3)
    points = [tuple(F.element(v) for v in pt)
              for pt in [(1, 2, 3), (0, 0, 1), (-5, 0, 0)]]
    assert tower.verify_sampled(points) == SampledPassed(3)
    assert tower.verify_sampled(points) == verify_vanishing_sampled(
        build_fn(parse_poly(F, "x^2 + 1"), 3), points)
    # the origin among the samples is consistent, not a violation
    origin = (F.zero(),) * 3
    assert tower.verify_sampled(points + [origin]) == SampledPassed(4)


def _then_unread(points):
    """The points, then an error if anything after them is read."""
    yield from points
    raise AssertionError("a point after the last one was read")


@pytest.mark.parametrize("length", [2, 4])
def test_sampled_refuses_a_point_of_another_length(length):
    """A point with n - 1 or n + 1 coordinates is refused when it is
    read, after the good points before it, and nothing after it is
    read."""
    f = parse_poly(Q(), "x^2 + 1")
    tower = Tower.over(f, 3)
    points = [[(1, 2), (1, 3), (1, 5)], [(2, 1), (0, 1), (0, 1)],
              [(1, 1)] * length]
    with pytest.raises(ArityMismatch, match=f"point has {length} "):
        tower.verify_sampled(_then_unread(points))


def test_sampled_violation_before_a_malformed_point_is_reported(
        monkeypatch):
    # the violation is returned before the malformed point is read
    monkeypatch.setattr(RationalTower, "rational_root",
                        lambda self: None)
    F = Q()
    tower = Tower.over(parse_poly(F, "x^2 - 1"), 3)
    points = [[(1, 2), (1, 3), (1, 5)], [(1, 1), (1, 1), (0, 1)],
              [(1, 1)] * 2]
    assert tower.verify_sampled(_then_unread(points)) == \
        Failed((F.one(), F.one(), F.zero()))


def test_sampled_holds_no_point_after_checking_it():
    # 100,000 points from a generator: each is dropped once checked
    tower = Tower.over(parse_poly(Q(), "x^2 + 1"), 3)
    points = ([(k, 1), (1, 2), (0, 1)] for k in range(100000))
    tracemalloc.start()
    try:
        result = tower.verify_sampled(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == SampledPassed(100000)
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# FORM_TERMS_GUARD


def _forbid(monkeypatch, owner, attr):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{attr} called above the guard")
    monkeypatch.setattr(owner, attr, refuse)


def test_form_guard_refuses_f2_n12_before_any_product(monkeypatch):
    f = _base(Fp(2))
    tower = Tower.over(f, 12)
    _forbid(monkeypatch, MultiPoly, "__mul__")
    with pytest.raises(TooLarge) as info:
        build_fn(f, 12)
    exc = info.value
    assert (exc.guard, exc.limit, exc.requested) == (
        "FORM_TERMS_GUARD", FORM_TERMS_GUARD, 2047)
    assert FORM_TERMS_GUARD == 2 ** 10
    assert "level 11" in str(exc)
    # the refusal comes from level 11's count, read before its chains
    # are built: the levels below are built, but no form is made
    _forbid(monkeypatch, MultiPoly, "from_payloads")
    with pytest.raises(TooLarge) as again:
        tower.expand()
    assert str(again.value) == str(exc)
    # the nested tower still verifies without a product
    assert tower.verify_exhaustive() == ExhaustivePassed(2 ** 12)


def test_form_guard_limit_and_exact_count(monkeypatch):
    # over F_2 the level forms have 2^k - 1 terms, so the guard admits
    # n = 5 (15 terms at level 4) and refuses n = 6 (31 at level 5)
    monkeypatch.setattr(anisotropic, "FORM_TERMS_GUARD", 15)
    f = _base(Fp(2))
    assert len(build_fn(f, 5).terms) == 31
    _forbid(monkeypatch, MultiPoly, "__mul__")
    with pytest.raises(TooLarge) as info:
        build_fn(f, 6)
    assert info.value.requested == 31 and info.value.limit == 15


def test_form_guard_checks_each_level_on_the_exact_count(monkeypatch):
    # over F_3, f2 = x^2 + y^2 squares its input: the levels 1..5 have
    # 1, 2, 4, 9, 26 terms, each counted before its chains are built
    monkeypatch.setattr(anisotropic, "FORM_TERMS_GUARD", 9)
    f = _base(Fp(3))
    assert len(build_fn(f, 5).terms) == 26
    tower = Tower.over(f, 6)
    counts = []
    check = anisotropic._check_form_terms
    monkeypatch.setattr(anisotropic, "_check_form_terms",
                        lambda level, terms: counts.append(terms)
                        or check(level, terms))
    _forbid(monkeypatch, MultiPoly, "from_payloads")
    with pytest.raises(TooLarge) as info:
        tower.expand()
    assert info.value.requested == 26
    assert "level 5" in str(info.value)
    assert counts == [1, 2, 4, 9, 26]


def test_form_guard_counts_a_level_before_building_its_chains(monkeypatch):
    # over F_3 the levels 1..5 of f2 = x^2 + y^2 have 1, 2, 4, 9, 26
    # terms, one chain each, and each chain takes one coefficient
    # product; with the powers of f built beforehand, a refusal of level
    # 5 has built the chains of levels 2..4 and none of level 5
    monkeypatch.setattr(anisotropic, "FORM_TERMS_GUARD", 9)
    F = Fp(3)
    f = _base(F)
    tower = Tower.over(f, 6)
    power = anisotropic._powers(f)
    monkeypatch.setattr(anisotropic, "_powers", lambda base: power)
    with pytest.raises(TooLarge):
        tower.expand()   # fills the memo of `power`
    products, _ = _count_payload_products(monkeypatch, F)
    with pytest.raises(TooLarge) as info:
        tower.expand()
    assert info.value.requested == 26
    assert len(products) == 2 + 4 + 9


@pytest.mark.parametrize("field,m,top", [
    (field, m, top) for field, m, top in DIFFERENTIAL_CASES])
def test_form_guard_lower_bound_admits_every_level(monkeypatch, field,
                                                   m, top):
    """With the guard at the largest form a level really composes, the
    guard must admit the tower, and one less must refuse it: each level
    is checked on its exact count, never on an estimate above it."""
    f = _base(field, m)
    inputs = [len(build_fn(f, k).terms) for k in range(1, top)]
    monkeypatch.setattr(anisotropic, "FORM_TERMS_GUARD", max(inputs))
    assert build_fn(f, top) == _unchecked_tower(f, top)
    monkeypatch.setattr(anisotropic, "FORM_TERMS_GUARD", max(inputs) - 1)
    with pytest.raises(TooLarge):
        build_fn(f, top)


def _power_by_products(f, e):
    """Reference for the powers of the univariate f: the nonzero
    coefficients of the e-fold product, as (exponent, payload) pairs."""
    power = MultiPoly.constant(f.field, 1, f.field.one())
    for _ in range(e):
        power = power * f
    return sorted((mono[0], c.payload) for mono, c in power.terms)


def test_frobenius_keeps_term_counts():
    rng = random.Random(5)
    for field in (Fp(2), Fp(3), Fq(2, 2), Fq(3, 2), Q()):
        elems = ([Q().element(v) for v in range(1, 6)] if field == Q()
                 else enumerate_field(field)[1:])
        p = field.characteristic
        for _ in range(5):
            m = rng.randint(2, 4)
            f = univariate(field, [rng.choice(elems + [field.zero()])
                                   for _ in range(m)] + [1])
            power = anisotropic._powers(f)
            for e in range(10):
                assert sorted(power(e)) == _power_by_products(f, e), (f, e)
            for e in (p, p * p) if p else ():
                # the Frobenius image: exponents times p, none merges
                assert len(power(e)) == len(f.terms)


def test_univariate_powers_take_one_product_each(monkeypatch):
    # below the characteristic f^2, f^3 and f^4 are one product each,
    # f^(e-1)*f, and f^5 is the Frobenius image of f, with no product
    F = Fp(5)
    f = parse_poly(F, "x^3 + 2*x + 3")
    sizes = [len(_power_by_products(f, e)) for e in range(1, 4)]
    products, powers = _count_payload_products(monkeypatch, F)
    power = anisotropic._powers(f)
    power(4)
    assert len(products) == sum(sizes) * len(f.terms)
    assert powers == []
    assert len(power(5)) == len(f.terms)
    # f^5 added one 5th power per coefficient and no product
    assert len(products) == sum(sizes) * len(f.terms)
    assert powers == [5] * len(f.terms)
    monkeypatch.undo()
    for e in range(6):
        assert sorted(power(e)) == _power_by_products(f, e)


@pytest.mark.parametrize("field,coeffs", [
    (Fp(2), (1, 1)), (Fq(2, 2), ((0, 1), (1, 1)))])
def test_univariate_frobenius_powers_take_no_product(monkeypatch, field,
                                                     coeffs):
    # in characteristic 2, f^2, f^4 and f^8 are Frobenius images: one
    # squaring per coefficient, no product, and f's term count kept
    f = univariate(field, [field.element(c) for c in coeffs] + [1])
    products, powers = _count_payload_products(monkeypatch, field)
    power = anisotropic._powers(f)
    power(8)
    assert products == []
    assert powers == [2] * (3 * len(f.terms))
    assert all(len(power(2 ** k)) == len(f.terms) for k in range(4))
    monkeypatch.undo()
    for e in (2, 4, 8):
        assert sorted(power(e)) == _power_by_products(f, e)


def test_witness_record_above_the_form_guard():
    f = _base(Fp(2))
    tower = Tower.over(f, 12)
    record = tower.record(tower.verify_exhaustive())
    assert "form" not in record
    assert record["form_withheld"] == {
        "guard": "FORM_TERMS_GUARD", "limit": 1024, "requested": 2047,
        "f2": "x1^2 + x1*x2 + x2^2",
        "nesting": "f2(f2(...f2(x1, x2)..., x11), x12)", "levels": 11}
    assert record["degree"] == 2 ** 11
    assert record["verification"] == {"mode": "exhaustive",
                                      "points_checked": 4096}
    small = Tower.over(f, 3)
    assert small.record(small.verify_exhaustive())["form"] == \
        format_poly(build_fn(f, 3))
    assert small.structure()["nesting"] == "f2(f2(x1, x2), x3)"


# ---------------------------------------------------------------------------
# the expansion by exponent chains and the table of f2, against references
# that share no code with them


def _expansion_bases(field, m):
    """A root-free and a rooted monic base of degree m over field."""
    if field.is_finite:
        rootfree = _base(field, m)
    else:   # x^m + x/2 + 1: no rational root for m = 2..4
        rootfree = univariate(field, [1, field.element(Fraction(1, 2))]
                              + [0] * (m - 2) + [1])
    # x^m + x - 2 has the root 1
    rooted = univariate(field, [field.element(-2), 1] + [0] * (m - 2) + [1])
    return rootfree, rooted


# (field, m, largest n): n = 5 where the reference's repeated products
# take well under a second on both bases
EXPANSION_CELLS = [
    (Fp(2), 2, 5), (Fp(2), 3, 5), (Fp(2), 4, 4), (Fp(2), 5, 5),
    (Fp(3), 2, 5), (Fp(3), 3, 5), (Fp(3), 4, 4),
    (Fp(5), 2, 5), (Fp(5), 3, 4), (Fp(5), 4, 4), (Fp(5), 5, 4),
    (Fq(2, 2), 2, 5), (Fq(2, 2), 3, 5), (Fq(2, 2), 4, 4),
    (Fq(3, 2), 2, 5), (Fq(3, 2), 3, 4), (Fq(3, 2), 4, 4),
    (Q(), 2, 5), (Q(), 3, 4), (Q(), 4, 3),
]


@pytest.mark.parametrize("field,m,n", [
    (Fp(2), 2, 5), (Fp(3), 3, 3), (Fq(2, 2), 2, 4), (Fq(3, 2), 3, 3),
    (Q(), 2, 4), (Q(), 3, 3)], ids=str)
def test_expand_and_build_fn_build_no_field_element(monkeypatch, field, m,
                                                    n):
    # the form is built, checked for roots and printed on payloads
    f = _expansion_bases(field, m)[0]
    expected = Tower.over(f, n).expand()
    text = format_poly(expected)
    forbid_field_elements(monkeypatch)
    form = Tower.over(f, n).expand()
    assert form == expected and format_poly(form) == text
    assert build_fn(f, n) == expected


@pytest.mark.parametrize("field,m,top", EXPANSION_CELLS, ids=str)
def test_expand_matches_the_level_by_level_products(field, m, top):
    """Tower.expand by exponent chains against the chain of
    `_compose_last_by_products` levels, whose products are tuple
    products (`MultiPoly.__mul__`)."""
    for f in _expansion_bases(field, m):
        f2 = homogenize2(f)
        reference = parse_poly(field, "x1")
        for n in range(1, top + 1):
            if n > 1:
                reference = _compose_last_by_products(f2, reference)
            assert Tower.over(f, n).expand().terms == reference.terms, (f, n)


@pytest.mark.parametrize("field,m,top", EXPANSION_CELLS, ids=str)
def test_chain_count_is_the_term_count(monkeypatch, field, m, top):
    """The count the guard reads for each level L, N_L(1), is the term
    count of the tower of arity L, on both bases."""

    class Counted(Exception):
        pass

    for f in _expansion_bases(field, m):
        counts = []

        def check(level, terms):
            counts.append(terms)
            if level == top:
                raise Counted

        monkeypatch.setattr(anisotropic, "_check_form_terms", check)
        with pytest.raises(Counted):
            Tower.over(f, top + 1).expand()
        monkeypatch.undo()
        assert counts == [len(Tower.over(f, n).expand().terms)
                          for n in range(1, top + 1)], f


@pytest.mark.parametrize("field", [Q(), Fp(3)], ids=str)
def test_monomial_base_expands_to_one_term_at_any_arity(field):
    # the rooted base x^2 keeps one term at every level, so no level is
    # refused, and T_40 = x1^(2^39) needs f^(2^38): with 2^38 - 1
    # products f^(e-1)*f over Q it would never finish
    form = Tower.over(parse_poly(field, "x^2"), 40).expand()
    assert form.terms == (((2 ** 39,) + (0,) * 39, field.one()),)


def test_expand_at_the_largest_admitted_size_needs_every_bit():
    # the largest expansion FORM_TERMS_GUARD admits, Fp(2) with n = 11,
    # has degree 1024 = 2^10: x1^1024 is the chain 1, 2, 4, ..., 1024 of
    # Frobenius images. Over F_2, h -> h^2 + h*z + z^2 keeps its three
    # slices disjoint: the monomials of h doubled, those of h times z,
    # and z^2
    monos = {(1,)}
    for k in range(1, 11):
        monos = ({tuple(2 * e for e in mono) + (0,) for mono in monos}
                 | {mono + (1,) for mono in monos} | {(0,) * k + (2,)})
    form = build_fn(_base(Fp(2)), 11)
    assert len(form.terms) == len(monos) == 2047
    assert {mono for mono, _ in form.terms} == monos
    assert all(c == Fp(2).one() for _, c in form.terms)
    assert form.terms[0][0] == (1024,) + (0,) * 10


def _table_by_evaluation(tower):
    q = tower.field.order
    f2 = tower.f2.evaluate_payloads
    return [[f2((u, v)) for v in range(q)] for u in range(q)]


@pytest.mark.parametrize("field", [Fp(2), Fp(3), Fp(5), Fp(7), Fq(2, 2),
                                   Fq(2, 3), Fq(3, 2)], ids=str)
@pytest.mark.parametrize("m", [2, 3, 4])
def test_f2_table_matches_evaluation(field, m):
    for f in _expansion_bases(field, m):
        tower = Tower.over(f, 2)
        assert tower._f2_table() == _table_by_evaluation(tower), f


@pytest.mark.parametrize("m", [2, 3, 4])
def test_f2_table_matches_evaluation_over_f256(m):
    # q = 256: the root-free search is past its guard for m >= 3
    field = Fq(2, 8)
    bases = _expansion_bases(field, m) if m == 2 else [
        univariate(field, [field.element(-2), 1] + [0] * (m - 2) + [1]),
        univariate(field, [field.element_at(2), 0] + [0] * (m - 2) + [1])]
    for f in bases:
        tower = Tower.over(f, 2)
        assert tower._f2_table() == _table_by_evaluation(tower), f


@pytest.mark.parametrize("field,m,top", [
    (Fp(2), 3, 4), (Fp(3), 2, 4), (Fp(5), 3, 3), (Fp(7), 2, 3),
    (Fq(2, 2), 3, 3), (Fq(3, 2), 2, 3), (Fq(2, 3), 4, 2)], ids=str)
def test_tower_verifier_matches_per_term_reference_on_both_bases(field, m,
                                                                 top):
    for f in _expansion_bases(field, m):
        for n in range(2, top + 1):
            tower = Tower.over(f, n)
            assert tower.verify_exhaustive() == \
                verify_vanishing_exhaustive(tower.expand()), (f, n)
