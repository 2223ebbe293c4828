"""Tests for sparse multivariate polynomial arithmetic."""

import itertools
import random
from fractions import Fraction

import pytest

from gelfand.errors import (
    ArityMismatch,
    MixedFields,
    NotMonic,
    ParseError,
    ZeroPolynomial,
)
from gelfand import (
    anisotropic,
    cli,
    covers,
    field_core,
    function_ring,
    poly,
)
from gelfand.anisotropic import build_fn
from gelfand.field_core import (
    FieldElement,
    Fp,
    Fq,
    Q,
    Qsqrt,
    enumerate_field,
    find_rootfree_monic,
    from_payload,
    parse_field,
)
from gelfand.poly import (
    MultiPoly,
    compose_last,
    format_poly,
    homogenize2,
    parse_poly,
    univariate,
)


def test_evaluate_at_origin():
    F = Q()
    f = parse_poly(F, "x1^2 + x2^2")
    assert f.evaluate((F.zero(), F.zero())).is_zero


def test_evaluate_f2():
    F = Fp(2)
    f = parse_poly(F, "x1^2 + x1*x2 + x2^2")
    assert f.evaluate((F.one(), F.one())) == F.one()


def test_identity_polynomial():
    F = Fp(7)
    x = parse_poly(F, "x1")
    for a in enumerate_field(F):
        assert x.evaluate((a,)) == a


def test_evaluate_arity_mismatch():
    F = Fp(3)
    f = parse_poly(F, "x1 + x2")
    with pytest.raises(ArityMismatch):
        f.evaluate((F.one(),))


def test_from_dict_refuses_a_coefficient_of_another_field():
    # 3 in F_7 has the payload 3, a valid F_5 payload: it must not pass
    F = Fp(5)
    with pytest.raises(MixedFields, match="Fp\\(5\\) vs Fp\\(7\\)"):
        MultiPoly.from_dict(F, 1, {(1,): Fp(7).element(3), (0,): F.one()})
    with pytest.raises(MixedFields):
        MultiPoly.constant(F, 2, Fq(5, 2).one())
    f = MultiPoly.from_dict(F, 1, {(1,): F.element(3), (0,): F.one()})
    assert format_poly(f) == "3*x1 + 1"


@pytest.mark.parametrize("mono", [(1,), (1, 0, 0), (1, -1)])
def test_from_dict_refuses_a_monomial_that_does_not_fit(mono):
    # a monomial of another length, or with a negative exponent, is
    # refused; with a zero coefficient it is dropped before the check
    F = Fp(5)
    with pytest.raises(ArityMismatch) as info:
        MultiPoly.from_dict(F, 2, {(0, 1): F.one(), mono: F.element(2)})
    assert str(info.value) == f"monomial {mono} does not fit arity 2"
    f = MultiPoly.from_dict(F, 2, {(0, 1): F.one(), mono: F.zero()})
    assert format_poly(f) == "x2"


def test_univariate_refuses_a_coefficient_of_another_field():
    with pytest.raises(MixedFields):
        univariate(Fp(5), [Fp(7).element(3)])
    with pytest.raises(MixedFields):
        univariate(Q(), [1, Qsqrt(-1).one()])
    # ints are lifted into the field
    assert univariate(Fp(5), [7, Fp(5).element(3)]) == \
        parse_poly(Fp(5), "3*x + 2")


def test_homogenize_x2_plus_1():
    F = Q()
    f = parse_poly(F, "x^2 + 1")
    assert format_poly(homogenize2(f)) == "x1^2 + x2^2"


def test_homogenize_f2():
    F = Fp(2)
    f = parse_poly(F, "x^2 + x + 1")
    assert format_poly(homogenize2(f)) == "x1^2 + x1*x2 + x2^2"


def test_homogenize_linear():
    F = Q()
    f = parse_poly(F, "x + 1")
    assert format_poly(homogenize2(f)) == "x1 + x2"


def test_homogenize_rejects_nonmonic():
    F = Q()
    with pytest.raises(NotMonic):
        homogenize2(parse_poly(F, "2*x^2 + 1"))
    with pytest.raises(ZeroPolynomial):
        homogenize2(MultiPoly.zero(F, 1))


@pytest.mark.parametrize("field,src", [
    (Q(), "x^2 + 1"),
    (Fp(3), "x^2 + 1"),
    (Fp(2), "x^3 + x + 1"),
])
def test_homogenize_properties(field, src):
    f = parse_poly(field, src)
    g = homogenize2(f)
    m = f.degree
    assert g.degree == m and all(sum(mono) == m for mono, _ in g.terms)
    # g(a, 1) reproduces f(a); g(1, 0) = 1 by monicity
    one, zero = field.one(), field.zero()
    assert g.evaluate((one, zero)) == one
    samples = enumerate_field(field) if field.is_finite else \
        [field.element(v) for v in range(-5, 6)]
    for a in samples:
        assert g.evaluate((a, one)) == f.evaluate((a,))


def test_compose_last_simple():
    F = Q()
    g2 = parse_poly(F, "x1^2 + x2^2")
    h = parse_poly(F, "x1")
    assert format_poly(compose_last(g2, h)) == "x1^2 + x2^2"


def test_compose_last_f2_trivariate():
    F = Fp(2)
    g2 = parse_poly(F, "x1^2 + x1*x2 + x2^2")
    h = parse_poly(F, "x1^2 + x1*x2 + x2^2")
    f3 = compose_last(g2, h)
    assert f3.arity == 3 and f3.degree == 4
    # formal identity checked at all 8 points of F_2^3
    for pt in itertools.product(enumerate_field(F), repeat=3):
        inner = h.evaluate(pt[:2])
        assert f3.evaluate(pt) == g2.evaluate((inner, pt[2]))


def test_compose_last_identity_substitution():
    F = Fp(5)
    g2 = parse_poly(F, "x1^2 + 2*x1*x2 + 3*x2^2 + x1")
    h = parse_poly(F, "x1")
    composed = compose_last(g2, h)
    assert composed.terms == g2.terms


def _compose_last_by_products(g2, h):
    """Reference for compose_last: h and x_{n+1} as polynomials in n+1
    variables, and each term c*y^i*z^j of g2 as the product
    c * h^i * x_{n+1}^j, every power an i- or j-fold product."""
    n, field = h.arity, h.field
    h_ext = MultiPoly(field, n + 1,
                      tuple((m + (0,), a) for m, a in h.payload_terms))
    last = parse_poly(field, f"x{n + 1}", n + 1)
    result = MultiPoly.zero(field, n + 1)
    for (i, j), c in g2.terms:
        term = MultiPoly.constant(field, n + 1, c)
        for factor in [h_ext] * i + [last] * j:
            term = term * factor
        result = result + term
    return result


def _random_coeff(rng, field):
    if field.is_finite:
        return field.element_at(rng.randrange(field.order))
    a, b = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in "ab")
    return field.element((a, b) if field.kind == "quadratic" else a)


def _random_poly(rng, field, arity, terms, max_degree):
    coeffs = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, max_degree) for _ in range(arity))
        coeffs[mono] = _random_coeff(rng, field)
    return MultiPoly.from_dict(field, arity, coeffs)


@pytest.mark.parametrize("field", [Fp(2), Fp(5), Fq(2, 2), Q(), Qsqrt(-2)])
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_compose_last_matches_products_reference(field, arity):
    rng = random.Random(f"{field}-{arity}")
    for _ in range(6):
        g2 = _random_poly(rng, field, 2, rng.randint(1, 5), 3)
        h = _random_poly(rng, field, arity, rng.randint(1, 4), 2)
        assert compose_last(g2, h).terms == \
            _compose_last_by_products(g2, h).terms


def _count_payload_products(monkeypatch, field):
    """Record the payload products of field's class, apart from those
    its `pow` makes, and the exponent of each `pow` call."""
    products, powers, inside = [], [], []
    cls = type(field)
    mul, power = cls.mul, cls.pow

    def counting_mul(self, a, b):
        if not inside:
            products.append((a, b))
        return mul(self, a, b)

    def counting_pow(self, a, e):
        powers.append(e)
        inside.append(e)
        try:
            return power(self, a, e)
        finally:
            inside.pop()

    monkeypatch.setattr(cls, "mul", counting_mul)
    monkeypatch.setattr(cls, "pow", counting_pow)
    return products, powers


@pytest.mark.parametrize("field", [Fp(2), Fp(3), Fq(2, 2), Fq(3, 2)])
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_compose_last_frobenius_matches_products_reference(field, arity):
    # terms y^p and y^(p^2), with random coefficients: over Fq(2,2) and
    # Fq(3,2) the Frobenius map a -> a^p moves some of them
    p = field.characteristic
    rng = random.Random(f"frobenius-{field}-{arity}")
    for text in (f"x1^{p}", f"x1^{p * p}",
                 f"x1^{p * p} + x1^{p}*x2^{p * p - p} + x2^{p * p}"):
        g2 = parse_poly(field, text, 2)
        for _ in range(3):
            h = _random_poly(rng, field, arity, rng.randint(1, 4), 2)
            assert compose_last(g2, h).terms == \
                _compose_last_by_products(g2, h).terms


# the (field, m, n) cells of the tower ladder of the benchmark workload
TOWER_CELLS = [
    ("Fp(2)", 2, range(2, 9)), ("Fp(2)", 3, range(2, 6)),
    ("Fp(2)", 4, range(2, 5)), ("Fp(2)", 5, range(2, 4)),
    ("Fp(3)", 2, range(2, 6)), ("Fp(3)", 3, range(2, 5)),
    ("Fp(3)", 4, range(2, 4)), ("Fp(5)", 2, range(2, 5)),
    ("Fp(5)", 3, range(2, 4)), ("Fp(5)", 4, range(2, 4)),
    ("Fp(7)", 2, range(2, 4)), ("Fp(7)", 3, range(2, 4)),
    ("Fp(11)", 2, range(2, 4)), ("Fq(2,2)", 2, range(2, 5)),
    ("Fq(2,2)", 3, range(2, 4)), ("Fq(3,2)", 2, range(2, 4)),
    ("Fq(3,2)", 3, range(2, 3)), ("Fq(2,3)", 2, range(2, 4)),
    ("Fq(2,3)", 3, range(2, 3)),
]


@pytest.mark.parametrize("spec,m,ns", TOWER_CELLS)
def test_build_fn_matches_reference_chain(spec, m, ns):
    field = parse_field(spec)
    f = univariate(field, find_rootfree_monic(field, m))
    f2 = homogenize2(f)
    tower = parse_poly(field, "x1")
    for n in range(2, ns[-1] + 1):
        tower = _compose_last_by_products(f2, tower)
        if n in ns:
            assert build_fn(f, n).terms == tower.terms


def _evaluate_by_products(f, point):
    """Reference for evaluate: the sum of c * prod x_i^e_i, each power
    an e-fold product."""
    acc = f.field.zero()
    for m, c in f.terms:
        term = c
        for x, e in zip(point, m):
            for _ in range(e):
                term = term * x
        acc = acc + term
    return acc


@pytest.mark.parametrize("field", [Fp(5), Fq(2, 3), Q(), Qsqrt(-2)])
def test_evaluate_matches_products(field):
    rng = random.Random(str(field))
    for _ in range(10):
        f = _random_poly(rng, field, 3, 8, 4)
        for _ in range(5):
            point = tuple(_random_coeff(rng, field) for _ in range(3))
            assert f.evaluate(point) == _evaluate_by_products(f, point)


def test_evaluate_computes_each_power_once(monkeypatch):
    """Counts the payload-level powers, one per (variable, exponent)
    pair at most."""
    calls = []
    field = Fq(2, 3)
    power = type(field).pow

    def counting(self, a, e):
        calls.append(e)
        return power(self, a, e)

    monkeypatch.setattr(type(field), "pow", counting)
    rng = random.Random(3)
    for _ in range(10):
        f = _random_poly(rng, field, 3, 12, 4)
        point = tuple(_random_coeff(rng, field) for _ in range(3))
        calls.clear()
        value = f.evaluate(point)
        pairs = {(i, e) for m, _ in f.terms for i, e in enumerate(m) if e}
        assert 0 < len(calls) <= len(pairs)
        assert value == _evaluate_by_products(f, point)


def test_constant_term():
    F = Q()
    assert (0, 0) not in dict(parse_poly(F, "x1^2 + x2^2").terms)
    assert dict(parse_poly(F, "x + 1").terms)[(0,)] == F.one()
    assert (0, 0) not in dict(MultiPoly.zero(F, 2).terms)


def forbid_field_elements(monkeypatch):
    """Make building a FieldElement fail, through its constructor or
    `from_payload` in any module that imports it."""
    def forbidden(*args):
        raise AssertionError("a FieldElement was built")

    for module in (field_core, poly, anisotropic, covers, function_ring, cli):
        if "from_payload" in vars(module):
            monkeypatch.setattr(module, "from_payload", forbidden)
    monkeypatch.setattr(FieldElement, "__init__", forbidden)


@pytest.mark.parametrize("field,text,payload_type", [
    (Fp(5), "2*x1^2 + 3*x1*x2 + 4", int),
    (Fq(2, 2), "(t)*x1^2 + (t+1)*x2 + 1", int),
    (Q(), "1/2*x1^2 + (-3)*x2", Fraction),
    (Qsqrt(-2), "(1/2+sqrt(-2))*x1 + 3", tuple),
], ids=["Fp(5)", "Fq(2,2)", "Q", "Q(sqrt(-2))"])
def test_payload_terms_hold_payloads_and_terms_wraps_them(
        monkeypatch, field, text, payload_type):
    f = parse_poly(field, text)
    assert f.payload_terms
    assert all(type(a) is payload_type for _, a in f.payload_terms)
    assert f.terms == tuple((m, from_payload(field, a))
                            for m, a in f.payload_terms)
    for (m, c), (n, a) in zip(f.terms, f.payload_terms):
        assert m == n and type(c) is FieldElement
        assert c.field == field and c.payload is a
    # each coefficient is printed from its payload by the field
    forbid_field_elements(monkeypatch)
    assert format_poly(f) == text


def test_degree_of_zero_is_sentinel():
    assert MultiPoly.zero(Fp(2), 3).degree is None


@pytest.mark.parametrize("field", [Fp(2), Fp(5), Fq(2, 2), Q(), Qsqrt(-1)])
def test_roundtrip_random_polys(field, _rng=random.Random(99)):
    elems = enumerate_field(field) if field.is_finite else \
        [field.element(v) for v in range(-4, 5)] + \
        ([field.element((Fraction(1, 2), Fraction(-3, 2)))]
         if field.kind == "quadratic" else
         [field.element(Fraction(1, 2))] if field.kind == "rational" else [])
    for _ in range(25):
        coeffs = {}
        for _ in range(_rng.randint(0, 5)):
            mono = tuple(_rng.randint(0, 3) for _ in range(2))
            coeffs[mono] = _rng.choice(elems)
        f = MultiPoly.from_dict(field, 2, coeffs)
        assert parse_poly(field, format_poly(f), arity=2) == f


def test_mul_is_evaluation_homomorphism():
    # independent check of the arithmetic: evaluation commutes with * and +
    F = Fp(7)
    rng = random.Random(5)
    elems = enumerate_field(F)
    for _ in range(20):
        f = MultiPoly.from_dict(F, 2, {
            (rng.randint(0, 2), rng.randint(0, 2)): rng.choice(elems)
            for _ in range(4)})
        g = MultiPoly.from_dict(F, 2, {
            (rng.randint(0, 2), rng.randint(0, 2)): rng.choice(elems)
            for _ in range(4)})
        pt = (rng.choice(elems), rng.choice(elems))
        assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)
        assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)


def test_parse_accepts_bare_x_and_minus():
    F = Q()
    f = parse_poly(F, "x^2 - 3")
    assert f.arity == 1
    assert dict(f.terms)[(0,)] == F.element(-3)
    g = parse_poly(F, "x1^2 + (-3)")
    assert f == g


@pytest.mark.parametrize("field", [Fp(5), Qsqrt(-2)], ids=str)
def test_parse_builds_one_only_for_a_term_without_coefficient(monkeypatch,
                                                              field):
    calls = []
    canonical = type(field).canonical
    monkeypatch.setattr(type(field), "canonical",
                        lambda self, a: calls.append(a) or canonical(self, a))
    f = parse_poly(field, "2*x1^2 + (3)*x1*x2 - x2^2 + x1")
    monkeypatch.undo()
    assert calls == [1, 1]   # the unit payload of -x2^2 and of x1
    assert format_poly(f) == format_poly(parse_poly(
        field, "2*x1^2 + 3*x1*x2 + (-1)*x2^2 + 1*x1"))


@pytest.mark.parametrize("text,pos", [
    ("x1 + x2 + y3", 10),      # bad variable
    ("x1 + 2 * x2^", 9),       # dangling '^'
    ("x1 + (2 * x2", 5),       # unclosed '(' points at the '('
    ("x1 + x2 -", 8),          # '-' with no term after it
    ("x1 + x2)", 7),           # unopened ')'
])
def test_parse_error_points_at_bad_term(text, pos):
    with pytest.raises(ParseError) as exc:
        parse_poly(Fp(3), text)
    assert exc.value.pos == pos
    assert exc.value.text == text


@pytest.mark.parametrize("text,pos", [("x^2 + ", 6), ("(1)+", 4)])
def test_parse_refuses_a_trailing_plus(text, pos):
    # a '+' with no term after it is refused as a '-' is, not dropped
    with pytest.raises(ParseError, match=r"a term after '\+'") as exc:
        parse_poly(Q(), text)
    assert (exc.value.pos, exc.value.text) == (pos, text)


def test_parse_error_names_variable_beyond_arity():
    with pytest.raises(ParseError) as exc:
        parse_poly(Fp(3), "x1 + 2 * x3", arity=2)
    assert exc.value.pos == 5
    # a negative arity is refused for every text, a zero constant included
    for text in ("1", "0"):
        with pytest.raises(ArityMismatch, match="arity must be at least 0"):
            parse_poly(Fp(5), text, -1)
    assert parse_poly(Fp(5), "0", 0) == MultiPoly.zero(Fp(5), 0)


def test_canonical_order_is_graded_lex():
    F = Fp(3)
    f = parse_poly(F, "1 + x2 + x1 + x2^2 + x1*x2 + x1^2")
    assert format_poly(f) == "x1^2 + x1*x2 + x2^2 + x1 + x2 + 1"
