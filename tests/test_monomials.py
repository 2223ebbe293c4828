"""Every monomial that a certificate or a tower holds fits its arity.

`MultiPoly.from_payloads` trusts the monomials its kernels give it, and
`evaluate_payloads` pairs a monomial's exponents with a point's
coordinates, so a monomial of the wrong length can still evaluate and
print as if it were right. This test reads every monomial of the
witnesses of routes I-III and of a tower's base, f2 and expanded form,
over prime and extension fields, Q and Q(sqrt(d)): each must have
exactly `arity` exponents, none negative.
"""

import random
from fractions import Fraction

import pytest

from gelfand.anisotropic import Tower, rootfree_base
from gelfand.covers import (
    check_cover,
    combine_case1,
    combine_case2,
    unit_combination_case3,
)
from gelfand.errors import AvoidanceExhausted
from gelfand.field_core import parse_field
from gelfand.function_ring import RingElement
from gelfand.poly import parse_poly

FINITE = ["Fp(2)", "Fp(3)", "Fp(5)", "Fq(2,2,t^2+t+1)", "Fq(3,2,t^2+1)"]
INFINITE = ["Q", "Q(sqrt(-1))", "Q(sqrt(-3))"]
RATIONALS = [Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 4)]


def _misfits(poly):
    """The monomials of poly that do not fit its arity."""
    return [m for m, _ in poly.payload_terms
            if len(m) != poly.arity or min(m, default=0) < 0]


def _values(F):
    """Payloads to draw function values from, zero included."""
    if F.is_finite:
        return list(range(F.order))
    if F.kind == "rational":
        return [F.element(r).payload for r in RATIONALS]
    return [F.element((a, b)).payload for a in RATIONALS[:3]
            for b in RATIONALS[:2]]


def _covers(F, seed, count=40):
    """Seeded covers of 1-4 functions on 1-6 points."""
    rng, values, one = random.Random(seed), _values(F), F.canonical(1)
    for _ in range(count):
        n, size = rng.randint(1, 4), rng.randint(1, 6)
        rows = [[rng.choice(values) for _ in range(size)] for _ in range(n)]
        for x in range(size):
            if all(F.is_zero(row[x]) for row in rows):
                rows[rng.randrange(n)][x] = one
        yield check_cover([RingElement.from_payloads(F, tuple(row))
                           for row in rows])


@pytest.mark.parametrize("spec", FINITE)
def test_route_witnesses_fit_their_arity(spec):
    F = parse_field(spec)
    base = rootfree_base(F, 2)
    linear = 0
    for cover in _covers(F, seed=len(spec)):
        certificates = [combine_case1(cover, base), combine_case2(cover)]
        try:
            certificates.append(unit_combination_case3(cover))
        except AvoidanceExhausted:
            pass
        else:
            linear += len(cover.functions) > 1
        for cert in certificates:
            assert cert.witness.arity == len(cover.functions)
            assert _misfits(cert.witness) == [], cert.mode
    assert linear > 0   # route III built a form in two variables or more


@pytest.mark.parametrize("spec", INFINITE)
def test_route_two_witness_fits_its_arity_over_infinite_fields(spec):
    F = parse_field(spec)
    for cover in _covers(F, seed=len(spec)):
        witness = combine_case2(cover).witness
        assert witness.arity == len(cover.functions)
        assert _misfits(witness) == []


def _bases(F):
    if F.is_finite:
        return [rootfree_base(F, m) for m in (2, 3)]
    return [parse_poly(F, "x^2 + 2"), parse_poly(F, "x^4 + 3*x + 1/2")]


@pytest.mark.parametrize("spec", FINITE + INFINITE)
def test_tower_forms_fit_their_arity(spec):
    F = parse_field(spec)
    for base in _bases(F):
        for n in range(1, 5):
            tower = Tower.over(base, n)
            form = tower.expand()
            assert form.arity == n
            for poly in (tower.base, tower.f2 or form, form):
                assert _misfits(poly) == [], (str(base), n)
