"""Every guard raises a TooLarge that names itself, its limit and the
requested size, with the guard's message text, through `TooLarge.check`.
The q^n and q^m guards write the power as base^exponent, so that a power
too long to print in decimal still gives its message, and a power guard
whose exponent alone puts the power past its limit never forms it: its
requested size is None. The rational root guard names a size too long to
print by its bit length."""

import tracemalloc

import pytest

from gelfand import anisotropic, field_core, function_ring
from gelfand.covers import check_cover, combine_case2
from gelfand.anisotropic import (
    Tower,
    build_fn,
    verify_vanishing_exhaustive,
)
from gelfand.errors import TooLarge
from gelfand.field_core import Fp, Fq, Q, find_rootfree_monic, is_prime
from gelfand.function_ring import (
    FiniteSpace,
    RingElement,
    all_ring_elements,
    enumerate_ideals_bruteforce,
    max_spectrum,
)
from gelfand.poly import parse_poly, univariate

CASES = [
    ("tower verifier",
     lambda: Tower.over(parse_poly(Fp(2), "x^2 + x + 1"),
                        24).verify_exhaustive(),
     "EXHAUSTIVE_GUARD", anisotropic.EXHAUSTIVE_GUARD, 2 ** 24,
     "q^n = 2^24 exceeds the enumeration guard"),
    ("per-term verifier",
     lambda: verify_vanishing_exhaustive(
         parse_poly(Fp(101), "x1 + x2 + x3 + x4")),
     "EXHAUSTIVE_GUARD", anisotropic.EXHAUSTIVE_GUARD, 101 ** 4,
     "q^n = 101^4 exceeds the enumeration guard"),
    ("root-free search",
     lambda: find_rootfree_monic(Fp(101), 4),
     "ROOTFREE_SEARCH_GUARD", field_core.ROOTFREE_SEARCH_GUARD, 101 ** 4,
     "q^m = 101^4 exceeds the search guard"),
    ("prime test",
     lambda: is_prime(2 ** 89 - 1),
     "PRIME_TEST_GUARD", field_core.PRIME_TEST_GUARD, 2 ** 89 - 1,
     "a probable prime of 89 bits exceeds the prime-test guard "
     "3317044064679887385961980, up to which Miller-Rabin to 13 bases "
     "decides primality"),
    ("irreducibility test",
     lambda: Fq(251, 8),
     "IRREDUCIBLE_TEST_GUARD", field_core.IRREDUCIBLE_TEST_GUARD,
     251 + 251 ** 2 + 251 ** 3 + 251 ** 4,
     "the irreducibility test in degree 8 over F_251 tries 3985002504 "
     "divisors; the irreducibility guard is 10000"),
    ("ring enumeration",
     lambda: all_ring_elements(FiniteSpace(13), Fp(3)),
     "SPECTRUM_GUARD", function_ring.SPECTRUM_GUARD, 3 ** 13,
     "function ring too large to enumerate"),
    ("closed sets",
     lambda: max_spectrum(FiniteSpace(20), Fp(2)),
     "SPECTRUM_GUARD", function_ring.SPECTRUM_GUARD, 2 ** 20,
     "2^20 closed sets exceed the guard 1000000"),
    ("ideal oracle",
     lambda: enumerate_ideals_bruteforce(FiniteSpace(3), Fp(3)),
     "ORACLE_GUARD", function_ring.ORACLE_GUARD, 27,
     "ring has 27 elements; oracle guard is 12"),
    ("form expansion",
     lambda: build_fn(univariate(Fp(2), find_rootfree_monic(Fp(2), 2)), 13),
     "FORM_TERMS_GUARD", anisotropic.FORM_TERMS_GUARD, 2047,
     "level 11 of the tower expansion composes a form of exactly 2047 "
     "terms; the form-terms guard is 1024"),
    ("route II interpolant",
     lambda: combine_case2(check_cover(
         [RingElement.from_payloads(Fp(13), tuple(
             c if k == i else 0 for k in range(3) for c in range(1, 12)))
          for i in range(3)])),
     "FORM_TERMS_GUARD", anisotropic.FORM_TERMS_GUARD, 12 ** 3 - 1,
     "route II's interpolant has exactly 1727 terms; the form-terms guard "
     "is 1024"),
    ("rational root test",
     lambda: Tower.over(parse_poly(Q(), "x^2 + 3/10000000000"),
                        2).verify_sampled([]),
     "RATIONAL_ROOT_GUARD", anisotropic.RATIONAL_ROOT_GUARD, 10 ** 10,
     "the rational root test divides |L*c0| = 3 and the leading "
     "coefficient 10000000000; the guard is 1000000000"),
]


@pytest.mark.parametrize("call,guard,limit,requested,message",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_guard_names_itself(call, guard, limit, requested, message):
    with pytest.raises(TooLarge) as info:
        call()
    exc = info.value
    assert type(exc) is TooLarge
    assert (exc.guard, exc.limit, exc.requested) == (guard, limit, requested)
    assert requested > limit
    assert str(exc) == message


def test_rational_root_guard_names_an_unprintable_size_by_bits():
    # L = A*B has 4399 digits, past what Python writes of an int
    A, B = 10 ** 2199 + 7, 10 ** 2199 + 9
    f = parse_poly(Q(), f"x^2 + 1/{A}*x + 1/{B}")
    with pytest.raises(TooLarge) as info:
        Tower.over(f, 2).verify_sampled([])
    exc = info.value
    assert (exc.guard, exc.limit, exc.requested) == (
        "RATIONAL_ROOT_GUARD", anisotropic.RATIONAL_ROOT_GUARD, A * B)
    assert str(exc) == (
        f"the rational root test divides |L*c0| = {A} and the leading "
        f"coefficient an int of {(A * B).bit_length()} bits; the guard is "
        f"1000000000")


def _unformed():
    raise AssertionError("the message was formed within the limit")


@pytest.mark.parametrize("requested", [0, 1, 11, 12])
def test_check_returns_a_size_within_the_limit(requested):
    assert TooLarge.check("G", 12, requested, _unformed) == requested


@pytest.mark.parametrize("requested", [13, 10 ** 30, None])
def test_check_refuses_a_size_past_the_limit_or_none(requested):
    with pytest.raises(TooLarge) as info:
        TooLarge.check("G", 12, requested, lambda: "past G")
    exc = info.value
    assert (exc.guard, exc.limit, exc.requested, str(exc)) == (
        "G", 12, requested, "past G")


HUGE = 10 ** 8   # 2^HUGE is a 12.5 MB int


@pytest.mark.parametrize("call,guard,message", [
    (lambda: Tower.over(parse_poly(Fp(2), "x^2 + x + 1"),
                        HUGE).verify_exhaustive(),
     "EXHAUSTIVE_GUARD", f"q^n = 2^{HUGE} exceeds the enumeration guard"),
    (lambda: find_rootfree_monic(Fp(2), HUGE),
     "ROOTFREE_SEARCH_GUARD", f"q^m = 2^{HUGE} exceeds the search guard"),
    (lambda: all_ring_elements(FiniteSpace(HUGE), Fp(2)),
     "SPECTRUM_GUARD", "function ring too large to enumerate"),
    (lambda: function_ring.check_guards(FiniteSpace(HUGE), Fp(2)),
     "SPECTRUM_GUARD", f"2^{HUGE} closed sets exceed the guard 1000000"),
], ids=["tower verifier", "root-free search", "ring enumeration",
        "closed sets"])
def test_power_guard_decides_on_the_exponent(call, guard, message):
    # the power is never formed: the exponent alone puts it past the
    # limit, so requested is None and the peak stays far below 12.5 MB
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge) as info:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    exc = info.value
    assert (exc.guard, exc.requested, str(exc)) == (guard, None, message)
    assert peak < 2 ** 20


@pytest.mark.parametrize("base,limit", [(2, 10 ** 6), (3, 10 ** 7),
                                        (101, 10 ** 7), (2, 1), (65537, 8)])
def test_power_within_forms_every_power_that_may_fit(base, limit):
    for exp in range(40):
        power = field_core.power_within(base, exp, limit)
        if power is None:
            assert base ** exp > limit
        else:
            assert power == base ** exp
