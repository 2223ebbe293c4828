"""Every guard raises a TooLarge that names itself, its limit and the
requested size, with the message text the guard has always had."""

import pytest

from gelfand import anisotropic, field_core, function_ring
from gelfand.covers import check_cover, combine_case2
from gelfand.anisotropic import (
    build_fn,
    verify_tower_exhaustive,
    verify_vanishing_exhaustive,
)
from gelfand.errors import TooLarge
from gelfand.field_core import Fp, find_rootfree_monic
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
     lambda: verify_tower_exhaustive(parse_poly(Fp(2), "x^2 + x + 1"), 24),
     "EXHAUSTIVE_GUARD", anisotropic.EXHAUSTIVE_GUARD, 2 ** 24,
     "q^n = 16777216 exceeds the enumeration guard"),
    ("per-term verifier",
     lambda: verify_vanishing_exhaustive(
         parse_poly(Fp(101), "x1 + x2 + x3 + x4")),
     "EXHAUSTIVE_GUARD", anisotropic.EXHAUSTIVE_GUARD, 101 ** 4,
     "q^n = 104060401 exceeds the enumeration guard"),
    ("root-free search",
     lambda: find_rootfree_monic(Fp(101), 4),
     "ROOTFREE_SEARCH_GUARD", field_core.ROOTFREE_SEARCH_GUARD, 101 ** 4,
     "q^m = 104060401 exceeds the search guard"),
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
     "level 11 of the tower expansion composes a form of at least 2047 "
     "terms; the form-terms guard is 1024"),
    ("route II interpolant",
     lambda: combine_case2(check_cover(
         [RingElement.from_payloads(Fp(13), tuple(
             c if k == i else 0 for k in range(3) for c in range(1, 12)))
          for i in range(3)])),
     "FORM_TERMS_GUARD", anisotropic.FORM_TERMS_GUARD, 12 ** 3 - 1,
     "route II's interpolant has exactly 1727 terms; the form-terms guard "
     "is 1024"),
]


@pytest.mark.parametrize("call,guard,limit,requested,message",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_guard_names_itself(call, guard, limit, requested, message):
    with pytest.raises(TooLarge) as info:
        call()
    exc = info.value
    assert (exc.guard, exc.limit, exc.requested) == (guard, limit, requested)
    assert requested > limit
    assert str(exc) == message
