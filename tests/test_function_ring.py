"""Tests for the finite function ring, its ideals, and the spectrum."""

import itertools

import pytest

from gelfand.errors import NotProper, PointOutOfRange, TooLarge
from gelfand.field_core import Fp, Fq
from gelfand.function_ring import (
    FiniteSpace,
    IdealRepr,
    RingElement,
    all_ring_elements,
    check_homeomorphism,
    enumerate_ideals_bruteforce,
    gelfand_map,
    max_spectrum,
    maximal_ideals,
    parse_ring_element,
    preimage_of_ideal,
)


def test_kernel_at_point_explicit_set():
    F, sp = Fp(2), FiniteSpace(2)
    M = gelfand_map(sp, F, 0)
    assert {str(f) for f in M.element_set()} == {"0,0", "0,1"}


def test_single_point_space_kernel_is_zero_ideal():
    F, sp = Fp(3), FiniteSpace(1)
    M = gelfand_map(sp, F, 0)
    assert M.element_set() == {RingElement.zeros(F, 1)}
    assert M.is_maximal()


def test_distinct_points_give_distinct_ideals():
    F, sp = Fp(2), FiniteSpace(3)
    for x, y in itertools.combinations(sp.points(), 2):
        Mx, My = gelfand_map(sp, F, x), gelfand_map(sp, F, y)
        separator = RingElement.indicator(F, 3, x)
        assert My.contains(separator) and not Mx.contains(separator)


def test_gelfand_map_point_range():
    with pytest.raises(PointOutOfRange):
        gelfand_map(FiniteSpace(2), Fp(2), 5)


def _one(field, size):
    return RingElement.from_ints(field, [1] * size)


def test_bruteforce_f2_two_points():
    ideals = enumerate_ideals_bruteforce(FiniteSpace(2), Fp(2))
    assert len(ideals) == 4
    assert len(maximal_ideals(ideals, _one(Fp(2), 2))) == 2


def test_bruteforce_one_point():
    ideals = enumerate_ideals_bruteforce(FiniteSpace(1), Fp(2))
    assert len(ideals) == 2
    maximal = maximal_ideals(ideals, _one(Fp(2), 1))
    assert len(maximal) == 1
    assert maximal[0] == {RingElement.zeros(Fp(2), 1)}


def test_bruteforce_f2_three_points():
    ideals = enumerate_ideals_bruteforce(FiniteSpace(3), Fp(2))
    assert len(ideals) == 8  # one per subset of coordinates
    assert len(maximal_ideals(ideals, _one(Fp(2), 3))) == 3


def test_bruteforce_guard():
    with pytest.raises(TooLarge):
        enumerate_ideals_bruteforce(FiniteSpace(3), Fp(3))


def test_structural_matches_bruteforce():
    F, sp = Fp(2), FiniteSpace(3)
    oracle = set(maximal_ideals(enumerate_ideals_bruteforce(sp, F),
                                _one(F, 3)))
    structural = {gelfand_map(sp, F, x).element_set() for x in sp.points()}
    assert oracle == structural


def test_structural_ideal_closure_property():
    # Structural(V1 u V2) = Structural(V1) n Structural(V2)
    F, sp = Fp(2), FiniteSpace(3)
    I1 = IdealRepr(sp, F, {0})
    I2 = IdealRepr(sp, F, {1, 2})
    I12 = IdealRepr(sp, F, {0, 1, 2})
    assert I12.element_set() == I1.element_set() & I2.element_set()


def test_structural_is_really_an_ideal():
    F, sp = Fp(3), FiniteSpace(2)
    I = IdealRepr(sp, F, {1})
    members = I.element_set()
    ring = all_ring_elements(sp, F)
    for f in members:
        for g in members:
            assert (f + g) in members
        for r in ring:
            assert (r * f) in members


def test_spectrum_size3_f2():
    spec = max_spectrum(FiniteSpace(3), Fp(2))
    assert len(spec.points) == 3
    assert len(spec.closed_sets) == 8


def test_spectrum_single_point():
    spec = max_spectrum(FiniteSpace(1), Fp(2))
    assert len(spec.points) == 1
    assert spec.closed_sets == {frozenset(), frozenset({0})}


def test_basic_open_of_indicator_isolates_its_point():
    # D(f) for f the indicator of x is exactly {kernel at x}
    F, sp = Fp(2), FiniteSpace(3)
    f = RingElement.indicator(F, 3, 1)
    d_f = {x for x in sp.points() if not gelfand_map(sp, F, x).contains(f)}
    assert d_f == {1}


def test_preimage_of_kernel():
    F, sp = Fp(2), FiniteSpace(3)
    M = gelfand_map(sp, F, 1)
    assert preimage_of_ideal(sp, F, M) == frozenset({1})


def test_preimage_of_whole_ring_rejected():
    F, sp = Fp(2), FiniteSpace(2)
    whole = IdealRepr(sp, F, ())
    with pytest.raises(NotProper):
        preimage_of_ideal(sp, F, whole)


def test_preimage_of_zero_ideal_is_whole_space():
    F, sp = Fp(2), FiniteSpace(2)
    zero_ideal = IdealRepr(sp, F, {0, 1})
    assert preimage_of_ideal(sp, F, zero_ideal) == frozenset({0, 1})


def test_homeomorphism_size3_f2():
    report = check_homeomorphism(FiniteSpace(3), Fp(2))
    assert report["passed"]
    assert report["max_ideal_count"] == 3
    assert report["closed_set_count"] == 8
    assert report["oracle_checked"]


def test_homeomorphism_trivial_space():
    for F in (Fp(2), Fq(2, 2)):
        report = check_homeomorphism(FiniteSpace(1), F)
        assert report["passed"]


def test_homeomorphism_size4_f3_structural_only():
    report = check_homeomorphism(FiniteSpace(4), Fp(3))
    assert report["passed"]
    assert report["max_ideal_count"] == 4
    assert not report["oracle_checked"]


def test_zariski_topology_is_discrete():
    spec = max_spectrum(FiniteSpace(4), Fp(2))
    for x in range(4):
        assert frozenset({x}) in spec.closed_sets           # singleton closed
        assert frozenset(range(4)) - {x} in spec.closed_sets  # and open


def test_ring_element_parse_and_ops():
    F = Fp(5)
    f = parse_ring_element(F, "1,0,3")
    g = parse_ring_element(F, "2,2,4")
    assert str(f + g) == "3,2,2"
    assert str(f * g) == "2,0,2"
    assert str(-f) == "4,0,2"


def test_ideal_repr_rejects_points_outside_the_space():
    with pytest.raises(PointOutOfRange):
        IdealRepr(FiniteSpace(2), Fp(2), {0, 2})
    assert IdealRepr(FiniteSpace(2), Fp(2), [1, 1]).vanishing == {1}


def _closed_sets_by_closure(space, field):
    """Reference oracle: the zero sets of every ring element, closed
    under finite union and intersection by fixed-point iteration."""
    family = {f.zero_set() for f in all_ring_elements(space, field)}
    family |= {frozenset(), frozenset(space.points())}
    while True:
        fam = list(family)
        new = {c for i, a in enumerate(fam) for b in fam[i + 1:]
               for c in (a | b, a & b)} - family
        if not new:
            return frozenset(family)
        family |= new


@pytest.mark.parametrize("field,sizes", [
    (Fp(2), range(1, 6)), (Fp(3), range(1, 4)), (Fq(2, 2), range(1, 4))])
def test_spectrum_matches_closure_oracle(field, sizes):
    for size in sizes:
        space = FiniteSpace(size)
        assert max_spectrum(space, field).closed_sets == \
            _closed_sets_by_closure(space, field)


def test_spectrum_guard_before_work():
    with pytest.raises(TooLarge):
        max_spectrum(FiniteSpace(20), Fp(2))
