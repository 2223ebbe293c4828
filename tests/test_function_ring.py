"""Tests for the finite function ring, its ideals, and the spectrum."""

import itertools
import tracemalloc

import pytest

import gelfand.field_core as field_core
import gelfand.function_ring as function_ring
from gelfand.errors import (
    InfiniteField,
    MixedFields,
    ParseError,
    PointOutOfRange,
    TooLarge,
)
from gelfand.field_core import (
    Fp,
    Fq,
    PrimeField,
    Q,
    Qsqrt,
    enumerate_field,
    format_element,
    parse_element,
    parse_field,
)
from gelfand.function_ring import (
    ORACLE_GUARD,
    FiniteSpace,
    IdealRepr,
    RingElement,
    ZariskiSpace,
    all_ring_elements,
    check_homeomorphism,
    enumerate_ideals_bruteforce,
    gelfand_map,
    max_spectrum,
    maximal_ideals,
    parse_ring_element,
)


def test_kernel_at_point_explicit_set():
    F, sp = Fp(2), FiniteSpace(2)
    M = gelfand_map(sp, F, 0)
    assert {str(f) for f in M.element_set()} == {"0,0", "0,1"}


def test_single_point_space_kernel_is_zero_ideal():
    F, sp = Fp(3), FiniteSpace(1)
    M = gelfand_map(sp, F, 0)
    assert M.element_set() == {RingElement(F, (F.zero(),) * 1)}
    assert M.is_maximal()


def test_distinct_points_give_distinct_ideals():
    F, sp = Fp(2), FiniteSpace(3)
    for x, y in itertools.combinations(sp.points(), 2):
        Mx, My = gelfand_map(sp, F, x), gelfand_map(sp, F, y)
        separator = _indicator(F, 3, x)
        assert My.contains(separator) and not Mx.contains(separator)


def test_gelfand_map_point_range():
    with pytest.raises(PointOutOfRange):
        gelfand_map(FiniteSpace(2), Fp(2), 5)


def _one(field, size):
    return RingElement.from_payloads(field, (1,) * size)


def _indicator(field, size, point):
    """1 at the point and 0 elsewhere; in a finite field the payloads
    of 0 and 1 are 0 and 1."""
    return RingElement.from_payloads(
        field, tuple(int(x == point) for x in range(size)))


def test_bruteforce_f2_two_points():
    ideals = enumerate_ideals_bruteforce(FiniteSpace(2), Fp(2))
    assert len(ideals) == 4
    assert len(maximal_ideals(ideals, _one(Fp(2), 2))) == 2


def test_bruteforce_one_point():
    ideals = enumerate_ideals_bruteforce(FiniteSpace(1), Fp(2))
    assert len(ideals) == 2
    maximal = maximal_ideals(ideals, _one(Fp(2), 1))
    assert len(maximal) == 1
    assert maximal[0] == {RingElement(Fp(2), (Fp(2).zero(),) * 1)}


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
    # closed under sums and under products by the ring, each computed
    # pointwise on payloads, as the ideal oracle computes them
    F, sp = Fp(3), FiniteSpace(2)
    I = IdealRepr(sp, F, {1})
    members = {f.payloads for f in I.element_set()}
    ring = [r.payloads for r in all_ring_elements(sp, F)]
    for f in members:
        for g in members:
            assert tuple(map(F.add, f, g)) in members
        for r in ring:
            assert tuple(map(F.mul, r, f)) in members


def test_spectrum_size3_f2():
    spec = max_spectrum(FiniteSpace(3), Fp(2))
    assert len(spec.points) == 3
    assert len(spec.closed_sets) == 8


def test_spectrum_single_point():
    spec = max_spectrum(FiniteSpace(1), Fp(2))
    assert len(spec.points) == 1
    assert set(spec.closed_sets) == {0b0, 0b1}


def test_basic_open_of_indicator_isolates_its_point():
    # D(f) for f the indicator of x is exactly {kernel at x}
    F, sp = Fp(2), FiniteSpace(3)
    f = _indicator(F, 3, 1)
    d_f = {x for x in sp.points() if not gelfand_map(sp, F, x).contains(f)}
    assert d_f == {1}


def test_contains_rejects_a_function_of_another_ring():
    ideal = gelfand_map(FiniteSpace(3), Fp(2), 0)
    with pytest.raises(MixedFields):
        ideal.contains(RingElement(Fp(2), (Fp(2).zero(),) * 2))  # another size
    with pytest.raises(MixedFields):
        ideal.contains(RingElement(Fp(3), (Fp(3).zero(),) * 3))  # another field


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


@pytest.mark.parametrize("field", [Q(), Qsqrt(-1)], ids=str)
@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_homeomorphism_over_infinite_fields(field, size):
    """The spectrum and the kernel count need no finite field; the
    oracle, which enumerates the ring, does not run by default."""
    report = check_homeomorphism(FiniteSpace(size), field)
    assert report["passed"]
    assert report["max_ideal_count"] == size
    assert report["closed_set_count"] == 2 ** size
    assert not report["oracle_checked"]


def test_forced_oracle_over_q_is_refused():
    with pytest.raises(InfiniteField, match="oracle"):
        check_homeomorphism(FiniteSpace(2), Q(), force_oracle=True)


@pytest.mark.parametrize("corrupt", ["drop", "outside"])
def test_topology_check_negative_control(monkeypatch, corrupt):
    real = function_ring.max_spectrum

    def broken(space, field):
        spectrum = real(space, field)
        closed = set(spectrum.closed_sets) - {1 << 0}
        if corrupt == "outside":
            # same count, but one set holds a point the space lacks
            closed.add(1 | 1 << space.size)
        return ZariskiSpace(spectrum.points, frozenset(closed))

    monkeypatch.setattr(function_ring, "max_spectrum", broken)
    report = check_homeomorphism(FiniteSpace(3), Fp(2))
    assert report["bijective"]
    assert report["closed_set_count"] == (7 if corrupt == "drop" else 8)
    assert report["topology_match"] is False
    assert report["passed"] is False


def test_topology_check_reads_no_mask(monkeypatch):
    # the family is compared to range(2^n) whole, not scanned for its max
    def refuse(*args, **kwargs):
        raise AssertionError("the closed-set family was scanned")

    monkeypatch.setattr(function_ring, "max", refuse, raising=False)
    report = check_homeomorphism(FiniteSpace(19), Fp(2))
    assert report["topology_match"] and report["passed"]
    assert report["closed_set_count"] == 2 ** 19


def test_zariski_topology_is_discrete():
    spec = max_spectrum(FiniteSpace(4), Fp(2))
    for x in range(4):
        assert 1 << x in spec.closed_sets              # singleton closed
        assert 0b1111 ^ 1 << x in spec.closed_sets     # and open


def test_ring_element_parse_and_ops():
    F = Fp(5)
    f = parse_ring_element(F, "1,0,3")
    g = parse_ring_element(F, "2,2,4")
    assert (f.payloads, g.payloads) == ((1, 0, 3), (2, 2, 4))
    assert (str(f), str(g)) == ("1,0,3", "2,2,4")


@pytest.mark.parametrize("spec,line,payloads", [
    ("Fp(7)", " 1,-1,06", (1, 6, 6)),
    ("Fp(7)", "3, 7 ,-8", (3, 0, 6)),
    ("Fq(2,2,t^2+t+1)", "t,t+2, 1+t", (2, 2, 3)),
])
def test_literals_off_the_table_parse_as_before(spec, line, payloads):
    # a leading space, a sign or a leading zero is read by the parser
    # like any other literal
    assert parse_ring_element(parse_field(spec), line).payloads == payloads


@pytest.mark.parametrize("spec,line,pos,expected", [
    ("Fp(7)", "1,x,2", 2, "an integer residue"),
    ("Fp(7)", "1, 2a", 4, "end of input"),
    ("Fp(7)", "1,,2", 2, "an integer residue"),
    ("Fp(7)", "1,2,", 4, "an integer residue"),
    ("Fq(2,2,t^2+t+1)", "t,t+1, 1+t,t^2", 11,
     "a term in t of degree at most 1"),
    ("Q", "1/2,-3, 4/0", 9, "end of input"),
])
def test_bad_literals_keep_their_error_offsets(spec, line, pos, expected):
    with pytest.raises(ParseError) as info:
        parse_ring_element(parse_field(spec), line)
    assert (info.value.pos, info.value.expected) == (pos, expected)


@pytest.fixture
def empty_memo():
    """The ring-line memo of every field emptied, before and after."""
    function_ring._literals.cache_clear()
    yield function_ring._literals
    function_ring._literals.cache_clear()


@pytest.mark.parametrize("spec", ["Fp(2)", "Fp(7)", "Fq(2,2,t^2+t+1)",
                                  "Fq(2,3,t^3+t+1)", "Fq(3,2)", "Fp(257)"])
def test_literal_table_agrees_with_the_parser(spec, empty_memo):
    # the literal table is the memo of what the parser read: a line of
    # every canonical literal reads the parser's payloads, on the first
    # read and from the memo on the second, and the memo holds the texts
    # read and nothing else
    field = parse_field(spec)
    texts = [format_element(x) for x in enumerate_field(field)]
    parsed = {t: parse_element(field, t).payload for t in texts}
    line = ",".join(texts)
    for _ in range(2):
        assert parse_ring_element(field, line).payloads == \
            tuple(parsed.values())
    assert empty_memo(field) == parsed


@pytest.mark.parametrize("spec,line", [
    ("Fp(65537)", "65536, 1,2,-1,0"),
    ("Q", "1/2,-3, 4/6,0,-3"),
    ("Q(sqrt(-3))", "1/2-sqrt(-3),sqrt(-3), 2,0"),
], ids=["Fp(65537)", "Q", "Q(sqrt(-3))"])
def test_no_literal_table_for_large_or_infinite_fields(spec, line,
                                                       empty_memo):
    # no table of the field's elements: a field past FIELD_TABLE_CAP or
    # an infinite one reads its literals through the same memo
    field = parse_field(spec)
    parts = line.split(",")
    parsed = {t: parse_element(field, t).payload for t in parts}
    for _ in range(2):
        assert parse_ring_element(field, line).payloads == \
            tuple(parsed[t] for t in parts)
    assert empty_memo(field) == parsed


def test_first_line_over_a_large_tabled_field_formats_no_element(
        monkeypatch, empty_memo):
    # Fq(251,2) has 63,001 elements, under FIELD_TABLE_CAP: reading a
    # line formats and enumerates none of them; an element or a payload
    # is formatted by the descriptor's format, which no pass may call
    field = Fq(251, 2)

    def forbidden(*args):
        raise AssertionError("the line was read by a whole-field pass")

    monkeypatch.setattr(field_core, "format_element", forbidden)
    monkeypatch.setattr(type(field), "format", forbidden)
    for module in (field_core, function_ring):
        monkeypatch.setattr(module, "enumerate_field", forbidden,
                            raising=False)
    assert parse_ring_element(field, "1,2").payloads == (1, 2)
    assert parse_ring_element(field, "t,1").payloads == (251, 1)


def test_memo_stops_at_the_cap(monkeypatch, empty_memo):
    monkeypatch.setattr(function_ring, "FIELD_TABLE_CAP", 3)
    field = Fp(5)
    assert parse_ring_element(field, "0,1,2,3,4").payloads == (0, 1, 2, 3, 4)
    assert empty_memo(field) == {"0": 0, "1": 1, "2": 2}
    assert parse_ring_element(field, "4,3, 1").payloads == (4, 3, 1)
    assert empty_memo(field) == {"0": 0, "1": 1, "2": 2}


@pytest.mark.parametrize("line,pos,expected", [
    ("1, 2a", 4, "end of input"),
    ("1,x,2", 2, "an integer residue"),
])
def test_a_bad_literal_is_not_remembered(line, pos, expected, empty_memo):
    field = Fp(7)
    for _ in range(2):
        with pytest.raises(ParseError) as info:
            parse_ring_element(field, line)
        assert (info.value.pos, info.value.expected) == (pos, expected)
    assert empty_memo(field) == {"1": 1}


def test_ideal_repr_rejects_points_outside_the_space():
    with pytest.raises(PointOutOfRange):
        IdealRepr(FiniteSpace(2), Fp(2), {0, 2})
    assert IdealRepr(FiniteSpace(2), Fp(2), [1, 1]).vanishing == {1}


def _masks(point_sets):
    """Each set of points as the bitmask with bit x for point x."""
    return frozenset(sum(1 << x for x in S) for S in point_sets)


def _closed_sets_by_closure(space, field):
    """Reference oracle: the zero sets of every ring element, closed
    under finite union and intersection by fixed-point iteration."""
    family = {frozenset(x for x, a in enumerate(f.payloads)
                        if field.is_zero(a))
              for f in all_ring_elements(space, field)}
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
        assert set(max_spectrum(space, field).closed_sets) == \
            _masks(_closed_sets_by_closure(space, field))


def test_spectrum_holds_no_set_per_closed_set():
    # the family of 2^19 masks is given in closed form, not stored
    tracemalloc.start()
    try:
        spectrum = max_spectrum(FiniteSpace(19), Fp(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(spectrum.closed_sets) == 2 ** 19
    assert peak < 1 << 20


def test_spectrum_guard_before_work():
    with pytest.raises(TooLarge):
        max_spectrum(FiniteSpace(20), Fp(2))


def _closed_sets_by_field_elements(space, field):
    """Reference: the zero set of 1 - 1_S for every mask S, computed as
    1 + (-1_S) by the field elements' operators."""
    zero, one = field.zero(), field.one()
    closed = set()
    for mask in range(1 << space.size):
        diff = [one + -(one if (mask >> x) & 1 else zero)
                for x in space.points()]
        closed.add(frozenset(x for x, v in enumerate(diff) if v.is_zero))
    return frozenset(closed)


@pytest.mark.parametrize("field,sizes", [
    (Fp(2), range(1, 9)), (Fp(3), range(1, 6)), (Fq(2, 2), range(1, 5)),
    (Fp(5), range(1, 5)), (Q(), range(1, 7)), (Qsqrt(-1), range(1, 7))],
    ids=str)
def test_spectrum_matches_field_element_loop(field, sizes):
    for size in sizes:
        space = FiniteSpace(size)
        assert set(max_spectrum(space, field).closed_sets) == \
            _masks(_closed_sets_by_field_elements(space, field))


def _ideals_by_field_elements(space, field):
    """Reference oracle: the same subset enumeration, with the add and
    mul tables filled by the field elements' operators and keyed by
    tuples of field elements."""
    ring = list(itertools.product(enumerate_field(field),
                                  repeat=space.size))
    n = len(ring)
    index = {f: i for i, f in enumerate(ring)}
    add = [[index[tuple(a + b for a, b in zip(f, g))] for g in ring]
           for f in ring]
    mul = [[index[tuple(a * b for a, b in zip(f, g))] for g in ring]
           for f in ring]
    zero = next(i for i, f in enumerate(ring)
                if all(a.is_zero for a in f))
    ideals = []
    for mask in range(1 << n):
        members = [i for i in range(n) if (mask >> i) & 1]
        if (mask >> zero) & 1 and all(
                (mask >> add[i][j]) & 1 for i in members for j in members) \
                and all((mask >> mul[j][i]) & 1
                        for i in members for j in range(n)):
            ideals.append(frozenset(RingElement(field, ring[i])
                                    for i in members))
    return ideals


ORACLE_FIELDS = [Fp(2), Fp(3), Fq(2, 2), Fp(5), Fp(7), Fq(2, 3), Fq(3, 2),
                 Fp(11)]


@pytest.mark.parametrize("field,size", [
    (F, size) for F in ORACLE_FIELDS for size in range(1, 5)
    if F.order ** size <= ORACLE_GUARD], ids=str)
def test_oracle_matches_field_element_tables(field, size):
    space = FiniteSpace(size)
    assert enumerate_ideals_bruteforce(space, field) == \
        _ideals_by_field_elements(space, field)


def _local_ring_mul(self, a, b):
    """The product of F_2[x, y]/(x, y)^2 on the payloads 0..7 of F_8: bit
    0 is the constant, bits 1 and 2 the coefficients of x and y."""
    if a & 1 and b & 1:
        return a ^ b ^ 1   # (1 + u)(1 + v) = 1 + u + v, as uv = 0
    return b if a & 1 else a if b & 1 else 0


def test_oracle_sums_principal_ideals_into_the_rest(monkeypatch):
    # in F^n every ideal is principal, but the oracle assumes only a
    # commutative ring with 1: in F_2[x, y]/(x, y)^2 the maximal ideal
    # (x, y) = {0, x, y, x + y} is xR + yR and no row aR
    monkeypatch.setattr(type(Fq(2, 3)), "mul", _local_ring_mul)
    space, field = FiniteSpace(1), Fq(2, 3)
    ideals = enumerate_ideals_bruteforce(space, field)
    assert ideals == _ideals_by_field_elements(space, field)
    assert len(ideals) == 6
    assert {0, 2, 4, 6} in [{f.payloads[0] for f in I} for I in ideals]
    assert check_homeomorphism(space, field)["bijective"] is False


def test_oracle_past_its_guard_generates_the_readme_ring(monkeypatch):
    # Fq(2,2) on 4 points: 256 elements, 16 ideals, summed from principal
    # ideals; a subset enumeration would test 2^256 subsets
    monkeypatch.setattr(function_ring, "ORACLE_GUARD", 256)
    report = check_homeomorphism(FiniteSpace(4), Fq(2, 2), force_oracle=True)
    assert report["oracle_checked"] is True
    assert report["passed"] is True
    assert len(enumerate_ideals_bruteforce(FiniteSpace(4), Fq(2, 2))) == 16


def test_wrong_negation_breaks_the_topology(monkeypatch):
    # with -a computed as a, 1 - 1_S over F_3 is 2 on S and 1 elsewhere:
    # it vanishes nowhere, so the only closed set left is the empty one
    monkeypatch.setattr(PrimeField, "neg", lambda self, a: a)
    report = check_homeomorphism(FiniteSpace(3), Fp(3))
    assert report["closed_set_count"] == 1
    assert report["bijective"] is True
    assert report["topology_match"] is False
    assert report["passed"] is False


@pytest.mark.parametrize("field", [Fp(2), Fq(2, 3), Q(), Qsqrt(-1)], ids=str)
def test_spectrum_reads_two_field_values(monkeypatch, field):
    # 1 - 1_S takes only the values 1 - 1 and 1 - 0, whatever n is
    calls = []
    kind = type(field)
    for name in ("add", "neg"):
        real = getattr(kind, name)
        monkeypatch.setattr(kind, name, lambda self, *a, name=name, real=real:
                            calls.append(name) or real(self, *a))
    spectrum = max_spectrum(FiniteSpace(12), field)
    assert len(spectrum.closed_sets) == 2 ** 12
    assert calls.count("add") <= 2 and calls.count("neg") <= 2


def test_one_minus_zero_read_as_zero_breaks_the_topology(monkeypatch):
    # with a + 0 computed as 0, 1 - 1_S over F_3 vanishes everywhere:
    # every S gives the full set, the only closed set left
    real = PrimeField.add
    monkeypatch.setattr(PrimeField, "add",
                        lambda self, a, b: 0 if b == 0 else real(self, a, b))
    report = check_homeomorphism(FiniteSpace(3), Fp(3))
    assert report["closed_set_count"] == 1
    assert report["topology_match"] is False
    assert report["passed"] is False


def test_wrong_oracle_product_breaks_the_correspondence(monkeypatch):
    # with every product zero, each row aR is {0}, so only the zero ideal
    # is generated, and the oracle's maximal ideals are no longer the
    # three kernels
    monkeypatch.setattr(PrimeField, "mul", lambda self, a, b: 0)
    report = check_homeomorphism(FiniteSpace(3), Fp(2))
    assert report["oracle_checked"] is True
    assert report["bijective"] is False
    assert report["topology_match"] is True
    assert report["passed"] is False


def test_merged_kernels_break_the_correspondence(monkeypatch):
    # points 0 and 1 sent to one kernel: the oracle still finds three
    # maximal ideals, so the two lists no longer agree
    real = function_ring.gelfand_map
    monkeypatch.setattr(function_ring, "gelfand_map",
                        lambda space, field, x: real(space, field, max(x, 1)))
    report = check_homeomorphism(FiniteSpace(3), Fp(2))
    assert report["oracle_checked"] is True
    assert report["bijective"] is False
    assert report["passed"] is False
    # 81 ring elements, above ORACLE_GUARD: the oracle is off, and the
    # four points give only three distinct kernels
    report = check_homeomorphism(FiniteSpace(4), Fp(3))
    assert report["oracle_checked"] is False
    assert report["max_ideal_count"] == 3
    assert report["bijective"] is False
    assert report["passed"] is False
