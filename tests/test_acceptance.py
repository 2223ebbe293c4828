"""Acceptance suite: one test per criterion, all exact (no tolerances).

Each test prints a single pass/fail line; run with `pytest -s
tests/test_acceptance.py` to see them.
"""

import itertools
import json
import random
from fractions import Fraction

from gelfand import covers
from gelfand.anisotropic import (
    ExhaustivePassed,
    ValuationPassed,
    build_fn,
    norm_form_eval,
    valuation_identity_check,
    verify_vanishing_exhaustive,
)
from gelfand.cli import main as cli_main
from gelfand.covers import (
    certify,
    check_cover,
    unit_combination_case3,
)
from gelfand.field_core import (
    Fp,
    Fq,
    Qsqrt,
    enumerate_field,
    find_rootfree_monic,
)
from gelfand.function_ring import (
    FiniteSpace,
    RingElement,
    check_homeomorphism,
    enumerate_ideals_bruteforce,
    gelfand_map,
    maximal_ideals,
)
from gelfand.poly import univariate
from test_function_ring import _elements, _mask, _unit


def _report(num, name, ok):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


FINITE_FIELDS = [Fp(2), Fp(3), Fq(2, 2), Fp(5), Fp(7), Fq(3, 2)]


def test_criterion_1_exhaustive_suite():
    ok = True
    for field in FINITE_FIELDS:
        base = univariate(field, find_rootfree_monic(field, 2))
        for n in (1, 2, 3):
            result = verify_vanishing_exhaustive(build_fn(base, n))
            ok = ok and result == ExhaustivePassed(field.order ** n)
    _report(1, "origin-only zero set, q in {2,3,4,5,7,9}, n in {1,2,3}", ok)


def test_criterion_2_degree_law():
    ok = True
    for field in (Fp(2), Fp(3)):
        for m in (2, 3):
            base = univariate(field, find_rootfree_monic(field, m))
            for n in (2, 3, 4):
                fn = build_fn(base, n)
                ok = ok and fn.degree == m ** (n - 1)
                ok = ok and (0,) * n not in dict(fn.terms)
    _report(2, "degree m^(n-1) and zero constant term", ok)


def test_criterion_3_gelfand_finite_instance():
    ok = True
    for field in (Fp(2), Fp(3), Fq(2, 2)):
        for size in range(1, 7):
            rec = check_homeomorphism(FiniteSpace(size), field)
            ok = ok and rec["passed"] and rec["max_ideal_count"] == size
    # oracle agreement for q = 2, n <= 3: exactly 2^n ideals, n maximal
    for size in (1, 2, 3):
        sp, F = FiniteSpace(size), Fp(2)
        ideals = enumerate_ideals_bruteforce(sp, F)
        ok = ok and len(ideals) == 2 ** size
        maximal = set(maximal_ideals(ideals, _unit(F, size)))
        structural = {_mask(sp, F, _elements(gelfand_map(sp, F, x)))
                      for x in sp.points()}
        ok = ok and len(maximal) == size and maximal == structural
    _report(3, "spectrum bijection, discrete Zariski topology, oracle", ok)


def test_criterion_4_case2_interpolation():
    rng = random.Random(20240)
    ok = True
    combos = [(q, n) for q in (2, 3, 5) for n in (1, 2)]
    for trial in range(50):
        q, n = combos[trial % len(combos)]
        field = Fp(q)
        elems = enumerate_field(field)
        points = [pt for pt in itertools.product(elems, repeat=n)
                  if any(not x.is_zero for x in pt)]
        J = rng.sample(points, rng.randint(1, len(points)))
        f = covers._interpolant(field, n,
                                [tuple(x.payload for x in a) for a in J])
        origin = tuple(field.zero() for _ in range(n))
        ok = ok and f.evaluate(origin).is_zero
        ok = ok and (0,) * n not in dict(f.terms)
        ok = ok and all(f.evaluate(a) == field.one() for a in J)
    _report(4, "interpolation is 1 on J, 0 at origin, exact", ok)


def _random_cover(rng, field, size, n):
    elems = enumerate_field(field)
    fns = [[rng.choice(elems) for _ in range(size)] for _ in range(n)]
    for x in range(size):
        if all(fns[i][x].is_zero for i in range(n)):
            fns[rng.randrange(n)][x] = rng.choice(elems[1:])
    return [RingElement(field, tuple(v)) for v in fns]


def test_criterion_5_case3_avoidance():
    rng = random.Random(31415)
    ok = True
    for trial in range(50):
        q = (5, 7, 11)[trial % 3]
        field = Fp(q)
        size = rng.randint(1, q - 1)
        n = rng.randint(1, 4)
        cover = check_cover(_random_cover(rng, field, size, n))
        cert = unit_combination_case3(cover)
        ok = ok and certify(cert)["pass"]
        ok = ok and all(not v.is_zero for v in cert.composite.values)
        ok = ok and _steps_keep_the_cover(cert)
    _report(5, "linear combination nowhere zero, per-step cover kept", ok)


def _steps_keep_the_cover(cert):
    """Whether the partial combination after each step of route III,
    recomputed from the log's chosen_a, vanishes at none of that step's
    restricted points (where the functions after psi_i all vanish)."""
    field = cert.cover.field
    by_text = {str(a): a for a in enumerate_field(field)}
    psis = [psi.values for psi in cert.cover.functions]
    current = psis[0]
    for i, step in enumerate(cert.per_step_log, 1):
        a = by_text[step["chosen_a"]]
        current = [u - a * v for u, v in zip(current, psis[i])]
        restricted = [x for x in range(len(current))
                      if all(r[x].is_zero for r in psis[i + 1:])]
        if len(restricted) != step["restricted_points"] or any(
                current[x].is_zero for x in restricted):
            return False
    return True


def test_criterion_6_norm_form_over_gaussian_rationals():
    Qi = Qsqrt(-1)
    rng = random.Random(271828)

    def rand_elem(allow_zero=True):
        if allow_zero and rng.random() < 0.1:
            return Qi.zero()
        return Qi.element((Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
                           Fraction(rng.randint(-20, 20), rng.randint(1, 9))))

    ok = True
    for _ in range(200):
        n = rng.randint(1, 4)
        pts = tuple(rand_elem() for _ in range(n))
        value = norm_form_eval(pts)
        all_zero = all(x.is_zero for x in pts)
        ok = ok and (value.is_zero == all_zero)
        ok = ok and value.payload >= 0
    for _ in range(200):
        x, y = rand_elem(), rand_elem()
        ok = ok and (x * y).norm() == x.norm() * y.norm()
    _report(6, "norm form zero iff zero tuple; norm multiplicative", ok)


def test_criterion_7_valuation_identity():
    rng = random.Random(1618)
    ok = True
    for p in (2, 3, 5):
        samples = []
        while len(samples) < 200:
            x = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            y = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            if x != 0 or y != 0:
                samples.append((x, y))
        ok = ok and valuation_identity_check(p, samples) == \
            ValuationPassed(200)
    _report(7, "v_p(x^2 - p*y^2) = min(2*v_p(x), 1 + 2*v_p(y))", ok)


def test_criterion_8_cli_determinism(tmp_path):
    def strip_timing(path):
        return "\n".join(line for line in path.read_text().splitlines()
                         if "wall_time_s" not in line)

    fns = tmp_path / "fns.txt"
    fns.write_text("1,0\n0,1\n")
    commands = [
        ["anisotropic", "--field", "Fp(3)", "--m", "2", "--n", "3"],
        ["anisotropic", "--field", "Q", "--padic", "3", "--n", "2"],
        ["gelfand", "--field", "Fp(2),Fp(3)", "--space", "1..4"],
        ["cover", "--field", "Fp(5)", "--functions", str(fns),
         "--case", "all"],
        ["field", "find-rootfree", "--field", "Fq(3,2,t^2+1)", "--m", "2"],
    ]
    ok = True
    for i, cmd in enumerate(commands):
        a = tmp_path / f"a{i}.json"
        b = tmp_path / f"b{i}.json"
        ok = ok and cli_main(cmd + ["--out", str(a)]) == 0
        ok = ok and cli_main(cmd + ["--out", str(b)]) == 0
        ok = ok and strip_timing(a) == strip_timing(b)
        json.loads(a.read_text())  # reports must stay valid JSON
    _report(8, "byte-identical reports apart from timing", ok)
