"""Seeded instance generators for the four workloads.

Each generator takes a ``random.Random`` and a directory for the files
it writes, and returns one pass: a list of instances, each either a CLI invocation (argv without ``--out``) or a
library task, together with the independent check its output must
pass. The program sees only the generated argv, the functions files and
the library arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checker
from checker import field_of

from gelfand import (
    MultiPoly,
    Q,
    Qsqrt,
    format_element,
    format_poly,
    norm_form_eval,
    parse_element,
    parse_poly,
)


@dataclass
class Instance:
    name: str
    check: Callable[[object], list]
    argv: list | None = None
    task: Callable[[], object] | None = None


@dataclass
class Pass:
    instances: list
    operands: list = field(default_factory=list)  # FieldElement pairs


# Monic irreducible moduli, so the seed can vary the presentation of an
# extension field without changing its size.
MODULI = {
    (2, 2): ["t^2+t+1"],
    (2, 3): ["t^3+t+1", "t^3+t^2+1"],
    (3, 2): ["t^2+1", "t^2+t+2", "t^2+2*t+2"],
}


def _spec(fld, rng):
    """A descriptor as given, or one for a (p, k) extension field with a
    seeded modulus."""
    if isinstance(fld, str):
        return fld
    p, k = fld
    return f"Fq({p},{k},{rng.choice(MODULI[p, k])})"


# Field descriptors each workload builds; setup_s times building them.
FIELDS = {
    "tower": ["Fp(2)", "Fp(3)", "Fp(5)", "Fp(7)", "Fp(11)"]
             + [f"Fq({p},{k},{mod})" for (p, k), mods in MODULI.items()
                for mod in mods],
    "spectrum": ["Fp(2)", "Fp(3)", "Fp(5)", "Fq(2,2,t^2+t+1)"],
    "cover": ["Fp(2)", "Fp(3)", "Fp(5)", "Fp(7)", "Fq(2,2,t^2+t+1)"]
             + [f"Fq(2,3,{mod})" for mod in MODULI[2, 3]],
    "rational": ["Q"] + [f"Q(sqrt({d}))" for d in (-1, -2, -3, -5, -7, -11)],
}


# ---------------------------------------------------------------------------
# tower: build and exhaustively verify composition towers over finite
# fields. The ladder varies q^n (points) apart from m^(n-1) (terms).

TOWER_LADDER = [
    ("Fp(2)", 2, range(2, 9)),   # up to 255 terms on 256 points
    ("Fp(2)", 3, range(2, 6)),   # up to 81 terms of degree 81
    ("Fp(2)", 4, range(2, 5)),
    ("Fp(2)", 5, range(2, 4)),
    ("Fp(3)", 2, range(2, 6)),
    ("Fp(3)", 3, range(2, 5)),
    ("Fp(3)", 4, range(2, 4)),
    ("Fp(5)", 2, range(2, 5)),   # 625 points
    ("Fp(5)", 3, range(2, 4)),
    ("Fp(5)", 4, range(2, 4)),
    ("Fp(7)", 2, range(2, 4)),
    ("Fp(7)", 3, range(2, 4)),
    ("Fp(11)", 2, range(2, 4)),
    ((2, 2), 2, range(2, 5)),
    ((2, 2), 3, range(2, 4)),
    ((3, 2), 2, range(2, 4)),    # 729 points, extension arithmetic
    ((3, 2), 3, range(2, 3)),
    ((2, 3), 2, range(2, 4)),
    ((2, 3), 3, range(2, 3)),
]
ROOTFREE_FIELDS = ["Fp(2)", "Fp(3)", "Fp(5)", "Fp(7)", "Fp(11)",
                   (2, 2), (3, 2), (2, 3)]
SMALL_TOWERS = 16   # seeded two-variable forms, under 50 ms each


def _tower_instance(spec, m, n, prefix=""):
    gf = field_of(spec)
    return Instance(f"{prefix}anisotropic {spec} m={m} n={n}",
                    lambda r: checker.check_tower(r, gf, m, n),
                    argv=["anisotropic", "--field", spec, "--m", str(m),
                          "--n", str(n)])


def _rootfree_instance(spec, m, prefix=""):
    gf = field_of(spec)
    return Instance(f"{prefix}find-rootfree {spec} m={m}",
                    lambda r: checker.check_rootfree(r, gf, m),
                    argv=["field", "find-rootfree", "--field", spec,
                          "--m", str(m)])


def tower_pass(rng, tmp):
    out = []
    for fld, m, ns in TOWER_LADDER:
        spec = _spec(fld, rng)
        out += [_tower_instance(spec, m, n) for n in ns]
    for _ in range(SMALL_TOWERS):
        fld = rng.choice(ROOTFREE_FIELDS)
        out.append(_tower_instance(_spec(fld, rng), rng.randint(2, 4), 2))
    # the README documents Fq(p,k) as picking the modulus automatically
    out.append(Instance("anisotropic Fq(2,3) m=2 n=3 (README shorthand)",
                        lambda r: checker.check_tower(
                            r, field_of("Fq(2,3,t^3+t+1)"), 2, 3),
                        argv=["anisotropic", "--field", "Fq(2,3)",
                              "--m", "2", "--n", "3"]))
    for fld in ROOTFREE_FIELDS:
        spec = _spec(fld, rng)
        out += [_rootfree_instance(spec, m) for m in range(2, 6)]
    # the two finite-field commands of the README
    out.append(_rootfree_instance("Fp(3)", 2, prefix="README "))
    out.append(_tower_instance("Fp(2)", 2, 3, prefix="README "))
    rng.shuffle(out)
    return Pass(out)


# ---------------------------------------------------------------------------
# spectrum: maximal spectrum and topology sweeps; no polynomial work.

SPECTRUM_FIELDS = [("Fp(2)", 2, 10), ("Fp(3)", 3, 7),
                   ("Fq(2,2,t^2+t+1)", 4, 6), ("Fp(5)", 5, 5)]
SWEEP_CAP = {2: 7, 3: 5, 4: 4, 5: 4}   # largest size in a seeded sweep
# Every small (field, size) cell twice more, so that the median latency
# falls among many similar small instances, not between groups.
SINGLE_ROUNDS = 2
SWEEPS = 31
ORACLE_GUARD = 12   # the largest ring the program's oracle accepts


def _spectrum_instance(fields, sizes, oracle, space=None, name=None):
    argv = ["gelfand", "--field", ",".join(f for f, _ in fields),
            "--space", space or ",".join(map(str, sizes))]
    if oracle:
        argv.append("--oracle")
    sweep = (fields, list(sizes), oracle)
    return Instance(name or " ".join(argv[1:]),
                    lambda r: checker.check_spectrum(r, sweep), argv=argv)


def spectrum_pass(rng, tmp):
    def single(spec, q, size):
        oracle = q ** size <= ORACLE_GUARD and rng.random() < 0.5
        return _spectrum_instance([(spec, q)], [size], oracle)

    out = [single(spec, q, size) for spec, q, top in SPECTRUM_FIELDS
           for size in range(1, top + 1)]
    out += [single(spec, q, size) for _ in range(SINGLE_ROUNDS)
            for spec, q, _ in SPECTRUM_FIELDS
            for size in range(1, SWEEP_CAP[q] + 1)]
    for _ in range(SWEEPS):
        fields = rng.sample(SPECTRUM_FIELDS, rng.randint(1, 2))
        lo = rng.randint(1, 3)
        hi = rng.randint(lo, min(SWEEP_CAP[q] for _, q, _ in fields))
        pairs = [(f, q) for f, q, _ in fields]
        oracle = all(q ** hi <= ORACLE_GUARD for _, q in pairs)
        out.append(_spectrum_instance(pairs, range(lo, hi + 1), oracle,
                                      space=f"{lo}..{hi}"))
    out.append(_spectrum_instance(
        [("Fp(2)", 2), ("Fq(2,2,t^2+t+1)", 4)], range(1, 5), True,
        space="1..4", name="README gelfand --oracle --space 1..4"))
    rng.shuffle(out)
    return Pass(out)


# ---------------------------------------------------------------------------
# cover: seeded covers written to functions files, all three routes.

# Route II's witness has up to q^n terms, so the number of functions is
# capped per field to keep one cover within about a second.
COVER_FIELDS = [("Fp(2)", 6), ("Fp(3)", 4), ("Fp(5)", 3), ("Fp(7)", 2),
                ("Fq(2,2,t^2+t+1)", 3), ((2, 3), 2)]
COVERS = 99
README_COVER = ["1,0,1", "0,1,1"]


def random_cover(rng, q, n, points, zero_heavy):
    """n functions on ``points`` points, values coded 0..q-1, with no
    common zero. Zero-heavy covers are mostly zeros; dense ones are
    uniform."""
    def value():
        if zero_heavy and rng.random() < 0.7:
            return 0
        return rng.randrange(1 if zero_heavy else 0, q)
    rows = [[value() for _ in range(points)] for _ in range(n)]
    for x in range(points):
        if not any(row[x] for row in rows):
            rows[rng.randrange(n)][x] = rng.randrange(1, q)
    return rows


def _cover_instance(spec, rows, path, name):
    gf = field_of(spec)
    path.write_text("".join(",".join(gf.format(v) for v in row) + "\n"
                            for row in rows))
    return Instance(name, lambda r: checker.check_cover(r, gf, rows),
                    argv=["cover", "--field", spec, "--functions", str(path),
                          "--case", "all", "--m", "2"])


def cover_pass(rng, tmp):
    # every (field, functions, pattern) cell in turn, so that each pass
    # has the same mix of sizes; a cell's covers take their number of
    # points from different quarters of 10..40, for the same reason
    cells = [(fld, n, zero_heavy) for fld, cap in COVER_FIELDS
             for n in range(2, cap + 1) for zero_heavy in (False, True)]
    rounds = -(-COVERS // len(cells))
    out = []
    for i in range(COVERS):
        fld, n, zero_heavy = cells[i % len(cells)]
        spec = _spec(fld, rng)
        quarter = (i // len(cells) + i) % rounds
        points = rng.randint(10 + 31 * quarter // rounds,
                             9 + 31 * (quarter + 1) // rounds)
        rows = random_cover(rng, field_of(spec).q, n, points, zero_heavy)
        name = (f"cover {spec} n={n} points={points} "
                f"{'zero-heavy' if zero_heavy else 'dense'} #{i}")
        out.append(_cover_instance(spec, rows, Path(tmp) / f"cover{i}.txt",
                                   name))
    gf5 = field_of("Fp(5)")
    out.append(_cover_instance("Fp(5)",
                               [[gf5.parse(v) for v in line.split(",")]
                                for line in README_COVER],
                               Path(tmp) / "readme-cover.txt",
                               "README cover Fp(5) --case all"))
    rng.shuffle(out)
    return Pass(out)


# ---------------------------------------------------------------------------
# rational: Q witnesses, p-adic valuations, Q(sqrt(d)) library tasks.

QUADRATIC_DS = (-1, -2, -3, -5, -7, -11)
PADIC_PRIMES = (2, 3, 5, 7, 11, 13)
LIBRARY_TASKS = 32          # of each kind per pass
SAMPLES = 200               # the CLI's default --samples, as in the README


def _rational(rng, denominators=9):
    num = 0
    while num == 0:
        num = rng.randint(-99, 99)
    return Fraction(num, rng.randint(1, denominators))


def _quadratic_pairs(rng):
    """(a, b) for a + b*sqrt(d), dealt from shuffled decks of eight kinds
    (two pure imaginary, one real, five mixed), so that the share of
    pure-imaginary elements does not vary from pass to pass."""
    while True:
        deck = ["imaginary"] * 2 + ["real"] + ["mixed"] * 5
        rng.shuffle(deck)
        for kind in deck:
            yield (Fraction(0) if kind == "imaginary" else _rational(rng),
                   Fraction(0) if kind == "real" else _rational(rng))


def _witnesses(rng):
    """Root-free monic witnesses over Q (no real roots), with the arities
    each is used at."""
    c = rng.randint(1, 9)
    yield f"x^2+{c}", 2, (2, 3, 4)
    b = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
    c = b * b // 4 + rng.randint(1, 6)
    yield f"x^2{b:+d}*x+{c}", 2, (2, 3, 4)
    a, c = rng.randint(0, 3), rng.randint(1, 5)
    yield f"x^4+{a}*x^2+{c}", 4, (2, 3)


def _witness_instance(rng, witness, m, n):
    points = [tuple(_rational(rng) for _ in range(n)) for _ in range(20)]
    degree = m ** (n - 1)
    return Instance(
        f"anisotropic Q --witness {witness} n={n}",
        lambda r: checker.check_rational_witness(r, degree, n, SAMPLES,
                                                 points),
        argv=["anisotropic", "--field", "Q", "--witness", witness,
              "--n", str(n), "--seed", str(rng.randrange(10 ** 6))])


def _padic_instance(rng, p):
    pairs = [(_rational(rng) * p ** rng.randint(0, 3),
              _rational(rng) * p ** rng.randint(0, 3)) for _ in range(40)]
    return Instance(
        f"anisotropic Q --padic {p}",
        lambda r: checker.check_padic(r, p, SAMPLES, pairs),
        argv=["anisotropic", "--field", "Q", "--padic", str(p),
              "--samples", str(SAMPLES), "--seed",
              str(rng.randrange(10 ** 6))])


def _norm_task(d, vec):
    F = Qsqrt(d)
    return norm_form_eval([F.element(pair) for pair in vec]).payload


def _element_roundtrip(d, vec):
    F = Qsqrt(d)
    return [parse_element(F, format_element(F.element(pair))).payload
            for pair in vec]


def _poly_roundtrip(F, arity, coeffs):
    f = MultiPoly.from_dict(F, arity, {m: F.element(c)
                                       for m, c in coeffs.items()})
    g = parse_poly(F, format_poly(f), arity)
    return {m: c.payload for m, c in g.terms}


def rational_pass(rng, tmp):
    out = []
    for _ in range(2):
        for witness, m, ns in _witnesses(rng):
            out += [_witness_instance(rng, witness, m, n) for n in ns]
        out += [_padic_instance(rng, p) for p in PADIC_PRIMES]
    operands = []
    pairs = _quadratic_pairs(rng)
    for i in range(LIBRARY_TASKS):
        d = rng.choice(QUADRATIC_DS)
        vec = [next(pairs) for _ in range(rng.randint(2, 6))]
        expected = sum((a * a - d * b * b for a, b in vec), Fraction(0))
        out.append(Instance(f"norm_form_eval Q(sqrt({d})) #{i}",
                            checker.check_equal(expected),
                            task=lambda d=d, vec=vec: _norm_task(d, vec)))
        F = Qsqrt(d)
        elems = [F.element(pair) for pair in vec]
        operands += list(zip(elems, elems[1:]))

        d = rng.choice(QUADRATIC_DS)
        vec = [next(pairs) for _ in range(rng.randint(2, 6))]
        out.append(Instance(f"element round-trip Q(sqrt({d})) #{i}",
                            checker.check_equal(vec),
                            task=lambda d=d, vec=vec: _element_roundtrip(
                                d, vec)))

        quadratic = i % 2 == 0
        F = Qsqrt(rng.choice(QUADRATIC_DS)) if quadratic else Q()
        arity = rng.randint(1, 3)
        monos = {tuple(rng.randint(0, 4) for _ in range(arity))
                 for _ in range(rng.randint(2, 6))}
        coeffs = {mono: next(pairs) if quadratic else _rational(rng)
                  for mono in monos}
        out.append(Instance(f"poly round-trip {F} #{i}",
                            checker.check_equal(coeffs),
                            task=lambda F=F, a=arity, c=coeffs:
                            _poly_roundtrip(F, a, c)))
    rng.shuffle(out)
    return Pass(out, operands)


PASSES = {"tower": tower_pass, "spectrum": spectrum_pass,
          "cover": cover_pass, "rational": rational_pass}
