"""Command-line front door: build witnesses, verify, sweep, emit JSON.

Exit codes: 0 when everything passed, 1 on a verification failure,
2 on an input or precondition error. Reports are deterministic for a
fixed configuration apart from the wall_time_s field.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from . import anisotropic as aniso
from . import covers as cov
from . import function_ring as fr
from .errors import CommonZero, ConfigError, GelfandError, ParseError
from .field_core import (
    RATIONAL,
    find_rootfree_monic,
    format_field,
    parse_field,
)
from .poly import format_poly, parse_poly, univariate

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_CONFIG_ERROR = 2


def _emit(report, out_path):
    report["wall_time_s"] = round(time.monotonic() - report.pop("_t0"), 6)
    text = json.dumps(report, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _new_report(command, config):
    return {"command": command, "config": config, "_t0": time.monotonic()}


def _split_field_list(spec):
    """Split on commas outside parentheses: Fq(2,2,t^2+t+1),Fp(3) -> 2."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(spec):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(spec[start:i])
            start = i + 1
    parts.append(spec[start:])
    return [p for p in parts if p]


def _parse_sizes(spec):
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def _seeded_rationals(rng, count):
    out = []
    for _ in range(count):
        num = rng.randint(-99, 99)
        den = rng.randint(1, 99)
        out.append(Fraction(num, den))
    return out


def cmd_field_find_rootfree(args):
    field = parse_field(args.field)
    coeffs = find_rootfree_monic(field, args.m)
    poly = univariate(field, coeffs)
    report = _new_report("field find-rootfree",
                         {"field": format_field(field), "m": args.m})
    report["polynomial"] = format_poly(poly)
    report["points_checked"] = field.order
    report["totals"] = {"passed": 1, "failed": 0}
    _emit(report, args.out)
    return EXIT_OK


def cmd_anisotropic(args):
    field = parse_field(args.field)
    config = {"field": format_field(field), "n": args.n, "m": args.m,
              "witness": args.witness, "padic": args.padic,
              "seed": args.seed, "samples": args.samples}
    report = _new_report("anisotropic", config)

    if field.is_finite:
        if args.m < 2:
            raise ConfigError("degree guard: --m must be at least 2")
        base = univariate(field, find_rootfree_monic(field, args.m))
        form = aniso.build_fn(base, args.n)
        result = aniso.verify_vanishing_exhaustive(form)
    elif field.kind == RATIONAL and args.padic:
        if args.n != 2:
            raise ConfigError("--padic checks x^2 - p*y^2, so --n must be 2")
        p = args.padic
        base = parse_poly(field, f"x^2 + -{p}")
        form = aniso.build_fn(base, args.n)
        rng = random.Random(args.seed)
        pairs = list(zip(_seeded_rationals(rng, args.samples),
                         _seeded_rationals(rng, args.samples)))
        result = aniso.valuation_identity_check(p, pairs)
    elif field.kind == RATIONAL and args.witness:
        base = parse_poly(field, args.witness)
        form = aniso.build_fn(base, args.n)
        rng = random.Random(args.seed)
        points = [tuple(field.element(v)
                        for v in _seeded_rationals(rng, args.n))
                  for _ in range(args.samples)]
        result = aniso.verify_vanishing_sampled(form, points)
    else:
        raise ConfigError("infinite fields need --witness or --padic")

    instance = aniso.AnisotropicWitness(base, args.n, form, result).to_json()
    passed = result.passed
    report["instances"] = [instance]
    report["totals"] = {"passed": int(passed), "failed": int(not passed)}
    _emit(report, args.out)
    return EXIT_OK if passed else EXIT_VERIFICATION_FAILED


def cmd_gelfand(args):
    fields = [parse_field(s) for s in _split_field_list(args.field)]
    sizes = _parse_sizes(args.space)
    config = {"fields": [format_field(f) for f in fields], "sizes": sizes,
              "oracle": args.oracle}
    report = _new_report("gelfand", config)
    instances = []
    passed = failed = 0
    for field in fields:
        for size in sizes:
            rec = fr.check_homeomorphism(
                fr.FiniteSpace(size), field,
                use_oracle=True if args.oracle else None)
            instances.append(rec)
            if rec["passed"]:
                passed += 1
            else:
                failed += 1
    report["instances"] = instances
    report["totals"] = {"passed": passed, "failed": failed}
    _emit(report, args.out)
    return EXIT_OK if failed == 0 else EXIT_VERIFICATION_FAILED


def _load_functions(field, path):
    functions = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            functions.append(fr.parse_ring_element(field, line))
    if not functions:
        raise ConfigError(f"no functions found in {path}")
    return functions


def cmd_cover(args):
    field = parse_field(args.field)
    functions = _load_functions(field, args.functions)
    config = {"field": format_field(field), "functions": args.functions,
              "case": args.case, "m": args.m}
    report = _new_report("cover", config)

    try:
        cover = cov.check_cover(functions)
    except CommonZero as exc:
        report["instances"] = [{"error": "CommonZero", "point": exc.point}]
        report["totals"] = {"passed": 0, "failed": 1}
        _emit(report, args.out)
        return EXIT_CONFIG_ERROR

    cases = ["I", "II", "III"] if args.case == "all" else [args.case]
    instances = []
    passed = failed = 0
    for case in cases:
        if case == "I":
            base = univariate(field, find_rootfree_monic(field, args.m))
            cert = cov.combine_case1(cover, base)
        elif case == "II":
            cert = cov.combine_case2(cover)
        else:
            cert = cov.unit_combination_case3(cover)
        record = cert.to_json()
        instances.append(record)
        if record["pass"]:
            passed += 1
        else:
            failed += 1
    report["instances"] = instances
    report["totals"] = {"passed": passed, "failed": failed}
    _emit(report, args.out)
    return EXIT_OK if failed == 0 else EXIT_VERIFICATION_FAILED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gelfand",
        description="Exact-arithmetic toolkit: origin-only-vanishing "
                    "polynomial forms, finite maximal spectra with their "
                    "Zariski topology, and nowhere-vanishing combinations "
                    "from covers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="field-level utilities")
    field_sub = p_field.add_subparsers(dest="subcommand", required=True)
    p_fr = field_sub.add_parser("find-rootfree",
                                help="first root-free monic of a degree")
    p_fr.add_argument("--field", required=True)
    p_fr.add_argument("--m", type=int, default=2)
    p_fr.add_argument("--out")
    p_fr.set_defaults(func=cmd_field_find_rootfree)

    p_a = sub.add_parser("anisotropic",
                         help="build and verify an origin-only-vanishing form")
    p_a.add_argument("--field", required=True)
    p_a.add_argument("--m", type=int, default=2,
                     help="base degree for finite fields")
    p_a.add_argument("--n", type=int, default=2, help="arity of the form")
    p_a.add_argument("--witness",
                     help="root-free univariate over Q, e.g. 'x^2+1'")
    p_a.add_argument("--padic", type=int,
                     help="prime p for the x^2 - p*y^2 valuation check")
    p_a.add_argument("--seed", type=int, default=0)
    p_a.add_argument("--samples", type=int, default=200)
    p_a.add_argument("--out")
    p_a.set_defaults(func=cmd_anisotropic)

    p_g = sub.add_parser("gelfand",
                         help="check the point/maximal-ideal correspondence")
    p_g.add_argument("--field", required=True,
                     help="comma-separated field descriptors")
    p_g.add_argument("--space", required=True,
                     help="size, list (1,2,3) or range (1..5)")
    p_g.add_argument("--oracle", action="store_true",
                     help="force the brute-force ideal oracle")
    p_g.add_argument("--out")
    p_g.set_defaults(func=cmd_gelfand)

    p_c = sub.add_parser("cover",
                         help="certify a nowhere-vanishing combination")
    p_c.add_argument("--field", required=True)
    p_c.add_argument("--functions", required=True,
                     help="file with one function per line, comma-separated "
                          "field-element literals")
    p_c.add_argument("--case", choices=["I", "II", "III", "all"],
                     default="II")
    p_c.add_argument("--m", type=int, default=2,
                     help="base degree for case I")
    p_c.add_argument("--out")
    p_c.set_defaults(func=cmd_cover)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except GelfandError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
