"""Command-line front door: build witnesses, verify, sweep, emit JSON.

Exit codes: 0 when everything passed, 1 on a verification failure,
2 on an input or precondition error. Reports are deterministic for a
fixed configuration apart from the wall_time_s field.

`build_parser` is the one declaration of the grammar. `main(argv)` reads
plain argv (command words, then exact option strings, each with its
value) off a table taken once from that parser's own actions, and hands
any other argv to argparse, which alone prints help, usage and errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time

from . import anisotropic as aniso
from . import covers as cov
from . import function_ring as fr
from .errors import CommonZero, ConfigError, GelfandError, ParseError
from .field_core import (
    Q,
    find_rootfree_monic,
    format_field,
    is_prime,
    parse_field,
    rootfree_scan_position,
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


def _finish(report, instances, passed, out_path):
    """Record the instances, of which `passed` passed, and the totals,
    emit the report and return the exit code."""
    report["instances"] = instances
    report["totals"] = {"passed": passed, "failed": len(instances) - passed}
    _emit(report, out_path)
    return EXIT_OK if passed == len(instances) else EXIT_VERIFICATION_FAILED


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
    """A list (1,2,3), or lo..hi as a range, read only as far as needed."""
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return range(int(lo), int(hi) + 1)
    return [int(s) for s in spec.split(",")]


def _seeded_pairs(rng, count):
    """count seeded rationals as (numerator, denominator) int pairs, not
    reduced: numerators in -99..99, denominators in 1..99.

    Each pair is drawn as `rng.randint(-99, 99)` and then
    `rng.randint(1, 99)` draw it in CPython: by rejection on
    `getrandbits` at the bit length of the range's width (8 bits for 199
    values, 7 for 99). So a seed gives the same pairs and leaves rng in
    the same state, without randint's call overhead."""
    bits = rng.getrandbits
    pairs = []
    for _ in range(count):
        a = bits(8)
        while a >= 199:
            a = bits(8)
        b = bits(7)
        while b >= 99:
            b = bits(7)
        pairs.append((a - 99, b + 1))
    return pairs


def cmd_field_find_rootfree(args):
    field = parse_field(args.field)
    coeffs = find_rootfree_monic(field, args.m)
    poly = univariate(field, coeffs)
    report = _new_report("field find-rootfree",
                         {"field": format_field(field), "m": args.m})
    report["polynomial"] = format_poly(poly)
    report["candidates_scanned"] = rootfree_scan_position(field, coeffs)
    report["totals"] = {"passed": 1, "failed": 0}
    _emit(report, args.out)
    return EXIT_OK


def cmd_anisotropic(args):
    field = parse_field(args.field)
    samples = args.samples
    if samples is None and not field.is_finite:
        samples = 200
    config = {"field": format_field(field), "n": args.n, "m": args.m,
              "witness": args.witness, "padic": args.padic,
              "seed": args.seed, "samples": samples}
    report = _new_report("anisotropic", config)

    if field.is_finite:
        for flag, value in (("--witness", args.witness),
                            ("--padic", args.padic)):
            if value is not None:
                raise ConfigError(
                    f"{flag} applies to Q only; over a finite field the "
                    f"base is the first root-free monic of degree --m")
        if samples is not None:
            raise ConfigError("--samples applies to Q only; over a finite "
                              "field every point is checked")
        if args.m < 2:
            raise ConfigError("degree guard: --m must be at least 2")
        tower = aniso.Tower.over(
            univariate(field, find_rootfree_monic(field, args.m)), args.n)
        # the tower is verified nested, and the q^n guard fires first;
        # the form is expanded for the report only, under its own guard
        result = tower.verify_exhaustive()
    elif samples < 1:
        raise ConfigError("--samples must be at least 1")
    elif isinstance(field, Q) and args.padic is not None:
        p = args.padic
        if args.witness is not None:
            raise ConfigError("--padic checks x^2 - p*y^2 and takes no "
                              "--witness")
        if not is_prime(p):
            raise ConfigError(f"--padic must be a prime, got {p}")
        if args.n != 2:
            raise ConfigError("--padic checks x^2 - p*y^2, so --n must be 2")
        tower = aniso.Tower.over(parse_poly(field, f"x^2 + -{p}"), 2)
        rng = random.Random(args.seed)
        # every x draw precedes the first y: draws are held, pairs are not
        result = aniso.valuation_identity_check(
            p, zip(_seeded_pairs(rng, samples), _seeded_pairs(rng, samples)))
    elif isinstance(field, Q) and args.witness is not None:
        tower = aniso.Tower.over(parse_poly(field, args.witness), args.n)
        rng = random.Random(args.seed)
        # drawn as read: a rooted witness fails before the first draw
        result = tower.verify_sampled(
            _seeded_pairs(rng, args.n) for _ in range(samples))
    else:
        raise ConfigError(
            "an infinite field must be Q, with --witness or --padic")

    return _finish(report, [tower.record(result)], int(result.passed),
                   args.out)


def cmd_gelfand(args):
    fields = [parse_field(s) for s in _split_field_list(args.field)]
    sizes = _parse_sizes(args.space)
    if not fields or not sizes:
        raise ConfigError("an empty sweep: --field and --space must each "
                          "name at least one entry")
    # every instance's guards, in sweep order, before the first
    # instance's work; a range is read only up to the size they refuse
    sweep = []
    for field in fields:
        for size in sizes:
            space = fr.FiniteSpace(size)
            fr.check_guards(space, field, args.oracle)
            sweep.append((space, field))
    config = {"fields": [format_field(f) for f in fields],
              "sizes": list(sizes), "oracle": args.oracle}
    report = _new_report("gelfand", config)
    instances = [fr.check_homeomorphism(space, field, args.oracle)
                 for space, field in sweep]
    return _finish(report, instances, sum(r["passed"] for r in instances),
                   args.out)


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
        _finish(report, [{"error": "CommonZero", "point": exc.point}], 0,
                args.out)
        return EXIT_CONFIG_ERROR

    cases = ["I", "II", "III"] if args.case == "all" else [args.case]
    certs = {}
    # every route's certificate before any is certified, route III's
    # first, as it raises on most covers: a route that raises leaves no
    # report, so the others' work would be wasted
    for case in sorted(cases, key=lambda case: case != "III"):
        if case == "I":
            base = univariate(field, find_rootfree_monic(field, args.m))
            certs[case] = cov.combine_case1(cover, base)
        elif case == "II":
            certs[case] = cov.combine_case2(cover)
        else:
            certs[case] = cov.unit_combination_case3(cover)
    instances = [certs[case].to_json() for case in cases]
    return _finish(report, instances, sum(r["pass"] for r in instances),
                   args.out)


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
    p_a.add_argument("--samples", type=int,
                     help="seeded samples over Q (default 200)")
    p_a.add_argument("--out")
    p_a.set_defaults(func=cmd_anisotropic)

    p_g = sub.add_parser("gelfand",
                         help="check the point/maximal-ideal correspondence")
    p_g.add_argument("--field", required=True,
                     help="comma-separated field descriptors")
    p_g.add_argument("--space", required=True,
                     help="size, list (1,2,3) or range (1..5)")
    p_g.add_argument("--oracle", action="store_true",
                     help="force the ideal oracle")
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


@functools.cache
def _parser():
    """One parser per process, built on first use; `build_parser`
    returns a fresh one."""
    return build_parser()


@functools.cache
def _argv_table():
    """The parser's grammar read off its own actions, once per process:
    a dict from each command word to its parser's entry, and for a
    parser without subcommands the tuple (the defaults of its Namespace,
    its store and store_true actions by exact option string, its
    required actions). Help actions are left out.

    It reads argparse's private attributes: `ArgumentParser._defaults`
    and `._actions`, and the classes `argparse._SubParsersAction`,
    `_StoreAction` and `_StoreTrueAction`. A change to any of them in a
    new Python shows in `test_argv_reader_agrees_with_argparse`."""
    def entry(parser, inherited):
        defaults = {**inherited, **parser._defaults}
        options, required, commands = {}, [], None
        for action in parser._actions:
            if action.default is not argparse.SUPPRESS:
                defaults[action.dest] = action.default
            if isinstance(action, argparse._SubParsersAction):
                commands = action
            elif (type(action) in (argparse._StoreAction,
                                   argparse._StoreTrueAction)
                  and action.nargs in (None, 0)):
                options.update(dict.fromkeys(action.option_strings, action))
                if action.required:
                    required.append(action)
        if commands is None:
            return defaults, options, required
        return {word: entry(sub, {**defaults, commands.dest: word})
                for word, sub in commands.choices.items()}
    return entry(_parser(), {})


def _read_argv(argv):
    """The Namespace that argparse makes of plain argv: the command words,
    then exact option strings, each store option followed by a value
    that does not start with "-", converted by its action's type and
    within its choices, and every required option given. None for any
    other argv, which is left to argparse: help, usage errors,
    abbreviations, --opt=value, values starting with "-" and "--"."""
    entry, words = _argv_table(), iter(argv)
    while isinstance(entry, dict):
        entry = entry.get(next(words, None))
        if entry is None:
            return None
    defaults, options, required = entry
    values, seen = dict(defaults), set()
    for word in words:
        action = options.get(word)
        if action is None:
            return None
        if action.nargs == 0:
            value = action.const
        else:
            text = next(words, "-")   # a missing value reads as "-"
            if text.startswith("-"):
                return None
            try:
                value = text if action.type is None else action.type(text)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
        values[action.dest] = value
        seen.add(action)
    if any(action not in seen for action in required):
        return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except GelfandError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
