"""Command-line front door: build witnesses, verify, sweep, emit JSON.

Exit codes: 0 when everything passed, 1 on a verification failure,
2 on an input or precondition error. Each `cmd_*` handler returns its
report and exit code; `main` alone adds wall_time_s, timed from just
before the handler runs, and writes the report in one pass with
`_report_text`, as `json.dumps(report, indent=2)` writes it; the writer
refuses any value that no report holds.
Field texts go through `parse_field`, which keeps its last 16.

`COMMANDS` is the one declaration of the grammar: each command's words,
handler, help text and options, as argparse's `add_argument` keywords.
`build_parser` builds argparse's parser from it, and `main(argv)` reads
plain argv (command words, then exact option strings, each with its
value) off it too, handing any other argv to that parser, which alone
prints help, usage and errors.
"""

from __future__ import annotations

import argparse
import itertools
import math
import random
import sys
import time
from json.encoder import encode_basestring_ascii as quoted

from . import anisotropic as aniso
from . import covers as cov
from . import function_ring as fr
from .errors import CommonZero, ConfigError, GelfandError, ParseError
from .field_core import (
    Q,
    format_field,
    is_prime,
    parse_field,
    rootfree_scan_position,
    rootfree_search_size,
)
from .poly import format_poly, parse_poly

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_CONFIG_ERROR = 2


def _report_text(value, newline="\n"):
    """value as json.dumps(value, indent=2) writes it, indented as `newline`
    ends, read off each value's exact type: dicts with str keys, lists,
    str, int, bool, None and finite floats. Any other type or key raises
    TypeError; a NaN or infinite float, or an over-long int, ValueError."""
    kind = type(value)
    if kind is str:
        return quoted(value)
    if kind is int or (kind is float and math.isfinite(value)):
        return repr(value)
    if kind is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    inner = newline + "  "
    if kind is list:
        items, ends = [_report_text(item, inner) for item in value], "[]"
    elif kind is dict and {str}.issuperset(map(type, value)):
        items, ends = [quoted(key) + ": " + _report_text(item, inner)
                       for key, item in value.items()], "{}"
    else:   # a float that is not finite, or any other type or key
        raise (ValueError if kind is float else TypeError)(
            f"no report holds this {kind.__name__}")
    return (ends[0] + inner + ("," + inner).join(items) + newline + ends[1]
            if items else ends)


def _emit(report, out_path):
    text = _report_text(report) + "\n"
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(text.encode("ascii"))
    else:
        sys.stdout.write(text)


def _report(command, config, instances, passed):
    """The report of the instances, of which `passed` passed, with their
    totals, and its exit code."""
    report = {"command": command, "config": config, "instances": instances,
              "totals": {"passed": passed,
                         "failed": len(instances) - passed}}
    return report, (EXIT_OK if passed == len(instances)
                    else EXIT_VERIFICATION_FAILED)


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
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            return range(int(lo), int(hi) + 1)
        return [int(s) for s in spec.split(",")]
    except ValueError:
        raise ConfigError(f"--space must be a size, a list like 1,2,3 or a "
                          f"range like 1..5, got {spec!r}") from None


def _seeded_pairs(rng):
    """Endless seeded rationals as (numerator, denominator) int pairs, not
    reduced: numerators in -99..99, denominators in 1..99.

    Each pair is drawn as CPython draws `rng.randint(-99, 99)` and then
    `rng.randint(1, 99)`: by rejection on `getrandbits` at the bit length
    of the range's width (8 bits for 199 values, 7 for 99). So a seed
    gives the same pairs and leaves rng in the same state, without
    randint's call overhead."""
    bits = rng.getrandbits
    while True:
        a = bits(8)
        while a >= 199:
            a = bits(8)
        b = bits(7)
        while b >= 99:
            b = bits(7)
        yield a - 99, b + 1


def cmd_field_find_rootfree(args):
    field = parse_field(args.field)
    poly = aniso.rootfree_base(field, args.m)
    position = rootfree_scan_position(field, aniso.dense_payloads(poly))
    return {"command": "field find-rootfree",
            "config": {"field": format_field(field), "m": args.m},
            "polynomial": format_poly(poly), "candidates_scanned": position,
            "totals": {"passed": 1, "failed": 0}}, EXIT_OK


def cmd_anisotropic(args):
    field = parse_field(args.field)
    samples = args.samples
    if samples is None and not field.is_finite:
        samples = 200
    config = {"field": format_field(field), "n": args.n, "m": args.m,
              "witness": args.witness, "padic": args.padic,
              "seed": args.seed, "samples": samples}

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
        tower = aniso.Tower.over(aniso.rootfree_base(field, args.m), args.n)
        # the tower is verified nested, and the q^n guard fires first;
        # the form is expanded for the report only, under its own guard
        result = tower.verify_exhaustive()
    elif samples < 1:
        raise ConfigError("--samples must be at least 1")
    elif not (isinstance(field, Q)
              and (args.witness is not None or args.padic is not None)):
        raise ConfigError(
            "an infinite field must be Q, with --witness or --padic")
    else:
        p, base = args.padic, args.witness
        if p is not None:
            if base is not None:
                raise ConfigError("--padic checks x^2 - p*y^2 and takes no "
                                  "--witness")
            if not is_prime(p):
                raise ConfigError(f"--padic must be a prime, got {p}")
            if args.n != 2:
                raise ConfigError("--padic checks x^2 - p*y^2, so --n must "
                                  "be 2")
            base = f"x^2 + -{p}"
        tower = aniso.Tower.over(parse_poly(field, base), args.n)
        pairs = _seeded_pairs(random.Random(args.seed))
        # a point, or a p-adic sample (x, y), is the next n pairs, as read
        points = itertools.islice(zip(*[pairs] * args.n), samples)
        result = (tower.verify_sampled(points) if p is None
                  else aniso.valuation_identity_check(p, points))

    return _report("anisotropic", config, [tower.record(result)],
                   int(result.passed))


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
    instances = [fr.check_homeomorphism(space, field, args.oracle)
                 for space, field in sweep]
    return _report("gelfand", config, instances,
                   sum(r["passed"] for r in instances))


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
    if args.case in ("I", "all") and args.m < 2:
        raise ConfigError("degree guard: --m must be at least 2")
    if args.case in ("I", "all") and field.is_finite:
        rootfree_search_size(field, args.m)   # before the file is read
    functions = _load_functions(field, args.functions)
    config = {"field": format_field(field), "functions": args.functions,
              "case": args.case, "m": args.m}
    try:
        cover = cov.check_cover(functions)
    except CommonZero as exc:
        # not a cover: its report, with the error line of any GelfandError
        print(f"error: CommonZero: {exc}", file=sys.stderr)
        report, _ = _report("cover", config,
                            [{"error": "CommonZero", "point": exc.point}], 0)
        return report, EXIT_CONFIG_ERROR

    cases = ["I", "II", "III"] if args.case == "all" else [args.case]
    certs = {}
    # every route's certificate before any is certified, route III's
    # first, as it raises on most covers: a route that raises leaves no
    # report, so the others' work would be wasted
    for case in sorted(cases, key=lambda case: case != "III"):
        if case == "I":
            base = aniso.rootfree_base(field, args.m)
            certs[case] = cov.combine_case1(cover, base)
        elif case == "II":
            certs[case] = cov.combine_case2(cover)
        else:
            certs[case] = cov.unit_combination_case3(cover)
    instances = [certs[case].to_json() for case in cases]
    return _report("cover", config, instances,
                   sum(r["pass"] for r in instances))


def _command(words, func, help_text, options):
    """A COMMANDS item: the words' handler (None for a word that takes
    subcommands), help text and options, each option's `add_argument`
    keywords under its option string; for the argv reader, also the
    Namespace argparse starts the words from and the required options."""
    start = {"sub" * depth + "command": word
             for depth, word in enumerate(words)}
    start["func"] = func
    for option, keywords in options.items():
        start[_dest(option)] = keywords.get(
            "default", False if keywords.get("action") == "store_true"
            else None)
    required = [option for option, keywords in options.items()
                if keywords.get("required")]
    return words, (func, help_text, options, start, required)


def _dest(option):
    """argparse's dest for a long option string: "--a-b" gives "a_b"."""
    return option[2:].replace("-", "_")


COMMANDS = dict([
    _command(("field",), None, "field-level utilities", {}),
    _command(("field", "find-rootfree"), cmd_field_find_rootfree,
             "first root-free monic of a degree",
             {"--field": {"required": True},
              "--m": {"type": int, "default": 2},
              "--out": {}}),
    _command(("anisotropic",), cmd_anisotropic,
             "build and verify an origin-only-vanishing form",
             {"--field": {"required": True},
              "--m": {"type": int, "default": 2,
                      "help": "base degree for finite fields"},
              "--n": {"type": int, "default": 2, "help": "arity of the form"},
              "--witness": {"help": "root-free univariate over Q, "
                                    "e.g. 'x^2+1'"},
              "--padic": {"type": int, "help": "prime p for the x^2 - p*y^2 "
                                               "valuation check"},
              "--seed": {"type": int, "default": 0},
              "--samples": {"type": int,
                            "help": "seeded samples over Q (default 200)"},
              "--out": {}}),
    _command(("gelfand",), cmd_gelfand,
             "check the point/maximal-ideal correspondence",
             {"--field": {"required": True,
                          "help": "comma-separated field descriptors"},
              "--space": {"required": True,
                          "help": "size, list (1,2,3) or range (1..5)"},
              "--oracle": {"action": "store_true",
                           "help": "force the ideal oracle"},
              "--out": {}}),
    _command(("cover",), cmd_cover, "certify a nowhere-vanishing combination",
             {"--field": {"required": True},
              "--functions": {"required": True,
                              "help": "file with one function per line, "
                                      "comma-separated field-element "
                                      "literals"},
              "--case": {"choices": ["I", "II", "III", "all"],
                         "default": "II"},
              "--m": {"type": int, "default": 2,
                      "help": "base degree for case I"},
              "--out": {}}),
])


def build_parser():
    """A new argparse parser for the grammar in COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="gelfand",
        description="Exact-arithmetic toolkit: origin-only-vanishing "
                    "polynomial forms, finite maximal spectra with their "
                    "Zariski topology, and nowhere-vanishing combinations "
                    "from covers.")
    parsers, subparsers = {(): parser}, {}
    for words, (func, help_text, options, _, _) in COMMANDS.items():
        above = words[:-1]
        if above not in subparsers:
            subparsers[above] = parsers[above].add_subparsers(
                dest="sub" * len(above) + "command", required=True)
        sub = parsers[words] = subparsers[above].add_parser(
            words[-1], help=help_text)
        for option, keywords in options.items():
            sub.add_argument(option, **keywords)
        if func is not None:
            sub.set_defaults(func=func)
    return parser


def _read_argv(argv):
    """The Namespace that argparse makes of plain argv, read off COMMANDS:
    the command words, then exact option strings, each option followed
    by a value that does not start with "-", converted by its type and
    within its choices, and every required option given. None for any
    other argv, which is left to argparse: help, usage errors,
    abbreviations, --opt=value, values starting with "-" and "--"."""
    words = ()
    for word in argv:
        words += (word,)
        entry = COMMANDS.get(words)
        if entry is None:
            return None
        func, _, options, start, required = entry
        if func is not None:
            break
    else:
        return None
    values, given, rest = dict(start), set(), iter(argv[len(words):])
    for word in rest:
        keywords = options.get(word)
        if keywords is None:
            return None
        if keywords.get("action") == "store_true":
            value = True
        else:
            value = next(rest, "-")   # a missing value reads as "-"
            if value.startswith("-"):
                return None
            if "type" in keywords:
                try:
                    value = keywords["type"](value)
                except ValueError:
                    return None
            if "choices" in keywords and value not in keywords["choices"]:
                return None
        values[_dest(word)] = value
        given.add(word)
    if not given.issuperset(required):
        return None
    namespace = argparse.Namespace()   # Namespace(**values), at one update
    vars(namespace).update(values)
    return namespace


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv) or build_parser().parse_args(argv)
    try:
        start = time.monotonic()
        report, code = args.func(args)
        report["wall_time_s"] = round(time.monotonic() - start, 6)
        _emit(report, args.out)
        return code
    except (ConfigError, ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except GelfandError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
