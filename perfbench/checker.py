"""Independent checks of gelfand reports and library results.

Nothing here imports gelfand. Finite-field arithmetic, the polynomial
text form and p-adic valuations are re-implemented with plain integers
and ``Fraction``, so a check never trusts the code it checks. Every
check returns a list of problems; an empty list means the output is
correct.

The module also names the known defects of the program, so that the
failures they cause are counted as those defects and any other failure
is flagged as unexpected.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

# ---------------------------------------------------------------------------
# finite fields, elements coded as ints 0..q-1 (base-p digits of the
# coefficient tuple, constant coefficient least significant)


class GF:
    """F_p, or F_p[t]/(modulus) for a monic modulus given low degree first."""

    def __init__(self, p, modulus=(0, 1)):
        self.p = p
        self.modulus = tuple(modulus)
        self.k = len(self.modulus) - 1
        self.q = p ** self.k
        digits = [self._digits(i) for i in range(self.q)]
        self.add = [[self._code([(x + y) % p for x, y in zip(a, b)])
                     for b in digits] for a in digits]
        self.mul = [[self._code(self._polymulmod(a, b)) for b in digits]
                    for a in digits]
        # a^e for a != 0 repeats with period q - 1
        self._pow = [[1] for _ in range(self.q)]
        for a in range(1, self.q):
            for _ in range(self.q - 2):
                self._pow[a].append(self.mul[self._pow[a][-1]][a])

    def _digits(self, idx):
        out = []
        for _ in range(self.k):
            out.append(idx % self.p)
            idx //= self.p
        return out

    def _code(self, coeffs):
        idx = 0
        for c in reversed(coeffs):
            idx = idx * self.p + c
        return idx

    def _polymulmod(self, a, b):
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for deg in range(len(prod) - 1, k - 1, -1):
            c = prod[deg]
            if c:
                for j in range(k + 1):
                    prod[deg - k + j] = (prod[deg - k + j]
                                         - c * self.modulus[j]) % p
        return prod[:k]

    def parse(self, text):
        """An element literal: a residue, or a polynomial in t."""
        text = text.strip()
        if self.k == 1:
            if not re.fullmatch(r"-?\d+", text):
                raise ValueError(f"not a residue: {text!r}")
            return int(text) % self.p
        coeffs = [0] * self.k
        for part in text.split("+"):
            m = re.fullmatch(r"(?:(\d+)\*)?t(?:\^(\d+))?|(\d+)", part)
            if not m:
                raise ValueError(f"not a polynomial in t: {text!r}")
            if m.group(3) is not None:
                deg, c = 0, int(m.group(3))
            else:
                deg = int(m.group(2)) if m.group(2) else 1
                c = int(m.group(1)) if m.group(1) else 1
            if deg >= self.k:
                raise ValueError(f"degree {deg} too high in {text!r}")
            coeffs[deg] = (coeffs[deg] + c) % self.p
        return self._code(coeffs)

    def format(self, idx):
        """Element text as the program prints it (used by generators)."""
        coeffs = self._digits(idx)
        parts = []
        for i in range(self.k - 1, -1, -1):
            c = coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                var = "t" if i == 1 else f"t^{i}"
                parts.append(var if c == 1 else f"{c}*{var}")
        return "+".join(parts) if parts else "0"

    def power(self, a, e):
        if a == 0:
            return 0 if e else 1
        return self._pow[a][e % (self.q - 1)]


def field_of(spec):
    """GF for an ``Fp(p)`` or full ``Fq(p,k,modulus)`` descriptor."""
    m = re.fullmatch(r"Fp\((\d+)\)", spec)
    if m:
        return GF(int(m.group(1)))
    m = re.fullmatch(r"Fq\((\d+),(\d+),([^)]*)\)", spec)
    if not m:
        raise ValueError(f"not a finite-field descriptor: {spec!r}")
    p, k = int(m.group(1)), int(m.group(2))
    modulus = [0] * (k + 1)
    for part in m.group(3).split("+"):
        t = re.fullmatch(r"(?:(\d+)\*)?t(?:\^(\d+))?|(\d+)", part)
        if not t:
            raise ValueError(f"bad modulus term {part!r}")
        if t.group(3) is not None:
            modulus[0] = int(t.group(3)) % p
        else:
            deg = int(t.group(2)) if t.group(2) else 1
            modulus[deg] = int(t.group(1)) % p if t.group(1) else 1
    return GF(p, modulus)


# ---------------------------------------------------------------------------
# the polynomial text form: terms joined by " + ", each an atomic or
# parenthesised coefficient and/or a product of x<i>^<e>


def _split_top(text, sep):
    parts, depth, start, i = [], 0, 0, 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            start = i + len(sep)
            i = start
            continue
        i += 1
    parts.append(text[start:])
    return parts


def parse_poly_text(text, parse_coeff):
    """{exponent tuple: coefficient} for a printed polynomial."""
    if text == "0":
        return {}
    raw = []
    arity = 1
    for term in _split_top(text, " + "):
        if term.startswith("("):
            depth = 0
            for end, ch in enumerate(term):
                depth += {"(": 1, ")": -1}.get(ch, 0)
                if depth == 0:
                    break
            coeff_txt, rest = term[1:end], term[end + 1:]
        else:
            m = re.match(r"\d+(?:/\d+)?", term)
            coeff_txt = m.group(0) if m else "1"
            rest = term[m.end():] if m else "*" + term
        if rest.startswith("*"):
            rest = rest[1:]
        elif rest:
            raise ValueError(f"bad term {term!r}")
        exps = {}
        if rest:
            for factor in rest.split("*"):
                v = re.fullmatch(r"x(\d+)(?:\^(\d+))?", factor)
                if not v:
                    raise ValueError(f"bad factor {factor!r} in {term!r}")
                idx = int(v.group(1)) - 1
                exps[idx] = exps.get(idx, 0) + (int(v.group(2))
                                                if v.group(2) else 1)
                arity = max(arity, idx + 1)
        raw.append((exps, parse_coeff(coeff_txt)))
    out = {}
    for exps, c in raw:
        mono = tuple(exps.get(i, 0) for i in range(arity))
        if mono in out:
            raise ValueError(f"monomial {mono} printed twice")
        out[mono] = c
    return out


def _form_problems(terms, degree):
    # the tower f2(f_{n-1}, x_n) has degree m^(n-1) but is not homogeneous
    top = max(map(sum, terms), default=None)
    if top != degree:
        return [f"form has degree {top}, expected {degree}"]
    if any(c for mono, c in terms.items() if not any(mono)):
        return ["form does not vanish at the origin"]
    return []


def _eval_gf(gf, terms, point):
    mul, add = gf.mul, gf.add
    acc = 0
    for mono, c in terms.items():
        v = c
        for x, e in zip(point, mono):
            if e:
                v = mul[v][gf.power(x, e)]
        acc = add[acc][v]
    return acc


def _eval_q(terms, point):
    acc = Fraction(0)
    for mono, c in terms.items():
        v = c
        for x, e in zip(point, mono):
            if e:
                v *= x ** e
        acc += v
    return acc


# ---------------------------------------------------------------------------
# workload checks

REFERENCE_EVAL_LIMIT = 100_000   # points * terms for the tower reference


def _single_instance(report, command):
    if report.get("command") != command:
        return None, [f"command is {report.get('command')!r}"]
    instances = report.get("instances", [])
    if len(instances) != 1:
        return None, [f"expected 1 instance, got {len(instances)}"]
    problems = []
    if report.get("totals") != {"passed": 1, "failed": 0}:
        problems.append(f"totals are {report.get('totals')}")
    return instances[0], problems


def _rootfree_problems(gf, text, m):
    try:
        base = parse_poly_text(text, gf.parse)
    except ValueError as exc:
        return [str(exc)]
    if any(len(mono) != 1 for mono in base) or max(base, default=None) \
            != (m,) or base[(m,)] != 1:
        return [f"{text!r} is not monic of degree {m}"]
    coeffs = {mono[0]: c for mono, c in base.items()}
    for a in range(gf.q):
        acc = 0
        for deg in range(m, -1, -1):
            acc = gf.add[gf.mul[acc][a]][coeffs.get(deg, 0)]
        if acc == 0:
            return [f"{text!r} has the root {gf.format(a)}"]
    return []


def check_rootfree(report, gf, m):
    """``field find-rootfree``: a monic degree-m polynomial with no root."""
    if report.get("command") != "field find-rootfree":
        return [f"command is {report.get('command')!r}"]
    return _rootfree_problems(gf, report.get("polynomial", ""), m)


def check_tower(report, gf, m, n):
    """``anisotropic`` over a finite field: counts, degree, and a
    reference evaluation that the form vanishes only at the origin."""
    inst, problems = _single_instance(report, "anisotropic")
    if inst is None:
        return problems
    degree = m ** (n - 1)
    if inst.get("arity") != n:
        problems.append(f"arity {inst.get('arity')} != {n}")
    if inst.get("degree") != degree:
        problems.append(f"degree {inst.get('degree')} != m^(n-1) = {degree}")
    ver = inst.get("verification", {})
    if ver.get("mode") != "exhaustive" or \
            ver.get("points_checked") != gf.q ** n:
        problems.append(f"verification {ver} does not cover q^n = "
                        f"{gf.q ** n} points")
    problems += _rootfree_problems(gf, inst.get("base", ""), m)
    try:
        terms = parse_poly_text(inst.get("form", ""), gf.parse)
    except ValueError as exc:
        return problems + [str(exc)]
    terms = {mono + (0,) * (n - len(mono)): c for mono, c in terms.items()}
    if any(len(mono) != n for mono in terms):
        return problems + ["form uses more variables than its arity"]
    problems += _form_problems(terms, degree)
    if gf.q ** n * len(terms) <= REFERENCE_EVAL_LIMIT:
        for point in itertools.product(range(gf.q), repeat=n):
            if (_eval_gf(gf, terms, point) == 0) != (not any(point)):
                problems.append(f"form is wrong at {point}")
                break
    return problems


def check_spectrum(report, sweep):
    """``gelfand``: one record per (field, size), with 2^size closed sets
    and size maximal ideals. ``sweep`` holds the (descriptor, order)
    pairs, the sizes and whether ``--oracle`` was given."""
    fields, sizes, forced = sweep
    if report.get("command") != "gelfand":
        return [f"command is {report.get('command')!r}"]
    records = report.get("instances", [])
    expected = [(f, s) for f, _ in fields for s in sizes]
    if len(records) != len(expected):
        return [f"{len(records)} records for {len(expected)} cases"]
    problems = []
    for rec, (field, size) in zip(records, expected):
        where = f"{field} size {size}"
        if rec.get("field") != field or rec.get("space_size") != size:
            problems.append(f"{where}: record is for {rec.get('field')} "
                            f"size {rec.get('space_size')}")
        if rec.get("closed_set_count") != 2 ** size:
            problems.append(f"{where}: closed_set_count "
                            f"{rec.get('closed_set_count')} != {2 ** size}")
        if rec.get("max_ideal_count") != size:
            problems.append(f"{where}: max_ideal_count "
                            f"{rec.get('max_ideal_count')} != {size}")
        if forced and rec.get("oracle_checked") is not True:
            problems.append(f"{where}: --oracle given but not checked")
    if report.get("totals", {}).get("failed") != 0:
        problems.append(f"totals are {report.get('totals')}")
    return problems


def check_cover(report, gf, functions):
    """``cover --case all``: recompute every route's composite from its
    printed witness or coefficients; it must match the printed values,
    never vanish, and a polynomial witness has zero constant term."""
    if report.get("command") != "cover":
        return [f"command is {report.get('command')!r}"]
    records = report.get("instances", [])
    modes = [r.get("mode") for r in records]
    if modes != ["CaseI", "CaseII", "CaseIII"]:
        return [f"routes are {modes}"]
    n, size = len(functions), len(functions[0])
    columns = [tuple(psi[x] for psi in functions) for x in range(size)]
    problems = []
    for rec in records:
        mode = rec["mode"]
        try:
            printed = [gf.parse(v) for v in rec.get("composite_values", [])]
            if mode == "CaseIII":
                coeffs = [gf.parse(c) for c in rec.get("witness", [])]
                if len(coeffs) != n:
                    problems.append(f"{mode}: {len(coeffs)} coefficients "
                                    f"for {n} functions")
                    continue
                values = []
                for col in columns:
                    acc = 0
                    for c, v in zip(coeffs, col):
                        acc = gf.add[acc][gf.mul[c][v]]
                    values.append(acc)
            else:
                terms = parse_poly_text(rec.get("witness", ""), gf.parse)
                if any(len(mono) > n for mono in terms):
                    problems.append(f"{mode}: witness has too many variables")
                    continue
                terms = {mono + (0,) * (n - len(mono)): c
                         for mono, c in terms.items()}
                if terms.get((0,) * n, 0):
                    problems.append(f"{mode}: witness has a constant term")
                values = [_eval_gf(gf, terms, col) for col in columns]
        except ValueError as exc:
            problems.append(f"{mode}: {exc}")
            continue
        if printed != values:
            problems.append(f"{mode}: printed composite differs from the "
                            f"recomputed one")
        if 0 in values:
            problems.append(f"{mode}: composite vanishes at point "
                            f"{values.index(0)}")
    return problems


def padic_valuation(r, p):
    """v_p of a nonzero rational."""
    r = Fraction(r)
    if r == 0:
        raise ValueError("v_p(0) is infinite")
    v = 0
    num, den = abs(r.numerator), r.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def check_rational_witness(report, degree, n, samples, points):
    """``anisotropic --field Q --witness``: a form of degree
    m^(n-1) that is 0 at the origin and nonzero at the given points."""
    inst, problems = _single_instance(report, "anisotropic")
    if inst is None:
        return problems
    if inst.get("degree") != degree:
        problems.append(f"degree {inst.get('degree')} != {degree}")
    ver = inst.get("verification", {})
    if ver.get("mode") != "sampled" or ver.get("samples") != samples:
        problems.append(f"verification {ver} is not {samples} samples")
    try:
        terms = parse_poly_text(inst.get("form", ""), Fraction)
    except ValueError as exc:
        return problems + [str(exc)]
    terms = {mono + (0,) * (n - len(mono)): c for mono, c in terms.items()}
    problems += _form_problems(terms, degree)
    for pt in points:
        if _eval_q(terms, pt) == 0:
            problems.append(f"form vanishes at {pt}")
            break
    return problems


def check_padic(report, p, samples, pairs):
    """``anisotropic --field Q --padic p``: the printed form is
    x1^2 - p*x2^2, and on the given pairs its valuation is
    min(2 v(x), 1 + 2 v(y)), recomputed with Fraction."""
    inst, problems = _single_instance(report, "anisotropic")
    if inst is None:
        return problems
    ver = inst.get("verification", {})
    if ver != {"mode": "valuation", "samples": samples, "prime": p}:
        problems.append(f"verification {ver} is not {samples} samples at {p}")
    try:
        terms = parse_poly_text(inst.get("form", ""), Fraction)
    except ValueError as exc:
        return problems + [str(exc)]
    if terms != {(2, 0): 1, (0, 2): -p}:
        return problems + [f"form {inst.get('form')!r} is not x1^2 - {p}*x2^2"]
    for x, y in pairs:
        value = _eval_q(terms, (x, y))
        if value == 0 or padic_valuation(value, p) != min(
                2 * padic_valuation(x, p), 1 + 2 * padic_valuation(y, p)):
            problems.append(f"valuation identity fails at ({x}, {y})")
            break
    return problems


def check_equal(expected):
    """Library tasks return plain data; it must equal what the generator
    computed on its own."""
    def check(result):
        if result != expected:
            return [f"got {result!r}, expected {expected!r}"]
        return []
    return check


# ---------------------------------------------------------------------------
# known defects of the program, each reproduced before this benchmark
# was written. A failure that matches none of them is unexpected.

DEFECTS = {
    "oracle-guard-readme":
        "README command `gelfand --field \"Fp(2),Fq(2,2,t^2+t+1)\" "
        "--space 1..4 --oracle` exits 2 with TooLarge (oracle guard 12)",
    "avoidance-exhausted":
        "`cover --case all` exits 2 with AvoidanceExhausted after routes "
        "I and II ran",
    "quadratic-multidigit-imaginary":
        "a pure-imaginary Q(sqrt(d)) literal whose coefficient has several "
        "digits, e.g. 12*sqrt(-3), does not parse back",
    "fq-shorthand":
        "the README shorthand Fq(p,k) for an auto-picked modulus raises "
        "ParseError",
}

_NUMBER = r"\d+(?:/\d+)?"


def _is_multidigit_imaginary(text):
    m = re.fullmatch(r"-?(\d+(?:/\d+)?)\*sqrt\(-\d+\)", text or "")
    if not m:
        return False
    coeff = m.group(1)
    # the coefficient reads as two numbers run together, e.g. 1|2 or 3/4|5
    return any(re.fullmatch(_NUMBER, coeff[:i])
               and re.fullmatch(_NUMBER, coeff[i:])
               for i in range(1, len(coeff)))


def classify_failure(argv, stderr, exc):
    """The known defect a failed instance shows, or None.

    ``argv`` is the CLI invocation (None for a library task), ``stderr``
    what the CLI printed, ``exc`` the exception a library task raised.
    """
    if argv is not None:
        if argv[0] == "gelfand" and "--oracle" in argv and \
                "TooLarge" in stderr and "oracle guard" in stderr:
            return "oracle-guard-readme"
        if argv[0] == "cover" and "AvoidanceExhausted" in stderr:
            return "avoidance-exhausted"
        field = argv[argv.index("--field") + 1] if "--field" in argv else ""
        if re.fullmatch(r"Fq\(\d+,\d+\)", field) and "parse error" in stderr:
            return "fq-shorthand"
        return None
    if type(exc).__name__ == "ParseError" and \
            _is_multidigit_imaginary(getattr(exc, "text", None)):
        return "quadratic-multidigit-imaginary"
    return None
