"""End-to-end tests of the command-line interface."""

import contextlib
import io
import itertools
import json
import random
import shlex
import sys
import time
from fractions import Fraction

import pytest

from gelfand import anisotropic, cli, covers, field_core
from gelfand import function_ring as fr
from gelfand.anisotropic import RationalTower, Tower
from gelfand.cli import main
from gelfand.field_core import (
    PrimeField,
    Q,
    enumerate_field,
    find_rootfree_monic,
    parse_field,
)
from gelfand.poly import parse_poly, univariate
from test_poly import forbid_field_elements


def run_cli(args, out_path):
    code = main(args + ["--out", str(out_path)])
    if out_path.exists():
        return code, json.loads(out_path.read_text())
    return code, None


@pytest.fixture(autouse=True)
def reports_are_json_dumps(monkeypatch):
    """Every report a test here produces is json.dumps(report, indent=2)
    and a newline: the bytes of an --out file, or the text written to
    stdout, which is then passed on to the test's own stdout."""
    emit = cli._emit

    def checked(report, out_path):
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            emit(report, out_path)
        expected = json.dumps(report, indent=2) + "\n"
        if out_path:
            with open(out_path, "rb") as fh:
                assert fh.read() == expected.encode()
            assert stdout.getvalue() == ""
        else:
            assert stdout.getvalue() == expected
            sys.stdout.write(stdout.getvalue())

    monkeypatch.setattr(cli, "_emit", checked)


def test_anisotropic_finite(tmp_path):
    code, report = run_cli(
        ["anisotropic", "--field", "Fp(3)", "--m", "2", "--n", "3"],
        tmp_path / "r.json")
    assert code == 0
    inst = report["instances"][0]
    assert inst["verification"] == {"mode": "exhaustive",
                                    "points_checked": 27}
    assert report["totals"] == {"passed": 1, "failed": 0}
    assert report["config"]["samples"] is None


def test_anisotropic_rational_witness(tmp_path):
    code, report = run_cli(
        ["anisotropic", "--field", "Q", "--witness", "x^2+1", "--n", "2"],
        tmp_path / "r.json")
    assert code == 0
    inst = report["instances"][0]
    assert inst["form"] == "x1^2 + x2^2"
    assert inst["verification"]["mode"] == "sampled"


@pytest.mark.parametrize("witness,n,counterexample", [
    ("x^2-1", 3, ["1", "1", "0"]), ("x^2-4/9", 2, ["2/3", "1"]),
    ("x^3-8/27", 2, ["2/3", "1"]), ("x^1000000", 3, ["0", "1", "0"])])
def test_anisotropic_rooted_rational_witness_fails(tmp_path, witness, n,
                                                   counterexample):
    code, report = run_cli(
        ["anisotropic", "--field", "Q", "--witness", witness, "--n", str(n),
         "--seed", "7"], tmp_path / "r.json")
    assert code == 1
    assert report["instances"][0]["verification"] == {
        "mode": "failed", "counterexample": counterexample}
    assert report["totals"] == {"passed": 0, "failed": 1}


@pytest.mark.parametrize("witness,n,degree", [
    ("x^2-1", 14285, 2 ** 14284), ("x^2-1", 14286, "2^14285"),
    ("x^3-1", 9014, "3^9013")], ids=["2^14284", "2^14285", "3^9013"])
def test_rooted_rational_tower_writes_any_degree(tmp_path, witness, n,
                                                 degree):
    # 2^14284 has 4300 digits, the most Python writes of an int; a degree
    # past it is written as the text m^(n-1)
    code, report = run_cli(
        ["anisotropic", "--field", "Q", "--witness", witness, "--n", str(n)],
        tmp_path / "r.json")
    assert code == 1
    inst = report["instances"][0]
    assert inst["verification"] == {
        "mode": "failed", "counterexample": ["1", "1"] + ["0"] * (n - 2)}
    assert inst["degree"] == degree


_ONES = "1" * 300


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python writes ints of any length")
@pytest.mark.parametrize("witness,n,code,form", [
    ("x^2", 14285, 1, f"x1^{2 ** 14284}"),
    ("x^2", 14286, 1, None),
    (f"x^2+{_ONES}*x+1", 5, 0, True),
    (f"x^2+{_ONES}*x+1", 6, 0, None),
], ids=["exponent-4300-digits", "exponent-4301-digits",
        "coefficient-n5", "coefficient-n6"])
def test_a_form_python_cannot_write_is_withheld(tmp_path, witness, n, code,
                                                form):
    # x1^(2^14285), the form of x^2 at n = 14286, has an exponent of more
    # digits than Python writes of an int; so, at n = 6, have coefficients
    # of the form over a base with a 300-digit coefficient. The report
    # withholds such a form under the guard INT_MAX_STR_DIGITS.
    code_, report = run_cli(
        ["anisotropic", "--field", "Q", "--witness", witness, "--n", str(n),
         "--samples", "5"], tmp_path / "r.json")
    assert code_ == code
    inst = report["instances"][0]
    if form is None:
        assert "form" not in inst
        withheld = inst["form_withheld"]
        structure = Tower.over(parse_poly(Q(), witness), n).structure()
        assert list(withheld.items()) == [
            ("guard", "INT_MAX_STR_DIGITS"),
            ("limit", sys.get_int_max_str_digits()), ("requested", None),
            *structure.items()]
    else:
        assert "form_withheld" not in inst
        assert form is True or inst["form"] == form


def test_rational_root_refusal_with_an_unprintable_lcm_exits_2(capsys):
    A, B = 10 ** 2199 + 7, 10 ** 2199 + 9
    code = main(["anisotropic", "--field", "Q", "--witness",
                 f"x^2+1/{A}*x+1/{B}", "--n", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: TooLarge: the rational root test divides ")
    assert err.endswith(f"the leading coefficient an int of "
                        f"{(A * B).bit_length()} bits; the guard is "
                        f"1000000000\n")


@pytest.mark.parametrize("witness", ["x^3-2", "x^2+1/2"])
def test_anisotropic_rootfree_rational_witness_passes(tmp_path, witness):
    code, report = run_cli(
        ["anisotropic", "--field", "Q", "--witness", witness, "--n", "3"],
        tmp_path / "r.json")
    assert code == 0
    assert report["instances"][0]["verification"]["mode"] == "sampled"


def test_anisotropic_witness_at_arity_one(tmp_path):
    # the form is x1, checked on the drawn int pairs like any arity
    code, report = run_cli(
        ["anisotropic", "--field", "Q", "--witness", "x^2-1", "--n", "1"],
        tmp_path / "r.json")
    assert code == 0
    inst = report["instances"][0]
    assert inst["form"] == "x1"
    assert inst["verification"]["samples"] == 200


def _counting_draws(monkeypatch):
    """The list of the pairs the CLI's seeded stream has drawn so far."""
    drawn = []
    real = cli._seeded_pairs

    def counted(rng):
        for pair in real(rng):
            drawn.append(pair)
            yield pair

    monkeypatch.setattr(cli, "_seeded_pairs", counted)
    return drawn


@pytest.mark.parametrize("witness,points", [("x^2-1", 0), ("x^2+1", 50)])
def test_rooted_witness_draws_no_sample(tmp_path, monkeypatch, witness,
                                        points):
    # each point drawn is 3 pairs: 150 for the 50 samples of x^2+1
    drawn = _counting_draws(monkeypatch)
    code, _ = run_cli(["anisotropic", "--field", "Q", "--witness", witness,
                       "--n", "3", "--samples", "50"], tmp_path / "r.json")
    assert code == (1 if points == 0 else 0)
    assert len(drawn) == 3 * points


def test_padic_draws_each_sample_as_it_is_checked(tmp_path, monkeypatch):
    # the check has read one sample when the stream has drawn two pairs;
    # no draw is made ahead of the sample that reads it
    drawn, seen = _counting_draws(monkeypatch), []
    real = anisotropic.valuation_identity_check

    def spy(p, samples):
        samples = iter(samples)
        first = next(samples)
        seen.append(len(drawn))
        return real(p, itertools.chain([first], samples))

    monkeypatch.setattr(anisotropic, "valuation_identity_check", spy)
    code, report = run_cli(["anisotropic", "--field", "Q", "--padic", "5",
                            "--samples", "1000"], tmp_path / "r.json")
    assert code == 0
    assert seen == [2]
    assert len(drawn) == 2000
    assert report["instances"][0]["verification"]["samples"] == 1000


def test_padic_samples_are_the_points_of_the_x2_minus_p_tower(
        tmp_path, monkeypatch):
    # --padic 3 draws its samples as the x^2 - 3 tower at n = 2 draws its
    # points: each check is handed the same (x, y) pairs at every seed
    check = anisotropic.valuation_identity_check
    verify = RationalTower.verify_sampled
    handed = {}

    def spied_check(p, samples):
        handed["padic"] = list(samples)
        return check(p, handed["padic"])

    def spied_verify(tower, points):
        handed["witness"] = list(points)
        return verify(tower, handed["witness"])

    monkeypatch.setattr(anisotropic, "valuation_identity_check", spied_check)
    monkeypatch.setattr(RationalTower, "verify_sampled", spied_verify)
    for seed in map(str, range(10)):
        assert run_cli(["anisotropic", "--field", "Q", "--padic", "3",
                        "--seed", seed], tmp_path / "p.json")[0] == 0
        assert run_cli(["anisotropic", "--field", "Q", "--witness",
                        "x^2 + -3", "--n", "2", "--seed", seed],
                       tmp_path / "w.json")[0] == 0
        assert len(handed["padic"]) == 200
        assert handed["padic"] == handed["witness"]


def _seeded_rationals_reference(rng, count):
    """The CLI's draws when it made Fractions, kept as the reference."""
    out = []
    for _ in range(count):
        num = rng.randint(-99, 99)
        den = rng.randint(1, 99)
        out.append(Fraction(num, den))
    return out


@pytest.mark.parametrize("seed", [0, 7, 21, 1234])
def test_seeded_pairs_draw_the_reference_rationals(seed):
    drawn, reference = random.Random(seed), random.Random(seed)
    pairs = cli._seeded_pairs(drawn)
    for n in (2, 3, 4) * 30:
        point = list(itertools.islice(pairs, n))   # a point's n pairs
        assert [Fraction(a, b) for a, b in point] == \
            _seeded_rationals_reference(reference, n)
    assert drawn.random() == reference.random()


class _ScriptedBits:
    """A stand-in rng whose getrandbits returns the scripted values in
    turn and records the width asked for each."""

    def __init__(self, values):
        self.values, self.widths = list(values), []

    def getrandbits(self, k):
        self.widths.append(k)
        return self.values.pop(0)


def test_seeded_pairs_reject_at_the_bounds_of_each_width():
    # 199 numerators need 8 bits and 99 denominators 7: 199 and 255 are
    # rejected, then 198 is 99; 99 and 127 are rejected, then 98 is 99
    rng = _ScriptedBits([199, 255, 198, 99, 127, 98, 0, 0])
    assert list(itertools.islice(cli._seeded_pairs(rng), 2)) == \
        [(99, 99), (-99, 1)]
    assert rng.widths == [8, 8, 8, 7, 7, 7, 8, 7]
    assert rng.values == []


def test_anisotropic_padic(tmp_path):
    code, report = run_cli(
        ["anisotropic", "--field", "Q", "--padic", "3", "--n", "2"],
        tmp_path / "r.json")
    assert code == 0
    v = report["instances"][0]["verification"]
    assert v["mode"] == "valuation" and v["samples"] == 200


def test_anisotropic_padic_report_names_prime(tmp_path):
    code, report = run_cli(
        ["anisotropic", "--field", "Q", "--padic", "5", "--samples", "30"],
        tmp_path / "r.json")
    assert code == 0
    assert report["instances"][0]["verification"] == {
        "mode": "valuation", "samples": 30, "prime": 5}


def test_anisotropic_padic_hands_its_pairs_over_as_an_iterator(
        tmp_path, monkeypatch):
    # the check reads each pair as it is zipped, with no list of pairs
    check, received = cli.aniso.valuation_identity_check, []

    def spy(p, samples):
        received.append(samples)
        return check(p, samples)

    monkeypatch.setattr(cli.aniso, "valuation_identity_check", spy)
    code, report = run_cli(
        ["anisotropic", "--field", "Q", "--padic", "5", "--samples", "30"],
        tmp_path / "r.json")
    assert code == 0
    assert report["instances"][0]["verification"]["samples"] == 30
    (samples,) = received
    assert iter(samples) is samples and not isinstance(samples, list)


def test_anisotropic_padic_takes_a_large_prime(tmp_path):
    # 2^61 - 1: the primality check does not run to sqrt(p)
    p = 2 ** 61 - 1
    code, report = run_cli(
        ["anisotropic", "--field", "Q", "--padic", str(p), "--samples",
         "30"], tmp_path / "r.json")
    assert code == 0
    assert report["instances"][0]["verification"] == {
        "mode": "valuation", "samples": 30, "prime": p}


def test_anisotropic_padic_needs_arity_two(tmp_path):
    code, report = run_cli(
        ["anisotropic", "--field", "Q", "--padic", "3", "--n", "3"],
        tmp_path / "r.json")
    assert code == 2
    assert report is None


@pytest.mark.parametrize("args,message", [
    (["--field", "Q(sqrt(-1))", "--witness", "x^2+1"],
     "an infinite field must be Q, with --witness or --padic"),
    (["--field", "Q", "--witness", "x^2+1", "--samples", "-3"],
     "--samples must be at least 1"),
    (["--field", "Q", "--witness", "x^2+1", "--samples", "0"],
     "--samples must be at least 1"),
    (["--field", "Q", "--padic", "3", "--samples", "0"],
     "--samples must be at least 1"),
    (["--field", "Fp(3)", "--witness", "x^2+2"],
     "--witness applies to Q only; over a finite field the base is the "
     "first root-free monic of degree --m"),
    (["--field", "Fp(3)", "--witness", "x^2+2", "--samples", "0"],
     "--witness applies to Q only; over a finite field the base is the "
     "first root-free monic of degree --m"),
    (["--field", "Fq(2,2)", "--padic", "5"],
     "--padic applies to Q only; over a finite field the base is the "
     "first root-free monic of degree --m"),
    (["--field", "Fp(3)", "--samples", "0", "--n", "2"],
     "--samples applies to Q only; over a finite field every point is "
     "checked"),
    (["--field", "Fp(2)", "--samples", "200"],
     "--samples applies to Q only; over a finite field every point is "
     "checked"),
    (["--field", "Q", "--padic", "4"], "--padic must be a prime, got 4"),
    (["--field", "Q", "--padic", "1"], "--padic must be a prime, got 1"),
    (["--field", "Q", "--padic", "0"], "--padic must be a prime, got 0"),
    (["--field", "Q", "--padic", "-3"], "--padic must be a prime, got -3"),
    (["--field", "Q", "--padic", "9", "--n", "3"],
     "--padic must be a prime, got 9"),
    (["--field", "Q", "--padic", "5", "--witness", "x^2+1"],
     "--padic checks x^2 - p*y^2 and takes no --witness"),
    (["--field", "Q", "--padic", "2", "--witness", "x^2+1", "--n", "3"],
     "--padic checks x^2 - p*y^2 and takes no --witness"),
    (["--field", "Q", "--witness", "", "--n", "2"],
     "parse error at position 0: expected a polynomial (input: '')"),
])
def test_anisotropic_config_errors_name_the_requirement(
        tmp_path, capsys, args, message):
    code, report = run_cli(["anisotropic"] + args, tmp_path / "r.json")
    assert code == 2
    assert report is None
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("fields,space", [("Fp(2)", "5..3"),
                                          ("Fp(2)", "3..1"), (",", "2")])
def test_empty_gelfand_sweep_is_config_error(tmp_path, capsys, fields, space):
    code, report = run_cli(["gelfand", "--field", fields, "--space", space],
                           tmp_path / "r.json")
    assert code == 2
    assert report is None
    assert "empty sweep" in capsys.readouterr().err


@pytest.mark.parametrize("space", ["1..2,3", "..", "1.5", "a", "2,", ""])
def test_gelfand_space_errors_name_the_flag(tmp_path, capsys, space):
    code, report = run_cli(["gelfand", "--field", "Fp(2)", "--space", space],
                           tmp_path / "r.json")
    assert code == 2
    assert report is None
    assert capsys.readouterr().err == (
        f"error: --space must be a size, a list like 1,2,3 or a range like "
        f"1..5, got {space!r}\n")


def test_anisotropic_fq_shorthand(tmp_path):
    code, report = run_cli(
        ["anisotropic", "--field", "Fq(2,3)", "--n", "3"],
        tmp_path / "r.json")
    assert code == 0
    assert report["config"]["field"] == "Fq(2,3,t^3+t+1)"
    assert report["instances"][0]["verification"] == {
        "mode": "exhaustive", "points_checked": 512}


def test_gelfand_readme_oracle_example(tmp_path):
    code, report = run_cli(
        ["gelfand", "--field", "Fp(2),Fp(3)", "--space", "1..2", "--oracle"],
        tmp_path / "r.json")
    assert code == 0
    assert all(inst["oracle_checked"] for inst in report["instances"])


def test_anisotropic_degree_guard(tmp_path):
    code, _ = run_cli(["anisotropic", "--field", "Fp(2)", "--m", "1"],
                      tmp_path / "r.json")
    assert code == 2


def test_anisotropic_guard_fires_before_build(tmp_path, monkeypatch):
    def build_fn(*args):
        raise AssertionError("build_fn ran before the enumeration guard")
    monkeypatch.setattr("gelfand.anisotropic.build_fn", build_fn)
    code, report = run_cli(["anisotropic", "--field", "Fp(2)", "--n", "24"],
                           tmp_path / "r.json")
    assert code == 2
    assert report is None


@pytest.mark.parametrize("args,guard", [
    (["anisotropic", "--field", "Fp(2)", "--n", "100000"],
     "q^n = 2^100000 exceeds the enumeration guard"),
    (["anisotropic", "--field", "Fp(2)", "--m", "100000", "--n", "2"],
     "q^m = 2^100000 exceeds the search guard"),
    (["field", "find-rootfree", "--field", "Fp(2)", "--m", "100000"],
     "q^m = 2^100000 exceeds the search guard"),
], ids=["anisotropic-n", "anisotropic-m", "find-rootfree"])
def test_power_guards_name_a_power_too_long_to_print(tmp_path, capsys, args,
                                                     guard):
    # 2^100000 has 30103 decimal digits, past what str(int) converts
    code, report = run_cli(args, tmp_path / "r.json")
    assert (code, report) == (2, None)
    assert capsys.readouterr().err == f"error: TooLarge: {guard}\n"


PRIME_REFUSED = ("a probable prime of 89 bits exceeds the prime-test guard "
                 "3317044064679887385961980, up to which Miller-Rabin to 13 "
                 "bases decides primality")


@pytest.mark.parametrize("args,guard", [
    (["gelfand", "--field", "Fp(618970019642690137449562111)", "--space",
      "1"], PRIME_REFUSED),
    (["anisotropic", "--field", "Q", "--padic",
      "618970019642690137449562111"], PRIME_REFUSED),
    (["gelfand", "--field", "Fq(251,8)", "--space", "1"],
     "the irreducibility test in degree 8 over F_251 tries 3985002504 "
     "divisors; the irreducibility guard is 10000"),
], ids=["Fp-2^89-1", "padic-2^89-1", "Fq-251-8"])
def test_field_guards_refuse_before_the_search(tmp_path, capsys, args,
                                                guard):
    # 2^89 - 1 is prime, and F_251^8 has irreducible moduli: each is
    # refused before its search starts
    code, report = run_cli(args, tmp_path / "r.json")
    assert (code, report) == (2, None)
    assert capsys.readouterr().err == f"error: TooLarge: {guard}\n"


def test_field_find_rootfree(tmp_path):
    code, report = run_cli(
        ["field", "find-rootfree", "--field", "Fp(2)", "--m", "2"],
        tmp_path / "r.json")
    assert code == 0
    assert report["polynomial"] == "x1^2 + x1 + 1"
    # scanned tails (0,0) (0,1) (1,0) (1,1)
    assert report["candidates_scanned"] == 4
    assert "points_checked" not in report


def test_field_find_rootfree_counts_candidates(tmp_path):
    code, report = run_cli(
        ["field", "find-rootfree", "--field", "Fp(3)", "--m", "2"],
        tmp_path / "r.json")
    assert code == 0
    assert report["polynomial"] == "x1^2 + 1"
    # scanned tails (0,0) (0,1) (0,2) (1,0)
    assert report["candidates_scanned"] == 4


@pytest.mark.parametrize("spec,m", [("Fp(5)", 3), ("Fq(2,2)", 3),
                                    ("Fp(7)", 2), ("Fp(7)", 4),
                                    ("Fp(11)", 3), ("Fq(3,2)", 3),
                                    ("Fq(2,3)", 4)])
def test_find_rootfree_count_matches_scan(tmp_path, spec, m):
    field = parse_field(spec)
    elements = enumerate_field(field)
    for scanned, tail in enumerate(itertools.product(elements, repeat=m), 1):
        f = univariate(field, tail + (field.one(),))
        if all(not f.evaluate((a,)).is_zero for a in elements):
            break
    code, report = run_cli(
        ["field", "find-rootfree", "--field", spec, "--m", str(m)],
        tmp_path / "r.json")
    assert code == 0
    assert report["candidates_scanned"] == scanned


def test_gelfand_sweep(tmp_path):
    code, report = run_cli(
        ["gelfand", "--field", "Fp(2),Fp(3)", "--space", "1..5"],
        tmp_path / "r.json")
    assert code == 0
    assert len(report["instances"]) == 10
    assert report["totals"] == {"passed": 10, "failed": 0}


def test_gelfand_with_oracle(tmp_path):
    code, report = run_cli(
        ["gelfand", "--field", "Fp(2)", "--space", "3", "--oracle"],
        tmp_path / "r.json")
    assert code == 0
    inst = report["instances"][0]
    assert inst["oracle_checked"] and inst["bijective"]
    assert inst["topology_match"]


def test_gelfand_oracle_fails_on_a_sum_that_is_no_group(tmp_path,
                                                        monkeypatch):
    # a + b computed as a + b + 1: no generated proper mask is closed
    monkeypatch.setattr(PrimeField, "add",
                        lambda self, a, b: (a + b + 1) % self.p)
    code, report = run_cli(
        ["gelfand", "--field", "Fp(2)", "--space", "1..3", "--oracle"],
        tmp_path / "r.json")
    assert code == 1
    assert [inst["passed"] for inst in report["instances"]] == [False] * 3


@pytest.mark.parametrize("fields,space,oracle,guard", [
    ("Fp(2)", "18..20", False, "2^20 closed sets exceed the guard 1000000"),
    ("Fp(2),Fp(3)", "1..3", True, "ring has 27 elements; oracle guard is 12"),
])
def test_gelfand_checks_every_guard_before_the_first_instance(
        tmp_path, capsys, monkeypatch, fields, space, oracle, guard):
    def refuse(*args):
        raise AssertionError("an instance ran before the guards")

    monkeypatch.setattr(cli.fr, "check_homeomorphism", refuse)
    args = ["gelfand", "--field", fields, "--space", space]
    code, report = run_cli(args + ["--oracle"] * oracle, tmp_path / "r.json")
    assert (code, report) == (2, None)
    assert capsys.readouterr().err == f"error: TooLarge: {guard}\n"


def test_gelfand_range_past_the_guard_is_refused_unread(
        tmp_path, capsys, monkeypatch):
    # the guards read the range in sweep order: sizes 1..20, not 10^5
    built = []
    real = cli.fr.FiniteSpace

    def counted(size):
        built.append(size)
        return real(size)

    monkeypatch.setattr(cli.fr, "FiniteSpace", counted)
    code, report = run_cli(["gelfand", "--field", "Fp(2)", "--space",
                            "1..100000"], tmp_path / "r.json")
    assert (code, report) == (2, None)
    assert capsys.readouterr().err == \
        "error: TooLarge: 2^20 closed sets exceed the guard 1000000\n"
    assert len(built) <= 21


def test_gelfand_over_q(tmp_path, capsys):
    code, report = run_cli(["gelfand", "--field", "Q,Q(sqrt(-1))",
                            "--space", "1..4"], tmp_path / "r.json")
    assert code == 0
    assert report["totals"] == {"passed": 8, "failed": 0}
    assert not any(r["oracle_checked"] for r in report["instances"])
    code, report = run_cli(["gelfand", "--field", "Q", "--space", "2",
                            "--oracle"], tmp_path / "o.json")
    assert (code, report) == (2, None)
    assert capsys.readouterr().err.startswith("error: InfiniteField: ")


def test_cover_certifies_nothing_when_a_route_raises(tmp_path, capsys,
                                                     monkeypatch):
    # over F_2 route III finds no free coefficient for this cover; it is
    # built first, so routes I and II are not built either
    calls, built = [], []
    certify = cli.cov.certify
    monkeypatch.setattr(cli.cov, "certify",
                        lambda cert: calls.append(cert) or certify(cert))
    for route in ("combine_case1", "combine_case2"):
        real = getattr(cli.cov, route)
        monkeypatch.setattr(cli.cov, route,
                            lambda *a, route=route, real=real:
                            built.append(route) or real(*a))
    fns = tmp_path / "fns.txt"
    fns.write_text("1,0\n1,1\n")
    args = ["cover", "--field", "Fp(2)", "--functions", str(fns), "--case"]
    code, report = run_cli(args + ["all"], tmp_path / "r.json")
    assert (code, report, calls) == (2, None, [])
    assert built.count("combine_case1") == built.count("combine_case2") == 0
    assert capsys.readouterr().err.startswith(
        "error: AvoidanceExhausted: ")
    code, report = run_cli(args + ["II"], tmp_path / "r2.json")
    assert code == 0 and len(calls) == 1 and built == ["combine_case2"]


@pytest.mark.parametrize("field, rows", [
    # route III exhausts at step 1 on this cover over F_2
    ("Fp(2)", "1,1,0,1\n1,0,1,1\n"),
    # route III passes on this one
    ("Fp(5)", "1,0,1\n0,1,1\n"),
])
@pytest.mark.parametrize("case", ["I", "all"])
def test_cover_route_one_degree_guard_before_any_route(
        tmp_path, capsys, monkeypatch, field, rows, case):
    # --m is refused before the functions file is read, so no route runs
    # and route III's refusal is not the one reported
    fns = tmp_path / "fns.txt"
    fns.write_text(rows)
    monkeypatch.setattr(cli, "_load_functions", _refuse)
    code, report = run_cli(["cover", "--field", field, "--functions",
                            str(fns), "--case", case, "--m", "1"],
                           tmp_path / "r.json")
    assert (code, report) == (2, None)
    assert capsys.readouterr().err == \
        "error: degree guard: --m must be at least 2\n"


@pytest.mark.parametrize("case", ["I", "all", "II", "III"])
def test_cover_route_one_search_guard_before_the_file_is_read(
        tmp_path, capsys, monkeypatch, case):
    # q^m = 10007^2 is past ROOTFREE_SEARCH_GUARD: route I is refused
    # before the functions file is read; routes II and III read it
    monkeypatch.setattr(cli, "_load_functions", _refuse)
    args = ["cover", "--field", "Fp(10007)", "--functions",
            str(tmp_path / "missing.txt"), "--case", case, "--m", "2"]
    if case in ("II", "III"):
        with pytest.raises(AssertionError, match="the functions file"):
            main(args)
        return
    code, report = run_cli(args, tmp_path / "r.json")
    assert (code, report) == (2, None)
    assert capsys.readouterr().err == ("error: TooLarge: q^m = 10007^2 "
                                       "exceeds the search guard\n")


@pytest.mark.parametrize("case", ["II", "III"])
def test_cover_routes_two_and_three_ignore_m(tmp_path, case):
    fns = tmp_path / "fns.txt"
    fns.write_text("1,0,1\n0,1,1\n")
    args = ["cover", "--field", "Fp(5)", "--functions", str(fns), "--case",
            case, "--m"]
    code, report = run_cli(args + ["1"], tmp_path / "r1.json")
    code2, report2 = run_cli(args + ["2"], tmp_path / "r2.json")
    assert code == code2 == 0
    assert report["instances"] == report2["instances"]


def _refuse(*args):
    raise AssertionError("the functions file was read")


def test_cover_with_a_short_row_names_the_sizes(tmp_path, capsys):
    fns = tmp_path / "fns.txt"
    fns.write_text("1,0\n0\n")
    code, report = run_cli(["cover", "--field", "Fp(5)", "--functions",
                            str(fns)], tmp_path / "r.json")
    assert (code, report) == (2, None)
    assert capsys.readouterr().err == \
        "error: MixedFields: function 2 has 1 values, function 1 has 2\n"


def test_cover_all_over_q_reports_route_three_first(tmp_path, capsys):
    # routes I and III both need a finite field; route III is built
    # first, so its refusal is the one reported
    fns = tmp_path / "fns.txt"
    fns.write_text("1,0,1\n0,1,1\n")
    args = ["cover", "--field", "Q", "--functions", str(fns), "--case"]
    code, _ = run_cli(args + ["all"], tmp_path / "r.json")
    err = capsys.readouterr().err
    code3, _ = run_cli(args + ["III"], tmp_path / "r3.json")
    assert code == code3 == 2
    assert err == capsys.readouterr().err


def test_cover_route_two_refused_above_form_guard(tmp_path, capsys):
    # 3 functions over F_13 with 11 first nonzero values on each axis:
    # each axis's factor has 12 terms
    fns = tmp_path / "fns.txt"
    fns.write_text("".join(
        ",".join(str(c if k == i else 0) for k in range(3)
                 for c in range(1, 12)) + "\n" for i in range(3)))
    code, report = run_cli(["cover", "--field", "Fp(13)", "--functions",
                            str(fns), "--case", "II"], tmp_path / "r.json")
    assert (code, report) == (2, None)
    assert capsys.readouterr().err == (
        "error: TooLarge: route II's interpolant has exactly 1727 terms; "
        "the form-terms guard is 1024\n")


def test_cover_seven_functions_over_f7_takes_every_route(tmp_path):
    # the README's route-II probe: 7 functions on 6 points over F_7
    fns = tmp_path / "fns.txt"
    fns.write_text("2,1,3,5,0,0\n6,4,0,2,4,0\n4,1,0,0,3,3\n0,1,0,4,3,0\n"
                   "6,4,0,1,5,5\n4,0,4,4,3,0\n1,0,4,6,1,2\n")
    code, report = run_cli(["cover", "--field", "Fp(7)", "--functions",
                            str(fns), "--case", "all"], tmp_path / "r.json")
    assert code == 0
    assert [(r["mode"], r["pass"]) for r in report["instances"]] == [
        ("CaseI", True), ("CaseII", True), ("CaseIII", True)]
    assert report["instances"][1]["witness"].count("+") == 18


def test_cover_route_two_over_q(tmp_path):
    fns = tmp_path / "fns.txt"
    fns.write_text("1,0,1\n0,1,1\n")
    args = ["cover", "--field", "Q", "--functions", str(fns), "--case"]
    code, report = run_cli(args + ["II"], tmp_path / "r.json")
    assert code == 0
    assert report["instances"] == [{
        "mode": "CaseII", "witness": "(-1)*x1*x2 + x1 + x2",
        "composite_values": ["1", "1", "1"], "pass": True}]
    code, report = run_cli(args + ["III"], tmp_path / "r3.json")
    assert (code, report) == (2, None)


def test_cover_all_cases(tmp_path):
    fns = tmp_path / "fns.txt"
    fns.write_text("1,0\n0,1\n")
    code, report = run_cli(
        ["cover", "--field", "Fp(5)", "--functions", str(fns),
         "--case", "all"],
        tmp_path / "r.json")
    assert code == 0
    modes = [inst["mode"] for inst in report["instances"]]
    assert modes == ["CaseI", "CaseII", "CaseIII"]
    case3 = report["instances"][2]
    assert case3["witness"] == ["1", "4"]


@pytest.mark.parametrize("spec", ["Fp(2)", "Fp(5)", "Fq(2,2)", "Fq(3,2)"])
def test_cli_paths_build_no_field_element(tmp_path, monkeypatch, spec):
    """The root-free search, tower, cover and spectrum commands compute
    and print from payloads: with every way of building a FieldElement
    made to raise, each gives the report and exit code it gives
    unpatched. Route III refuses this cover over F_2, so routes I and II
    also run alone."""
    fns = tmp_path / "fns.txt"
    fns.write_text("1,0,1\n0,1,1\n1,1,0\n")
    oracle_sizes = [n for n in (1, 2, 3) if
                    parse_field(spec).order ** n <= fr.ORACLE_GUARD]
    argvs = [["anisotropic", "--field", spec, "--m", "2", "--n", str(n)]
             for n in (1, 2, 3)]
    argvs.append(["field", "find-rootfree", "--field", spec, "--m", "3"])
    argvs += [["cover", "--field", spec, "--functions", str(fns),
               "--case", case] for case in ("all", "I", "II")]
    argvs.append(["gelfand", "--field", spec, "--oracle", "--space",
                  ",".join(map(str, oracle_sizes))])

    def outcomes():
        out = []
        for i, argv in enumerate(argvs):
            code, report = run_cli(argv, tmp_path / f"r{i}.json")
            if report is not None:
                del report["wall_time_s"]
            out.append((code, report))
        return out

    expected = outcomes()
    assert [code for code, _ in expected[:4]] == [0, 0, 0, 0]
    forbid_field_elements(monkeypatch)
    assert outcomes() == expected
    # the control: the public search returns elements
    with pytest.raises(AssertionError, match="a FieldElement was built"):
        find_rootfree_monic(parse_field(spec), 3)


def test_cover_common_zero_exit_code(tmp_path, capsys):
    fns = tmp_path / "fns.txt"
    fns.write_text("1,0\n1,0\n")
    code, report = run_cli(
        ["cover", "--field", "Fp(5)", "--functions", str(fns)],
        tmp_path / "r.json")
    assert code == 2
    assert report["instances"][0] == {"error": "CommonZero", "point": 1}
    assert capsys.readouterr().err == (
        "error: CommonZero: functions share a common zero at point 1\n")


@pytest.mark.parametrize("args,calls", [
    (["field", "find-rootfree", "--field", "Fp(3)"],
     [(field_core, "rootfree_payloads"), (anisotropic, "rootfree_payloads")]),
    (["anisotropic", "--field", "Fp(3)", "--n", "2"],
     [(Tower, "verify_exhaustive")]),
    (["anisotropic", "--field", "Q", "--witness", "x^2+1", "--samples", "5"],
     [(RationalTower, "verify_sampled")]),
    (["gelfand", "--field", "Fp(2)", "--space", "2"],
     [(fr, "check_homeomorphism")]),
    (["cover", "--field", "Fp(5)", "--functions", "FNS"],
     [(covers, "check_cover")]),
], ids=["find-rootfree", "tower", "q-tower", "gelfand", "cover"])
def test_wall_time_spans_the_commands_work(tmp_path, monkeypatch, args,
                                           calls):
    """wall_time_s is read from a clock started before the command's main
    library call: that call moves a fake clock on by 5 s."""
    fns = tmp_path / "fns.txt"
    fns.write_text("1,0\n0,1\n")
    args = [str(fns) if a == "FNS" else a for a in args]
    skew = [0.0]
    monotonic = time.monotonic
    monkeypatch.setattr(time, "monotonic", lambda: monotonic() + skew[0])

    def slowed(call):
        def run(*a, **k):
            skew[0] += 5
            return call(*a, **k)
        return run

    for owner, name in calls:
        monkeypatch.setattr(owner, name, slowed(getattr(owner, name)))
    code, report = run_cli(args, tmp_path / "r.json")
    assert code == 0
    assert report["wall_time_s"] >= 5


@pytest.mark.parametrize("missing", ["functions", "out"])
def test_unreadable_file_is_config_error(tmp_path, capsys, missing):
    # a missing functions file, or an --out path in a missing directory
    fns, out = tmp_path / "fns.txt", tmp_path / "r.json"
    fns.write_text("1,0\n0,1\n")
    if missing == "functions":
        fns = tmp_path / "missing.txt"
    else:
        out = tmp_path / "missing" / "r.json"
    code = main(["cover", "--field", "Fp(5)", "--functions", str(fns),
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert err.startswith("error: ") and "Traceback" not in err
    assert "No such file or directory" in err


def test_bad_field_text_is_config_error(tmp_path):
    code, _ = run_cli(["gelfand", "--field", "Fp(bogus)", "--space", "2"],
                      tmp_path / "r.json")
    assert code == 2


def _strip_timing(text):
    return "\n".join(line for line in text.splitlines()
                     if "wall_time_s" not in line)


@pytest.mark.parametrize("args", [
    ["anisotropic", "--field", "Fp(3)", "--m", "2", "--n", "3"],
    ["anisotropic", "--field", "Q", "--padic", "5", "--n", "2",
     "--seed", "42"],
    ["gelfand", "--field", "Fp(2),Fq(2,2,t^2+t+1)", "--space", "1..3"],
])
def test_reports_are_deterministic(tmp_path, args):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert _strip_timing(a.read_text()) == _strip_timing(b.read_text())
    assert a.read_bytes() != b"" and _strip_timing(a.read_text())


@pytest.mark.parametrize("args", [
    ["field", "find-rootfree", "--field", "Fq(2,2)"],
    ["gelfand", "--field", "Fp(3)", "--space", "2"],
])
def test_a_report_without_out_is_the_stdout_of_an_out_file(
        tmp_path, capsys, args):
    out = tmp_path / "r.json"
    assert main(args + ["--out", str(out)]) == 0
    assert main(args) == 0
    stdout = capsys.readouterr().out
    assert stdout.endswith("}\n") and _strip_timing(stdout) == \
        _strip_timing(out.read_text())


def test_table_and_argparse_give_the_same_reports(tmp_path, monkeypatch):
    """Reports and exit codes from argv read off COMMANDS equal those from
    argparse's parser, which plain argv never builds."""
    functions = tmp_path / "cover.txt"
    functions.write_text("1,0,1\n0,1,1\n")
    commands = [
        ["anisotropic", "--field", "Fp(2)", "--m", "2", "--n", "3"],
        ["field", "find-rootfree", "--field", "Fp(3)", "--m", "2"],
        ["gelfand", "--field", "Fp(2),Fp(3)", "--space", "1..2", "--oracle"],
        ["cover", "--field", "Fp(5)", "--functions", str(functions),
         "--case", "all"],
        ["anisotropic", "--field", "Q", "--padic", "5", "--samples", "20"],
        ["anisotropic", "--field", "Fp(2)", "--n", "24"],  # guard, exit 2
    ]

    def reports():
        out = []
        for args in commands:
            path = tmp_path / "r.json"
            path.unlink(missing_ok=True)
            code, report = run_cli(args, path)
            if report is not None:
                report.pop("wall_time_s")
            out.append((code, report))
        return out

    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda real=cli.build_parser: built.append(1) or real())
    read = reports()
    assert built == []
    monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
    assert reports() == read
    assert len(built) == len(commands)
    assert [code for code, _ in read] == [0, 0, 0, 0, 0, 2]


# the help text of each command's words, at 80 columns, pinned byte for
# byte
HELP = {
    "": """\
usage: gelfand [-h] {field,anisotropic,gelfand,cover} ...

Exact-arithmetic toolkit: origin-only-vanishing polynomial forms, finite
maximal spectra with their Zariski topology, and nowhere-vanishing
combinations from covers.

positional arguments:
  {field,anisotropic,gelfand,cover}
    field               field-level utilities
    anisotropic         build and verify an origin-only-vanishing form
    gelfand             check the point/maximal-ideal correspondence
    cover               certify a nowhere-vanishing combination

options:
  -h, --help            show this help message and exit
""",
    "field": """\
usage: gelfand field [-h] {find-rootfree} ...

positional arguments:
  {find-rootfree}
    find-rootfree  first root-free monic of a degree

options:
  -h, --help       show this help message and exit
""",
    "field find-rootfree": """\
usage: gelfand field find-rootfree [-h] --field FIELD [--m M] [--out OUT]

options:
  -h, --help     show this help message and exit
  --field FIELD
  --m M
  --out OUT
""",
    "anisotropic": """\
usage: gelfand anisotropic [-h] --field FIELD [--m M] [--n N]
                           [--witness WITNESS] [--padic PADIC] [--seed SEED]
                           [--samples SAMPLES] [--out OUT]

options:
  -h, --help         show this help message and exit
  --field FIELD
  --m M              base degree for finite fields
  --n N              arity of the form
  --witness WITNESS  root-free univariate over Q, e.g. 'x^2+1'
  --padic PADIC      prime p for the x^2 - p*y^2 valuation check
  --seed SEED
  --samples SAMPLES  seeded samples over Q (default 200)
  --out OUT
""",
    "gelfand": """\
usage: gelfand gelfand [-h] --field FIELD --space SPACE [--oracle] [--out OUT]

options:
  -h, --help     show this help message and exit
  --field FIELD  comma-separated field descriptors
  --space SPACE  size, list (1,2,3) or range (1..5)
  --oracle       force the ideal oracle
  --out OUT
""",
    "cover": """\
usage: gelfand cover [-h] --field FIELD --functions FUNCTIONS
                     [--case {I,II,III,all}] [--m M] [--out OUT]

options:
  -h, --help            show this help message and exit
  --field FIELD
  --functions FUNCTIONS
                        file with one function per line, comma-separated
                        field-element literals
  --case {I,II,III,all}
  --m M                 base degree for case I
  --out OUT
""",
}


def _run_argparse(argv, capsys, monkeypatch):
    """Exit code, stdout and stderr of main(argv) at 80 columns, for argv
    that argparse ends with SystemExit."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    out, err = capsys.readouterr()
    return exit_info.value.code, out, err


@pytest.mark.parametrize("words", list(HELP))
def test_help_is_pinned(capsys, monkeypatch, words):
    argv = shlex.split(words) + ["--help"]
    assert _run_argparse(argv, capsys, monkeypatch) == (0, HELP[words], "")


# argparse lists the choices after an invalid one quoted in CPython
# 3.10.13, 3.11.7, 3.12.1 and 3.13.0, and bare in 3.13.13
CASE_CHOICES = ("'I', 'II', 'III', 'all'", "I, II, III, all")


@pytest.mark.parametrize("argv,words,errors", [
    pytest.param(["anisotropic", "--n", "3"], "anisotropic",
                 ["the following arguments are required: --field"],
                 id="no-field"),
    pytest.param(["cover", "--field", "Fp(5)"], "cover",
                 ["the following arguments are required: --functions"],
                 id="no-functions"),
    pytest.param(["field"], "field",
                 ["the following arguments are required: subcommand"],
                 id="no-subcommand"),
    pytest.param([], "", ["the following arguments are required: command"],
                 id="empty"),
    pytest.param(["gelfand", "--field", "Fp(2)", "--space", "1", "--oracle",
                  "stray"], "", ["unrecognized arguments: stray"],
                 id="stray-word"),
    pytest.param(["cover", "--field", "Fp(5)", "--functions", "f.txt",
                  "--case", "IV"], "cover",
                 [f"argument --case: invalid choice: 'IV' (choose from {c})"
                  for c in CASE_CHOICES], id="bad-choice"),
])
def test_usage_errors_are_pinned(capsys, monkeypatch, argv, words, errors):
    usage = HELP[words].split("\n\n")[0]
    prog = " ".join(["gelfand"] + words.split())
    code, out, err = _run_argparse(argv, capsys, monkeypatch)
    assert (code, out) == (2, "")
    assert err in [f"{usage}\n{prog}: error: {e}\n" for e in errors]


# every command of the README's command-line block and of the CI, with
# the shell's variables spelled out
DOCUMENTED_COMMANDS = """
field find-rootfree --field "Fp(3)" --m 2
anisotropic --field "Fp(2)" --m 2 --n 3
anisotropic --field "Fq(2,8)" --m 2 --n 2
anisotropic --field "Q" --witness "x^2+1" --n 2 --seed 7
anisotropic --field "Fp(2)" --n 20
anisotropic --field Q --witness "x^2+1/2" --n 4 --seed 7
anisotropic --field "Fp(2)" --m 2 --n 11
anisotropic --field "Fp(2)" --m 4 --n 6
anisotropic --field "Fp(5)" --m 5 --n 5
anisotropic --field "Q" --padic 5 --samples 200 --seed 7
anisotropic --field Q --witness "x^2+1" --n 3 --samples 300000
anisotropic --field Q --padic 5 --samples 300000
anisotropic --field "Fp(2)" --n 24
anisotropic --field Q --witness "x^2+1" --samples 0
anisotropic --field "Fp(3)" --samples 0 --n 2
anisotropic --field "Fp(3)" --witness "x^2+2"
anisotropic --field Q --witness "x^2-1" --n 3
anisotropic --field Q --padic 4
anisotropic --field Q --padic 5 --witness "x^2+1"
anisotropic --field Q --witness "x^2-1" --n 3 --samples 1000000
anisotropic --field Q --witness "x^1000000" --n 3
anisotropic --n 1000000000 --field "Fp(2)"
gelfand --field "Fp(2),Fp(3)" --space 1..2 --oracle
gelfand --field "Fp(11)" --space 1 --oracle
gelfand --field "Fp(3)" --space 2 --oracle
gelfand --field "Fp(2)" --space 3 --oracle
gelfand --field "Q,Q(sqrt(-1))" --space 1..4
gelfand --field "Q,Q(sqrt(-1))" --space 18
gelfand --field "Fp(2)" --space 19
gelfand --field "Q(sqrt(-3)),Q(sqrt(-7))" --space 1..2
gelfand --field "Fq(17,4)" --space 1..3
gelfand --field "Fp(2)" --space 3..1
gelfand --field "Fp(2)" --space 20
gelfand --field Q --space 2 --oracle
gelfand --field "Fp(2)" --space 18..20
gelfand --field "Fp(2)" --space 1..1000000000
gelfand --field "Fq(251,8)" --space 1
gelfand --field "Fp(618970019642690137449562111)" --space 1
gelfand --space 1000000000 --field "Fp(2)"
cover --field "Fp(5)" --functions cover.txt --case all --m 2
cover --field "Fq(2,3)" --functions cover8.txt --case II
cover --field Q --functions cover.txt --case II
cover --field Q --functions cover.txt --case III
cover --field "Q(sqrt(-1))" --functions coverqi.txt --case II
cover --field "Fp(7)" --functions cover7.txt --case II
cover --field "Fp(7)" --functions cover7.txt --case all
cover --field "Fq(17,4)" --functions cover17.txt --case II
cover --field "Fq(17,4)" --functions cover17.txt --case III
cover --field "Fq(251,2)" --functions cover251.txt --case II
cover --field "Fp(13)" --functions cover13.txt --case II
cover --field "Fp(5)" --functions missing.txt
field find-rootfree --m 1000000000 --field "Fp(2)"
"""


def _mutations(argv, rng):
    """Seeded variants of a documented argv that argparse reads by rules
    the table does not hold, or refuses; a few the table reads too."""
    words = 2 if argv[0] == "field" else 1
    i = rng.choice([k for k, w in enumerate(argv[:-1])
                    if w.startswith("--") and not argv[k + 1].startswith("-")])
    head, opt, value, tail = argv[:i], argv[i], argv[i + 1], argv[i + 2:]
    at = rng.randrange(words, len(argv) + 1)
    field = argv.index("--field")
    yield (argv[:field] + ["--field"[:rng.randrange(3, 7)]]
           + argv[field + 1:])
    yield head + [f"{opt}={value}"] + tail
    yield argv + ["--m", "-3"]
    yield argv + ["--seed", "-1"]
    yield argv + ["--witness", "-x^2 + 1"]
    yield argv + ["--witness", "-x"]
    yield head + [opt, ""] + tail
    yield argv + [opt, value]
    yield argv[:field] + argv[field + 2:]
    yield argv[:at] + ["--bogus", "1"] + argv[at:]
    yield argv[:at] + ["stray"] + argv[at:]
    yield argv[:at] + ["--"] + argv[at:]
    yield argv[:at] + [rng.choice(["-h", "--help"])] + argv[at:]
    yield [rng.choice(["-h", "--help"])] + argv
    yield argv + [rng.choice(["--m", "--n", "--seed", "--samples",
                              "--padic"]), rng.choice(["two", "2.5", ""])]
    yield argv + ["--case", rng.choice(["IV", "i", "ALL", ""])]
    yield argv + ["--out"]


def _table_corpus():
    """Plain argv for every command of COMMANDS: its required options
    alone, each other option with them (every choice of one with
    choices), and all its options together."""
    corpus = []
    for words, (func, _, options, _, _) in cli.COMMANDS.items():
        if func is None:
            continue
        required, alone, together = list(words), [], []
        for option, keywords in options.items():
            if keywords.get("action") == "store_true":
                given = [[option]]
            elif "choices" in keywords:
                given = [[option, c] for c in keywords["choices"]]
            else:
                given = [[option, "3" if "type" in keywords else "text"]]
            if keywords.get("required"):
                required += given[0]
            else:
                alone += given
                together += given[0]
        corpus += [required] + [required + argv for argv in alone]
        corpus.append(required + together)
    return corpus


def _corpus(seed):
    """The plain argv, documented and generated from COMMANDS, and a
    seeded corpus of them and the documented argv's variants."""
    rng = random.Random(seed)
    documented = [shlex.split(line)
                  for line in DOCUMENTED_COMMANDS.strip().splitlines()]
    plain = documented + _table_corpus()
    corpus = list(plain)
    for argv in documented:
        corpus += _mutations(argv, rng)
    # the CI's argparse runs, and argv short of a command
    return plain, corpus + [
        ["--help"], ["anisotropic", "--help"],
        ["anisotropic", "--fie", "Fp(2)", "--n", "3"],
        ["anisotropic", "--field=Fp(2)", "--n=3"],
        ["anisotropic", "--fild", "Fp(2)"],
        ["field"], [], ["anisotropic"], ["-h"], ["bogus"]]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_argv_reader_agrees_with_argparse(seed):
    """Argv the table reads gives argparse's Namespace; argv that argparse
    refuses, or that asks for help, the table leaves to argparse."""
    parser = cli.build_parser()
    plain, corpus = _corpus(seed)
    assert all(cli._read_argv(argv) is not None for argv in plain)
    read = 0
    for argv in corpus:
        try:
            expected = parser.parse_args(argv)
        except SystemExit:
            expected = None
        namespace = cli._read_argv(argv)
        if namespace is not None:
            read += 1
            assert namespace == expected, argv
    # a repeated option and an empty text value are read by the table too
    assert read > len(plain)


def test_argv_reader_reads_an_empty_witness():
    argv = ["anisotropic", "--field", "Q", "--witness", "", "--n", "2"]
    assert cli._read_argv(argv) == cli.build_parser().parse_args(argv)


def test_anisotropic_above_form_guard_reports_structure(tmp_path):
    code, report = run_cli(["anisotropic", "--field", "Fp(2)", "--n", "20"],
                           tmp_path / "r.json")
    assert code == 0
    inst = report["instances"][0]
    assert "form" not in inst
    assert inst["form_withheld"] == {
        "guard": "FORM_TERMS_GUARD", "limit": 1024, "requested": 2047,
        "f2": "x1^2 + x1*x2 + x2^2",
        "nesting": "f2(f2(...f2(x1, x2)..., x19), x20)", "levels": 19}
    assert inst["degree"] == 2 ** 19
    assert inst["verification"] == {"mode": "exhaustive",
                                    "points_checked": 2 ** 20}
    assert report["totals"] == {"passed": 1, "failed": 0}
    assert report["config"]["samples"] is None


def test_anisotropic_rational_witness_with_fraction(tmp_path):
    code, report = run_cli(
        ["anisotropic", "--field", "Q", "--witness", "x^2+1/2", "--n", "4",
         "--seed", "7"], tmp_path / "r.json")
    assert code == 0
    inst = report["instances"][0]
    assert inst["degree"] == 8
    assert inst["form"].startswith("x1^8 + 2*x1^6*x2^2")
    assert inst["verification"]["samples"] == 200


# ---------------------------------------------------------------------------
# the report writer against json.dumps(value, indent=2, allow_nan=False)
#
# A report holds dicts with str keys, lists, str, int, bool, None and finite
# floats, and on those the writer's text is json.dumps's. Where json.dumps
# refuses a value too, the writer raises the same exception type; where
# json.dumps writes what no report holds (a tuple, a key that is not a str,
# a subclass of str or int), the writer refuses it: the refusal tests below.

_INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 4300)() or 4300
_STRINGS = ["", "plain", 'a "quoted" word', "back\\slash \\u0041",
            "\x00\x01\x1f\x7f\n\r\t\b\f", "caf\u00e9 \u2603 \u00ff",
            "astral \U0001F600 \U00010000", "\ud800 lone surrogate"]
_SCALARS = _STRINGS + [True, False, None, 0, 1, -7, 2 ** 70, -(10 ** 30),
                       1e-05, 0.1, 1e16, -0.0, 2.5, -1e300, 5e-324]
# values and keys json.dumps refuses as well, each with the type it raises
_UNSUPPORTED = [set(), {1, 2}, Fraction(1, 3), b"bytes", object(),
                10 ** _INT_LIMIT]
_NOT_FINITE = [float("nan"), float("inf"), float("-inf")]
_BAD_KEYS = [Fraction(1, 2), (1, 2), b"k", frozenset()]


def _outcome(write, value):
    try:
        return "text", write(value)
    except Exception as exc:
        return "raises", type(exc)


def _dumps(value):
    return json.dumps(value, indent=2, allow_nan=False)


def _random_value(rng, depth):
    """A random nest of dicts with str keys and lists over the scalars
    above, at times with a value that json.dumps refuses."""
    kind = rng.random()
    if depth == 0 or kind < 0.35:
        if rng.random() < 0.02:
            return rng.choice(_UNSUPPORTED + _NOT_FINITE)
        return rng.choice(_SCALARS)
    items = range(rng.choice([0, 1, 2, 3, 5]))
    if kind < 0.7:
        return [_random_value(rng, depth - 1) for _ in items]
    return {rng.choice(_STRINGS): _random_value(rng, depth - 1)
            for _ in items}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_report_text_is_json_dumps_on_a_seeded_corpus(seed):
    rng = random.Random(seed)
    refused = 0
    for _ in range(800):
        value = _random_value(rng, 4)
        expected = _outcome(_dumps, value)
        assert _outcome(cli._report_text, value) == expected, value
        refused += expected[0] == "raises"
    # both outcomes come up
    assert 10 < refused < 400


@pytest.mark.parametrize("value", [
    {}, [], {"a": {}}, {"a": []}, [[], {}, []], [[1, [2, []]]],
    {"a": {"b": {"c": [1, {"d": []}]}}}, [{"e": [[[]]]}],
    *_STRINGS, [True, 1, False, 0, None], {"t": True, "one": 1},
    2 ** 64, 10 ** (_INT_LIMIT - 1), [1e-05, 0.1, 1e16, -0.0],
    float("nan"), [float("inf"), float("-inf")],
    {"int": 1, "float": 2.5, "bool": True, "none": None, "s": "str"},
    {key: i for i, key in enumerate(_STRINGS)},
    *_UNSUPPORTED, [1, set()], {"a": Fraction(1, 3)},
    *({key: 1} for key in _BAD_KEYS), {"a": 1, (1,): 2},
], ids=lambda value: type(value).__name__)
def test_report_text_is_json_dumps_on_edge_values(value):
    assert _outcome(cli._report_text, value) == _outcome(_dumps, value)


class _Str(str):
    pass


class _Int(int):
    pass


def test_report_text_refuses_what_no_report_holds():
    """A tuple, a key that is not a str and a subclass of str or int,
    which json.dumps writes, and the types json.dumps refuses too."""
    for value in [{1: "int key"}, {None: 0}, {_Str("k"): 0}, (1, 2),
                  [1, (2,)], {"a": ()}, _Str("s"), _Int(1), [_Int(2)],
                  {1, 2}, Fraction(1, 3), b"bytes", {"a": b"bytes"}]:
        with pytest.raises(TypeError):
            cli._report_text(value)


def test_report_text_refuses_floats_that_are_not_finite():
    for value in [*_NOT_FINITE, [1, float("nan")], {"a": float("-inf")}]:
        with pytest.raises(ValueError):
            cli._report_text(value)
