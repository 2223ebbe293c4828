"""End-to-end tests of the command-line interface."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from gelfand import cli
from gelfand.cli import main
from gelfand.field_core import enumerate_field, parse_field
from gelfand.poly import univariate


def run_cli(args, out_path):
    code = main(args + ["--out", str(out_path)])
    if out_path.exists():
        return code, json.loads(out_path.read_text())
    return code, None


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
    ("x^3-8/27", 2, ["2/3", "1"])])
def test_anisotropic_rooted_rational_witness_fails(tmp_path, witness, n,
                                                   counterexample):
    code, report = run_cli(
        ["anisotropic", "--field", "Q", "--witness", witness, "--n", str(n),
         "--seed", "7"], tmp_path / "r.json")
    assert code == 1
    assert report["instances"][0]["verification"] == {
        "mode": "failed", "counterexample": counterexample}
    assert report["totals"] == {"passed": 0, "failed": 1}


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
    for n in (2, 3, 4) * 30:
        pairs = cli._seeded_pairs(drawn, n)
        assert [Fraction(a, b) for a, b in pairs] == \
            _seeded_rationals_reference(reference, n)
    assert drawn.random() == reference.random()


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
    # over F_2 route III finds no free coefficient for this cover
    calls = []
    certify = cli.cov.certify
    monkeypatch.setattr(cli.cov, "certify",
                        lambda cert: calls.append(cert) or certify(cert))
    fns = tmp_path / "fns.txt"
    fns.write_text("1,0\n1,1\n")
    args = ["cover", "--field", "Fp(2)", "--functions", str(fns), "--case"]
    code, report = run_cli(args + ["all"], tmp_path / "r.json")
    assert (code, report, calls) == (2, None, [])
    assert capsys.readouterr().err.startswith(
        "error: AvoidanceExhausted: ")
    code, report = run_cli(args + ["II"], tmp_path / "r2.json")
    assert code == 0 and len(calls) == 1


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


def test_cover_common_zero_exit_code(tmp_path):
    fns = tmp_path / "fns.txt"
    fns.write_text("1,0\n1,0\n")
    code, report = run_cli(
        ["cover", "--field", "Fp(5)", "--functions", str(fns)],
        tmp_path / "r.json")
    assert code == 2
    assert report["instances"][0] == {"error": "CommonZero", "point": 1}


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


def test_main_reuses_one_parser(tmp_path, monkeypatch):
    """Reports from one process-wide parser equal those from a fresh
    parser per call."""
    functions = tmp_path / "cover.txt"
    functions.write_text("1,0,1\n0,1,1\n")
    commands = [
        ["anisotropic", "--field", "Fp(2)", "--m", "2", "--n", "3"],
        ["field", "find-rootfree", "--field", "Fp(3)", "--m", "2"],
        ["gelfand", "--field", "Fp(2),Fp(3)", "--space", "1..2"],
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

    shared = reports()
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert cli.build_parser() is not cli.build_parser()
    assert reports() == shared
    assert [code for code, _ in shared] == [0, 0, 0, 0, 0, 2]


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

