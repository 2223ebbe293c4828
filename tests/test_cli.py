"""End-to-end tests of the command-line interface."""

import itertools
import json

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


def test_cover_route_two_refused_above_form_guard(tmp_path, capsys):
    # 7 functions over F_7: every indicator has at least 2^7 terms
    fns = tmp_path / "fns.txt"
    fns.write_text("".join(f"{i % 7},{(i + 1) % 7},{(i + 3) % 7}\n"
                           for i in range(7)))
    code, report = run_cli(["cover", "--field", "Fp(7)", "--functions",
                            str(fns), "--case", "II"], tmp_path / "r.json")
    assert (code, report) == (2, None)
    assert "TooLarge: route II's interpolant may have" in \
        capsys.readouterr().err


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

