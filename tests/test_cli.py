"""End-to-end tests of the command-line interface."""

import json

import pytest

from gelfand.cli import main


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


def test_field_find_rootfree(tmp_path):
    code, report = run_cli(
        ["field", "find-rootfree", "--field", "Fp(2)", "--m", "2"],
        tmp_path / "r.json")
    assert code == 0
    assert report["polynomial"] == "x1^2 + x1 + 1"


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
