"""Negative controls: one case per refusal of library input that no
other test makes. Each case names the exception type and its message,
so that a refusal whose `raise` is lost fails here even when a later
line raises something of the same type."""

import json
import re

import pytest

from gelfand.anisotropic import Tower, norm_form_eval
from gelfand.cli import main
from gelfand.covers import check_cover, indicator_poly
from gelfand.errors import (
    ArityMismatch,
    InfiniteField,
    MixedFields,
    ParseError,
    WrongKind,
    ZeroPolynomial,
)
from gelfand.field_core import Fp, Fq, Q, Qsqrt, parse_field, rootfree_payloads
from gelfand.function_ring import FiniteSpace, RingElement, all_ring_elements
from gelfand.poly import compose_last, homogenize2, parse_poly


def _refused(case, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        case()


def _x(field, text="x1", arity=None):
    return parse_poly(field, text, arity)


@pytest.mark.parametrize("case,error,message", [
    (lambda: Tower.over(_x(Fp(3), "x^2 + 1"), 0),
     ValueError, "arity must be at least 1"),
    (lambda: Tower.over(_x(Fp(3), "x1*x2 + 1"), 2),
     ValueError, "base polynomial must be univariate"),
    (lambda: Tower.over(_x(Fp(3), "x + 1"), 2),
     ValueError, "base polynomial must have degree at least 2"),
    (lambda: norm_form_eval([]), ValueError, "need at least one element"),
    (lambda: norm_form_eval([Qsqrt(-1).one(), Qsqrt(-3).one()]),
     MixedFields, "Q(sqrt(-1)) vs Q(sqrt(-3))"),
])
def test_anisotropic_refusals(case, error, message):
    _refused(case, error, message)


@pytest.mark.parametrize("case,error,message", [
    (lambda: Q().order, InfiniteField, "infinite field has no order"),
    (lambda: Fp(5).conjugate(1),
     WrongKind, "conjugate is defined on quadratic elements only"),
    (lambda: Fp(5).one() + 1, TypeError, "expected FieldElement, got int"),
    (lambda: Fq(2, 2, (1, 1, 0)),
     ValueError, "modulus must be monic of degree k"),
    (lambda: parse_field("Fq(2,3,t^2+1)"), ParseError,
     "parse error at position 7: expected a degree-3 modulus "
     "(input: 'Fq(2,3,t^2+1)')"),
    (lambda: rootfree_payloads(Q(), 2),
     InfiniteField, "root-free search requires a finite field"),
])
def test_field_core_refusals(case, error, message):
    _refused(case, error, message)


@pytest.mark.parametrize("case,error,message", [
    (lambda: FiniteSpace(0), ValueError, "the space must be non-empty"),
    (lambda: RingElement(Fp(3), [Fp(3).one(), Fp(5).one()]),
     MixedFields, "Fp(3) vs Fp(5)"),
    (lambda: all_ring_elements(FiniteSpace(2), Q()),
     InfiniteField, "the function ring is finite only for finite F"),
])
def test_function_ring_refusals(case, error, message):
    _refused(case, error, message)


@pytest.mark.parametrize("case,error,message", [
    (lambda: check_cover([]), ValueError, "need at least one function"),
    (lambda: indicator_poly((Q().one(),), Q()),
     InfiniteField, "indicator polynomials need a finite field"),
])
def test_covers_refusals(case, error, message):
    _refused(case, error, message)


@pytest.mark.parametrize("case,error,message", [
    (lambda: _x(Fp(3)) + 1, TypeError, "expected MultiPoly, got int"),
    (lambda: _x(Fp(3)) + _x(Fp(5)), MixedFields, "Fp(3) vs Fp(5)"),
    (lambda: _x(Fp(3)) + _x(Fp(3), "x1", 2), ArityMismatch, "arity 1 vs 2"),
    (lambda: _x(Fp(3)) * Fp(5).one(), MixedFields, "Fp(3) vs Fp(5)"),
    (lambda: _x(Fp(3)).evaluate((Fp(5).one(),)),
     MixedFields, "Fp(3) vs Fp(5)"),
    (lambda: homogenize2(_x(Fp(3), "x1*x2 + 1")),
     ArityMismatch, "homogenization takes a univariate polynomial"),
    (lambda: homogenize2(_x(Fp(3), "1", 1)),
     ZeroPolynomial, "degree must be at least 1"),
    (lambda: compose_last(_x(Fp(3), "x1^2 + 1"), _x(Fp(3))),
     ArityMismatch, "outer polynomial must be bivariate"),
    (lambda: compose_last(_x(Fp(3), "x1*x2"), _x(Fp(5))),
     MixedFields, "Fp(3) vs Fp(5)"),
])
def test_poly_refusals(case, error, message):
    _refused(case, error, message)


def _cover(tmp_path, name, text):
    """Exit code and report (without its wall time and file name) of
    route II on a functions file of the given text."""
    functions, out = tmp_path / name, tmp_path / f"{name}.json"
    functions.write_text(text)
    code = main(["cover", "--field", "Fp(5)", "--functions", str(functions),
                 "--case", "II", "--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    if report is not None:
        report.pop("wall_time_s")
        report["config"].pop("functions")
    return code, report


def test_cli_functions_file_refusals(tmp_path, capsys):
    # blank and '#' lines are skipped, so they change nothing
    plain = _cover(tmp_path, "plain.txt", "1,0,1\n0,1,1\n")
    spaced = _cover(tmp_path, "spaced.txt", "# a cover\n\n1,0,1\n  \n"
                    "# the second\n0,1,1\n\n")
    assert plain[0] == 0 and plain[1] is not None
    assert spaced == plain
    capsys.readouterr()
    # a file of nothing else holds no function
    empty = tmp_path / "empty.txt"
    assert _cover(tmp_path, "empty.txt", "# none\n\n") == (2, None)
    assert capsys.readouterr().err == f"error: no functions found in {empty}\n"
