"""Every documented command, run as a process.

Each row of ROWS runs `python -m gelfand.cli` on its argv (split as a
shell splits it) in a fresh interpreter, in the test's own directory,
after writing the functions file of INPUTS that its argv names. The run
fails on a wrong exit code, on stdout and stderr together lacking one of
the row's fixed texts, on any `Traceback` line, on a false `check` of
its stdout, or when its time bound runs out. Two kinds of row check
more:

- "report" runs the command twice, to stdout and with `--out`: the CLI
  writes its reports itself, not through json.dumps, so the file must be
  `json.dumps(report, indent=2)` and a newline, byte for byte, and equal
  stdout apart from `wall_time_s`;
- "rss" runs the command through `gelfand.cli.main` in the fresh
  interpreter, which exits 0 only if the command does and its peak RSS
  is under 40 MiB. The peak is Linux's VmHWM, that of the process image
  since its exec: ru_maxrss would also count the peak of the process
  that spawned it, here pytest.

The README's command-line examples must each be a row, and its library
example must print its two results.
"""

import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

UNDER_40_MIB = r"""
import re, sys
from gelfand.cli import main
rc = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    kib = int(re.search(r"VmHWM:\s*(\d+) kB", fh.read()).group(1))
print(f"exit {rc}, peak RSS {kib // 1024} MiB", file=sys.stderr)
sys.exit(rc != 0 or kib >= 40 * 1024)
"""


class Row(NamedTuple):
    argv: str
    code: int = 0
    texts: tuple = ()
    seconds: float = 60
    kind: str = "run"
    check: Optional[Callable[[str], bool]] = None


def _cover13():
    # 3 functions over F_13, 11 first nonzero values on each axis
    return "".join(",".join(str(c if k == i else 0)
                            for k in range(3) for c in range(1, 12)) + "\n"
                   for i in range(3))


def _cover60():
    # 60 seeded functions on 10,000 points over F_10007, 95% zeros
    rng = random.Random(60)
    rows = [[0 if rng.random() < 0.95 else rng.randrange(1, 10007)
             for x in range(10000)] for i in range(60)]
    for x in range(10000):
        if not any(row[x] for row in rows):
            rows[rng.randrange(60)][x] = rng.randrange(1, 10007)
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


INPUTS = {
    "cover.txt": "1,0,1\n0,1,1\n",
    "cover8.txt": "t,0,1,t^2\n0,t^2+1,t,1\n1,t,0,t+1\n",
    "coverqi.txt": "1/2+sqrt(-1),0,3\n0,-2/3*sqrt(-1),1-sqrt(-1)\n",
    "cover7.txt": "2,1,3,5,0,0\n6,4,0,2,4,0\n4,1,0,0,3,3\n0,1,0,4,3,0\n"
                  "6,4,0,1,5,5\n4,0,4,4,3,0\n1,0,4,6,1,2\n",
    "cover17.txt": "1,t,t^3+2\n0,1,3*t\n",
    "cover251.txt": "1,t,t+2\n0,1,3*t\n",
    "cover13.txt": _cover13,
    "cover60.txt": _cover60,
}

ONES = "1" * 300
QI_WITNESS = ('"witness": "(2/5+1/5*sqrt(-1))*x1^2*x2 + (-2/15+4/15*sqrt(-1))'
              '*x1^2 + (-6/5-11/10*sqrt(-1))*x1*x2 + (11/15-4/5*sqrt(-1))*x1'
              ' + (3/2*sqrt(-1))*x2"')


def _terms(report):
    return json.loads(report)["instances"][0]["form"].count(" + ") + 1


# argv that is not plain, which `gelfand.cli.main` leaves to argparse
ARGPARSE = [Row(f"{words}--help", texts=("usage:",)) for words in
            ["", "anisotropic ", "gelfand ", "cover ", "field ",
             "field find-rootfree "]] + [
    Row('anisotropic --fie "Fp(2)" --n 3'),
    Row('anisotropic --field="Fp(2)" --n=3'),
    Row('anisotropic --fild "Fp(2)"', 2, ("usage:",)),
]

ROWS = [
    Row('field find-rootfree --field "Fp(3)" --m 2', kind="report"),
    Row('anisotropic --field "Fp(2)" --m 2 --n 3', kind="report"),
    Row('anisotropic --field "Fq(2,8)" --m 2 --n 2'),
    Row('anisotropic --field "Q" --witness "x^2+1" --n 2 --seed 7',
        kind="report"),
    # above FORM_TERMS_GUARD the run verifies and withholds the form
    Row('anisotropic --field "Fp(2)" --n 20', texts=('"form_withheld"',),
        check=lambda out: '"form":' not in out),
    Row('anisotropic --field Q --witness "x^2+1/2" --n 4 --seed 7'),
    Row('anisotropic --field "Fp(2)" --m 2 --n 11', texts=('"form":',)),
    # each power f^(2^k) of the expansion is a Frobenius image
    Row('anisotropic --field "Fp(2)" --m 4 --n 6', seconds=10),
    # one coefficient product a level for each of the 26,073 terms
    Row('anisotropic --field "Fp(5)" --m 5 --n 5', seconds=3,
        check=lambda out: _terms(out) == 26073),
    # level 5 is refused on its exact count, before its chains are built
    Row('anisotropic --field "Fp(5)" --m 5 --n 6', seconds=5,
        texts=('"form_withheld"', '"requested": 26073')),
    Row('anisotropic --field "Q" --padic 5 --samples 200 --seed 7',
        kind="report"),
    Row('gelfand --field "Fp(2),Fp(3)" --space 1..2 --oracle', kind="report"),
    # the largest rings ORACLE_GUARD admits
    *(Row(f'gelfand --field "{field}" --space {n} --oracle',
          texts=('"oracle_checked": true',))
      for field, n in [("Fp(11)", 1), ("Fp(3)", 2), ("Fp(2)", 3),
                       ("Fq(2,2)", 1), ("Fq(2,3)", 1), ("Fq(3,2)", 1)]),
    Row('gelfand --field "Q,Q(sqrt(-1))" --space 1..4'),
    # the spectrum computes only the two field values 1 - 1 and 1 - 0
    Row('gelfand --field "Q,Q(sqrt(-1))" --space 18', seconds=10),
    # the largest runs the guards admit, each read and dropped in turn
    *(Row(argv, kind="rss") for argv in [
        'gelfand --field "Fp(2)" --space 19',
        'anisotropic --field Q --witness "x^2+1" --n 3 --samples 300000',
        'anisotropic --field Q --padic 5 --samples 300000',
        'anisotropic --field "Fp(2)" --n 23',
        'anisotropic --field "Fp(3137)" --n 2']),
    Row('cover --field "Fp(5)" --functions cover.txt --case all --m 2',
        kind="report"),
    # route I's guards are read before the functions file
    Row('cover --field "Fp(5)" --functions cover.txt --case all --m 1', 2,
        ("degree guard",)),
    Row('cover --field "Fp(10007)" --functions missing.txt --case all --m 2',
        2, ("TooLarge: q^m = 10007^2",)),
    # route III reads each point once, at the step of its last function
    Row('cover --field "Fp(10007)" --functions cover60.txt --case III',
        seconds=5),
    Row('cover --field "Fq(2,3)" --functions cover8.txt --case II'),
    Row('cover --field Q --functions cover.txt --case II'),
    Row('cover --field "Q(sqrt(-1))" --functions coverqi.txt --case II',
        texts=(QI_WITNESS,)),
    Row('gelfand --field "Q(sqrt(-3)),Q(sqrt(-7))" --space 1..2'),
    Row('cover --field "Fp(7)" --functions cover7.txt --case II'),
    Row('cover --field "Fp(7)" --functions cover7.txt --case all'),
    # above FIELD_TABLE_CAP: no log tables
    Row('cover --field "Fq(17,4)" --functions cover17.txt --case II'),
    Row('cover --field "Fq(17,4)" --functions cover17.txt --case III'),
    Row('gelfand --field "Fq(17,4)" --space 1..3'),
    Row('cover --field "Fq(251,2)" --functions cover251.txt --case II'),
    Row('anisotropic --field "Fp(2)" --n 24', 2),
    Row('gelfand --field "Fp(2)" --space 3..1', 2),
    Row('anisotropic --field Q --witness "x^2+1" --samples 0', 2),
    Row('anisotropic --field "Fp(3)" --samples 0 --n 2', 2),
    Row('gelfand --field "Fp(2)" --space 20', 2, ("TooLarge",)),
    Row('anisotropic --field "Fp(3)" --witness "x^2+2"', 2),
    Row('anisotropic --field Q --witness "x^2-1" --n 3', 1),
    Row('anisotropic --field Q --padic 4', 2),
    Row('anisotropic --field Q --padic 5 --witness "x^2+1"', 2),
    Row('cover --field Q --functions cover.txt --case III', 2),
    Row('cover --field "Fp(13)" --functions cover13.txt --case II', 2,
        ("TooLarge: route II's interpolant has exactly 1727 terms",)),
    Row('gelfand --field Q --space 2 --oracle', 2, ("InfiniteField",)),
    Row('cover --field "Fp(5)" --functions missing.txt', 2),
    Row('gelfand --field "Fp(2)" --space 18..20', 2, ("TooLarge",)),
    # a range of sizes is read only up to its first size past the guard
    Row('gelfand --field "Fp(2)" --space 1..1000000000', 2, ("TooLarge",),
        10),
    # the root test comes before any sample, and reads f's terms alone
    Row('anisotropic --field Q --witness "x^2-1" --n 3 --samples 1000000', 1,
        seconds=10),
    Row('anisotropic --field Q --witness "x^1000000" --n 3', 1, seconds=5),
    # degrees and forms past what Python writes of an int
    Row('anisotropic --field Q --witness "x^2-1" --n 14286', 1, seconds=10),
    Row('anisotropic --field Q --witness "x^2" --n 3000', 1, seconds=5),
    Row('anisotropic --field Q --witness "x^2" --n 14286', 1,
        ('"form_withheld"',), 10),
    Row(f'anisotropic --field Q --witness "x^2+{ONES}*x+1" --n 6 --samples 5',
        texts=('"form_withheld"',)),
    Row('anisotropic --field Q --witness "x^2+"', 2, ("a term after '+'",)),
    # past the prime-test and irreducibility-search guards
    *(Row(f'gelfand --field "{field}" --space 1', 2, ("TooLarge",), 10)
      for field in ["Fp(618970019642690137449562111)", "Fq(251,8)"]),
    # each power guard is decided on its exponent
    *(Row(f'{run} 1000000000 --field "Fp(2)"', 2, ("TooLarge",), 5)
      for run in ["gelfand --space", "anisotropic --n",
                  "field find-rootfree --m"]),
    *ARGPARSE,
]


def _check(row, code, out, err):
    output = out + err
    assert code == row.code, f"exit {code}, not {row.code}: {output}"
    for text in row.texts:
        assert text in output, f"no {text!r} in the output: {output}"
    assert "Traceback" not in output, output
    assert row.check is None or row.check(out), out


def _run(row, tmp_path, *extra):
    """Run row (with the extra argv) as a process in tmp_path, check it,
    and return its stdout."""
    argv = shlex.split(row.argv) + list(extra)
    for name in INPUTS.keys() & set(argv):
        text = INPUTS[name]
        (tmp_path / name).write_text(text() if callable(text) else text)
    head = ["-c", UNDER_40_MIB] if row.kind == "rss" else ["-m", "gelfand.cli"]
    proc = subprocess.run([sys.executable, *head, *argv], cwd=tmp_path,
                          env=ENV, capture_output=True, text=True,
                          timeout=row.seconds)
    _check(row, proc.returncode, proc.stdout, proc.stderr)
    return proc.stdout


@pytest.mark.parametrize("row", ROWS, ids=[row.argv for row in ROWS])
def test_documented_command(row, tmp_path):
    printed = _run(row, tmp_path)
    if row.kind == "report":
        _run(row, tmp_path, "--out", "report.json")
        text = (tmp_path / "report.json").read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        untimed = re.compile('"wall_time_s": .*').sub
        assert untimed("", text) == untimed("", printed)


def test_every_readme_command_is_a_row():
    readme = [shlex.split(line)[1:] for line in
              re.findall(r"^gelfand .*$", README.read_text(), re.M)]
    rows = [shlex.split(row.argv) for row in ROWS]
    assert readme and [argv for argv in readme if argv not in rows] == []


def test_readme_library_example_prints_both_results():
    example = re.search(r"^```python\n(.*?)^```$", README.read_text(),
                        re.M | re.S).group(1)
    out = subprocess.run([sys.executable, "-"], input=example, env=ENV,
                         capture_output=True, text=True, check=True).stdout
    assert out == "ExhaustivePassed(points_checked=8)\n" * 2


@pytest.mark.parametrize("row,message", [
    (Row('gelfand --field "Fp(2)" --space 20'), "exit 2, not 0"),
    (Row('gelfand --field "Fp(2)" --space 1', texts=("TooLarge",)),
     "no 'TooLarge'"),
])
def test_a_row_the_run_does_not_hold_fails(row, message, tmp_path):
    with pytest.raises(AssertionError, match=message):
        _run(row, tmp_path)


def test_a_traceback_fails_its_row():
    with pytest.raises(AssertionError, match="Traceback"):
        _check(Row("field --help"), 0, "usage: gelfand field",
               "Traceback (most recent call last):\n")


def test_a_run_past_its_bound_fails(tmp_path):
    with pytest.raises(subprocess.TimeoutExpired):
        _run(Row('gelfand --field "Fp(2)" --space 1', seconds=0.01), tmp_path)
