"""Negative controls for the benchmark's checker: real reports pass, and
a corrupted copy of each is flagged. Also checks that the runner samples
the host's speed while an instance runs.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import copy
import json
import random
import statistics
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gelfand import Qsqrt, cli, parse_element  # noqa: E402
from gelfand.errors import ParseError  # noqa: E402


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix=".perfbench-tmp-",
                                                dir=HERE.parent)
        self.tmp = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def report(self, argv):
        out = self.tmp / "report.json"
        self.assertEqual(cli.main(argv + ["--out", str(out)]), 0)
        return json.loads(out.read_text())

    def test_tower(self):
        gf = checker.field_of("Fp(2)")
        report = self.report(["anisotropic", "--field", "Fp(2)", "--m", "2",
                              "--n", "4"])
        self.assertEqual(checker.check_tower(report, gf, 2, 4), [])

        wrong_count = copy.deepcopy(report)
        wrong_count["instances"][0]["verification"]["points_checked"] = 15
        self.assertTrue(checker.check_tower(wrong_count, gf, 2, 4))

        # same degree, but x1^8 + x4^8 vanishes at (1, 0, 0, 1)
        wrong_form = copy.deepcopy(report)
        wrong_form["instances"][0]["form"] = "x1^8 + x4^8"
        problems = checker.check_tower(wrong_form, gf, 2, 4)
        self.assertTrue(any("wrong at" in p for p in problems), problems)

    def test_extension_tower(self):
        spec = "Fq(3,2,t^2+t+2)"
        report = self.report(["anisotropic", "--field", spec, "--m", "2",
                              "--n", "2"])
        gf = checker.field_of(spec)
        self.assertEqual(checker.check_tower(report, gf, 2, 2), [])
        wrong = copy.deepcopy(report)
        wrong["instances"][0]["base"] = "x1^2 + 1"   # has roots in F_9
        self.assertTrue(checker.check_tower(wrong, gf, 2, 2))

    def test_cover(self):
        spec = "Fp(5)"
        rows = [[1, 0, 1, 3], [0, 1, 1, 0]]
        path = self.tmp / "cover.txt"
        path.write_text("1,0,1,3\n0,1,1,0\n")
        report = self.report(["cover", "--field", spec, "--functions",
                              str(path), "--case", "all", "--m", "2"])
        gf = checker.field_of(spec)
        self.assertEqual(checker.check_cover(report, gf, rows), [])

        for route in range(3):
            flipped = copy.deepcopy(report)
            values = flipped["instances"][route]["composite_values"]
            values[0] = str((int(values[0]) + 1) % 5)
            self.assertTrue(checker.check_cover(flipped, gf, rows), route)

        constant = copy.deepcopy(report)
        constant["instances"][1]["witness"] += " + 1"
        problems = checker.check_cover(constant, gf, rows)
        self.assertTrue(any("constant term" in p for p in problems), problems)

    def test_spectrum(self):
        sweep = ([("Fp(2)", 2)], [1, 2, 3], False)
        report = self.report(["gelfand", "--field", "Fp(2)", "--space",
                              "1..3"])
        self.assertEqual(checker.check_spectrum(report, sweep), [])
        wrong = copy.deepcopy(report)
        wrong["instances"][2]["closed_set_count"] = 7
        self.assertTrue(checker.check_spectrum(wrong, sweep))
        missing = copy.deepcopy(report)
        del missing["instances"][0]
        self.assertTrue(checker.check_spectrum(missing, sweep))

    def test_rational(self):
        rng = random.Random(3)
        pairs = [(Fraction(rng.randint(1, 50)) * 5 ** rng.randint(0, 2),
                  Fraction(rng.randint(1, 50), rng.randint(1, 9)))
                 for _ in range(30)]
        report = self.report(["anisotropic", "--field", "Q", "--padic", "5",
                              "--samples", "50", "--seed", "1"])
        self.assertEqual(checker.check_padic(report, 5, 50, pairs), [])
        wrong = copy.deepcopy(report)
        wrong["instances"][0]["form"] = "x1^2 + (-25)*x2^2"
        self.assertTrue(checker.check_padic(wrong, 5, 50, pairs))

        points = [(Fraction(1), Fraction(-1)), (Fraction(2, 3), Fraction(5))]
        report = self.report(["anisotropic", "--field", "Q", "--witness",
                              "x^2+1", "--n", "2", "--seed", "1"])
        self.assertEqual(
            checker.check_rational_witness(report, 2, 2, 200, points), [])
        wrong = copy.deepcopy(report)
        wrong["instances"][0]["form"] = "x1^2 + (-1)*x2^2"
        self.assertTrue(
            checker.check_rational_witness(wrong, 2, 2, 200, points))

        self.assertEqual(checker.check_equal(Fraction(3))(Fraction(3)), [])
        self.assertTrue(checker.check_equal(Fraction(3))(Fraction(4)))

    def test_known_defects_are_named(self):
        F = Qsqrt(-3)
        with self.assertRaises(ParseError) as ctx:
            parse_element(F, "12*sqrt(-3)")
        self.assertEqual(checker.classify_failure(None, "", ctx.exception),
                         "quadratic-multidigit-imaginary")
        with self.assertRaises(ParseError) as ctx:
            parse_element(F, "x")
        self.assertIsNone(checker.classify_failure(None, "", ctx.exception))

        runner = run.Runner(str(self.tmp))
        readme = workloads._spectrum_instance(
            [("Fp(2)", 2), ("Fq(2,2,t^2+t+1)", 4)], range(1, 5), True,
            space="1..4")
        outcome = runner.run(readme)
        self.assertEqual(outcome.defect, "oracle-guard-readme")

        shorthand = workloads.Instance(
            "shorthand", lambda r: [],
            argv=["field", "find-rootfree", "--field", "Fq(2,3)"])
        self.assertEqual(runner.run(shorthand).defect, "fq-shorthand")

        # over F_2 the image of [psi1, psi2] hits both [0,1] and [1,1]
        dense = workloads._cover_instance("Fp(2)", [[1, 1, 0], [1, 0, 1]],
                                          self.tmp / "dense.txt", "dense")
        self.assertEqual(runner.run(dense).defect, "avoidance-exhausted")

        # an unrelated nonzero exit is not excused by any defect
        bad = workloads.Instance(
            "bad", lambda r: [],
            argv=["anisotropic", "--field", "Fp(4)", "--n", "2"])
        outcome = runner.run(bad)
        self.assertIsNone(outcome.defect)
        self.assertTrue(outcome.problems)

    def test_runner_flags_a_rejected_report(self):
        runner = run.Runner(str(self.tmp))
        inst = workloads._tower_instance("Fp(3)", 2, 2)
        self.assertFalse(runner.run(inst).failed)
        inst.check = lambda r: checker.check_tower(
            r, checker.field_of("Fp(3)"), 2, 3)   # wrong arity expected
        outcome = runner.run(inst)
        self.assertTrue(outcome.failed)
        self.assertIsNone(outcome.defect)

    def test_quantile(self):
        self.assertAlmostEqual(run.quantile(range(101), 0.9), 90, delta=0.5)
        self.assertAlmostEqual(run.quantile(range(101), 0.5), 50, places=6)
        # two groups with a gap: the estimate moves by a fraction of the
        # gap, not all of it, when one value crosses it
        low, high = [10.0] * 89 + [20.0] * 11, [10.0] * 88 + [20.0] * 12
        self.assertLess(run.quantile(high, 0.9) - run.quantile(low, 0.9), 5)

    def test_host_is_sampled_while_an_instance_runs(self):
        host = hostspeed.HostSpeed()
        runner = run.Runner(str(self.tmp), host=host)
        busy = workloads.Instance(
            "busy", checker.check_equal(0),
            task=lambda: sum(hostspeed.reference()[0] * 0
                             for _ in range(400)))
        outcome = runner.run(busy)
        self.assertFalse(outcome.failed)
        during = [ref for stamp, ref in zip(host.stamps, host.samples)
                  if outcome.start < stamp < outcome.end]
        self.assertGreaterEqual(len(during), 2)
        # the sampling's own time is not the instance's
        self.assertLess(outcome.seconds,
                        outcome.end - outcome.start - sum(during))
        self.assertEqual(host.ref(outcome.start, outcome.end),
                         statistics.median(host.samples))


if __name__ == "__main__":
    unittest.main()
