"""The benchmark's independent checker as a tier-1 oracle.

The first pass of seeds 1-5 of every workload runs in process through
`perfbench`'s `Runner`, which checks each report or library result with
`perfbench/checker.py`, a reference that shares no code with the
program. No instance may have a problem. Failures that show a known
defect (`checker.DEFECTS`) are counted by name and not judged, so that a
change that mends one only moves a count. `perfbench/` is imported,
never changed.
"""

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEEDS = range(1, 6)


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return run, workloads


@pytest.mark.parametrize("workload", ["tower", "spectrum", "cover",
                                      "rational"])
def test_first_passes_satisfy_the_checker(perfbench, workload, tmp_path):
    run, workloads = perfbench
    runner = run.Runner(str(tmp_path))
    problems, defects = [], Counter()
    for seed in SEEDS:
        batch = workloads.PASSES[workload](random.Random(seed), str(tmp_path))
        for inst in batch.instances:
            outcome = runner.run(inst)
            problems += [f"seed {seed}, {inst.name}: {problem}"
                         for problem in outcome.problems]
            if outcome.defect is not None:
                defects[outcome.defect] += 1
    print(f"{workload}: known defects {dict(defects)}")
    assert problems == []
