"""Benchmark of the gelfand CLI and library, one workload per process.

    python3 perfbench/run.py --workload tower --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the root of a checkout; the program is imported from ``src/``.
Each workload is a closed loop with one client: a seeded generator makes
passes of at least 100 instances, which run one after another through
``gelfand.cli.main(argv)`` (with ``--out`` in a temporary directory) or
as library calls, and every output is checked by ``checker.py``. A run
makes a fixed number of fresh passes, as many as fill ``--seconds`` on a
busy shared 2-vCPU host (``PASS_SECONDS``), so that a seed always gives
the same instances, the same attempts and the same failures, however
fast the host runs.

Times are contention-corrected (``hostspeed.py``): a fixed reference
loop is timed between every two instances and while each runs, and each
instance's wall time is scaled to a host that runs the loop at a fixed
speed. The uncorrected figures are printed too, above the result line.
Latency quantiles are Harrell-Davis estimates (``quantile``).

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` one pass runs untraced and then
traced, and the object holds the per-layer metrics and the tracing
overhead. Failures are listed by name before that line, each with the
known defect it shows (``checker.DEFECTS``) or as unexpected.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from checker import DEFECTS, classify_failure
from hostspeed import HostSpeed, Probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("tower", "spectrum", "cover", "rational")
MIN_INSTANCES = 100     # per pass, so that 10 lie beyond its 90th percentile
# Wall seconds of one pass and its set-up on a busy shared 2-vCPU host;
# a run makes round(--seconds / PASS_SECONDS) passes.
PASS_SECONDS = {"tower": 7.0, "spectrum": 2.7, "cover": 8.3, "rational": 2.1}
WALL_LIMIT_S = 150      # start no pass after this, whatever --seconds
SETUP_FIRST = 3         # set-ups before the first pass; one more per pass
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import gelfand
for spec in sys.argv[2:]:
    gelfand.parse_field(spec)
"""


def setup_once(fields, host):
    """Wall time of a fresh interpreter that imports gelfand and builds
    the workload's field descriptors, with its start and end."""
    host.sample()
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *fields],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    t1 = time.perf_counter()
    host.sample()
    return t1 - t0, t0, t1


@dataclass
class Outcome:
    name: str
    seconds: float     # wall time, less the time the host sampling took
    start: float
    end: float
    defect: str | None = None     # the known defect a failure shows
    problems: list = field(default_factory=list)   # anything else wrong
    report_bytes: int = 0

    @property
    def failed(self):
        return self.defect is not None or bool(self.problems)


class Runner:
    """Runs instances one at a time and checks what they produce; with a
    HostSpeed, samples the host while each runs."""

    def __init__(self, tmp, tracer=None, host=None):
        from gelfand import cli
        self.out = os.path.join(tmp, "report.json")
        self.tracer = tracer
        self.main = tracer.span("cli", cli.main) if tracer else cli.main
        self.watching = (host.watching if host
                         else lambda: contextlib.nullcontext(Probe()))

    def run(self, inst):
        if inst.argv is not None:
            return self._cli(inst)
        task = self.tracer.span("lib", inst.task) if self.tracer else inst.task
        with self.watching() as probe:
            t0 = time.perf_counter()
            try:
                result, exc = task(), None
            except Exception as error:   # a failed instance, not a failed run
                result, exc = None, error
            t1 = time.perf_counter()
            times = (t1 - t0 - probe.spent, t0, t1)
        if exc is not None:
            defect = classify_failure(None, "", exc)
            return Outcome(inst.name, *times, defect,
                           [] if defect else [repr(exc)])
        return Outcome(inst.name, *times, problems=inst.check(result))

    def _cli(self, inst):
        if os.path.exists(self.out):
            os.remove(self.out)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), self.watching() as probe:
            t0 = time.perf_counter()
            try:
                rc = self.main(inst.argv + ["--out", self.out])
            except SystemExit as exc:
                rc = exc.code
            except Exception:   # a failed instance, not a failed run
                rc = None
                err.write(traceback.format_exc())
            t1 = time.perf_counter()
            times = (t1 - t0 - probe.spent, t0, t1)
        if rc != 0:
            defect = classify_failure(inst.argv, err.getvalue(), None)
            problems = [] if defect else [f"exit {rc}: {err.getvalue()}"]
            return Outcome(inst.name, *times, defect, problems)
        text = ""
        try:
            with open(self.out) as fh:
                text = fh.read()
            problems = inst.check(json.loads(text))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable report: {exc!r}"]
        return Outcome(inst.name, *times, problems=problems,
                       report_bytes=len(text.encode()))


def run_pass(runner, instances, host, tracer=None):
    """Run the instances in order, timing the reference loop between
    every two of them and, through ``runner``, while each runs."""
    gc.collect()
    outcomes = []
    for idx, inst in enumerate(instances):
        if tracer is not None:
            tracer.instance = idx
        host.sample()
        outcomes.append(runner.run(inst))
    host.sample()
    return outcomes


def quantile(values, p, steps=16):
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics, weighted by a Beta(p(n+1), (1-p)(n+1)) distribution.
    Unlike the single order statistic at rank p*n, it does not jump when
    a few values cross a gap between groups of similar values, as the
    tower ladder's sizes leave near its 90th percentile."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    mode = (a - 1) / (a + b - 2)
    top = (a - 1) * math.log(mode) + (b - 1) * math.log1p(-mode)
    total = weighted = 0.0
    for i, x in enumerate(xs):
        # the Beta density on [i/n, (i+1)/n], by the midpoint rule,
        # relative to its mode so that it does not underflow
        mass = 0.0
        for k in range(steps):
            u = (i + (k + 0.5) / steps) / n
            mass += math.exp((a - 1) * math.log(u)
                             + (b - 1) * math.log1p(-u) - top)
        total += mass
        weighted += mass * x
    return weighted / total


def timing(latencies):
    """Throughput, median and 90th-percentile latency of seconds."""
    return (len(latencies) / sum(latencies), quantile(latencies, 0.5),
            quantile(latencies, 0.9))


def end_to_end(outcomes, setups, host):
    """Throughput and latency quantiles pool every instance of the run,
    and set-up time is the median set-up, all contention-corrected; the
    failure ratio counts every instance."""
    ips, p50, p90 = timing([host.corrected(o.seconds, o.start, o.end)
                            for o in outcomes])
    raw = timing([o.seconds for o in outcomes])
    print(f"uncorrected: instances_per_s {raw[0]:.4g}, "
          f"instance_p50_ms {raw[1] * 1e3:.4g}, "
          f"instance_p90_ms {raw[2] * 1e3:.4g}, setup_s "
          f"{statistics.median(s for s, _, _ in setups):.4g}; reference loop "
          f"fastest {min(host.samples) * 1e3:.4g} ms, median "
          f"{statistics.median(host.samples) * 1e3:.4g} ms")
    return {
        "setup_s": statistics.median(host.corrected(*setup)
                                     for setup in setups),
        "instances_per_s": ips,
        "instance_p50_ms": p50 * 1e3,
        "instance_p90_ms": p90 * 1e3,
        "fail_ratio": sum(o.failed for o in outcomes) / len(outcomes),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def print_failures(outcomes):
    """Name each failing instance under the known defect it shows."""
    causes = Counter((o.defect or "UNEXPECTED", o.name)
                     for o in outcomes if o.failed)
    print(f"failures: {sum(causes.values())} of {len(outcomes)} instances")
    for defect in sorted({cause for cause, _ in causes}):
        print(f"  {defect}: {DEFECTS.get(defect, 'not a known defect')}")
        for (cause, name), count in sorted(causes.items()):
            if cause == defect:
                print(f"    {name} x{count}")
    for o in outcomes:
        for problem in o.problems:
            print(f"  problem in {o.name}: {problem}"[:400])


def measure(make_pass, rng, tmp, passes, fields, host):
    """``passes`` untraced passes, with set-up times spread over the
    run; stops early only if the run overruns ``WALL_LIMIT_S``."""
    runner = Runner(tmp, host=host)
    outcomes = []
    setups = [setup_once(fields, host) for _ in range(SETUP_FIRST)]
    start = time.perf_counter()
    for done in range(1, passes + 1):
        instances = make_pass(rng, tmp).instances
        if len(instances) < MIN_INSTANCES:
            raise ValueError(f"a pass has only {len(instances)} instances")
        outcomes += run_pass(runner, instances, host)
        setups.append(setup_once(fields, host))
        if time.perf_counter() - start > WALL_LIMIT_S:
            print(f"stopped after {done} of {passes} passes: "
                  f"over {WALL_LIMIT_S} s")
            break
    return outcomes, setups


def trace(make_pass, rng, tmp, out_path):
    """One pass untraced, then the same pass traced; per-layer metrics."""
    from tracing import Tracer, mul_ns

    batch = make_pass(rng, tmp)
    host = HostSpeed()
    plain = run_pass(Runner(tmp, host=host), batch.instances, host)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(Runner(tmp, tracer, host), batch.instances, host,
                          tracer)
    finally:
        tracer.uninstall()
    tracer.write(out_path)
    metrics = tracer.layer_metrics(sum(o.report_bytes for o in traced))
    metrics["trace.overhead_ratio"] = (
        sum(host.corrected(o.seconds, o.start, o.end) for o in plain)
        / sum(host.corrected(o.seconds, o.start, o.end) for o in traced))
    for kind in ("prime", "extension", "rational", "quadratic"):
        pairs = tracer.mul_samples.get(kind) or [
            (a, b) for a, b in batch.operands if a.field.kind == kind]
        metrics[f"field_core.mul_ns.{kind}"] = mul_ns(pairs)
    return plain + traced, metrics


def run_workload(args):
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    make_pass = workloads.PASSES[args.workload]
    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-",
                                     dir=ROOT) as tmp:
        if args.trace:
            out_dir = ROOT / ".perfbench-out"
            out_dir.mkdir(exist_ok=True)
            outcomes, metrics = trace(
                make_pass, rng, tmp,
                out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
            declared = spec["per_layer"]
        else:
            host = HostSpeed()
            passes = max(1, round(args.seconds
                                  / PASS_SECONDS[args.workload]))
            outcomes, setups = measure(make_pass, rng, tmp, passes,
                                       workloads.FIELDS[args.workload], host)
            print(f"latency samples: {len(outcomes)} in {passes} passes; "
                  f"set-up samples: {len(setups)}")
            metrics = end_to_end(outcomes, setups, host)
            declared = spec["end_to_end"]
    print_failures(outcomes)
    return {
        "correct": not any(o.problems for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def run_all(args):
    """Each workload in its own process, one row of metrics per workload."""
    rows = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        rows[workload] = json.loads(lines[-1])
    names = list(rows[WORKLOADS[0]]["metrics"])
    width = max(map(len, names)) + 8
    header = "".join(f"{w:>14}" for w in WORKLOADS)
    print(f"{'metric (unit)':<{width}}{header}")
    for name in names:
        unit = rows[WORKLOADS[0]]["metrics"][name]["unit"]
        cells = "".join(f"{rows[w]['metrics'][name]['value']:>14.6g}"
                        for w in WORKLOADS)
        print(f"{f'{name} ({unit})':<{width}}{cells}")
    for key in ("attempted", "failed", "correct"):
        print(f"{key:<{width}}" + "".join(f"{str(rows[w][key]):>14}"
                                          for w in WORKLOADS))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gelfand" / "__init__.py").is_file():
        print(f"error: no gelfand sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gelfand
    if Path(gelfand.__file__).resolve().parent != SRC / "gelfand":
        print(f"error: gelfand imported from {gelfand.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
