"""Output identity: every output of the benchmark's first passes, pinned.

The first pass of seeds 1-10 of every workload runs in process through
`perfbench`'s generators, which are imported, never changed, as in
`tests/test_workloads.py`. Each CLI instance is hashed by its name, exit
code, stderr and `--out` report, with the report's `wall_time_s` value
dropped and the temporary directory's path replaced by a fixed token; a
library task is hashed by the `repr` of its result. The instance digests
of one (workload, seed) are hashed together and compared with
`output_digests.json`. Every report is also checked to be
`json.dumps(report, indent=2)` and a newline, byte for byte.

The test pins outputs, wrong ones included: `test_workloads.py` judges
them, this test keeps them. When an output changes on purpose, rewrite
the file with

    PYTHONPATH=src python tests/test_outputs.py > tests/output_digests.json

and name the workloads and seeds that moved, with the reason.
"""

import contextlib
import hashlib
import io
import json
import random
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("output_digests.json")
WORKLOADS = ("tower", "spectrum", "cover", "rational")
SEEDS = range(1, 11)
TMP = "<tmp>"
WALL_TIME = re.compile(r'"wall_time_s": [^,\n]*')


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads


def _output(inst, tmp):
    """The text an instance is hashed by."""
    if inst.argv is None:
        try:
            return f"{inst.name}\0result\0{inst.task()!r}"
        except Exception as exc:
            return f"{inst.name}\0raised\0{exc!r}"
    from gelfand import cli

    out = Path(tmp, "report.json")
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            rc = cli.main(inst.argv + ["--out", str(out)])
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:
            rc = f"raised {exc!r}"
    report = out.read_text() if out.exists() else ""
    if report:   # the writer's contract, on every report the passes make
        assert report == json.dumps(json.loads(report), indent=2) + "\n"
    text = f"{inst.name}\0{rc}\0{err.getvalue()}\0{report}"
    return WALL_TIME.sub('"wall_time_s"', text.replace(tmp, TMP))


def instance_digests(workloads, workload, seed):
    """(name, digest) of each instance of the seed's first pass."""
    with tempfile.TemporaryDirectory() as tmp:
        batch = workloads.PASSES[workload](random.Random(seed), tmp)
        return [(inst.name,
                 hashlib.sha256(_output(inst, tmp).encode()).hexdigest())
                for inst in batch.instances]


def pass_digest(pairs):
    return hashlib.sha256("".join(d for _, d in pairs).encode()).hexdigest()


def _assert_first_passes_match(workload):
    workloads = _workloads()
    expected = json.loads(DIGESTS.read_text())[workload]
    moved = []
    for seed in SEEDS:
        pairs = instance_digests(workloads, workload, seed)
        if pass_digest(pairs) != expected[str(seed)]:
            moved.append(seed)
            print(f"{workload} seed {seed}, per instance:")
            for name, digest in pairs:
                print(f"  {digest[:16]}  {name}")
    assert moved == []


def test_tower_outputs():
    _assert_first_passes_match("tower")


def test_spectrum_outputs():
    _assert_first_passes_match("spectrum")


def test_cover_outputs():
    _assert_first_passes_match("cover")


def test_rational_outputs():
    _assert_first_passes_match("rational")


if __name__ == "__main__":
    modules = _workloads()
    print(json.dumps({w: {str(s): pass_digest(instance_digests(modules, w, s))
                          for s in SEEDS} for w in WORKLOADS}, indent=2))
