"""The call census: which definitions in `src/gelfand` the benchmark's
workloads and the README's library example never run.

A fresh interpreter sets `sys.setprofile` before `import gelfand`, runs
the first pass of seed 1 of every workload (through `perfbench`'s
`Runner`, read-only) and the README's Python block, and prints each
function it entered. Every definition that did not run must be listed in
UNCALLED with its reason, and every listed one must still exist and
still not run: a new dead definition, or a listed one that now runs or
is gone, fails the test, so the list is kept exact.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "gelfand"
PERFBENCH = ROOT / "perfbench"

# the reasons; the README's "The public edge" gives them name by name
EDGE = "public edge: the README names it, or it serves a name there"
EDGE_PINNED = EDGE + "; perfbench/tracing.py patches it too"
PINNED = ("a reference that perfbench/tracing.py patches; it moves to tests/ "
          "when the tracer stops patching it")
CLI = ("reached only by the command line, which the tests run as processes: "
       "a documented command, the usage text or an error")
REFUSAL = "a refusal of library input that only the tests make"

UNCALLED = {
    "anisotropic.Failed.to_json": CLI,
    "anisotropic.RationalTower.evaluate_payloads": EDGE,
    "anisotropic.Tower.evaluate": EDGE,
    "anisotropic.Tower.structure": CLI,
    "cli.build_parser": CLI,
    "covers.indicator_poly": PINNED,
    "errors.CommonZero.__init__": CLI,
    "errors.HasRoot.__init__": CLI,
    "errors.ParseError.__init__": CLI,
    "field_core.ExtensionField.__reduce__": EDGE,
    "field_core.FieldDescriptor.__repr__": EDGE,
    "field_core.FieldDescriptor.conjugate": REFUSAL,
    "field_core.FieldDescriptor.norm": REFUSAL,
    "field_core.FieldDescriptor.one": EDGE,
    "field_core.FieldDescriptor.order": REFUSAL,
    "field_core.FieldDescriptor.zero": EDGE,
    "field_core.FieldElement.__add__": EDGE_PINNED,
    "field_core.FieldElement.__bool__": EDGE,
    "field_core.FieldElement.__mul__": EDGE_PINNED,
    "field_core.FieldElement.__neg__": EDGE,
    "field_core.FieldElement.__pow__": EDGE_PINNED,
    "field_core.FieldElement.__repr__": EDGE,
    "field_core.FieldElement.__str__": EDGE,
    "field_core.FieldElement.__sub__": EDGE,
    "field_core.FieldElement.__truediv__": EDGE,
    "field_core.FieldElement._same": EDGE,
    "field_core.FieldElement.conjugate": EDGE,
    "field_core.FieldElement.inv": EDGE_PINNED,
    "field_core.FieldElement.norm": EDGE,
    "field_core.QuadraticField.add": CLI,
    "field_core.QuadraticField.conjugate": EDGE,
    "field_core.QuadraticField.inv": EDGE,
    "field_core.QuadraticField.mul": EDGE,
    "field_core.QuadraticField.neg": CLI,
    "field_core.RationalField.inv": EDGE,
    "function_ring.IdealRepr.is_maximal": PINNED,
    "function_ring.RingElement.__init__": EDGE,
    "function_ring.RingElement.__repr__": EDGE,
    "function_ring.RingElement.__str__": EDGE,
    "function_ring.RingElement.values": EDGE,
    "poly.MultiPoly.__add__": PINNED,
    "poly.MultiPoly.__mul__": PINNED,
    "poly.MultiPoly.__repr__": EDGE,
    "poly.MultiPoly.__str__": EDGE,
    "poly.MultiPoly._check": PINNED,
    "poly.MultiPoly.constant": PINNED,
    "poly.MultiPoly.zero": PINNED,
    "poly._times": PINNED,
    "poly.compose_last": PINNED,
}

CENSUS = """
import contextlib, io, json, random, re, sys, tempfile
src, perfbench, readme = sys.argv[1:4]
entered = set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno))

sys.setprofile(profile)
sys.path[:0] = [perfbench, src]
import gelfand
import run, workloads
with tempfile.TemporaryDirectory() as tmp:
    runner = run.Runner(tmp)
    for name in run.WORKLOADS:
        for inst in workloads.PASSES[name](random.Random(1), tmp).instances:
            runner.run(inst)
example = re.search(r"^```python\\n(.*?)^```$", open(readme).read(),
                    re.M | re.S).group(1)
with contextlib.redirect_stdout(io.StringIO()):
    exec(compile(example, "README.md", "exec"), {})
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def _definitions():
    """{(file, first line of its code object): qualified name} for every
    def in the package; a decorated def's code starts at its first
    decorator."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] +
                            [d.lineno for d in child.decorator_list])
                found[(path, first)] = f"{prefix}.{child.name}"
                walk(child, path, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}.{child.name}")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), str(path.resolve()), path.stem)
    return found


def _entered():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "-c", CENSUS, str(SRC), str(PERFBENCH),
         str(ROOT / "README.md")],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return {tuple(key) for key in json.loads(out.stdout)}


def test_every_uncalled_definition_has_its_reason():
    definitions = _definitions()
    entered = _entered()
    uncalled = {name for key, name in definitions.items()
                if key not in entered}
    assert {
        "uncalled, with no entry": sorted(uncalled - UNCALLED.keys()),
        "listed, but run or gone": sorted(UNCALLED.keys() - uncalled),
    } == {"uncalled, with no entry": [], "listed, but run or gone": []}
