"""Package surface: no part of the package, the CLI verbs included, loads
numpy or scipy, and every verb runs where numpy cannot be imported."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import germres
import germres.cli

jet = '{"order":3,"coeffs":["1","-1","0"]}'
field = '{"kind":"field","order":3,"coeffs":["-1","-1"]}'
# every CLI verb at least once
VERBS = [
    ["residue", "--expr", "x - x^2", "--order", "3"],
    ["normal-form", "--catalog", "moebius"],
    ["flow", "--jet", jet, "--time", "1/2"],
    ["power", "--jet", jet, "--n", "3"],
    ["field", "--jet", jet],
    ["exp", "--field", field, "--time", "1"],
    ["szekeres", "--expr", "x - x^2 + x^3", "--x0", "0.1", "--n", "1000"],
    ["szekeres", "--expr", "x - x^2 + x^3*log(x)", "--x0", "0.1", "--n", "1000"],
    ["estimate-resit", "--expr", "x - x^2 + 1/4*x^3", "--x0", "0.3", "--n", "10000"],
    ["estimate-resit", "--catalog", "quadratic", "--x0", "0.3", "--schedule", "1000,2000", "--ell", "2"],
    ["conjugate", "--X", "neg_x2_x3", "--Y", "neg_x2", "--x0", "0.1", "--grid", "0.01,0.001"],
    ["contour", "--poly", "1,1,0.7", "--radius", "0.3"],
    ["diagnose", "--X", "poly:-1,-1", "--Y", "poly:-1", "--grid", "1e-2,1e-3,1e-4"],
]

FOOTPRINT = """
import contextlib, io, json, sys
verbs = json.loads(sys.argv[1])
import germres
from germres import Jet, reduce_germ, flow_in_G
reduce_germ(Jet.of(1, 1, 0, 1, 0))


def float_engine():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))


exact = float_engine()
import germres.catalog, germres.cli, germres.expr, germres.numerics

with contextlib.redirect_stdout(io.StringIO()):
    codes = [germres.cli.main(argv) for argv in verbs if argv[0] not in ("conjugate", "diagnose")]
# control: the probe sees a module that a numeric function loads on first call
solvers = ["germres._solvers" in sys.modules]
germres.tau(germres.catalog_field("neg_x2"), 0.1, 0.05)
solvers.append("germres._solvers" in sys.modules)
germres.flow_map(germres.catalog_field("neg_x2_x3"), 0.1, 3.0)
germres.contour_residue(lambda z: z - z * z, 0.1)
with contextlib.redirect_stdout(io.StringIO()):
    codes += [germres.cli.main(argv) for argv in verbs if argv[0] in ("conjugate", "diagnose")]
names = {name: getattr(germres, name) is not None for name in germres.__all__}
namespace = {}
exec("from germres import *", namespace)
print(json.dumps({
    "exact": exact,
    "codes": codes,
    "solvers": solvers,
    "loaded": float_engine(),
    "names": names,
    "star": sorted(set(germres.__all__) - set(namespace)),
}))
"""

# numpy and scipy cannot be imported at all
BLOCKED = """
import contextlib, io, json, sys
sys.modules["numpy"] = sys.modules["scipy"] = None
from germres.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps(codes))
"""


def run_python(script):
    src = os.path.dirname(os.path.dirname(os.path.abspath(germres.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(VERBS)], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return json.loads(proc.stdout)


def test_exact_side_does_not_load_numpy_or_scipy():
    doc = run_python(FOOTPRINT)
    assert doc["exact"] == []
    assert doc["codes"] == [0] * len(VERBS)
    assert doc["solvers"] == [False, True]  # the exact and orbit verbs do not load the kernels
    assert doc["loaded"] == []
    assert all(doc["names"].values())
    assert doc["star"] == []


def test_every_verb_runs_without_numpy():
    subparsers = germres.cli.build_parser()._subparsers._group_actions[0]
    assert {argv[0] for argv in VERBS} == set(subparsers.choices)
    assert run_python(BLOCKED) == [0] * len(VERBS)


def test_public_names_resolve_and_are_listed():
    assert len(set(germres.__all__)) == len(germres.__all__)
    for name in germres.__all__:
        assert getattr(germres, name) is not None
    assert set(germres.__all__) <= set(dir(germres))
    assert germres.flow_map is germres.numerics.flow_map
    assert germres.moebius is germres.catalog.moebius


def test_generated_code_is_compiled_in_one_place():
    # Horner evaluators, formula evaluators and the orbit loop all come
    # from numerics._codegen
    package = pathlib.Path(germres.__file__).parent
    sites = [path.name for path in sorted(package.glob("*.py")) for line in path.read_text().splitlines() if "exec(" in line]
    assert sites == ["numerics.py"]


def test_no_private_name_is_left_unreferenced():
    # every top-level private def, class or assignment of the package is
    # read somewhere in it besides its definition, so a helper that lost
    # its last caller does not linger
    package = pathlib.Path(germres.__file__).parent
    defined, used = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(path.name, t.id) for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    private = [(module, name) for module, name in defined if name.startswith("_") and not name.startswith("__")]
    assert len(private) > 20
    assert [(module, name) for module, name in private if name not in used] == []
