"""Package surface: the exact side, the exact CLI verbs and the orbit verbs
run without numpy or scipy."""

import json
import os
import subprocess
import sys

import germres

FOOTPRINT = """
import contextlib, io, json, sys
import germres
from germres import Jet, reduce_germ, flow_in_G
reduce_germ(Jet.of(1, 1, 0, 1, 0))


def float_engine():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))


exact = float_engine()
import germres.catalog, germres.cli, germres.expr, germres.numerics

jet = '{"order":3,"coeffs":["1","-1","0"]}'
field = '{"kind":"field","order":3,"coeffs":["-1","-1"]}'
verbs = [
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
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [germres.cli.main(argv) for argv in verbs]
cli = float_engine()
germres.tau(germres.catalog_field("neg_x2"), 0.1, 0.05)
names = {name: getattr(germres, name) is not None for name in germres.__all__}
namespace = {}
exec("from germres import *", namespace)
print(json.dumps({
    "exact": exact,
    "codes": codes,
    "cli": cli,
    "scipy_after_tau": "scipy" in sys.modules,
    "names": names,
    "star": sorted(set(germres.__all__) - set(namespace)),
}))
"""


def test_exact_side_does_not_load_numpy_or_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(germres.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["exact"] == []
    assert doc["codes"] == [0] * 10
    assert doc["cli"] == []
    assert doc["scipy_after_tau"]
    assert all(doc["names"].values())
    assert doc["star"] == []


def test_public_names_resolve_and_are_listed():
    assert len(set(germres.__all__)) == len(germres.__all__)
    for name in germres.__all__:
        assert getattr(germres, name) is not None
    assert set(germres.__all__) <= set(dir(germres))
    assert germres.flow_map is germres.numerics.flow_map
    assert germres.moebius is germres.catalog.moebius
