"""Package surface: the exact side imports without the float engine."""

import json
import os
import subprocess
import sys

import germres

FOOTPRINT = """
import json, sys
import germres
from germres import Jet, reduce_germ, flow_in_G
reduce_germ(Jet.of(1, 1, 0, 1, 0))
exact = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
names = {name: getattr(germres, name) is not None for name in germres.__all__}
namespace = {}
exec("from germres import *", namespace)
print(json.dumps({"exact": exact, "names": names, "star": sorted(set(germres.__all__) - set(namespace))}))
"""


def test_exact_side_does_not_load_numpy_or_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(germres.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["exact"] == []
    assert all(doc["names"].values())
    assert doc["star"] == []


def test_public_names_resolve_and_are_listed():
    assert len(set(germres.__all__)) == len(germres.__all__)
    for name in germres.__all__:
        assert getattr(germres, name) is not None
    assert set(germres.__all__) <= set(dir(germres))
    assert germres.flow_map is germres.numerics.flow_map
    assert germres.moebius is germres.catalog.moebius
