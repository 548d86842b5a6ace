"""End-to-end benchmarks of the CLI: ``cli.main`` on one fixed input per
verb, and the parser build that ``cli.build_parser``'s cache saves.

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only
    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-disable   # smoke run

The inputs are the README's examples where it has one and inputs of the
same size elsewhere; ``estimate-resit`` runs 10^5 steps, not the README's
10^6, so that one round stays near 20 ms.  stdout goes to a StringIO, so
the timings include JSON encoding but no terminal writes.  The parser is
built before the first round, as it is after a process's first call.
"""

import contextlib
import io
import json

import pytest

from germres import cli

VERBS = {
    "residue": ["residue", "--expr", "x/(1+x)", "--order", "7"],
    "normal-form": ["normal-form", "--jet", '{"order":5,"coeffs":["1","0","1","1","1"]}'],
    "flow": ["flow", "--expr", "x - x^2", "--order", "3", "--time", "1/2"],
    "power": ["power", "--jet", '{"order":7,"coeffs":["1","-1","1/2","0","2","-3/4","1"]}', "--n", "-37"],
    "field": ["field", "--catalog", "moebius", "--order", "7"],
    "exp": ["exp", "--field", '{"kind":"field","order":7,"coeffs":["-1","1/2","0","3","-2","1/3"]}', "--time", "2/3"],
    "szekeres": ["szekeres", "--catalog", "moebius", "--x0", "0.1", "--n", "10000"],
    "estimate-resit": ["estimate-resit", "--catalog", "quadratic", "--x0", "0.5", "--n", "100000"],
    "conjugate": ["conjugate", "--X", "neg_x2_x3", "--Y", "neg_x2", "--x0", "0.1", "--grid", "0.01,0.001,0.0001"],
    "contour": ["contour", "--poly", "1,1,0.7", "--radius", "0.3"],
    "diagnose": ["diagnose", "--X", "poly:-1,-1", "--Y", "poly:-1", "--grid", "1e-2,1e-3,1e-4,1e-5"],
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("verb", VERBS)
def test_cli_main(benchmark, verb):
    argv = VERBS[verb]
    _run(argv)
    code, out = benchmark(_run, argv)
    assert code == 0, out
    assert "result" in json.loads(out)


def test_build_parser_uncached(benchmark):
    """What every call paid before the parser was built once per process."""
    parser = benchmark(cli.build_parser.__wrapped__)
    assert parser is not cli.build_parser()
