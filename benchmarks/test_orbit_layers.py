"""Layer benchmarks of the orbit loop of ``estimate_resit`` and of the
generated formula evaluators.

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only
    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-disable   # smoke run

This directory lies outside ``testpaths``, so the tier-1 run does not
collect it.  Each orbit case runs 10^5 steps; divide the mean by 10^5 for
the cost of one step.
"""

import argparse

import pytest

from germres import catalog, cli, numerics
from germres.expr import parse_expr
from germres.jets import Jet

STEPS = 10**5


def _expr_germ(text):
    return cli._load_germ_spec(argparse.Namespace(expr=text, catalog=None, ell=None, a=None))


GERMS = {
    "quadratic": catalog.quadratic,
    "germ_from_jet": lambda: catalog.germ_from_jet(Jet.of(1, -1, 1, 0)),
    "expr": lambda: _expr_germ("x - x^2 + 1/4*x^3"),
}


@pytest.mark.parametrize("name", GERMS)
def test_orbit_values(benchmark, name):
    germ = GERMS[name]()
    assert germ.orbit is None
    out = benchmark(numerics._orbit_values, germ, 0.3, [STEPS])
    assert 0.0 < out[STEPS] < 1e-4


FORMULAS = ("x/(1+2*x)", "x - x^2 + 1/4*x^3", "x + x^2 + x^3*log(x)")
POINTS = [0.001 * k for k in range(1, 1001)]


@pytest.mark.parametrize("text", FORMULAS)
@pytest.mark.parametrize("which", ["func", "deriv"])
def test_germ_expr_evaluator(benchmark, text, which):
    """1000 calls of GermExpr.func or .deriv on (0, 1]."""
    evaluate = getattr(parse_expr(text), which)

    def sweep():
        return [evaluate(x) for x in POINTS]

    values = benchmark(sweep)
    assert len(values) == len(POINTS)
