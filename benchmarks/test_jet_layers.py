"""Layer benchmarks of the exact jet algebra at jet orders 9, 17 and 33:
``compose``, ``invert``, ``germ_to_field``/``field_to_germ``, ``power`` and
``reduce_germ``.

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only
    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-disable   # smoke run

Inputs are seeded rational jets whose coefficients are p/q with |p| <= 9
and 1 <= q <= 4, the size the ``exact-jets`` workload draws.  The field
round trip works at K = 2 ell + 1, the order ``germ_to_field`` keeps.
"""

import random
from fractions import Fraction

import pytest

from germres import Jet, compose, field_to_germ, germ_to_field, invert, power, reduce_germ

ORDERS = (9, 17, 33)


def _rational(rng, nonzero=False):
    while True:
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if value or not nonzero:
            return value


def _tangent(K, ell, seed=0):
    """Seeded rational jet of order K that is exactly ell-tangent."""
    rng = random.Random(1000 * K + ell + seed)
    lead = (_rational(rng, nonzero=True),)
    return Jet((Fraction(1),) + (Fraction(0),) * (ell - 1) + lead + tuple(_rational(rng) for _ in range(K - ell - 1)))


@pytest.mark.parametrize("K", ORDERS)
def test_compose(benchmark, K):
    f, g = _tangent(K, 1), _tangent(K, 2, seed=1)
    assert benchmark(compose, f, g).order == K


@pytest.mark.parametrize("K", ORDERS)
def test_invert(benchmark, K):
    f = _tangent(K, 1)
    g = benchmark(invert, f)
    assert compose(f, g) == Jet.identity(K)


@pytest.mark.parametrize("K", ORDERS)
def test_germ_to_field(benchmark, K):
    f = _tangent(K, (K - 1) // 2)
    assert benchmark(germ_to_field, f).order == K


@pytest.mark.parametrize("K", ORDERS)
def test_field_to_germ(benchmark, K):
    f = _tangent(K, (K - 1) // 2)
    X = germ_to_field(f)
    assert field_to_germ(X, 1) == f
    assert benchmark(field_to_germ, X, Fraction(1, 2)).order == K


@pytest.mark.parametrize("K", ORDERS)
def test_power(benchmark, K):
    """The 50th iterate, five squarings and two products."""
    f = _tangent(K, 1)
    assert benchmark(power, f, 50).order == K


@pytest.mark.parametrize("K", ORDERS)
def test_reduce_germ(benchmark, K):
    """The kill-step staircase of a 3-tangent germ."""
    f = _tangent(K, 3)
    trace, report = benchmark(reduce_germ, f)
    assert report.ell == 3 and len(trace.steps) == 2
