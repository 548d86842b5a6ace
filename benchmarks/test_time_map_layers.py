"""Layer benchmarks of the time coordinate ``tau``, the time map
``flow_map``, the median canonical-conjugacy request of the
szekeres-conjugacy workload, the fixed-depth Szekeres kernel that the
Szekeres fields evaluate at every quadrature node, alone and through
``szekeres_field``, and the converging ``szekeres_field`` loop of the CLI's
``szekeres`` verb.  The Szekeres loops run on the germs of the orbit
benchmarks (``test_orbit_layers.GERMS``): three whose increment the loops
inline and one opaque closure that they call.

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only
    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-disable   # smoke run

Each field is built once per case, so its formal time is already cached
and the timings are of the quadrature and the Newton iteration alone;
``test_first_time_map_on_a_fresh_field`` times a copy that builds it.
"""

import dataclasses
from fractions import Fraction

import pytest

from germres import catalog, flows, numerics
from germres.catalog import szekeres_numeric_field
from test_orbit_layers import GERMS

FIELDS = {
    # a monomial: its remainder is 0, so tau is the closed form alone
    "neg_x2": lambda: catalog.catalog_field("neg_x2"),
    "neg_x2_x3": lambda: catalog.catalog_field("neg_x2_x3"),
    "szekeres_moebius_100": lambda: szekeres_numeric_field(catalog.moebius(), 100),
    # the depth that holds the median request of the szekeres-conjugacy workload
    "szekeres_moebius_10": lambda: szekeres_numeric_field(catalog.moebius(), 10),
}


@pytest.mark.parametrize("name", FIELDS)
def test_tau(benchmark, name):
    """tau from 0.1 down to 1e-3, four decades of log y."""
    field = FIELDS[name]()
    numerics.tau(field, 0.1, 1e-3)
    value = benchmark(numerics.tau, field, 0.1, 1e-3)
    assert value > 0


def test_flow_map_toward_zero(benchmark):
    """The time-50 image of 0.1 under the flow of -x^2 - x^3 (near 0.017)."""
    field = catalog.catalog_field("neg_x2_x3")
    z = benchmark(numerics.flow_map, field, 0.1, 50.0)
    assert 0.01 < z < 0.02


def test_flow_map_from_an_exact_guess(benchmark):
    """The time-50 image of 0.1 under the flow of -x^2 (1/60): the
    leading-term guess is the root, so one quadrature checks it."""
    field = catalog.catalog_field("neg_x2")
    z = benchmark(numerics.flow_map, field, 0.1, 50.0)
    assert abs(z - 1 / 60) <= 1e-15


def test_flow_map_on_the_quadratic_generator(benchmark):
    """The time map of the order-3 generator of quadratic (the workload's
    non-monomial Y) from 0.1 to 1e-3: the closed-form inverse of its formal
    time, then one quadrature that confirms it."""
    Y = numerics.field_from_jet(flows.germ_to_field(catalog.quadratic().jet_fn(3)))
    t = numerics.tau(Y, 0.1, 1e-3)
    numerics.flow_map(Y, 0.1, t)  # the formal time's series, built once
    z = benchmark(numerics.flow_map, Y, 0.1, t)
    assert abs(z - 1e-3) <= 1e-15


FRESH = {
    "neg_x2_x3": lambda: catalog.catalog_field("neg_x2_x3"),
    "poly_ell3": lambda: numerics.field_from_coeffs("ell3", {4: -1, 5: Fraction(1, 2), 6: Fraction(-1, 3)}),
    "szekeres_moebius_10": lambda: szekeres_numeric_field(catalog.moebius(), 10),
}


@pytest.mark.parametrize("name", FRESH)
def test_first_time_map_on_a_fresh_field(benchmark, name):
    """The first time map on a field, from 0.1 to 1e-2: it builds the
    field's formal time (the split of 1/X, a polynomial field's Sturm zero
    search, the generated integrand and antiderivative, the series), as
    every CLI conjugate and diagnose does once per field."""
    field = FRESH[name]()
    t = numerics.tau(field, 0.1, 1e-2)
    z = benchmark(lambda: numerics.flow_map(dataclasses.replace(field), 0.1, t))
    assert abs(z - 1e-2) <= 1e-10


def test_conjugacy_median_request(benchmark):
    """The median request of the szekeres-conjugacy workload: h(x), then
    Dh(x), at x = 1e-3 for the depth-10 Szekeres field of quadratic and
    the generator of its exact 3-jet, based at 0.1."""
    X = szekeres_numeric_field(catalog.quadratic(), 10)
    Y = numerics.field_from_jet(flows.germ_to_field(catalog.quadratic().jet_fn(3)))

    def request():
        h = numerics.canonical_conjugacy(X, Y, 0.1)
        return h(1e-3), h.deriv(1e-3)

    hx, dh = benchmark(request)
    assert abs(hx / 1e-3 - 1) < 0.1 and abs(dh - 1) < 0.1


def test_szekeres_field_fixed_depth(benchmark):
    """One evaluation of the depth-100 Szekeres field of moebius (tol=0),
    through szekeres_field: its checks, the kernel's and a SzekeresResult."""
    germ = catalog.moebius()
    result = benchmark(numerics.szekeres_field, germ, 0.05, n_max=100, tol=0)
    assert result.iterations == 100 and not result.converged


@pytest.mark.parametrize("germ", GERMS)
@pytest.mark.parametrize("depth", [10, 100])
def test_szekeres_kernel(benchmark, depth, germ):
    """One evaluation of the depth-n Szekeres kernel of a germ, as a
    Szekeres field calls it at each quadrature node."""
    evaluate = numerics._szekeres_kernel(GERMS[germ](), depth)
    value = benchmark(evaluate, 0.05)
    assert value < 0


@pytest.mark.parametrize("germ", GERMS)
def test_szekeres_field_converging(benchmark, germ):
    """szekeres_field at 0.05 to tol 1e-12, as the CLI's szekeres verb runs
    it by default: 6,447 steps on the opaque closure (ell = 2), about
    50,000 on the others."""
    result = benchmark(numerics.szekeres_field, GERMS[germ](), 0.05, tol=1e-12)
    assert result.converged and result.value < 0
