"""The float engine's own kernels against their references: the QUADPACK
port against scipy.integrate.quad (scipy is a test-only dependency), and
the generated Horner evaluators against the loop they replace."""

import cmath
import math
import random
import warnings

import pytest
from scipy.integrate import IntegrationWarning, quad

from germres import _solvers, catalog_field, moebius
from germres.catalog import quadratic, szekeres_numeric_field
from germres.numerics import _horner, field_from_coeffs

from helpers import reference_horner

# quad's full_output message for each nonzero ier it returns (ier 6 raises)
QUAD_MESSAGES = {
    1: "The maximum number of subdivisions",
    2: "The occurrence of roundoff error",
    3: "Extremely bad integrand behavior",
    4: "The algorithm does not converge",
    5: "The integral is probably divergent",
}


def quad_reference(f, a, b, arg, epsabs, epsrel, limit=200):
    """(result, abserr, neval, ier) of scipy.integrate.quad, as reprs."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        out = quad(f, a, b, args=(arg,), epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    ier = 0
    if len(out) > 3:
        ier = next(k for k, text in QUAD_MESSAGES.items() if out[3].startswith(text))
    return repr(out[0]), repr(out[1]), out[2]["neval"], ier


def port(f, a, b, arg, epsabs, epsrel, limit=200):
    result, abserr, neval, ier = _solvers.qagse(f, a, b, arg, epsabs, epsrel, limit)
    return repr(result), repr(abserr), neval, ier


def tau_integrals(field, rng, count, lo=1e-4):
    """(integrand, a, b, top, epsabs, epsrel) of tau on drawn intervals,
    half of them toward 0 and half away from it."""
    sch = field._formal_time
    hi = min(field.x_max, sch.zero * 0.999, 0.5)
    out = []
    for k in range(count):
        x0, x = (math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(2))
        if k % 2:
            x0, x = x, x0
        top = max(x0, x)
        out.append((sch.integrand, math.log(x0 / top), math.log(x / top), top, sch.epsabs, sch.epsrel))
    return out


FIELDS = {
    "neg_x2_x3": lambda: catalog_field("neg_x2_x3"),
    "neg_x3": lambda: catalog_field("neg_x3"),
    "poly": lambda: field_from_coeffs("p", {2: -2, 3: 1, 4: -3, 6: 5}),
    "pullback_log_cubic": lambda: catalog_field("pullback_log_cubic"),
    "pullback_loglog": lambda: catalog_field("pullback_loglog"),
    "szekeres_moebius_100": lambda: szekeres_numeric_field(moebius(), 100),
    "szekeres_quadratic_10": lambda: szekeres_numeric_field(quadratic(), 10),
}


@pytest.mark.parametrize("name", FIELDS)
def test_quadrature_matches_quad_on_tau_integrands(name):
    field = FIELDS[name]()
    for case in tau_integrals(field, random.Random(name), 12):
        assert port(*case) == quad_reference(*case), case[1:]


def test_quadrature_matches_quad_toward_the_zero_of_a_field():
    # y^2 - 3y^3 vanishes at 1/3 and 1/X has a log singularity there, which
    # only the epsilon algorithm resolves; z = 1/3 - 10^(-k/4) for
    # k = 2..59 (k = 1 puts z below 0), from 0.1 and back
    field = field_from_coeffs("e", {2: 1, 3: -3})
    sch = field._formal_time
    iers = set()
    for k in range(2, 60):
        z = 1 / 3 - 10 ** (-k / 4)
        for x0, x in ((0.1, z), (z, 0.1)):
            top = max(x0, x)
            case = (sch.integrand, math.log(x0 / top), math.log(x / top), top, sch.epsabs, sch.epsrel)
            ours = port(*case)
            assert ours == quad_reference(*case), (k, x0, x)
            iers.add(ours[3])
    assert iers >= {0, 1}, iers


def singular(x, c):
    return 1.0 / math.sqrt(abs(x - c)) if x != c else 0.0


def reciprocal(x, c):
    return 1.0 / (x - c) if x != c else 0.0


def oscillating(x, c):
    return math.sin(1.0 / (abs(x - c) + 1e-3))


def step(x, c):
    return 1.0 if x > c else -1.0


def nearly_divergent(x, c):
    return abs(x - c) ** -0.999 if x != c else 0.0


def test_quadrature_matches_quad_on_hard_integrands():
    # every exit of dqagse that quad returns: convergence (ier 0), the
    # interval limit (1), roundoff (2), a bad integrand (3), no convergence
    # of the extrapolation (4), divergence (5)
    iers = set()
    for f in (singular, reciprocal, oscillating, step, nearly_divergent, math.copysign):
        rng = random.Random(f.__name__)
        for _ in range(40):
            a, b, c = (rng.uniform(-1, 1) for _ in range(3))
            epsabs, epsrel = rng.choice(((1e-13, 1e-12), (1e-11, 1e-9), (0.0, 1e-13), (1e-15, 1e-14)))
            limit = rng.choice((200, 200, 50, 3, 1))
            case = (f, a, b, c, epsabs, epsrel, limit)
            ours = port(*case)
            assert ours == quad_reference(*case), (f.__name__,) + case[1:]
            iers.add(ours[3])
    case = (nearly_divergent, 0.8113512249795947, -0.904134700530197, 0.35045014763386284, 0.0, 1e-13)
    assert port(*case) == quad_reference(*case)
    iers.add(port(*case)[3])
    assert iers == {0, 1, 2, 3, 4, 5}, iers


def test_quadrature_reports_its_exits():
    assert _solvers.qagse(math.copysign, 0.5, 0.5, 1.0, 1e-10, 1e-10, 200) == (0.0, 0.0, 0, 0)
    value, abserr, neval, ier = _solvers.qagse(math.copysign, 0.0, 2.0, 1.0, 1e-10, 1e-10, 200)
    assert (value, neval, ier) == (2.0, 21, 0) and abserr < 1e-12
    assert _solvers.qagse(step, 0.0, 1.0, 1 / 3, 1e-13, 1e-12, 5)[2:] == (189, 1)
    assert _solvers.qagse(step, 0.0, 1.0, 1 / 3, 0.0, 1e-20, 200) == (0.0, 0.0, 0, 6)
    with pytest.raises(ValueError):  # quad refuses what dqagse flags 6
        quad(step, 0.0, 1.0, args=(1 / 3,), epsabs=0.0, epsrel=1e-20)
    # b < a integrates over [b, a] and negates
    forward = _solvers.qagse(singular, 0.0, 1.0, 0.3, 1e-13, 1e-12, 200)
    backward = _solvers.qagse(singular, 1.0, 0.0, 0.3, 1e-13, 1e-12, 200)
    assert backward == (-forward[0],) + forward[1:]


def outcome(f, x):
    try:
        return repr(f(x))
    except OverflowError:  # x**power past the float range
        return "OverflowError"


SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e-320, -1e300, 0.3, -2.5)


@pytest.mark.parametrize("power", [0, 1, 2, 5])
def test_generated_horner_matches_the_loop(power):
    rng = random.Random(power)
    coefficient_lists = [[], [2.5], [-0.0], [-0.0, -0.0, 1.0, -3.0], [0.0, 1e300, -1e300]]
    coefficient_lists += [[rng.uniform(-5, 5) for _ in range(n)] for n in range(1, 18)]
    points = list(SPECIAL) + [rng.uniform(-2, 2) for _ in range(20)]
    for coeffs in coefficient_lists:
        ours, ref = _horner(coeffs, power), reference_horner(coeffs, power)
        for x in points:
            assert outcome(ours, x) == outcome(ref, x), (coeffs, x)


def test_generated_horner_matches_the_loop_on_complex_points():
    # the contour verb pads with -0j: z * (c_0 + c_1 z + ...)
    rng = random.Random(7)
    coefficient_lists = [[-0j], [-0j, 1.0, -0.5], [-0j] + [rng.uniform(-3, 3) for _ in range(9)]]
    parts = (0.0, -0.0, math.inf, -math.inf, math.nan, 0.25, -1.5)
    points = [complex(re, im) for re in parts for im in parts]
    points += [cmath.rect(0.1, rng.uniform(0, 2 * math.pi)) for _ in range(20)]
    for coeffs in coefficient_lists:
        ours, ref = _horner(coeffs), reference_horner(coeffs)
        for z in points:
            assert outcome(ours, z) == outcome(ref, z), (coeffs, z)
