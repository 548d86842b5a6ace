"""Shared generators and independent oracles for the test suite.

The oracles go through sympy's symbolic series arithmetic, not through the
package, so they stay independent of the code paths they check.
"""

import random
from fractions import Fraction

import sympy as sp

from germres import FieldJet, Jet, compose

X = sp.symbols("x")


def rng(seed=0):
    return random.Random(seed)


def rand_fraction(r, lo=-9, hi=9, max_den=4, nonzero=False):
    while True:
        v = Fraction(r.randint(lo, hi), r.randint(1, max_den))
        if v != 0 or not nonzero:
            return v


def rand_jet(r, order, max_den=4):
    coeffs = [rand_fraction(r, nonzero=True)] + [
        rand_fraction(r, max_den=max_den) for _ in range(order - 1)
    ]
    return Jet(tuple(coeffs))


def rand_parabolic(r, order, max_den=4):
    coeffs = [Fraction(1)] + [rand_fraction(r, max_den=max_den) for _ in range(order - 1)]
    return Jet(tuple(coeffs))


def rand_tangent(r, ell, order, max_den=4):
    """Exactly ell-tangent parabolic jet of the given order."""
    coeffs = [Fraction(0)] * order
    coeffs[0] = Fraction(1)
    coeffs[ell] = rand_fraction(r, max_den=max_den, nonzero=True)
    for n in range(ell + 2, order + 1):
        coeffs[n - 1] = rand_fraction(r, max_den=max_den)
    return Jet(tuple(coeffs))


def rand_positive_jet(r, order, max_den=4):
    """Invertible jet with positive linear coefficient (Dh(0) > 0)."""
    while True:
        a1 = rand_fraction(r, lo=1, hi=9, max_den=max_den)
        if a1 > 0:
            break
    coeffs = [a1] + [rand_fraction(r, max_den=max_den) for _ in range(order - 1)]
    return Jet(tuple(coeffs))


def rand_int_parabolic(r, order, lo=-6, hi=6):
    coeffs = [1] + [r.randint(lo, hi) for _ in range(order - 1)]
    return Jet(tuple(coeffs), carrier="integer")


def rand_int_jet(r, order, lo=-6, hi=6):
    """Integer-carrier jet with a_1 = +-1."""
    coeffs = [r.choice((1, -1))] + [r.randint(lo, hi) for _ in range(order - 1)]
    return Jet(tuple(coeffs), carrier="integer")


# -- reference kernels and the coefficient-by-coefficient inverse -------------


def fraction_mul(a, b, K):
    """a * b mod x^(K+1) by plain Fraction convolution."""
    out = [Fraction(0)] * (K + 1)
    for i, ai in enumerate(a[: K + 1]):
        for j, bj in enumerate(b[: K + 1 - i]):
            out[i + j] += Fraction(ai) * Fraction(bj)
    return out


def fraction_subst(p, g, K):
    """p(g(x)) mod x^(K+1) as sum_n p_n g^n, by plain Fraction arithmetic."""
    out = [Fraction(0)] * (K + 1)
    g_power = [Fraction(1)] + [Fraction(0)] * K
    for pn in p[: K + 1]:
        out = [o + Fraction(pn) * c for o, c in zip(out, g_power)]
        g_power = fraction_mul(g_power, g, K)
    return out


def reference_germ_to_field(f, K=None):
    """The formal log sum_k (-1)^(k+1)/k (T_f - I)^k(x) mod x^(K+1), one
    Fraction term at a time; K defaults to 2 ell + 1, ell + 1 being the
    degree of the first nonzero coefficient of f - x."""
    if K is None:
        ell = next(n for n in range(2, f.order + 1) if f[n] != 0) - 1
        K = 2 * ell + 1
    fd = f.dense(K)
    term = [Fraction(0), Fraction(1)] + [Fraction(0)] * (K - 1)  # x
    X = [Fraction(0)] * (K + 1)
    k = 0
    while True:
        k += 1
        term = [a - b for a, b in zip(fraction_subst(term, fd, K), term)]  # (T_f - I) term
        if not any(term):
            return FieldJet.from_dense(X)
        X = [c + Fraction((-1) ** (k + 1), k) * d for c, d in zip(X, term)]


def reference_field_to_germ(X, t):
    """The Lie series sum_k t^k/k! L_X^k(x) mod x^(K+1), K the order of X,
    one Fraction term at a time."""
    t = Fraction(t)
    K = X.order
    Xd = X.dense(K)
    term = [Fraction(0), Fraction(1)] + [Fraction(0)] * (K - 1)  # x
    out = term
    k = 0
    while True:
        k += 1
        deriv = [n * term[n] for n in range(1, K + 1)]
        term = [t / k * c for c in fraction_mul(Xd, deriv, K)]  # t/k L_X term
        if not any(term):
            return Jet.from_dense(out)
        out = [a + b for a, b in zip(out, term)]


def quartic_invert(f):
    """Compositional inverse solved one coefficient at a time: b_n is read
    off f(b_1 x + ... + b_(n-1) x^(n-1)), one composition per coefficient."""
    inv_a1 = f[1] if f.carrier == "integer" else 1 / f[1]
    K = f.order
    b = [0] * (K + 1)
    b[1] = inv_a1
    for n in range(2, K + 1):
        partial = Jet(tuple(b[1:n]) + (0,) * (K - n + 1), f.carrier)
        b[n] = -compose(f, partial)[n] * inv_a1
    return Jet(tuple(b[1 : K + 1]), f.carrier)


# -- closed-form flow oracles (README, "Conventions worth knowing") -----------


def _resad(f, ell):
    return Fraction(ell + 1, 2) * f[ell + 1] ** 2 - f[2 * ell + 1]


def closed_form_flow(f, ell, t):
    """f^t = x + sum t a_n x^n + [(l+1)/2 (t a_(l+1))^2 - t resad] x^(2l+1)
    for an exactly ell-tangent jet f, at order 2 ell + 1."""
    t = Fraction(t)
    K = 2 * ell + 1
    coeffs = [Fraction(0)] * K
    coeffs[0] = Fraction(1)
    for n in range(ell + 1, 2 * ell + 1):
        coeffs[n - 1] = t * f[n]
    coeffs[K - 1] = Fraction(ell + 1, 2) * (t * f[ell + 1]) ** 2 - t * _resad(f, ell)
    return Jet(tuple(coeffs))


def closed_form_generator(f, ell):
    """X = sum a_n x^n - resad x^(2l+1), the generator of the flow through f."""
    coeffs = [f[n] for n in range(2, 2 * ell + 1)] + [-_resad(f, ell)]
    return FieldJet(tuple(coeffs))


# -- sympy oracles -----------------------------------------------------------


def to_sympy(jet):
    return sum(sp.Rational(c.numerator, c.denominator) * X**n for n, c in enumerate(jet.coeffs, 1))


def _to_fraction(value) -> Fraction:
    num, den = sp.fraction(sp.together(sp.simplify(value)))
    return Fraction(int(num), int(den))


def from_sympy(expr, order):
    poly = sp.expand(expr)
    return Jet(tuple(_to_fraction(poly.coeff(X, n)) for n in range(1, order + 1)))


def sympy_truncate(expr, order):
    """Drop the terms of degree above ``order`` from a polynomial in x."""
    poly = sp.Poly(sp.expand(expr), X)
    return sp.expand(sum(c * X**m for (m,), c in poly.terms() if m <= order))


def sympy_compose(f_jet, g_jet):
    order = min(f_jet.order, g_jet.order)
    expr = sympy_truncate(to_sympy(f_jet).subs(X, to_sympy(g_jet)), order)
    return from_sympy(expr, order)


def sympy_invert(f_jet):
    order = f_jet.order
    f = to_sympy(f_jet)
    b = sp.symbols(f"b1:{order + 1}")
    h = sum(b[i] * X ** (i + 1) for i in range(order))
    # f(h) from truncated powers of h: expanding f(h) in full with `order`
    # unknown coefficients blows up
    eq, h_power = -X, sp.Integer(1)
    for n in range(1, order + 1):
        h_power = sympy_truncate(h_power * h, order)
        eq += f.coeff(X, n) * h_power
    sol = {}
    for n in range(1, order + 1):
        cn = sp.expand(eq.coeff(X, n).subs(sol))
        sol[b[n - 1]] = sp.solve(cn, b[n - 1])[0]
    return from_sympy(h.subs(sol), order)


def sympy_conjugate(h_jet, f_jet):
    hinv = sympy_invert(h_jet)
    return sympy_compose(h_jet, sympy_compose(f_jet, hinv))


def sympy_resit(coeffs):
    """Scale-invariant iterative residue straight from symbolic kill steps.

    ``coeffs`` are the exact coefficients a_1..a_{2l+1} with a_1 = 1.
    """
    order = len(coeffs)
    jet = Jet(tuple(coeffs))
    ell = next(n - 1 for n in range(2, order + 1) if jet[n] != 0)
    assert order == 2 * ell + 1
    f = to_sympy(jet)
    for j in range(2, ell + 1):
        alpha = sp.symbols("alpha")
        hs = X + alpha * X**j
        # series reversion of h by fixed-point iteration w <- x - alpha w^j
        ws = X
        for _ in range(order):
            ws = sympy_truncate(X - alpha * ws**j, order)
        g = sympy_truncate(hs.subs(X, sympy_truncate(f.subs(X, ws), order)), order)
        aval = sp.solve(sp.expand(g.coeff(X, ell + j)), alpha)[0]
        f = sp.expand(g.subs(alpha, aval))
    lead = f.coeff(X, ell + 1)
    mu = f.coeff(X, 2 * ell + 1) / lead**2
    return _to_fraction(sp.Rational(ell + 1, 2) - mu)


# -- the Szekeres loop as first written ---------------------------------------


def reference_szekeres(germ, x, n_max=100_000, tol=1e-12):
    """The straightforward Szekeres loop, dividing at every step; the
    package's loop must match it bit for bit.  Returns the package's
    SzekeresResult type and raises its ProductUnderflow."""
    from germres.numerics import DomainError, ProductUnderflow, SzekeresResult

    if not germ.is_contracting():
        raise DomainError(f"{germ.name}: szekeres_field needs a contracting germ")
    germ.check_point(x)
    product = 1.0
    prev = None
    value = None
    for n in range(n_max):
        step = germ.increment(x)
        value = step / product
        if prev is not None and abs(value - prev) < tol:
            return SzekeresResult(value=value, iterations=n, converged=True)
        prev = value
        product *= germ.deriv(x)
        if not (1e-280 < abs(product) < 1e280):
            raise ProductUnderflow(
                f"derivative product left the floating range at n={n} (|P|={abs(product):.3e})"
            )
        x = x + step
    return SzekeresResult(value=value, iterations=n_max, converged=False)


def reference_szekeres_evaluator(germ, n):
    """The fixed-depth Szekeres field as first evaluated: one call of the
    reference loop per point, read back from its SzekeresResult."""

    def func(x):
        return reference_szekeres(germ, x, n, 0.0).value

    return func


# -- the split of tau as first written ------------------------------------------


class ReferenceTauScheme:
    """tau's split of 1/X with its remainder, quadrature integrand and
    Laurent antiderivative as nested closures and loops over the Laurent
    powers; the package's generated functions must give the same floats."""

    def __init__(self, field):
        import math

        from germres import jets
        from germres.numerics import DomainError

        ell = field.ell
        coeffs = [Fraction(field.leading)] if field.jet is None else field.jet.dense(field.jet.order)[ell + 1 :]
        c = coeffs[0]
        s = [ci / c for ci in coeffs]
        e = jets._recip(s, ell)
        try:
            self.d = {ell + 1 - i: float(ei / c) for i, ei in enumerate(e)}
            if field.polynomial:
                u = [-v for v in jets._mul(e, s, ell + len(s) - 1)]
                u[0] += 1
                assert all(ui == 0 for ui in u[: ell + 1])
                num = reference_horner([float(ui) for ui in u[ell + 1 :]])
                den = reference_horner([float(si) for si in s])

                def remainder(y, _c=float(c)):
                    return num(y) / (_c * den(y))

            else:
                powers = sorted(self.d, reverse=True)

                def remainder(y, _d=self.d, _p=tuple(powers), _f=field.func):
                    u = 1.0 / y
                    p = 0.0
                    for j in _p:
                        p += _d[j] * u**j
                    return 1.0 / _f(y) - p

        except OverflowError:
            raise DomainError(f"{field.name}: a coefficient of the split of 1/X passes the float range") from None

        def integrand(s, top, _r=remainder, _exp=math.exp):
            y = top * _exp(s)
            return _r(y) * y

        self.integrand = integrand

    def antiderivative(self, y):
        import math

        from germres.numerics import DomainError

        acc = 0.0
        try:
            for j, dj in self.d.items():
                if j == 1:
                    acc += dj * math.log(y)
                else:
                    acc += dj * y ** (1 - j) / (1 - j)
        except OverflowError:
            raise DomainError(f"the time coordinate at {y!r} passes the float range") from None
        return acc


def with_reference_split(field, func=None):
    """A copy of ``field`` (evaluated by ``func`` if given) whose time
    coordinate takes its rounded Laurent part, quadrature integrand and
    Laurent antiderivative from the ReferenceTauScheme."""
    import dataclasses

    copy = dataclasses.replace(field) if func is None else dataclasses.replace(field, func=func)
    ref, formal = ReferenceTauScheme(copy), copy._formal_time
    formal.d, formal.integrand, formal.antiderivative = ref.d, ref.integrand, ref.antiderivative
    return copy


# -- the time map's bracket as first written ----------------------------------


def reference_flow_map(field, x0, t):
    """flow_map toward 0 with the bracket found by halving from x0 and the
    package's tau; the package's bracket must give the same root up to
    brentq's relative tolerance of 4 eps."""
    import sys

    from scipy.optimize import brentq

    from germres.numerics import ReachabilityError, tau

    def g(z):
        return tau(field, x0, z) - t

    assert field.is_contracting() == (t > 0), "toward 0 only"
    hi, lo = x0, x0 / 2
    for _ in range(900):
        if g(lo) * g(hi) <= 0:
            break
        lo /= 2
        if lo == 0.0:
            raise ReachabilityError("bracket for the time map collapsed to 0")
    else:
        raise ReachabilityError("could not bracket the time map toward 0")
    return brentq(g, lo, hi, xtol=1e-300, rtol=4 * sys.float_info.epsilon)


# -- the orbit loop and the formula evaluators as first written ----------------


def reference_orbit_values(germ, x0, ns, use_longdouble):
    """The orbit loop that tests every step against the wanted set and
    converts at every step; the package's loop must match it bit for bit."""
    from germres.numerics import MAX_ORBIT_STEPS, DomainError

    if germ.orbit is not None:
        return {n: float(germ.orbit(x0, n)) for n in ns}
    if max(ns) > MAX_ORBIT_STEPS:
        raise DomainError(f"at most {MAX_ORBIT_STEPS} orbit steps, not {max(ns)}")
    wanted = set(ns)
    out = {}
    one = 1.0
    if use_longdouble:
        import numpy as np

        one = np.longdouble(1.0)
    x = one * x0
    comp = one * 0.0
    for k in range(1, max(ns) + 1):
        # compensated update x <- x + (f(x) - x)
        d = one * germ.increment(float(x)) - comp
        t = x + d
        comp = (t - x) - d
        x = t
        if k in wanted:
            out[k] = float(x)
    return out


def counting(fn):
    """(wrapper, calls): ``fn`` behind a plain wrapper that counts its calls
    in the one-element list ``calls``, the shape of the benchmark's
    counting tracer; the wrapper carries no generated body."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    return counted, calls


def reference_compile(node):
    """Evaluator x -> float value of a parsed formula, as a tree of
    closures; the generated value function must match it bit for bit."""
    import math

    kind = node[0]
    if kind == "num":
        value = float(node[1])
        return lambda x: value
    if kind == "x":
        return lambda x: x
    if kind in ("sum", "prod"):
        head = reference_compile(node[1])
        tail = tuple((inverse, reference_compile(child)) for inverse, child in node[2])
        if kind == "sum":
            def chain(x):
                acc = head(x)
                for inverse, f in tail:
                    acc = acc - f(x) if inverse else acc + f(x)
                return acc
        else:
            def chain(x):
                acc = head(x)
                for inverse, f in tail:
                    acc = acc / f(x) if inverse else acc * f(x)
                return acc
        return chain
    inner = reference_compile(node[1])
    if kind == "neg":
        return lambda x: -inner(x)
    if kind == "pow":
        n = node[2]
        return lambda x: inner(x) ** n
    if kind == "log":
        return lambda x: math.log(inner(x))
    raise AssertionError(kind)


def reference_eval_d(node, x):
    """(value, derivative) of a parsed formula at x by a walk of the tree;
    the generated derivative function must match it bit for bit."""
    import math

    kind = node[0]
    if kind == "num":
        return float(node[1]), 0.0
    if kind == "x":
        return x, 1.0
    if kind in ("sum", "prod"):
        v, d = reference_eval_d(node[1], x)
        for inverse, child in node[2]:
            cv, cd = reference_eval_d(child, x)
            if kind == "sum":
                v, d = (v - cv, d - cd) if inverse else (v + cv, d + cd)
            elif inverse:
                v, d = v / cv, (d * cv - v * cd) / cv**2
            else:
                v, d = v * cv, d * cv + v * cd
        return v, d
    if kind == "neg":
        v, d = reference_eval_d(node[1], x)
        return -v, -d
    if kind == "pow":
        v, d = reference_eval_d(node[1], x)
        n = node[2]
        return v**n, (float(n) * v ** (n - 1) * d if n else 0.0)
    if kind == "log":
        v, d = reference_eval_d(node[1], x)
        return math.log(v), d / v
    raise AssertionError(kind)


def reference_horner(coeffs, power=0):
    """The Horner evaluator as first written, a loop over the coefficients;
    the generated straight-line evaluator must match it bit for bit."""
    rev = tuple(reversed(coeffs))

    def poly(x):
        acc = 0.0
        for c in rev:
            acc = acc * x + c
        return acc * x**power if power else acc

    return poly


def reference_contour_residue(f, radius, points=256):
    """The contour residue as first computed on numpy arrays (a mean of
    z / (z - f(z)) over the circle); the package's value must agree with it."""
    import numpy as np

    from germres.numerics import ContourError

    theta = 2.0 * np.pi * np.arange(points) / points
    z = radius * np.exp(1j * theta)
    with np.errstate(all="ignore"):
        w = np.array([zi - f(zi) for zi in z])
        if (np.abs(w) < 1e-12 * radius).any():
            raise ContourError("z - f(z) vanishes on or near the contour")
        return complex(np.mean(z / w))


def reference_fit(us, vs):
    """(slope, intercept, correlation, max_abs_ratio) of the divergence
    diagnostic's line fit as first computed on numpy (polyfit, allclose,
    corrcoef); the package's closed form must agree with it."""
    import numpy as np

    slope, intercept = np.polyfit(us, vs, 1)
    vv = np.asarray(vs)
    corr = 0.0 if np.allclose(vv, vv[0], atol=1e-12) else float(np.corrcoef(us, vs)[0, 1])
    return float(slope), float(intercept), corr, float(np.max(np.abs(vv)))
