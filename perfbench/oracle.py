"""Reference answers computed without germres.

Everything here works on dense coefficient lists indexed by degree
(``p[n]`` is the coefficient of x^n, ``p[0]`` is unused for germs) and on
plain ``Fraction`` arithmetic.  The algorithms are deliberately different
from the package's where a choice exists: the time-t map of a field is the
Lie series, the residue of a germ is the fixed-point index read off
1/(z - f(z)), and the residue of a field is read off 1/X.
"""

from __future__ import annotations

import math
from fractions import Fraction

HALF_ULP = 2.0 ** -53  # resolution of a double: an exact answer reads this


def dense(coeffs, K):
    """Coefficients a_1..a_k (degree-indexed from 1) as a list of length K+1."""
    out = [Fraction(0)] * (K + 1)
    for n, c in enumerate(coeffs[:K], start=1):
        out[n] = Fraction(c)
    return out


def field_dense(coeffs, K):
    """Field coefficients c_2..c_k as a list of length K+1."""
    out = [Fraction(0)] * (K + 1)
    for n, c in enumerate(coeffs[: K - 1], start=2):
        out[n] = Fraction(c)
    return out


def mul(a, b, K):
    out = [Fraction(0)] * (K + 1)
    for i, ai in enumerate(a[: K + 1]):
        if ai:
            for j, bj in enumerate(b[: K + 1 - i]):
                if bj:
                    out[i + j] += ai * bj
    return out


def compose(f, g, K):
    """f(g(x)) mod x^(K+1) as the sum of a_n g^n (powers built upward)."""
    out = [Fraction(0)] * (K + 1)
    power = [Fraction(1)] + [Fraction(0)] * K
    for n in range(1, K + 1):
        power = mul(power, g, K)
        if f[n]:
            for d in range(n, K + 1):
                out[d] += f[n] * power[d]
    return out


def reciprocal(a, K):
    """1/(a_0 + a_1 x + ...) mod x^(K+1); a_0 must be nonzero."""
    out = [Fraction(0)] * (K + 1)
    out[0] = 1 / Fraction(a[0])
    for m in range(1, K + 1):
        acc = sum((a[i] * out[m - i] for i in range(1, min(m, len(a) - 1) + 1)), Fraction(0))
        out[m] = -acc * out[0]
    return out


def derivative(p, K):
    return [(n + 1) * p[n + 1] if n + 1 <= K else Fraction(0) for n in range(K + 1)]


def identity(K):
    out = [Fraction(0)] * (K + 1)
    out[1] = Fraction(1)
    return out


def tangency(f):
    """Smallest ell with a_(ell+1) != 0 (f[1] must be 1)."""
    for n in range(2, len(f)):
        if f[n]:
            return n - 1
    raise ValueError("identity jet")


def fixed_point_index(f, ell):
    """Residue of dz/(z - f(z)) at 0, the coefficient of z^ell in
    -1/(a_(ell+1) + a_(ell+2) z + ...).  It equals the normal-form residue."""
    tail = f[ell + 1 : 2 * ell + 2]
    return -reciprocal(tail, ell)[ell]


def resit(f, ell):
    return Fraction(ell + 1, 2) - fixed_point_index(f, ell)


def resad(f, ell):
    return Fraction(ell + 1, 2) * f[ell + 1] ** 2 - f[2 * ell + 1]


def field_residue(X, ell):
    """mu of the field normal form: minus the residue of dx/X at 0."""
    return -reciprocal(X[ell + 1 : 2 * ell + 2], ell)[ell]


def closed_form_flow(f, ell, t):
    """Time-t element of the flow through an ell-tangent jet (order 2ell+1),
    in the closed form stated in PAPER.md."""
    K = 2 * ell + 1
    t = Fraction(t)
    out = identity(K)
    for n in range(ell + 1, 2 * ell + 1):
        out[n] = t * f[n]
    out[K] = Fraction(ell + 1, 2) * (t * f[ell + 1]) ** 2 - t * resad(f, ell)
    return out


def closed_form_generator(f, ell):
    """Generating field a_(ell+1) x^(ell+1) + ... - resad x^(2ell+1)."""
    K = 2 * ell + 1
    X = [Fraction(0)] * (K + 1)
    for n in range(ell + 1, 2 * ell + 1):
        X[n] = f[n]
    X[K] = -resad(f, ell)
    return X


def lie_series(X, t, K):
    """Time-t map of dx/dt = X as sum_k t^k/k! L_X^k(x), L_X g = X g'."""
    t = Fraction(t)
    out = identity(K)
    term = identity(K)
    for k in range(1, K + 1):
        term = mul(X, derivative(term, K), K)
        if not any(term):
            break
        scale = t**k / math.factorial(k)
        for d in range(K + 1):
            out[d] += scale * term[d]
    return out


def pullback(h, X, K):
    """(X o h) / Dh mod x^(K+1)."""
    return mul(compose(X, h, K), reciprocal(derivative(h, K), K), K)


def rel_error(value, reference):
    """Relative error of a float answer, floored at the resolution of a double."""
    if not math.isfinite(value):
        return math.inf
    return max(abs(value - reference) / abs(reference), HALF_ULP)


# -- sympy cross-checks at low order ------------------------------------------


def sympy_compose_matches(f, g, result, K):
    """f(g(x)) truncated at x^K, expanded by sympy, equals ``result``."""
    import sympy

    x = sympy.Symbol("x")

    def poly(p):
        return sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * x**n for n, c in enumerate(p)), x, domain="QQ")

    full = poly(f).compose(poly(g))
    want = [full.coeff_monomial(x**n) for n in range(K + 1)]
    return all(sympy.Rational(r.numerator, r.denominator) == w for r, w in zip(result, want))
