"""Flows in truncated composition groups and the germ/field correspondence.

One formal log/exp pair carries the whole module.  For a field jet X of
order K, the time-t map of dx/dt = X(x) is the Lie series

    exp(t X) = sum_k t^k/k! L_X^k(x),    L_X g = X * g',

and for a parabolic germ f the generator is the formal log

    log f = sum_k (-1)^(k+1)/k (T_f - I)^k(x),    T_f g = g o f,

which ``_formal_log`` takes at any order K; ``germ_to_field`` takes it at
K = 2*ell+1 for an exactly ell-tangent f.  Both series are finite: L_X and
T_f - I raise the order of a series by at least 1 and by ell respectively,
so the sums stop after at most K-1 and (K-1)/ell terms.  Both run on the
integer kernel of ``jets``: each term and the running sum are integer
numerators over one common denominator, the term's content is stripped
with one ``math.gcd`` per step, T_f is the kernel's scaled Horner loop,
and each series becomes Fractions once, at the end.  ``flow_in_G`` is
exp(t log f); it agrees with the closed-form flow stated in the README.
``power`` is square-and-multiply over ``compose`` rather than
exp(n log f), so it also takes integer-carrier jets and jets with
a_1 != 1, which have no formal log.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import lcm

from .jets import (
    RATIONAL,
    CarrierMismatch,
    FieldJet,
    Jet,
    OrderError,
    _conv,
    _reduced,
    _refuse_unprintable,
    _scaled,
    _subst_scaled,
    _unscaled,
    compose,
    invert,
    read_rational,
)
from .residues import TangencyError
from .normal_form import tangency_order


class CoercionError(TypeError):
    """A parameter that must be exact was given in an inexact form."""


def _as_fraction(t):
    if isinstance(t, bool):
        raise CoercionError("booleans are not times")
    if isinstance(t, str):
        return read_rational(t)
    if isinstance(t, (int, Fraction)):
        return Fraction(t)
    raise CoercionError(f"time must be exact (int, Fraction or 'p/q'), got {t!r}")


def flow_in_G(f: Jet, t) -> Jet:
    """Time-t element of the flow through f in the order-(2*ell+1) group.

    f must be rational-carrier and exactly ell-tangent with order >= 2*ell+1;
    anything longer is truncated to 2*ell+1 first.
    """
    if f.carrier != RATIONAL:
        raise CarrierMismatch("flow_in_G needs the rational carrier")
    t = _as_fraction(t)
    return field_to_germ(germ_to_field(f), t)


def power(f: Jet, n: int) -> Jet:
    """n-fold composition power (inverse iterates for n < 0)."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError("power exponent must be an integer")
    base = f if n >= 0 else invert(f)
    out = Jet.identity(f.order, f.carrier)
    what = f"power {n}"
    n = abs(n)
    while n:
        if n & 1:
            out = compose(out, base)
        n >>= 1
        if n:
            base = compose(base, base)
        _refuse_unprintable(base.coeffs + out.coeffs, what)
    return out


def germ_to_field(f: Jet) -> FieldJet:
    """Generator of the flow through f: the field jet whose formal time-1
    map is f truncated at order 2*ell+1."""
    if f.carrier != RATIONAL:
        raise CarrierMismatch("germ_to_field needs the rational carrier")
    tc = tangency_order(f)
    if not tc.exact:
        raise TangencyError("germ must be exactly tangent at some order")
    K = 2 * tc.ell + 1
    if f.order < K:
        raise OrderError(f"order {f.order} < {K}")
    return _formal_log(f, K)


def _formal_log(f: Jet, K: int) -> FieldJet:
    """Order-K formal log of a rational parabolic jet f of order >= K: the
    field jet sum_k (-1)^(k+1)/k (T_f - I)^k(x) mod x^(K+1)."""
    if not f.is_parabolic():
        raise TangencyError(f"not parabolic: a_1 = {f[1]}")
    F, df, _ = _scaled(f.dense(K))
    T, dt = [0, 1] + [0] * (K - 1), 1  # term T / dt, starting at x
    X, dX = [0] * (K + 1), 1  # running sum X / dX
    for k in count(1):
        R, dr = _subst_scaled(T, dt, F, df, K)  # T_f term
        den = lcm(dr, dt)
        T, dt = _reduced([a * (den // dr) - b * (den // dt) for a, b in zip(R, T)], den)
        if not any(T):
            break
        den = lcm(dX, k * dt)  # X += (-1)^(k+1)/k term
        up, step = den // dX, (den // (k * dt)) * (-1) ** (k + 1)
        X, dX = [a * up + b * step for a, b in zip(X, T)], den
    return FieldJet.from_dense(_unscaled(X, dX, False))


def field_to_germ(X: FieldJet, t) -> Jet:
    """Formal time-t map of dx/dt = X(x), truncated at the order of X.

    X must have no linear part (guaranteed by the FieldJet shape) and is
    typically (ell+1)-flat of order 2*ell+1, in which case
    ``field_to_germ(germ_to_field(f), 1) == f.truncate(2*ell+1)``.
    """
    if X.carrier != RATIONAL:
        raise CarrierMismatch("field_to_germ needs the rational carrier")
    t = _as_fraction(t)
    K = X.order
    V, dv, _ = _scaled(X.dense(K))
    T, dt = [0, 1] + [0] * (K - 1), 1  # term T / dt, starting at x
    out, dout = T, 1  # running sum out / dout
    for k in count(1):
        # t/k L_X term = t/k X term'
        product = _conv(V, [n * T[n] for n in range(1, K + 1)], K)
        T, dt = _reduced([t.numerator * c for c in product], dt * dv * t.denominator * k)
        if not any(T):
            break
        den = lcm(dout, dt)
        up, step = den // dout, den // dt
        out, dout = [a * up + b * step for a, b in zip(out, T)], den
    return Jet.from_dense(_unscaled(out, dout, False))


def ramified_push(f: Jet, ell: int) -> Jet:
    """Transport of a reduced jet x + a x^{ell+1} + b x^{2ell+1} along the
    ramified cover x -> x^ell; returns the order-3 jet

        x + ell*a x^2 + [ ell*b + ell*(ell-1)/2 * a^2 ] x^3,

    which converts order-ell tangency data into order-1 data
    (additive residues scale by ell, iterative residues by 1/ell).
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    K = 2 * ell + 1
    if f.order < K:
        raise OrderError(f"order {f.order} < {K}")
    f = f.truncate(K)
    if not f.is_parabolic():
        raise TangencyError(f"not parabolic: a_1 = {f[1]}")
    for n in range(2, K):
        if n != ell + 1 and f[n] != 0:
            raise TangencyError(f"jet not in reduced shape: a_{n} = {f[n]} != 0")
    a, b = f[ell + 1], f[2 * ell + 1]
    half_binom = (ell * (ell - 1)) // 2
    return Jet((f[1], ell * a, ell * b + half_binom * a**2), f.carrier)
