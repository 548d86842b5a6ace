"""Reduction of germ and field jets to normal form; extraction of residues.

A parabolic jet that is exactly ell-tangent to the identity,

    f = x + a x^{ell+1} + ... ,   a = a_{ell+1} != 0,

can be conjugated by polynomial germs x + alpha x^j (j = 2..ell, ascending)
so that the coefficients a_{ell+2}, ..., a_{2ell} vanish.  The leading
coefficient is deliberately left alone: normalizing it to +-1 requires an
ell-th root, which usually leaves the rationals.  The residue is the
scale-invariant ratio

    res = a'_{2ell+1} / a_{ell+1}^2

(primes denote coefficients after the intermediate kills), which agrees
with the x^{2ell+1}-coefficient of the classical normal form
x +- x^{ell+1} + mu x^{2ell+1} whenever the normalization is possible.
The iterative residue is resit = (ell+1)/2 - res.

res equals the holomorphic fixed-point index Res_0 dx/(x - f(x)), a
conjugacy invariant, and is computed from it without any kill step:

    res = -[x^ell] 1/(a_{ell+1} + a_{ell+2} x + ... + a_{2ell+1} x^ell),

one reciprocal of ell+1 coefficients (``residue_report``).  For a field
jet, mu = -Res_0 dx/X is the same formula on c_{ell+1}..c_{2ell+1}.
``reduce_germ`` and ``reduce_field`` run the kill staircase (germs by
conjugations, fields by pullbacks) only to build the reduction trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .jets import (
    RATIONAL,
    CarrierMismatch,
    FieldJet,
    Jet,
    OrderError,
    _recip,
    compose,
    conjugate,
    pullback_field,
)
from .residues import TangencyClass, TangencyError, resad


@dataclass(frozen=True)
class ResidueReport:
    """Residue data of an exactly ell-tangent parabolic jet.

    ``resad`` is the additive residue of the *input* jet (it is a
    homomorphism, not a conjugacy invariant, so it differs from the
    additive residue of the reduced jet in general).  ``expanding`` is the
    sign of the leading coefficient.
    """

    ell: int
    leading: Fraction
    res: Fraction
    resit: Fraction
    resad: Fraction
    expanding: bool


@dataclass(frozen=True)
class ReductionTrace:
    """Conjugator (composition of all kill steps), the reduced jet, and the
    (degree, alpha) pair of each step."""

    conjugator: Jet
    reduced: object  # Jet or FieldJet
    steps: tuple


def tangency_order(f: Jet) -> TangencyClass:
    """Smallest ell with a_{ell+1} != 0; exact=False if f is the identity
    to its full order (then ell is the order, a flatness marker)."""
    if not f.is_parabolic():
        raise TangencyError(f"not parabolic: a_1 = {f[1]}")
    for n in range(2, f.order + 1):
        if f[n] != 0:
            return TangencyClass(ell=n - 1, exact=True)
    return TangencyClass(ell=f.order, exact=False)


def _index_residue(s, ell):
    """-[x^ell] 1/(s_{ell+1} + s_{ell+2} x + ... + s_{2ell+1} x^ell) for the
    coefficients s_n of a series: res of a germ jet, mu of a field jet."""
    return -_recip(s.dense(2 * ell + 1)[ell + 1 :], ell)[ell]


def residue_report(f: Jet) -> ResidueReport:
    """The :class:`ResidueReport` of f, with res read from the fixed-point
    index.  Needs the rational carrier, exact tangency and order >= 2*ell + 1."""
    if f.carrier != RATIONAL:
        raise CarrierMismatch("residue_report needs the rational carrier")
    tc = tangency_order(f)
    if not tc.exact:
        raise TangencyError("jet is the identity at this order; no exact tangency")
    ell = tc.ell
    if f.order < 2 * ell + 1:
        raise OrderError(f"order {f.order} < {2 * ell + 1}")
    res = _index_residue(f, ell)
    return ResidueReport(
        ell=ell,
        leading=f[ell + 1],
        res=res,
        resit=Fraction(ell + 1, 2) - res,
        resad=resad(f, ell),
        expanding=f[ell + 1] > 0,
    )


def _kill_alpha_germ(g: Jet, ell: int, j: int) -> Fraction:
    # conjugating by x + alpha x^j sends a_{ell+j} to a_{ell+j} - (ell-j+1) * alpha * a_{ell+1};
    # the linear coefficient (ell-j+1) * a_{ell+1} is nonzero for 2 <= j <= ell.
    return g[ell + j] / ((ell - j + 1) * g[ell + 1])


def reduce_germ(f: Jet):
    """Kill a_{ell+2}..a_{2ell} by ascending conjugations; return the trace
    and the :class:`ResidueReport` of :func:`residue_report`."""
    report = residue_report(f)
    ell = report.ell
    K = f.order

    g = f
    conj = Jet.identity(K)
    steps = []
    for j in range(2, ell + 1):
        alpha = _kill_alpha_germ(g, ell, j)
        h = Jet((1,) + (0,) * (j - 2) + (alpha,) + (0,) * (K - j))
        g = conjugate(h, g)
        conj = compose(h, conj)
        steps.append((j, alpha))
    return ReductionTrace(conjugator=conj, reduced=g, steps=tuple(steps)), report


def reduce_field(X: FieldJet):
    """Kill c_{ell+2}..c_{2ell} of an exactly ell-flat field jet by
    pullbacks along x + alpha x^{s+1}; return the trace and the
    scale-invariant mu = c'_{2ell+1} / c_{ell+1}^2, read from -Res_0 dx/X."""
    if X.carrier != RATIONAL:
        raise CarrierMismatch("reduce_field needs the rational carrier")
    m = X.leading_index
    if m is None:
        raise TangencyError("zero field jet has no flatness order")
    ell = m - 1
    K = X.order
    if K < 2 * ell + 1:
        raise OrderError(f"order {K} < {2 * ell + 1}")

    Y = X
    conj = Jet.identity(K)
    steps = []
    for s in range(1, ell):
        # pullback by x + a x^{s+1} sends c_{ell+s+1} to c_{ell+s+1} + (ell-s) * a * c_{ell+1}
        alpha = -Y[ell + s + 1] / ((ell - s) * Y[ell + 1])
        h = Jet((1,) + (0,) * (s - 1) + (alpha,) + (0,) * (K - s - 1))
        Y = pullback_field(h, Y)
        conj = compose(conj, h)
        steps.append((s + 1, alpha))
    mu = _index_residue(X, ell)
    return ReductionTrace(conjugator=conj, reduced=Y, steps=tuple(steps)), mu
