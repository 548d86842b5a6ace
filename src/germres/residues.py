"""Coefficient homomorphisms on subgroups of tangent-to-identity jets.

On the group of parabolic jets that are ell-tangent to the identity
(a_1 = 1, a_2 = ... = a_ell = 0), the single-coefficient maps

    phi(f, ell, i) = a_{ell+i},        1 <= i <= ell,

and the additive residue

    resad(f, ell) = (ell+1)/2 * a_{ell+1}^2 - a_{2ell+1}

are group homomorphisms into the coefficient field under composition.
``resad_bar`` is the division-free variant (ell+1)*a_{ell+1}^2 - 2*a_{2ell+1}
usable over the integers.  Over integer parabolic jets there are exactly
two further homomorphisms into Z/2 beyond the mod-2 reductions of the
coefficient maps, exposed as ``mod2_homs``.

``schwarzian_higher`` packages the same data as a derivative expression
that satisfies a multiplicative cocycle law at the origin even when
a_1 != 1; for parabolic jets it equals (2ell+1)! * resad.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .jets import INTEGER, RATIONAL, CarrierMismatch, Jet, OrderError


class TangencyError(ValueError):
    """The jet does not have the tangency order an operation requires."""


@dataclass(frozen=True)
class TangencyClass:
    """Order of contact with the identity.

    ``exact`` means a_{ell+1} != 0 is certified at the jet's order; a jet
    that is the identity to its full order gets ``exact=False`` with
    ``ell`` equal to the order (flat-at-this-order marker).
    """

    ell: int
    exact: bool


def _require_tangent(f: Jet, ell: int):
    if ell < 1:
        raise TangencyError("tangency order must be >= 1")
    if not f.is_parabolic():
        raise TangencyError(f"not parabolic: a_1 = {f[1]}")
    for n in range(2, min(ell, f.order) + 1):
        if f[n] != 0:
            raise TangencyError(f"not {ell}-tangent: a_{n} = {f[n]} != 0")
    if f.order < ell:
        raise OrderError(f"order {f.order} cannot certify {ell}-tangency")


def phi(f: Jet, ell: int, i: int):
    """Coefficient homomorphism a_{ell+i} on ell-tangent jets (1 <= i <= ell)."""
    _require_tangent(f, ell)
    if not 1 <= i <= ell:
        raise ValueError(f"need 1 <= i <= ell, got i={i}, ell={ell}")
    if f.order < ell + i:
        raise OrderError(f"order {f.order} < {ell + i}")
    return f[ell + i]


def resad(f: Jet, ell: int):
    """Additive residue (ell+1)/2 * a_{ell+1}^2 - a_{2ell+1} (rational carrier).

    Integer-carrier jets must use :func:`resad_bar` instead; the division
    by 2 is refused rather than coerced.
    """
    if f.carrier != RATIONAL:
        raise CarrierMismatch("resad divides by 2; use resad_bar over the integers")
    return Fraction(resad_bar(f, ell), 2)


def resad_bar(f: Jet, ell: int):
    """Division-free additive residue (ell+1)*a_{ell+1}^2 - 2*a_{2ell+1}.

    Works over both carriers; equals 2*resad on rationals.
    """
    _require_tangent(f, ell)
    if f.order < 2 * ell + 1:
        raise OrderError(f"order {f.order} < {2 * ell + 1}")
    return (ell + 1) * f[ell + 1] ** 2 - 2 * f[2 * ell + 1]


def mod2_homs(f: Jet):
    """The two Z/2 homomorphisms on integer parabolic jets, beyond the
    mod-2 reductions of the coefficient maps:

        ( a3(1+a3)/2 + a4 + a5 ,  a3*a5 + a5 + a7 )   (mod 2).

    Additivity under composition is exact (a brute-force nullspace search
    over integer jets shows these two generate all such maps).  The second
    map reads a7, so jets shorter than 7 are refused rather than padded.
    """
    if f.carrier != INTEGER:
        raise CarrierMismatch("mod2_homs is defined over the integer carrier")
    if not f.is_parabolic():
        raise TangencyError(f"not parabolic: a_1 = {f[1]}")
    if f.order < 7:
        raise OrderError(f"order {f.order} < 7")
    a3, a4, a5, a7 = f[3], f[4], f[5], f[7]
    first = (a3 * (1 + a3)) // 2 + a4 + a5
    second = a3 * a5 + a5 + a7
    return first % 2, second % 2


def schwarzian_higher(f: Jet, ell: int):
    """Order-(ell+1) Schwarzian value at the origin, with the a_1-weighting
    that makes ``S(f o g) = S(g) + S(f) * Dg(0)^(2*ell)`` hold on jets whose
    coefficients a_2..a_ell vanish (a_1 arbitrary invertible).

    Equals ``(2ell+1)! * resad(f, ell)`` for parabolic jets.
    """
    if f.carrier != RATIONAL:
        raise CarrierMismatch("schwarzian_higher needs the rational carrier")
    if ell < 1:
        raise TangencyError("tangency order must be >= 1")
    a1 = f[1]
    for n in range(2, min(ell, f.order) + 1):
        if f[n] != 0:
            raise TangencyError(f"a_{n} = {f[n]} != 0")
    if f.order < 2 * ell + 1:
        raise OrderError(f"order {f.order} < {2 * ell + 1}")
    s = Fraction(ell + 1, 2) * f[ell + 1] ** 2 / a1**2 - f[2 * ell + 1] / a1
    return factorial(2 * ell + 1) * s


def schwarzian_at_origin(f: Jet):
    """Classical Schwarzian value at 0, in the sign convention under which
    it equals 6*(a2^2 - a3) for parabolic jets (the negative of the other
    common convention).
    """
    return schwarzian_higher(f, 1)
