"""Exact truncated composition algebra for 1-D germs and vector fields.

A germ jet stores the coefficients a_1..a_k of x |-> sum_n a_n x^n with a_1
invertible; the group law is polynomial substitution with every term above
x^k discarded.  A field jet stores the coefficients c_2..c_k of a vector
field sum_n c_n x^n d/dx that is flat to at least first order at 0.

Two coefficient carriers are supported:

* ``rational`` -- exact rationals (`fractions.Fraction`); the default.
* ``integer``  -- plain integers; any operation that would need a genuine
  division (beyond multiplying by a unit +-1) raises instead of coercing.

Floats are rejected everywhere: this module is the exact side of the
library.  All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import json

RATIONAL = "rational"
INTEGER = "integer"


class CarrierMismatch(TypeError):
    """Operands live over different coefficient carriers."""


class NotInvertible(ValueError):
    """The linear coefficient is not a unit in the carrier."""


class OrderError(ValueError):
    """The jet is too short (or mis-sized) for the requested operation."""


class CoefficientError(ValueError):
    """A coefficient cannot be represented exactly in the carrier."""


def _as_scalar(value, carrier):
    if isinstance(value, bool):
        raise CoefficientError("booleans are not coefficients")
    if carrier == INTEGER:
        if isinstance(value, int):
            return value
        if isinstance(value, Fraction) and value.denominator == 1:
            return int(value)
        raise CoefficientError(f"not an integer coefficient: {value!r}")
    if carrier == RATIONAL:
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, str):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise CoefficientError(f"bad rational literal {value!r}") from exc
        raise CoefficientError(
            f"not an exact rational coefficient: {value!r} (floats are refused)"
        )
    raise CoefficientError(f"unknown carrier {carrier!r}")


def _same_carrier(a, b):
    if a.carrier != b.carrier:
        raise CarrierMismatch(f"carrier mismatch: {a.carrier} vs {b.carrier}")


@dataclass(frozen=True)
class Jet:
    """Truncated series x + ... of an invertible germ, coefficients a_1..a_k."""

    coeffs: tuple
    carrier: str = RATIONAL

    def __post_init__(self):
        coeffs = tuple(_as_scalar(c, self.carrier) for c in self.coeffs)
        if not coeffs:
            raise OrderError("a jet needs at least the linear coefficient")
        object.__setattr__(self, "coeffs", coeffs)
        a1 = coeffs[0]
        if self.carrier == INTEGER and a1 not in (1, -1):
            raise NotInvertible(f"a_1 = {a1} is not a unit over the integers")
        if a1 == 0:
            raise NotInvertible("a_1 = 0 is not invertible")

    @classmethod
    def of(cls, *coeffs, carrier=RATIONAL):
        return cls(tuple(coeffs), carrier)

    @classmethod
    def identity(cls, order, carrier=RATIONAL):
        one = 1 if carrier == INTEGER else Fraction(1)
        zero = 0 if carrier == INTEGER else Fraction(0)
        return cls((one,) + (zero,) * (order - 1), carrier)

    @property
    def order(self):
        return len(self.coeffs)

    def __getitem__(self, n):
        """Coefficient a_n, degree-indexed (1 <= n <= order)."""
        if not 1 <= n <= self.order:
            raise OrderError(f"no coefficient of degree {n} in a jet of order {self.order}")
        return self.coeffs[n - 1]

    def truncate(self, k):
        if not 1 <= k <= self.order:
            raise OrderError(f"cannot truncate order {self.order} to {k}")
        return Jet(self.coeffs[:k], self.carrier)

    def pad(self, k):
        """Extend with zero coefficients (claims the germ is an exact polynomial)."""
        if k < self.order:
            raise OrderError("pad target below current order")
        return Jet(self.coeffs + (0,) * (k - self.order), self.carrier)

    def is_parabolic(self):
        return self[1] == 1

    def is_tangent(self, ell):
        """True when a_1 = 1 and a_2 = ... = a_ell = 0 (certifiable at this order)."""
        if ell < 1:
            raise ValueError("tangency order must be >= 1")
        if self.order < ell and ell > 1:
            raise OrderError(f"order {self.order} cannot certify {ell}-tangency")
        return self.is_parabolic() and all(self[n] == 0 for n in range(2, ell + 1))

    def is_identity(self):
        return self.is_parabolic() and all(c == 0 for c in self.coeffs[1:])

    def __str__(self):
        terms = []
        for n, c in enumerate(self.coeffs, start=1):
            if c == 0:
                continue
            terms.append(f"{c}*x^{n}" if n > 1 else f"{c}*x")
        return " + ".join(terms) if terms else "0"


@dataclass(frozen=True)
class FieldJet:
    """Truncated vector field sum c_n x^n d/dx, coefficients c_2..c_k."""

    coeffs: tuple
    carrier: str = RATIONAL

    def __post_init__(self):
        coeffs = tuple(_as_scalar(c, self.carrier) for c in self.coeffs)
        if not coeffs:
            raise OrderError("a field jet needs at least the degree-2 coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def of(cls, *coeffs, carrier=RATIONAL):
        return cls(tuple(coeffs), carrier)

    @classmethod
    def zero(cls, order, carrier=RATIONAL):
        return cls((0,) * (order - 1), carrier)

    @property
    def order(self):
        return len(self.coeffs) + 1

    def __getitem__(self, n):
        """Coefficient c_n, degree-indexed (2 <= n <= order)."""
        if not 2 <= n <= self.order:
            raise OrderError(f"no coefficient of degree {n} in a field jet of order {self.order}")
        return self.coeffs[n - 2]

    @property
    def leading_index(self):
        """Smallest n with c_n != 0, or None for the zero field."""
        for n in range(2, self.order + 1):
            if self[n] != 0:
                return n
        return None

    def is_zero(self):
        return self.leading_index is None

    def truncate(self, k):
        if not 2 <= k <= self.order:
            raise OrderError(f"cannot truncate field order {self.order} to {k}")
        return FieldJet(self.coeffs[: k - 1], self.carrier)

    def pad(self, k):
        if k < self.order:
            raise OrderError("pad target below current order")
        return FieldJet(self.coeffs + (0,) * (k - self.order), self.carrier)

    def __str__(self):
        terms = [f"{c}*x^{n}" for n, c in enumerate(self.coeffs, start=2) if c != 0]
        return (" + ".join(terms) if terms else "0") + " d/dx"


# -- dense polynomial helpers (lists indexed by degree 0..K) ----------------

def _mul(a, b, K):
    out = [0] * (K + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        top = min(K - i, len(b) - 1)
        for j in range(top + 1):
            bj = b[j]
            if bj != 0:
                out[i + j] += ai * bj
    return out


def _dense(jet, K):
    out = [0] * (K + 1)
    for n in range(1, min(jet.order, K) + 1):
        out[n] = jet[n]
    return out


def _subst(p, g, K):
    """p(g(x)) mod x^(K+1) by Horner, for dense p and dense g with g[0] = 0."""
    top = min(len(p) - 1, K)
    r = [0] * (K + 1)
    r[0] = p[top]
    for n in range(top - 1, -1, -1):
        r = _mul(r, g, K)
        r[0] += p[n]
    return r


def compose(f: Jet, g: Jet) -> Jet:
    """Substitution f(g(x)) truncated at min(order(f), order(g))."""
    _same_carrier(f, g)
    K = min(f.order, g.order)
    r = _subst(_dense(f, K), _dense(g, K), K)
    return Jet(tuple(r[1 : K + 1]), f.carrier)


def invert(f: Jet) -> Jet:
    """Compositional inverse at the same order; integer carrier needs a_1 = +-1."""
    a1 = f[1]
    if f.carrier == INTEGER:
        inv_a1 = a1  # a1 in {1,-1}, its own inverse
    else:
        inv_a1 = 1 / a1
    K = f.order
    b = [0] * (K + 1)
    b[1] = inv_a1
    for n in range(2, K + 1):
        partial = Jet(tuple(b[1:n]) + (0,) * (K - n + 1), f.carrier)
        excess = compose(f, partial)[n]
        b[n] = -excess * inv_a1
    return Jet(tuple(b[1 : K + 1]), f.carrier)


def conjugate(h: Jet, f: Jet) -> Jet:
    """h o f o h^{-1} at the common order."""
    return compose(h, compose(f, invert(h)))


def pullback_field(h: Jet, X: FieldJet) -> FieldJet:
    """Transport of X by h: returns (X o h) / Dh at min order.

    Direction convention: the flow of the returned field is
    h^{-1} o (flow of X) o h, i.e. time-1 maps satisfy
    ``field_to_germ(pullback_field(h, X), 1) == conjugate(invert(h), field_to_germ(X, 1))``
    at jet level.  Pad ``h`` with zeros first when it stands for an exact
    polynomial germ shorter than ``X``.
    """
    _same_carrier(h, X)
    K = min(h.order, X.order)
    if K < 2:
        raise OrderError("field pullback needs order >= 2")
    Xt = X.truncate(K)
    if Xt.is_zero():
        return FieldJet.zero(K, X.carrier)
    r = _subst((0, 0) + Xt.coeffs, _dense(h, K), K)  # X(h(x))

    # 1/Dh as a truncated series; d0 = a_1 is a unit in the carrier
    d = [0] * (K + 1)
    for n in range(1, K + 1):
        d[n - 1] = n * h[n] if n <= h.order else 0
    d0 = d[0]
    inv_d0 = d0 if X.carrier == INTEGER else 1 / d0
    recip = [0] * (K + 1)
    recip[0] = inv_d0
    for m in range(1, K + 1):
        acc = 0
        for i in range(1, m + 1):
            if d[i] != 0 and recip[m - i] != 0:
                acc += d[i] * recip[m - i]
        recip[m] = -inv_d0 * acc

    y = _mul(r, recip, K)
    if y[1] != 0:
        raise OrderError("pullback produced a linear term; input field was not flat")
    return FieldJet(tuple(y[2 : K + 1]), X.carrier)


# -- serialization -----------------------------------------------------------

def _coeff_str(c):
    return str(c)


def jet_to_dict(f: Jet) -> dict:
    doc = {"order": f.order, "coeffs": [_coeff_str(c) for c in f.coeffs]}
    if f.carrier == INTEGER:
        doc["carrier"] = INTEGER
    return doc


def jet_from_dict(doc: dict) -> Jet:
    try:
        order = doc["order"]
        raw = doc["coeffs"]
    except (TypeError, KeyError) as exc:
        raise CoefficientError("jet JSON needs 'order' and 'coeffs'") from exc
    carrier = doc.get("carrier", RATIONAL)
    if len(raw) != order:
        raise OrderError(f"coeffs length {len(raw)} != order {order}")
    if carrier == INTEGER:
        coeffs = tuple(int(s) for s in raw)
    else:
        coeffs = tuple(_as_scalar(s, RATIONAL) for s in raw)
    return Jet(coeffs, carrier)


def jet_to_json(f: Jet) -> str:
    return json.dumps(jet_to_dict(f), sort_keys=True)


def jet_from_json(text: str) -> Jet:
    return jet_from_dict(json.loads(text))


def field_to_dict(X: FieldJet) -> dict:
    doc = {"kind": "field", "order": X.order, "coeffs": [_coeff_str(c) for c in X.coeffs]}
    if X.carrier == INTEGER:
        doc["carrier"] = INTEGER
    return doc


def field_from_dict(doc: dict) -> FieldJet:
    order = doc["order"]
    raw = doc["coeffs"]
    carrier = doc.get("carrier", RATIONAL)
    if len(raw) != order - 1:
        raise OrderError(f"field coeffs length {len(raw)} != order-1 = {order - 1}")
    if carrier == INTEGER:
        coeffs = tuple(int(s) for s in raw)
    else:
        coeffs = tuple(_as_scalar(s, RATIONAL) for s in raw)
    return FieldJet(coeffs, carrier)


def field_to_json(X: FieldJet) -> str:
    return json.dumps(field_to_dict(X), sort_keys=True)


def field_from_json(text: str) -> FieldJet:
    return field_from_dict(json.loads(text))
