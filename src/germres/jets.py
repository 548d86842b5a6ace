"""Exact truncated composition algebra for 1-D germs and vector fields.

Germ and field jets are one series type with a lowest degree fixed by the
class.  A germ jet stores a_1..a_k of x |-> sum_n a_n x^n with a_1
invertible; the group law is polynomial substitution with every term above
x^k discarded.  A field jet stores c_2..c_k of a vector field
sum_n c_n x^n d/dx, flat to at least first order at 0.  Both are indexed
by degree; ``dense(K)`` lists the coefficients of x^0..x^K and
``from_dense`` inverts it.  One JSON writer and one reader serve both; the
writer refuses a coefficient past the int-to-str digit limit with
CoefficientError, as ``power`` does, rather than let ``str`` fail.

Two coefficient carriers are supported:

* ``rational`` -- exact rationals (`fractions.Fraction`); the default.
* ``integer``  -- plain integers; any operation that would need a genuine
  division (beyond multiplying by a unit +-1) raises instead of coercing.

Floats are rejected everywhere: this module is the exact side of the
library.  All values are immutable; every operation is a pure function.
Text literals go through ``read_rational``, which refuses one whose
integers would pass the interpreter's int-to-str digit limit before
building them.

Every operation runs on one dense-series kernel: ``_mul`` (product),
``_subst`` (Horner substitution p(g)) and ``_recip`` (reciprocal series),
each truncated at degree K.  The kernel rescales its inputs once to
integer numerators over a common denominator (``math.lcm``), multiplies
plain ints, strips the common content with one ``math.gcd`` per Horner
step, and returns normalized Fractions, or ints on the integer carrier.
The Horner loop itself is ``_subst_scaled``, which takes and returns
integer numerators over a common denominator; ``_subst`` wraps it for
``compose`` and ``pullback_field``, and the series of ``flows`` call it
directly, so all of them share one loop.  ``compose`` is ``_subst``;
``invert`` is Lagrange inversion, b_n = [x^(n-1)] (x/f)^n / n, with x/f
from ``_recip`` and its powers taken over the integers, so it costs
O(K^3) multiplications against O(K^4) for solving one coefficient at a
time; ``pullback_field`` multiplies X(h) by ``_recip(Dh)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import json
from math import gcd, lcm, log10
import sys

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


def _int_digit_limit():
    """The interpreter's int-to-str digit limit (4300 where it has none)."""
    return getattr(sys, "get_int_max_str_digits", int)() or 4300


def _unprintable(what):
    """The CoefficientError for a coefficient past the int-to-str digit limit."""
    return CoefficientError(f"{what}: a coefficient passes {_int_digit_limit()} digits, the most an integer may print")


def _refuse_unprintable(coeffs, what):
    """CoefficientError once a coefficient passes the int-to-str digit limit:
    it cannot be printed, and squaring it on would only take longer."""
    max_bits = int(_int_digit_limit() / log10(2)) + 1
    for c in coeffs:
        if max(abs(c.numerator), c.denominator).bit_length() > max_bits:
            raise _unprintable(what)


def read_rational(text: str) -> Fraction:
    """``Fraction(text)`` for a literal such as "-3/4", "1.5" or "2e-3".

    A literal whose integers would pass the int-to-str digit limit raises
    CoefficientError before any of them is built: such a value can never
    be printed, and ``Fraction("1e10000000")`` alone takes seconds to
    build its power of ten.
    """
    limit = _int_digit_limit()
    mantissa, _, exponent = text.lower().partition("e")
    digits = max(sum(ch.isdecimal() for ch in part) for part in mantissa.split("/"))
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if exponent.isdecimal():
        digits += int(exponent) if len(exponent) <= len(str(limit)) else limit + 1
    if digits > limit:
        raise CoefficientError(f"rational literal passes {limit} digits: {text[:40]!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CoefficientError(f"bad rational literal {text!r}") from exc


def _as_scalar(value, carrier):
    if type(value) is Fraction and carrier == RATIONAL:
        return value  # immutable: kernel results are kept, not copied
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
            return read_rational(value)
        raise CoefficientError(
            f"not an exact rational coefficient: {value!r} (floats are refused)"
        )
    raise CoefficientError(f"unknown carrier {carrier!r}")


def _same_carrier(a, b):
    if a.carrier != b.carrier:
        raise CarrierMismatch(f"carrier mismatch: {a.carrier} vs {b.carrier}")


@dataclass(frozen=True)
class _Series:
    """Truncated series sum_n c_n x^n, n = lowest..order, over a carrier;
    ``coeffs`` holds c_lowest.. and each subclass fixes ``lowest``."""

    coeffs: tuple
    carrier: str = RATIONAL

    def __post_init__(self):
        coeffs = tuple(_as_scalar(c, self.carrier) for c in self.coeffs)
        if not coeffs:
            raise OrderError(self._empty)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def of(cls, *coeffs, carrier=RATIONAL):
        return cls(tuple(coeffs), carrier)

    @classmethod
    def from_dense(cls, dense, carrier=RATIONAL):
        """The series with coefficients dense[lowest..]: inverts ``dense``."""
        return cls(tuple(dense[cls.lowest :]), carrier)

    def dense(self, K):
        """Coefficients of x^0..x^K, zero below ``lowest`` and past the order."""
        return ([0] * self.lowest + list(self.coeffs) + [0] * K)[: K + 1]

    @property
    def order(self):
        return len(self.coeffs) + self.lowest - 1

    def __getitem__(self, n):
        """Coefficient of x^n, degree-indexed (lowest <= n <= order)."""
        if not self.lowest <= n <= self.order:
            raise OrderError(f"no coefficient of degree {n} in a {self._kind}jet of order {self.order}")
        return self.coeffs[n - self.lowest]

    def truncate(self, k):
        if not self.lowest <= k <= self.order:
            raise OrderError(f"cannot truncate {self._kind}order {self.order} to {k}")
        return type(self)(self.coeffs[: k - self.lowest + 1], self.carrier)

    def pad(self, k):
        """Extend with zero coefficients (claims the series is an exact polynomial)."""
        if k < self.order:
            raise OrderError("pad target below current order")
        return type(self)(self.coeffs + (0,) * (k - self.order), self.carrier)

    def __str__(self):
        terms = [f"{c}*x^{n}" if n > 1 else f"{c}*x" for n, c in enumerate(self.coeffs, start=self.lowest) if c != 0]
        return " + ".join(terms) if terms else "0"


@dataclass(frozen=True)
class Jet(_Series):
    """Truncated series x + ... of an invertible germ, coefficients a_1..a_k."""

    lowest = 1
    _kind = ""  # in messages; a field jet's is also its JSON "kind"
    _empty = "a jet needs at least the linear coefficient"

    def __post_init__(self):
        super().__post_init__()
        a1 = self.coeffs[0]
        if self.carrier == INTEGER and a1 not in (1, -1):
            raise NotInvertible(f"a_1 = {a1} is not a unit over the integers")
        if a1 == 0:
            raise NotInvertible("a_1 = 0 is not invertible")

    @classmethod
    def identity(cls, order, carrier=RATIONAL):
        return cls((1,) + (0,) * (order - 1), carrier)

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


@dataclass(frozen=True)
class FieldJet(_Series):
    """Truncated vector field sum c_n x^n d/dx, coefficients c_2..c_k."""

    lowest = 2
    _kind = "field "
    _empty = "a field jet needs at least the degree-2 coefficient"

    @classmethod
    def zero(cls, order, carrier=RATIONAL):
        return cls((0,) * (order - 1), carrier)

    @property
    def leading_index(self):
        """Smallest n with c_n != 0, or None for the zero field."""
        return next((n for n, c in enumerate(self.coeffs, start=self.lowest) if c != 0), None)

    def is_zero(self):
        return self.leading_index is None

    def __str__(self):
        return super().__str__() + " d/dx"


# -- dense polynomial kernel (lists indexed by degree 0..K) -----------------
#
# Inputs are lists of ints and Fractions.  Results are normalized Fractions,
# or ints when every input was an int and no denominator is left.

def _scaled(a):
    """(integer numerators, common denominator, all inputs were ints) of a."""
    den = lcm(*(c.denominator for c in a))
    nums = [c.numerator * (den // c.denominator) for c in a]
    return nums, den, all(type(c) is int for c in a)


def _unscaled(nums, den, ints):
    if ints and den == 1:
        return nums
    return [Fraction(n, den) for n in nums]


def _reduced(nums, den):
    """nums / den with the content common to den and every numerator divided
    out: one ``math.gcd`` per call, so partial results stay small."""
    if den != 1:
        content = gcd(den, *nums)
        if content != 1:
            return [c // content for c in nums], den // content
    return nums, den


def _conv(A, B, K):
    """Integer product A * B mod x^(K+1)."""
    out = [0] * (K + 1)
    nonzero = [(j, b) for j, b in enumerate(B[: K + 1]) if b]
    for i, a in enumerate(A[: K + 1]):
        if a:
            top = K - i
            for j, b in nonzero:
                if j > top:
                    break
                out[i + j] += a * b
    return out


def _mul(a, b, K):
    """a * b mod x^(K+1) for dense a and b."""
    A, da, ia = _scaled(a)
    B, db, ib = _scaled(b)
    return _unscaled(_conv(A, B, K), da * db, ia and ib)


def _recip(a, K):
    """1/a mod x^(K+1) for dense a with a[0] != 0.

    With A = a * da over the integers, 1/A = sum_m V_m x^m / A_0^(m+1) where
    V_0 = 1 and V_m = -sum_(i=1..m) A_i A_0^(i-1) V_(m-i).
    """
    A, da, ints = _scaled(list(a[: K + 1]) + [0] * (K + 1 - len(a)))
    a0 = A[0]
    weighted = [0] + [A[i] * a0 ** (i - 1) for i in range(1, K + 1)]
    V = [1]
    for m in range(1, K + 1):
        V.append(-sum(weighted[i] * V[m - i] for i in range(1, m + 1) if weighted[i]))
    if ints and a0 in (1, -1):
        return [v * a0 ** (m + 1) for m, v in enumerate(V)]
    return [Fraction(da * v, a0 ** (m + 1)) for m, v in enumerate(V)]


def _subst(p, g, K):
    """p(g(x)) mod x^(K+1) by Horner, for dense p and dense g with g[0] = 0."""
    P, dp, ip = _scaled(p[: K + 1])
    G, dg, ig = _scaled(g[: K + 1])
    R, dr = _subst_scaled(P, dp, G, dg, K)
    return _unscaled(R, dr, ip and ig)


def _subst_scaled(P, dp, G, dg, K):
    """(R, dr) with R / dr = p(g(x)) mod x^(K+1), for p = P / dp and
    g = G / dg given and returned as integer numerators; len(R) = K + 1.

    The partial sum r = R / dr carries integer numerators.  Before r takes
    p_n it only matters through degree K - n, since the n later
    multiplications by g raise every degree by at least one each.
    """
    top = min(len(P) - 1, K)
    R, dr = [P[top]], dp
    for n in range(top - 1, -1, -1):
        out = _conv(R, G, K - n)
        dr *= dg
        if P[n]:
            common = gcd(dr, dp)
            if common != dp:
                scale = dp // common
                out = [c * scale for c in out]
            out[0] += P[n] * (dr // common)
            dr = dr // common * dp
        R, dr = _reduced(out, dr)
    return R + [0] * (K + 1 - len(R)), dr


def compose(f: Jet, g: Jet) -> Jet:
    """Substitution f(g(x)) truncated at min(order(f), order(g))."""
    _same_carrier(f, g)
    K = min(f.order, g.order)
    return Jet.from_dense(_subst(f.dense(K), g.dense(K), K), f.carrier)


def invert(f: Jet) -> Jet:
    """Compositional inverse at the same order; integer carrier needs a_1 = +-1.

    Lagrange inversion: b_n = [x^(n-1)] (x/f)^n / n.  With s = a_1 times the
    common denominator of f, the x^k coefficient of x/f is N_k / s^(k+1) for
    an integer N_k, so the powers of x/f are powers of N over the integers:
    [x^m] (x/f)^n = [x^m] N^n / s^(n+m).
    """
    K = f.order
    s = _scaled(f.coeffs)[0][0]
    N = [c.numerator * (s ** (k + 1) // c.denominator) for k, c in enumerate(_recip(f.coeffs, K - 1))]
    power = [1]
    b = []
    for n in range(1, K + 1):
        power = _conv(power, N, K - 1)
        num, den = power[n - 1], n * s ** (2 * n - 1)
        if f.carrier == INTEGER:
            q, rem = divmod(num, den)
            if rem:
                raise CoefficientError(f"b_{n} of the inverse is not an integer")
            b.append(q)
        else:
            b.append(Fraction(num, den))
    return Jet(tuple(b), f.carrier)


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
    Xd = X.dense(K)
    if not any(Xd):
        return FieldJet.zero(K, X.carrier)
    r = _subst(Xd, h.dense(K), K)  # X(h(x))
    Dh = [n * h[n] for n in range(1, K + 1)]
    y = _mul(r, _recip(Dh, K), K)
    if y[1] != 0:
        raise OrderError("pullback produced a linear term; input field was not flat")
    return FieldJet.from_dense(y, X.carrier)


# -- serialization -----------------------------------------------------------

def jet_to_dict(s) -> dict:
    """JSON document of a germ or field jet: "kind" for a field jet, the
    order, the coefficients as "p/q" strings and a non-default carrier."""
    try:
        coeffs = [str(c) for c in s.coeffs]
    except ValueError:  # past the int-to-str digit limit
        raise _unprintable(f"{s._kind}jet") from None
    doc = {"kind": s._kind.rstrip()} if s._kind else {}
    doc.update(order=s.order, coeffs=coeffs)
    if s.carrier == INTEGER:
        doc["carrier"] = INTEGER
    return doc


field_to_dict = jet_to_dict


def _from_dict(cls, doc):
    """The ``cls`` series of a document whose 'coeffs' list holds one exact
    entry per degree lowest..order: strings such as "-3/4", or integers."""
    if not isinstance(doc, dict) or "order" not in doc or "coeffs" not in doc:
        raise CoefficientError("jet JSON needs an object with 'order' and 'coeffs'")
    order, raw = doc["order"], doc["coeffs"]
    if type(order) is not int:
        raise OrderError(f"order must be an integer, not {order!r}")
    if not isinstance(raw, list):
        raise CoefficientError(f"'coeffs' must be a list, not {raw!r}")
    offset = cls.lowest - 1
    if len(raw) != order - offset:
        raise OrderError(f"coeffs length {len(raw)} != order - {offset} = {order - offset}")
    return cls(tuple(_as_scalar(c, RATIONAL) for c in raw), doc.get("carrier", RATIONAL))


def jet_from_dict(doc: dict) -> Jet:
    return _from_dict(Jet, doc)


def field_from_dict(doc: dict) -> FieldJet:
    return _from_dict(FieldJet, doc)


def jet_to_json(s) -> str:
    return json.dumps(jet_to_dict(s), sort_keys=True)


field_to_json = jet_to_json


def _read_json(text: str):
    """The document in ``text``; text that is not JSON, or nests past the
    decoder's recursion limit, is a malformed jet document like any other,
    so it raises CoefficientError."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CoefficientError(f"jet JSON does not parse: {exc}") from None


def jet_from_json(text: str) -> Jet:
    return jet_from_dict(_read_json(text))


def field_from_json(text: str) -> FieldJet:
    return field_from_dict(_read_json(text))
