"""Workload ``exact-jets``: library calls into the exact jet algebra.

Every deck has the same structure (``DECK``): the seed draws the
coefficients, exponents, times and the order of the requests.  The counts
are set so that no request type takes most of a deck's time.
"""

from __future__ import annotations

from fractions import Fraction

from . import oracle
from .common import Request, deck_rng, field_coeffs, parabolic_coeffs, rational

# (request type, jet order K, parameter): the parameter is the tangency ell,
# or for ``power`` the stratum s of |n| in (50 s, 50 (s + 1)].  Each stratum
# appears twice, with mirrored offsets, so the exponents of a deck add up to
# the same total whatever the seed.  The counts keep any one type below a
# third of a deck's time and put blocks of like-cost requests at the median
# (conjugate at K = 9) and at the 90th percentile (reduce_germ at K = 33,
# ell = 3), so that neither quantile sits in a gap between two clusters.
DECK = (
    [("reduce_germ", 9, ell) for ell in (1, 2, 3, 4)]
    + [("reduce_germ", 17, ell) for ell in (2, 5, 8)]
    + [("reduce_germ", 33, ell) for ell in (1, 3, 3, 3, 3, 8)]
    + [("reduce_field", K, ell) for K, ell in ((9, 1), (9, 4), (17, 3), (33, 2))]
    + [("invert", 9, ell) for ell in (1, 2, 4)]
    + [("invert", 17, ell) for ell in (1, 3)]
    + [("invert", 33, 1)]
    + [("conjugate", 9, ell) for ell in (1, 2, 3, 1, 2, 3)]
    + [("conjugate", 17, ell) for ell in (2, 4, 6, 8)]
    + [("compose", 9, ell) for ell in (1, 1, 2, 3)]
    + [("compose", 17, ell) for ell in (1, 4)]
    + [("compose", 33, ell) for ell in (1, 2, 4, 8)]
    + [("power", 9, stratum) for stratum in (0, 1, 2, 3, 0, 1, 2, 3)]
    + [("round_trip", 2 * ell + 1, ell) for ell in (1, 2, 3, 4)]
    + [("field_to_germ", K, 1) for K in (9, 11, 13)]
    + [("flow_in_G", K, ell) for K, ell in ((3, 1), (5, 2), (7, 3), (9, 4), (9, 1), (17, 2))]
)

SYMPY_KINDS = ("compose", "invert")  # checked by sympy once per deck at K = 9


class ExactJets:
    name = "exact-jets"

    def __init__(self, seed, counters=None):
        # ``counters`` is unused: this workload hands germres no callables
        from germres import flows, jets, normal_form

        self.seed = seed
        self.jets, self.flows, self.normal_form = jets, flows, normal_form

    def warmup(self):
        rng = deck_rng(self.seed, -1, self.name)
        return self._request(rng, "reduce_germ", 9, 2, sympy=False)

    def deck(self, index, traced=False):
        rng = deck_rng(self.seed, index, self.name)
        order = list(range(len(DECK)))
        rng.shuffle(order)
        out = []
        sympy_due = set(SYMPY_KINDS)
        offsets = {}
        for i in order:
            kind, K, param = DECK[i]
            if kind == "power":
                offset = 49 - offsets.pop(param) if param in offsets else offsets.setdefault(param, rng.randint(0, 49))
                param = 50 * param + 1 + offset
            use_sympy = kind in sympy_due and K == 9
            sympy_due.discard(kind if use_sympy else None)
            out.append(self._request(rng, kind, K, param, sympy=use_sympy))
        return out

    def _request(self, rng, kind, K, param, sympy):
        jets, flows, normal_form = self.jets, self.flows, self.normal_form
        Jet, FieldJet = jets.Jet, jets.FieldJet

        if kind == "reduce_germ":
            ell = param
            f = Jet(parabolic_coeffs(rng, K, ell))
            return Request(kind, lambda: normal_form.reduce_germ(f), lambda ans: _check_reduce_germ(f, ell, ans))
        if kind == "reduce_field":
            ell = param
            X = FieldJet(field_coeffs(rng, K, ell))
            return Request(kind, lambda: normal_form.reduce_field(X), lambda ans: _check_reduce_field(X, ell, ans))
        if kind == "invert":
            f = Jet(parabolic_coeffs(rng, K, param))
            return Request(kind, lambda: jets.invert(f), lambda g: _check_invert(f, g, sympy))
        if kind == "conjugate":
            ell = param
            f = Jet(parabolic_coeffs(rng, K, ell))
            scale = Fraction(rng.randint(1, 4), rng.randint(1, 4))
            h = Jet((scale,) + parabolic_coeffs(rng, K, 1)[1:])
            return Request(kind, lambda: jets.conjugate(h, f), lambda g: _check_conjugate(h, f, ell, g))
        if kind == "compose":
            f = Jet(parabolic_coeffs(rng, K, param))
            g = Jet(parabolic_coeffs(rng, K, 1))
            return Request(kind, lambda: jets.compose(f, g), lambda r: _check_compose(f, g, r, sympy))
        if kind == "power":
            ell = rng.randint(1, (K - 1) // 2)
            f = Jet(parabolic_coeffs(rng, K, ell))
            n = param * rng.choice((1, -1))
            return Request(kind, lambda: flows.power(f, n), lambda p: _check_power(f, ell, n, p))
        if kind == "round_trip":
            ell = param
            f = Jet(parabolic_coeffs(rng, K, ell))
            t = rational(rng, nonzero=True)
            return Request(
                kind,
                lambda: flows.field_to_germ(flows.germ_to_field(f), t),
                lambda g: _check_flow(f, ell, t, g),
            )
        if kind == "field_to_germ":
            X = FieldJet(field_coeffs(rng, K, param))
            t = rational(rng, nonzero=True)
            return Request(kind, lambda: flows.field_to_germ(X, t), lambda g: _check_lie(X, t, g))
        if kind == "flow_in_G":
            ell = param
            f = Jet(parabolic_coeffs(rng, K, ell))
            t = rational(rng, nonzero=True)
            return Request(kind, lambda: flows.flow_in_G(f, t), lambda g: _check_flow(f, ell, t, g))
        raise ValueError(kind)


def _ok(flag):
    return bool(flag), None


def _check_reduce_germ(f, ell, answer):
    trace, report = answer
    K = f.order
    fd = oracle.dense(f.coeffs, K)
    h = oracle.dense(trace.conjugator.coeffs, K)
    g = oracle.dense(trace.reduced.coeffs, K)
    index = oracle.fixed_point_index(fd, ell)
    return _ok(
        report.ell == ell
        and report.res == index
        and report.resit == Fraction(ell + 1, 2) - index
        and report.resad == oracle.resad(fd, ell)
        and report.leading == fd[ell + 1]
        and report.expanding == (fd[ell + 1] > 0)
        and g[ell + 1] == fd[ell + 1]
        and not any(g[ell + 2 : 2 * ell + 1])
        and oracle.compose(h, fd, K) == oracle.compose(g, h, K)
    )


def _check_reduce_field(X, ell, answer):
    trace, mu = answer
    K = X.order
    Xd = oracle.field_dense(X.coeffs, K)
    h = oracle.dense(trace.conjugator.coeffs, K)
    Y = oracle.field_dense(trace.reduced.coeffs, K)
    return _ok(
        mu == oracle.field_residue(Xd, ell)
        and Y[ell + 1] == Xd[ell + 1]
        and not any(Y[ell + 2 : 2 * ell + 1])
        and oracle.pullback(h, Xd, K) == Y
    )


def _check_invert(f, g, sympy):
    K = f.order
    fd, gd = oracle.dense(f.coeffs, K), oracle.dense(g.coeffs, K)
    ok = oracle.compose(fd, gd, K) == oracle.identity(K)
    if ok and sympy:
        ok = oracle.sympy_compose_matches(fd, gd, oracle.identity(K), K)
    return _ok(ok)


def _check_compose(f, g, r, sympy):
    K = f.order
    fd, gd, rd = (oracle.dense(j.coeffs, K) for j in (f, g, r))
    ok = r.order == K and oracle.compose(fd, gd, K) == rd
    if ok and sympy:
        ok = oracle.sympy_compose_matches(fd, gd, rd, K)
    return _ok(ok)


def _check_conjugate(h, f, ell, g):
    K = f.order
    hd, fd, gd = (oracle.dense(j.coeffs, K) for j in (h, f, g))
    return _ok(
        oracle.compose(gd, hd, K) == oracle.compose(hd, fd, K)
        and oracle.resit(gd, ell) == oracle.resit(fd, ell)
    )


def _check_power(f, ell, n, p):
    K = f.order
    fd, pd = oracle.dense(f.coeffs, K), oracle.dense(p.coeffs, K)
    return _ok(
        pd[1] == 1
        and not any(pd[2 : ell + 1])
        and pd[ell + 1] == n * fd[ell + 1]
        and oracle.resad(pd, ell) == n * oracle.resad(fd, ell)
    )


def _check_flow(f, ell, t, g):
    K = 2 * ell + 1
    return _ok(g.order == K and oracle.dense(g.coeffs, K) == oracle.closed_form_flow(oracle.dense(f.coeffs, K), ell, t))


def _check_lie(X, t, g):
    K = X.order
    return _ok(g.order == K and oracle.dense(g.coeffs, K) == oracle.lie_series(oracle.field_dense(X.coeffs, K), t, K))
