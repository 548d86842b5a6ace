"""Workload ``szekeres-conjugacy``: canonical conjugacies from Szekeres fields.

X is ``szekeres_numeric_field(germ, n=depth)``; Y is a polynomial field.
For ``moebius`` and the two ``ramified_flow`` germs Y is the germ's exact
generator, so the true conjugacy is h = id with Dh = 1 and every float
answer has a closed-form reference.  For ``quadratic`` and the seeded
polynomial jet, Y is the order-(2 ell + 1) generating field from the exact
jet; those answers are checked for the bounds a tangent-to-identity
conjugacy must meet.

x is drawn log-uniformly over [1e-5, 1e-2] for ell = 1 germs and over
[1e-2, 1e-1] for the ell = 2 germ.  flow_map demands an absolute residual
of 1e-10 in the time coordinate, which grows like x^-ell; below about 1e-2
an ell = 2 conjugacy fails that test at random (probed as a known defect).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .common import Request, antithetic, deck_rng, log_uniform
from .oracle import HALF_ULP, rel_error

X0 = 0.1  # base point of every conjugacy
X_RANGE = {1: (1e-5, 1e-2), 2: (1e-2, 1e-1)}
GERMS = ("moebius", "ramified_1_1", "ramified_2_1", "quadratic", "poly")
CLOSED_FORM = {"moebius": {2: -1}, "ramified_1_1": {2: -1}, "ramified_2_1": {3: Fraction(-1, 2)}}
DEPTHS = (10, 100, 1000, 10_000)

# (germ, depth, kind, count) per deck: every germ at depths 10 to 1000, and
# the catalog's own quadratic_szekeres field at its own depth 10^4.  Cells
# with several requests draw their x in mirror pairs within the deck; a
# single-request cell mirrors its draw across decks 2k and 2k + 1.  Depth 10
# holds two thirds of the requests and depths >= 1000 about one in thirty,
# so the median falls inside the depth-10 block and the 90th percentile
# inside the depth-100 block rather than between two blocks.
PER_GERM = ((10, "hdh", 24), (10, "diag", 4), (100, "hdh", 8), (100, "diag", 4), (1000, "hdh", 1))
PLAN = tuple((g, d, k, c) for g in GERMS for d, k, c in PER_GERM) + (("quadratic", 10_000, "hdh", 1),)

# sanity bound for a tangent-to-identity conjugacy on the drawn x range; the
# closed-form cases must also stay within the O(1/depth) truncation error
# of the Szekeres iteration, which is below 1/depth on this range
H_TOL = 0.1
DEPTH_TOL = 2.0


class Szekeres:
    name = "szekeres-conjugacy"

    def __init__(self, seed, counters=None):
        from germres import catalog, flows, jets, numerics

        from .tracing import counted_field, counted_germ

        self.seed = seed
        self.numerics = numerics
        rng = deck_rng(seed, "setup", self.name)
        a = Fraction(rng.randint(2, 8), 4)
        b = Fraction(rng.randint(-4, 4), 4)
        # |a| <= 2, |b| <= 1 keep Df > 0 and f(x) < x on (0, 0.2]
        jet = jets.Jet((1, -a, b))
        specs = {
            "moebius": catalog.moebius(),
            "ramified_1_1": catalog.ramified_flow(1, 1),
            "ramified_2_1": catalog.ramified_flow(2, 1),
            "quadratic": catalog.quadratic(),
            "poly": catalog.germ_from_jet(jet, x_max=0.2, name="poly"),
        }
        self.ell = {name: spec.ell for name, spec in specs.items()}
        self.Y = {}
        for name, spec in specs.items():
            if name in CLOSED_FORM:
                self.Y[name] = numerics.field_from_coeffs(f"gen[{name}]", CLOSED_FORM[name])
            else:
                gen = flows.germ_to_field(spec.jet_fn(2 * spec.ell + 1))
                self.Y[name] = numerics.field_from_jet(gen, name=f"gen[{name}]")
        self.fields = {}
        self.counted_fields = {}
        for name, spec in specs.items():
            for depth in DEPTHS:
                if depth == 10_000 and name != "quadratic":
                    continue
                self.fields[name, depth] = catalog.szekeres_numeric_field(spec, n=depth)
                if counters is not None:
                    counted = catalog.szekeres_numeric_field(counted_germ(spec, counters), n=depth)
                    self.counted_fields[name, depth] = (
                        counted_field(counted, counters),
                        counted_field(self.Y[name], counters),
                    )

    def warmup(self):
        return self._request("moebius", 10, "hdh", (0.5,), False)

    def deck(self, index, traced=False):
        rng = deck_rng(self.seed, index, self.name)
        pair_rng = deck_rng(self.seed, index // 2, self.name + ":pair")
        out = []
        for germ, depth, kind, count in PLAN:
            if count == 1:
                u = pair_rng.random()
                draws = [(u if index % 2 == 0 else 1.0 - u,)]
            elif kind == "hdh":
                draws = [(u,) for u in antithetic(rng, count)]
            else:
                draws = [tuple(antithetic(rng, 4)) for _ in range(count)]
            out += [self._request(germ, depth, kind, us, traced) for us in draws]
        rng.shuffle(out)
        return out

    def _request(self, germ, depth, kind, us, traced):
        numerics = self.numerics
        lo, hi = X_RANGE[self.ell[germ]]
        xs = tuple(log_uniform(u, lo, hi) for u in us)
        if traced:
            X, Y = self.counted_fields[germ, depth]
        else:
            X, Y = self.fields[germ, depth], self.Y[germ]
        exact = germ in CLOSED_FORM
        if kind == "hdh":
            x = xs[0]

            def call():
                h = numerics.canonical_conjugacy(X, Y, X0)
                return h(x), h.deriv(x)

            return Request(f"hdh@{depth}", call, lambda ans: _check_hdh(x, ans, exact, depth))

        def diag():
            return numerics.divergence_diagnostic(X, Y, xs, x0=X0)

        return Request(f"diag@{depth}", diag, lambda rep: _check_diag(rep, exact, depth))


def _check_hdh(x, answer, exact, depth):
    hx, dh = answer
    if not (math.isfinite(hx) and math.isfinite(dh)):
        return False, None
    ok = abs(hx / x - 1.0) <= H_TOL and abs(dh - 1.0) <= H_TOL
    if not exact:
        return ok, None
    err = max(rel_error(hx, x), rel_error(dh, 1.0))
    return ok and err <= DEPTH_TOL / depth, err


def _check_diag(report, exact, depth):
    if not all(math.isfinite(v) for v in (report.slope, report.intercept, report.max_abs_ratio)):
        return False, None
    # (h(x) - x) / x^2 = v  <=>  h(x) / x - 1 = v x
    errors = [abs(v) * x for x, v in report.points]
    ok = len(report.points) == 4 and max(errors) <= H_TOL
    if not exact:
        return ok, None
    err = max(max(errors), HALF_ULP)
    return ok and err <= DEPTH_TOL / depth, err
