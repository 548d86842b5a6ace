"""Workload ``cli-mix``: all 11 verbs through ``germres.cli.main(argv)``.

Each request runs the CLI in-process with stdout captured; the answer is
(exit code, stdout).  Every answer must obey the strict-JSON rule (exit 0
or 1, no NaN or Infinity, exactly one of ``result`` and ``error``) and
match its reference: exact jets from the package-independent oracle,
README values and closed forms for the numeric verbs, and the documented
error code for the inputs whose documented result is an error.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from fractions import Fraction

import numpy as np

from . import oracle
from .common import Request, deck_rng, field_coeffs, log_uniform, parabolic_coeffs, rational
from .oracle import rel_error

# request type -> count per deck.  The two orbit loops of estimate-resit
# (quadratic at n = 10^6, a formula at 10^5) are the heaviest requests; with
# three of each, the 90th percentile falls inside that block of like-cost
# requests, so the orbit loops set latency_p90_ms.
DECK = {
    "residue-jet": 3,
    "residue-expr": 2,
    "residue-catalog": 3,
    "normal-form": 2,
    "flow": 3,
    "power": 2,
    "field": 2,
    "exp": 2,
    "szekeres": 5,
    "estimate-resit": 9,
    "conjugate": 3,
    "contour": 3,
    "diagnose": 3,
    "error": 8,
}

CATALOG_JETS = ("quadratic", "moebius", "ramified_flow_2_1")
CATALOG_RESIT = {"quadratic": 1, "moebius": 0, "ramified_flow_2_1": 0}

# szekeres verb: (input flags, iteration cap, closed-form field c x^(ell+1) as (c, ell+1))
SZEKERES = (
    (("--catalog", "moebius"), 100_000, (-1.0, 2)),
    (("--catalog", "ramified_flow_1_1"), 10_000, (-1.0, 2)),
    (("--catalog", "ramified_flow_2_1"), 100_000, (-0.5, 3)),
    (("--catalog", "quadratic"), 100_000, None),
    (("--expr", "x/(1+2*x)"), 10_000, (-2.0, 2)),
)
SZEKERES_X0 = (1e-3, 1e-2, 1e-1)
SZEKERES_TOL = 0.05

# conjugate/diagnose pairs with a closed-form conjugacy
PAIRS = ("same", "neg_x2_x3", "neg_2x2", "pullback_log_cubic", "pullback_loglog")

# inputs whose documented result is {"error": ...} with exit 1
ERRORS = (
    (["residue", "--jet", '{"order":3,"coeffs":["1","0","0"]}'], "TangencyError"),
    (["residue", "--jet", '{"order":3,"coeffs":["1","1","0"],"carrier":"integer"}'], "CarrierMismatch"),
    (["flow", "--catalog", "no_such_germ", "--time", "1"], "KeyError"),
    (["szekeres", "--catalog", "log_cubic", "--x0", "0.1"], "DomainError"),
    (["contour", "--poly", "1,1", "--radius", "-1"], "DomainError"),
    (["estimate-resit", "--catalog", "quadratic", "--x0", "0.3", "--schedule", "1"], "DomainError"),
    (["conjugate", "--X", "neg_x2", "--Y", "x2", "--x0", "0.1", "--grid", "0.01"], "DomainError"),
    (["exp", "--field", '{"kind":"field","order":4,"coeffs":["1","2"]}', "--time", "1"], "OrderError"),
)


def run_cli(main, argv):
    """(exit code, stdout) of one in-process CLI call; an argparse refusal
    exits with its own code."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def strict_json(code, text):
    """The parsed document, or None if the output breaks the strict-JSON rule."""
    if code not in (0, 1):
        return None

    def refuse(name):
        raise ValueError(name)

    try:
        doc = json.loads(text, parse_constant=refuse)
    except ValueError:
        return None
    if not isinstance(doc, dict) or ("result" in doc) == ("error" in doc):
        return None
    if ("result" in doc) != (code == 0):
        return None
    return doc


def jet_json(coeffs):
    return json.dumps({"order": len(coeffs), "coeffs": [str(c) for c in coeffs]})


def poly_expr(coeffs):
    """Infix formula of the polynomial a_1 x + a_2 x^2 + ... (a_1 = 1)."""
    text = "x"
    for n, c in enumerate(coeffs[1:], start=2):
        if c:
            text += f" {'-' if c < 0 else '+'} {abs(c)}*x^{n}"
    return text


def binomial_series(exponent, K, ell):
    """Coefficients a_1..a_K of x (1 + x^ell)^exponent."""
    coeffs = [Fraction(0)] * K
    coeffs[0] = Fraction(1)
    binom = Fraction(1)
    k = 0
    while (k + 1) * ell + 1 <= K:
        binom = binom * (exponent - k) / (k + 1)
        k += 1
        coeffs[k * ell] = binom
    return coeffs


class CliMix:
    name = "cli-mix"

    def __init__(self, seed, counters=None):
        # ``counters`` is unused: the CLI builds its own callables, which
        # the tracer counts at the catalog boundary
        from germres import cli

        self.cli = cli
        self.seed = seed
        self.deck_index = 0

    def warmup(self):
        return self._residue_known(["residue", "--expr", "x/(1+x)", "--order", "7"], binomial_series(Fraction(-1), 7, 1), 0)

    def deck(self, index, traced=False):
        rng = deck_rng(self.seed, index, self.name)
        self.deck_index = index
        out = []
        for kind, count in DECK.items():
            for slot in range(count):
                out.append(getattr(self, "_" + kind.replace("-", "_"))(rng, slot))
        rng.shuffle(out)
        return out

    # -- plumbing ---------------------------------------------------------

    def _request(self, kind, argv, check):
        cli = self.cli

        def call():
            return run_cli(cli.main, argv)

        def checked(answer):
            doc = strict_json(*answer)
            if doc is None or "result" not in doc:
                return False, None
            return check(doc["result"])

        return Request(kind, call, checked)

    # -- exact verbs --------------------------------------------------------

    def _residue_known(self, argv, coeffs, resit_ref=None, kind="residue"):
        K = len(coeffs)
        fd = oracle.dense(coeffs, K)
        ell = oracle.tangency(fd)

        def check(result):
            report = result["report"]
            jet_ok = "jet" not in result or [Fraction(c) for c in result["jet"]["coeffs"]] == fd[1:]
            index = oracle.fixed_point_index(fd, ell)
            ok = (
                jet_ok
                and report["ell"] == ell
                and Fraction(report["res"]) == index
                and Fraction(report["resit"]) == Fraction(ell + 1, 2) - index
                and Fraction(report["resad"]) == oracle.resad(fd, ell)
                and (resit_ref is None or Fraction(report["resit"]) == resit_ref)
            )
            if ok and "trace" in result:
                trace = result["trace"]
                h = oracle.dense([Fraction(c) for c in trace["conjugator"]["coeffs"]], K)
                g = oracle.dense([Fraction(c) for c in trace["reduced"]["coeffs"]], K)
                ok = not any(g[ell + 2 : 2 * ell + 1]) and oracle.compose(h, fd, K) == oracle.compose(g, h, K)
            return ok, None

        return self._request(kind, argv, check)

    def _residue_jet(self, rng, slot):
        K = (5, 7, 9)[slot % 3]
        coeffs = parabolic_coeffs(rng, K, rng.randint(1, (K - 1) // 2))
        return self._residue_known(["residue", "--jet", jet_json(coeffs)], coeffs)

    def _residue_expr(self, rng, slot):
        K = rng.randint(5, 9)
        if slot == 0:
            a = rng.choice((-4, -3, -2, 2, 3, 4))
            coeffs = [Fraction(-a) ** (n - 1) for n in range(1, K + 1)]
            return self._residue_known(["residue", "--expr", f"x/(1+{a}*x)", "--order", str(K)], coeffs, 0)
        coeffs = parabolic_coeffs(rng, rng.choice((3, 5)), 1)
        coeffs = list(coeffs) + [Fraction(0)] * (K - len(coeffs))
        return self._residue_known(["residue", "--expr", poly_expr(coeffs), "--order", str(K)], coeffs)

    def _residue_catalog(self, rng, slot):
        tag = CATALOG_JETS[slot % len(CATALOG_JETS)]
        K = rng.randint(5, 9)
        coeffs = {
            "quadratic": [Fraction(1), Fraction(-1)] + [Fraction(0)] * (K - 2),
            "moebius": binomial_series(Fraction(-1), K, 1),
            "ramified_flow_2_1": binomial_series(Fraction(-1, 2), K, 2),
        }[tag]
        return self._residue_known(["residue", "--catalog", tag, "--order", str(K)], coeffs, CATALOG_RESIT[tag])

    def _normal_form(self, rng, slot):
        coeffs = parabolic_coeffs(rng, 9, rng.randint(2, 4))
        return self._residue_known(["normal-form", "--jet", jet_json(coeffs)], coeffs, kind="normal-form")

    def _flow(self, rng, slot):
        t = rational(rng, nonzero=True)
        if slot == 0:
            coeffs = [Fraction(1), Fraction(-1), Fraction(0)]
            argv = ["flow", "--expr", "x - x^2", "--order", "3", f"--time={t}"]
        else:
            ell = rng.randint(1, 4)
            coeffs = parabolic_coeffs(rng, 2 * ell + 1, ell)
            argv = ["flow", "--jet", jet_json(coeffs), f"--time={t}"]
        K = len(coeffs)
        fd = oracle.dense(coeffs, K)
        want = oracle.closed_form_flow(fd, oracle.tangency(fd), t)
        return self._request("flow", argv, lambda r: _ok(_jet(r["jet"]) == want))

    def _power(self, rng, slot):
        K = rng.randint(5, 9)
        ell = rng.randint(1, (K - 1) // 2)
        coeffs = parabolic_coeffs(rng, K, ell)
        n = rng.randint(2, 50) if slot == 0 else rng.randint(51, 200)
        n *= rng.choice((1, -1))
        fd = oracle.dense(coeffs, K)

        def check(result):
            pd = _jet(result["jet"])
            return _ok(
                len(pd) == K + 1
                and pd[1] == 1
                and pd[ell + 1] == n * fd[ell + 1]
                and oracle.resad(pd, ell) == n * oracle.resad(fd, ell)
            )

        return self._request("power", ["power", "--jet", jet_json(coeffs), f"--n={n}"], check)

    def _field(self, rng, slot):
        if slot == 0:
            coeffs = binomial_series(Fraction(-1), 5, 1)
            argv = ["field", "--catalog", "moebius", "--order", "5"]
        else:
            ell = rng.randint(1, 4)
            coeffs = parabolic_coeffs(rng, 2 * ell + 1, ell)
            argv = ["field", "--jet", jet_json(coeffs)]
        fd = oracle.dense(coeffs, len(coeffs))
        ell = oracle.tangency(fd)
        want = oracle.closed_form_generator(fd, ell)
        return self._request("field", argv, lambda r: _ok(_field(r["field"]) == want))

    def _exp(self, rng, slot):
        K = (5, 9)[slot % 2]
        coeffs = field_coeffs(rng, K, rng.randint(1, 2))
        t = rational(rng, nonzero=True)
        doc = json.dumps({"kind": "field", "order": K, "coeffs": [str(c) for c in coeffs]})
        want = oracle.lie_series(oracle.field_dense(coeffs, K), t, K)
        return self._request("exp", ["exp", "--field", doc, f"--time={t}"], lambda r: _ok(_jet(r["jet"]) == want))

    # -- numeric verbs ------------------------------------------------------

    def _szekeres(self, rng, slot):
        flags, n, closed = SZEKERES[slot]
        # x0 walks a fixed log grid from a seeded start, so every run of three
        # or more decks evaluates each germ at every grid point
        start = deck_rng(self.seed, slot, "szekeres-x0").randrange(len(SZEKERES_X0))
        x0 = SZEKERES_X0[(start + self.deck_index) % len(SZEKERES_X0)]
        argv = ["szekeres", *flags, "--x0", repr(x0), f"--n={n}"]

        def check(result):
            value = result["value"]
            if closed is None:  # quadratic: X = -x^2 - x^3 + O(x^4)
                return _ok(abs(value / (-x0 * x0 * (1 + x0)) - 1) <= SZEKERES_TOL)
            c, degree = closed
            err = rel_error(value, c * x0**degree)
            return err <= SZEKERES_TOL, err

        return self._request("szekeres", argv, check)

    def _estimate_resit(self, rng, slot):
        slot %= 3
        if slot == 0:
            x0 = 0.2 + 0.3 * rng.random()
            argv, resit = ["estimate-resit", "--catalog", "quadratic", "--x0", repr(x0), "--n", "1000000"], 1
        elif slot == 1:
            x0 = 0.2 + 0.7 * rng.random()
            argv, resit = ["estimate-resit", "--catalog", "moebius", "--x0", repr(x0), "--n", "1000000"], 0
        else:
            c = Fraction(rng.choice((-1, 1, 2, 3)), 4)
            x0 = 0.1 + 0.3 * rng.random()
            argv = ["estimate-resit", "--expr", f"x - x^2 + {c}*x^3", "--x0", repr(x0), "--n", "100000"]
            resit = 1 - c
        # the estimator converges like 1/log(n); its extrapolation is a band, not a digit count
        return self._request("estimate-resit", argv, lambda r: _ok(abs(r["extrapolated"] - float(resit)) <= 0.05))

    def _pair(self, rng, slot):
        """(X spec, Y spec, ell, reference h as a function of (x, x0), Dh)."""
        pair = PAIRS[(slot + rng.randint(0, len(PAIRS) - 1)) % len(PAIRS)]
        if pair == "same":
            ell = rng.randint(1, 2)
            coeffs = [Fraction(0)] * (ell - 1) + [-Fraction(rng.randint(1, 8), 4)]
            coeffs.append(Fraction(rng.randint(-4, 0), 4))
            spec = "poly:" + ",".join(str(c) for c in coeffs)
            return spec, spec, ell, lambda x, x0: x, lambda x, h: 1.0
        if pair == "neg_x2_x3":

            def F(y):
                return 1 / y + math.log(y) - math.log1p(y)

            return (
                "neg_x2_x3", "neg_x2", 1,
                lambda x, x0: 1 / (1 / x0 + F(x) - F(x0)),
                lambda x, h: h * h / (x * x * (1 + x)),
            )
        if pair == "neg_2x2":
            return (
                "neg_2x2", "neg_x2", 1,
                lambda x, x0: 1 / (1 / x0 + (1 / x - 1 / x0) / 2),
                lambda x, h: h * h / (2 * x * x),
            )
        hc, dhc = CONJUGATORS[pair]
        return (
            pair, "x2", 1,
            lambda x, x0: 1 / (1 / x0 + 1 / hc(x) - 1 / hc(x0)),
            lambda x, h: h * h * dhc(x) / hc(x) ** 2,
        )

    def _grid(self, rng, ell, points):
        # below 1e-2 an ell = 2 conjugacy fails flow_map's absolute residual test at random
        lo, hi = (1e-5, 1e-1) if ell == 1 else (1e-2, 1e-1)
        return sorted((log_uniform(rng.random(), lo, hi) for _ in range(points)), reverse=True)

    def _conjugate(self, rng, slot):
        X, Y, ell, h_ref, dh_ref = self._pair(rng, slot)
        x0 = 0.1
        grid = self._grid(rng, ell, 3)
        argv = ["conjugate", "--X", X, "--Y", Y, "--x0", repr(x0), "--grid", ",".join(map(repr, grid))]

        def check(result):
            errs = []
            for x, hx, dh in result["samples"]:
                href = h_ref(x, x0)
                errs += [rel_error(hx, href), rel_error(dh, dh_ref(x, href))]
            err = max(errs)
            return len(result["samples"]) == len(grid) and err <= 1e-6, err

        return self._request("conjugate", argv, check)

    def _diagnose(self, rng, slot):
        X, Y, ell, h_ref, _ = self._pair(rng, slot)
        grid = self._grid(rng, ell, 4)
        x0 = max(grid)
        argv = ["diagnose", "--X", X, "--Y", Y, "--grid", ",".join(map(repr, grid))]

        def check(result):
            points = result["points"]
            err = max(rel_error(x + v * x * x, h_ref(x, x0)) for x, v in points)
            refs = [(h_ref(x, x0) - x) / x**2 for x, _ in points]
            slope_ref = np.polyfit([math.log(1 / x) for x, _ in points], refs, 1)[0]
            ok = len(points) == len(grid) and err <= 1e-6 and abs(result["slope"] - slope_ref) <= 1e-3 * max(1.0, abs(slope_ref))
            return ok, err

        return self._request("diagnose", argv, check)

    def _contour(self, rng, slot):
        a2 = rational(rng, nonzero=True)
        a3 = rational(rng, nonzero=True)
        a4 = rational(rng) if slot == 2 else Fraction(0)
        # other fixed points are the roots of a2 + a3 z + a4 z^2; stay well inside them
        roots = np.roots([float(a4), float(a3), float(a2)] if a4 else [float(a3), float(a2)])
        radius = 0.3 * float(min(abs(r) for r in roots))
        coeffs = [Fraction(1), a2, a3] + ([a4] if a4 else [])
        ref = float(oracle.fixed_point_index(oracle.dense(coeffs, len(coeffs)), 1))
        if slot == 0:
            argv = ["contour", "--jet", jet_json(coeffs), "--radius", repr(radius)]
        else:
            argv = ["contour", "--poly", ",".join(str(c) for c in coeffs), "--radius", repr(radius)]

        def check(result):
            value = complex(result["value"]["re"], result["value"]["im"])
            err = max(abs(value - ref) / abs(ref), oracle.HALF_ULP)
            return err <= 1e-9, err

        return self._request("contour", argv, check)

    def _error(self, rng, slot):
        argv, code = ERRORS[slot]
        cli = self.cli

        def checked(answer):
            doc = strict_json(*answer)
            return _ok(doc is not None and answer[0] == 1 and doc.get("error", {}).get("code") == code)

        return Request("error", lambda: run_cli(cli.main, argv), checked)


def _ok(flag):
    return bool(flag), None


def _jet(doc):
    return oracle.dense([Fraction(c) for c in doc["coeffs"]], doc["order"])


def _field(doc):
    return oracle.field_dense([Fraction(c) for c in doc["coeffs"]], doc["order"])


def _log_cubic(x):
    return x + x * x + x**3 * math.log(x)


def _log_cubic_deriv(x):
    return 1 + 2 * x + 3 * x * x * math.log(x) + x * x


def _loglog(x):
    return x + x * x * math.log(math.log(1 / x))


def _loglog_deriv(x):
    return 1 + 2 * x * math.log(math.log(1 / x)) - x / math.log(1 / x)


CONJUGATORS = {
    "pullback_log_cubic": (_log_cubic, _log_cubic_deriv),
    "pullback_loglog": (_loglog, _loglog_deriv),
}
