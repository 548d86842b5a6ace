"""In-process fuzzing of the CLI: every verb, drawn arguments, strict JSON out.

Values are passed as ``--name=value``, so argparse never reads a leading
minus as an option and every drawn command line parses; what the handlers
make of the values -- huge literals, non-finite floats, huge counts and
orders -- is what the test exercises.  Every run must return 0 or 1 and
print one strict-JSON document holding ``result`` or ``error``.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from germres.cli import main

LITERALS = st.sampled_from(
    [
        "0", "1", "-1", "2", "1/2", "-3/4", "2.5", "1e-3", "1_000",
        "1e400", "-1e400", "1e-400", "1e1000000", "1e-1000000", "1" * 5000,
        "1e99999999999999999999", "nan", "inf", "1/0", "x", "",
    ]
) | st.fractions(max_denominator=50).map(str)

FLOATS = st.floats(allow_nan=True, allow_infinity=True).map(repr) | st.sampled_from(
    ["0.1", "0.05", "0.01", "0.3", "1e-300", "1e400"]
)

# orders past cli.MAX_JET_ORDER (200 here) must be refused before any
# dense jet of that order is composed
ORDERS = st.integers(-2, 12) | st.just(200)

EXPRS = st.sampled_from(
    [
        "x - x^2", "x - x^3 + x^5", "x/(1+x)", "x + 3^100000000*x^2", "x + log(x)",
        "x - 123456789012345678901234567890*x^2", "(" * 200 + "x" + ")" * 200, "x - x^", "2*x",
    ]
)

GERM_TAGS = st.sampled_from(
    ["quadratic", "moebius", "ramified_flow_2_1", "ramified_flow_3_1/2", "ramified_flow_2_1e1000000", "log_cubic", "nope"]
)


def opt(name, values):
    return values.map(lambda v: [f"--{name}={v}"])


@st.composite
def jet_json(draw, field=False):
    coeffs = draw(st.lists(LITERALS, max_size=6))
    if not field:
        coeffs = [draw(st.sampled_from(["1", "1", "2", "-1", "0"]))] + coeffs
    order = len(coeffs) + field + draw(st.sampled_from([0, 0, 0, 1, -1, 10**6]))
    doc = {"order": order, "coeffs": coeffs}
    if field:
        doc["kind"] = "field"
    if draw(st.integers(0, 9)) == 0:
        doc["carrier"] = "integer"
    return json.dumps(doc)


def jet_input(orders):
    return st.one_of(
        opt("jet", jet_json()),
        st.tuples(EXPRS, orders).map(lambda t: [f"--expr={t[0]}", f"--order={t[1]}"]),
        st.tuples(GERM_TAGS, orders).map(lambda t: [f"--catalog={t[0]}", f"--order={t[1]}"]),
    )


JET_INPUT = jet_input(ORDERS)

GERM_INPUT = st.one_of(opt("catalog", GERM_TAGS), opt("expr", EXPRS))

FIELDS = st.sampled_from(["neg_x2", "neg_2x2", "neg_x2_x3", "neg_x3", "x2", "nope"]) | st.lists(
    LITERALS, min_size=1, max_size=4
).map(lambda cs: "poly:" + ",".join(cs))

GRID = st.lists(FLOATS, min_size=1, max_size=3).map(",".join)

COUNTS = st.sampled_from([-5, 0, 1, 2, 100, 1000, 10**7 + 1, 10**12])


def argv(verb, *parts):
    return st.tuples(*parts).map(lambda ps: [verb] + [a for p in ps for a in p])


VERBS = st.one_of(
    argv("residue", JET_INPUT),
    argv("normal-form", JET_INPUT),
    argv("flow", JET_INPUT, opt("time", LITERALS)),
    argv("power", JET_INPUT, opt("n", st.sampled_from([-3, -1, 0, 2, 10**8, 10**18]))),
    argv("field", JET_INPUT),
    argv("exp", opt("field", jet_json(field=True)), opt("time", LITERALS)),
    argv("szekeres", GERM_INPUT, opt("x0", FLOATS), opt("n", COUNTS), opt("tol", FLOATS)),
    argv("estimate-resit", GERM_INPUT, opt("x0", FLOATS), opt("n", COUNTS), opt("a", FLOATS)),
    argv("conjugate", opt("X", FIELDS), opt("Y", FIELDS), opt("x0", FLOATS), opt("grid", GRID)),
    argv(
        "contour",
        st.one_of(opt("poly", st.lists(LITERALS, min_size=1, max_size=4).map(",".join)), opt("jet", jet_json())),
        opt("radius", FLOATS),
        opt("points", st.sampled_from([-1, 8, 64, 2**20 + 1])),
    ),
    argv("diagnose", opt("X", FIELDS), opt("Y", FIELDS), opt("grid", GRID)),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(VERBS)
def test_every_verb_exits_0_or_1_with_strict_json(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    assert code in (0, 1), args

    def refuse(name):
        raise ValueError(f"non-strict JSON constant {name}")

    doc = json.loads(out.getvalue(), parse_constant=refuse)
    assert set(doc) & {"result", "error"}, args
    assert ("error" in doc) == (code == 1), args
