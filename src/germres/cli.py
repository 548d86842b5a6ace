"""Command-line front end.

Verbs map one-to-one onto library operations::

    residue        residue report of a jet, from its fixed-point index
    normal-form    reduction trace + residue report
    flow           time-t element of the flow through a jet
    power          integer composition power
    field          generating field jet of a germ jet
    exp            time-t map of a field jet
    szekeres       iterative field value of a contracting germ
    estimate-resit orbit-deviation residue estimator
    conjugate      canonical conjugacy table between two fields
    contour        complex fixed-point residue on a circle
    diagnose       divergence diagnostic between two fields

Output is deterministic JSON on stdout: ``inputs``, which echoes every
option the verb received as parsed, defaults included (``--format`` and
options left unset are omitted), a ``result`` object, and a ``paper_refs``
list naming the formulas exercised.  Rationals
print as canonical ``p/q`` strings, reals as shortest round-trip decimals,
keys are sorted.  ``--format csv`` is available for the tabular commands
(estimate-resit, conjugate, diagnose).  Errors are serialized as
``{"error": {"code", "message"}}`` with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction

from . import catalog, numerics
from .expr import GermExpr, NotASeries, ParseError, parse_germ
from .flows import CoercionError, field_to_germ, flow_in_G, germ_to_field, power
from .jets import (
    CarrierMismatch,
    CoefficientError,
    Jet,
    NotInvertible,
    OrderError,
    field_from_json,
    jet_from_json,
    jet_to_dict,
    read_rational,
)
from .normal_form import reduce_germ, residue_report
from .residues import TangencyError

_ERRORS = (
    CarrierMismatch,
    NotInvertible,
    OrderError,
    CoefficientError,
    TangencyError,
    CoercionError,
    ParseError,
    NotASeries,
    numerics.NumericsError,
    KeyError,
    ValueError,
)

DEFAULT_JET_ORDER = 9

# the dense exact verbs grow like K^4 in the jet order K: at their worst
# inputs (normal-form at ell = 24, power --n 10^8) order 49 takes ~0.5 s
# and order 65 ~4 s on a 2-core Xeon, so longer jets are refused
MAX_JET_ORDER = 49


def _scalar(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, complex):
        return {"im": v.imag, "re": v.real}
    return v


def _report_dict(report):
    return {
        "ell": report.ell,
        "leading": _scalar(report.leading),
        "res": _scalar(report.res),
        "resit": _scalar(report.resit),
        "resad": _scalar(report.resad),
        "expanding": report.expanding,
    }


def _trace_dict(trace):
    return {
        "conjugator": jet_to_dict(trace.conjugator),
        "reduced": jet_to_dict(trace.reduced),
        "steps": [[deg, _scalar(alpha)] for deg, alpha in trace.steps],
    }


def _check_order(order: int):
    if order > MAX_JET_ORDER:
        raise OrderError(f"jet order {order} is above {MAX_JET_ORDER}, the most the exact verbs take")


def _load_jet(args) -> Jet:
    """A jet from --jet JSON, --expr (expanded exactly), or --catalog."""
    order = DEFAULT_JET_ORDER if args.order is None else args.order
    _check_order(order)
    if args.jet is not None:
        f = jet_from_json(args.jet)
    elif args.expr is not None:
        parsed = parse_germ(args.expr)
        f = parsed if isinstance(parsed, Jet) else parsed.to_jet(order)
    elif args.catalog is not None:
        germ = catalog.catalog_germ(args.catalog)
        if germ.jet_fn is None:
            raise ValueError(f"catalog germ {args.catalog!r} has no exact jet")
        f = germ.jet_fn(order)
    else:
        raise ValueError("need one of --jet / --expr / --catalog")
    _check_order(f.order)
    return f


def _load_germ_spec(args) -> numerics.GermSpec:
    """A germ from --catalog or --expr."""
    if args.catalog is not None:
        return catalog.catalog_germ(args.catalog)
    if args.expr is None:
        raise ValueError("need one of --expr / --catalog")
    parsed = parse_germ(args.expr)
    if not isinstance(parsed, GermExpr):
        raise ValueError("numeric commands need a formula or catalog germ, not a jet")
    tag = parsed.catalog_tag()
    if tag is not None:
        return catalog.catalog_germ(tag)
    func, deriv, increment = parsed.func, parsed.deriv, parsed.increment
    try:
        # a rational formula regular at 0 gets exact flatness data; the
        # formula itself stays the evaluator
        return catalog.germ_from_jet(
            parsed.to_jet(DEFAULT_JET_ORDER),
            name=f"expr[{parsed.text}]",
            func=func,
            deriv=deriv,
            increment=increment,
        )
    except NotASeries:
        pass
    x_probe = 0.05
    orientation = "contracting" if func(x_probe) < x_probe else "expanding"
    return numerics.GermSpec(
        name=f"expr[{parsed.text}]",
        func=func,
        deriv=deriv,
        increment=increment,
        ell=1,
        a=1.0,
        orientation=orientation,
        x_max=0.4,
    )


def _load_field(spec_text: str) -> numerics.NumericField:
    """Field from 'catalog:<tag>', 'poly:c2,c3,...', or a bare catalog tag."""
    if spec_text.startswith("poly:"):
        raw = spec_text[len("poly:") :]
        coeffs = {}
        for degree, part in enumerate(raw.split(","), start=2):
            part = part.strip()
            if part:
                coeffs[degree] = read_rational(part)
        return numerics.field_from_coeffs(spec_text, coeffs)
    tag = spec_text[len("catalog:") :] if spec_text.startswith("catalog:") else spec_text
    return catalog.catalog_field(tag)


def _grid(text: str):
    values = [float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError("empty grid")
    return values


# -- command handlers: each returns the document's ``result`` -----------------


def _cmd_residue(args):
    f = _load_jet(args)
    return {"jet": jet_to_dict(f), "report": _report_dict(residue_report(f))}


def _cmd_normal_form(args):
    trace, report = reduce_germ(_load_jet(args))
    return {"report": _report_dict(report), "trace": _trace_dict(trace)}


def _cmd_flow(args):
    return {"jet": jet_to_dict(flow_in_G(_load_jet(args), args.time))}


def _cmd_power(args):
    return {"jet": jet_to_dict(power(_load_jet(args), args.n))}


def _cmd_field(args):
    return {"field": jet_to_dict(germ_to_field(_load_jet(args)))}


def _cmd_exp(args):
    X = field_from_json(args.field)
    _check_order(X.order)
    return {"jet": jet_to_dict(field_to_germ(X, args.time))}


def _cmd_szekeres(args):
    if args.n < 1:
        raise numerics.DomainError(f"--n must be at least 1, not {args.n}")
    res = numerics.szekeres_field(_load_germ_spec(args), args.x0, n_max=args.n, tol=args.tol)
    return {"value": res.value, "iterations": res.iterations, "converged": res.converged}


def _cmd_estimate_resit(args):
    overrides = {name: value for name, value in (("ell", args.ell), ("a", args.a)) if value is not None}
    germ = dataclasses.replace(_load_germ_spec(args), **overrides)
    if args.schedule:
        schedule = [int(part) for part in args.schedule.split(",") if part.strip()]
    else:
        schedule = []
        n = 1000
        while n < args.n:
            schedule.append(n)
            n *= 10
        schedule.append(args.n)
    est = numerics.estimate_resit(germ, args.x0, schedule)
    return {
        "samples": [[n, e] for n, e in est.samples],
        "extrapolated": est.extrapolated,
        "converged": est.converged,
    }


def _cmd_conjugate(args):
    h = numerics.canonical_conjugacy(_load_field(args.X), _load_field(args.Y), args.x0)
    return {"samples": [[x, h(x), h.deriv(x)] for x in _grid(args.grid)]}


def _float(c: Fraction) -> float:
    try:
        return float(c)
    except OverflowError:
        raise CoefficientError("a coefficient passes the float range (about 1.8e308)") from None


def _cmd_contour(args):
    if args.poly is not None:
        coeffs = [complex(_float(read_rational(part)), 0.0) for part in args.poly.split(",")]
    elif args.jet is not None:
        coeffs = [_float(c) for c in jet_from_json(args.jet).coeffs]
    else:
        raise ValueError("need --poly or --jet")
    f = numerics._horner([-0j] + coeffs)  # (...) * z
    return {"value": _scalar(numerics.contour_residue(f, args.radius, args.points))}


def _cmd_diagnose(args):
    X = _load_field(args.X)
    Y = _load_field(args.Y)
    report = numerics.divergence_diagnostic(X, Y, _grid(args.grid), x0=args.x0)
    return {
        "slope": report.slope,
        "intercept": report.intercept,
        "correlation": report.correlation,
        "max_abs_ratio": report.max_abs_ratio,
        "points": [[x, r] for x, r in report.points],
    }


def _add_jet_inputs(p):
    p.add_argument("--jet", help="inline jet JSON {\"order\":k,\"coeffs\":[...]} ")
    p.add_argument("--expr", help="infix germ formula, e.g. 'x - x^2'")
    p.add_argument("--catalog", help="catalog germ tag")
    p.add_argument("--order", type=int, help="jet order for --expr/--catalog inputs")


@functools.cache
def build_parser():
    """The ``germres`` parser, built on the first call and shared by every
    later one in the process, so callers must not change it.

    Each verb declares its options, its handler, its ``paper_refs`` and,
    if it is tabular, ``table``: the result key holding the rows and the
    CSV header."""
    parser = argparse.ArgumentParser(prog="germres", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, summary, handler, paper_refs, table=None):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler, paper_refs=paper_refs, table=table)
        return p

    p = verb("residue", "residue report of a parabolic jet", _cmd_residue, ["additive-residue", "iterative-residue"])
    _add_jet_inputs(p)

    p = verb("normal-form", "reduction trace and residue report", _cmd_normal_form, ["germ-normal-form-reduction"])
    _add_jet_inputs(p)

    p = verb("flow", "time-t flow element through a jet", _cmd_flow, ["truncated-group-flow"])
    _add_jet_inputs(p)
    p.add_argument("--time", required=True, help="rational time, e.g. 2 or 1/3")

    p = verb("power", "integer composition power of a jet", _cmd_power, ["composition-group"])
    _add_jet_inputs(p)
    p.add_argument("--n", type=int, required=True)

    p = verb("field", "generating field jet of a germ jet", _cmd_field, ["germ-field-correspondence"])
    _add_jet_inputs(p)

    p = verb("exp", "time-t map of a field jet", _cmd_exp, ["field-time-t-map"])
    p.add_argument("--field", required=True, help='field JSON {"kind":"field","order":k,"coeffs":[...]}')
    p.add_argument("--time", required=True, help="rational time")

    p = verb("szekeres", "iterative field value of a contracting germ", _cmd_szekeres, ["szekeres-iterative-field"])
    p.add_argument("--expr")
    p.add_argument("--catalog")
    p.add_argument("--x0", type=float, required=True, help="evaluation point")
    p.add_argument("--n", type=int, default=100_000, help="iteration cap")
    p.add_argument("--tol", type=float, default=1e-12)

    p = verb(
        "estimate-resit", "orbit-deviation residue estimator", _cmd_estimate_resit,
        ["orbit-deviation-estimator"], table=("samples", ("n", "estimate")),
    )
    p.add_argument("--expr")
    p.add_argument("--catalog")
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--n", type=int, default=1_000_000, help="largest orbit length")
    p.add_argument("--schedule", help="explicit comma list of orbit lengths")
    p.add_argument("--ell", type=int)
    p.add_argument("--a", type=float)

    p = verb(
        "conjugate", "canonical conjugacy between two fields", _cmd_conjugate,
        ["time-map-conjugacy"], table=("samples", ("x", "h", "Dh")),
    )
    p.add_argument("--X", required=True, help="field spec: catalog tag or poly:c2,c3,...")
    p.add_argument("--Y", required=True)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--grid", required=True, help="comma list of x values")

    p = verb("contour", "complex fixed-point residue", _cmd_contour, ["fixed-point-contour-residue"])
    p.add_argument("--poly", help="comma list a1,a2,... of f(z) = a1 z + a2 z^2 + ...")
    p.add_argument("--jet", help="inline jet JSON to evaluate as a polynomial")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--points", type=int, default=256)

    p = verb(
        "diagnose", "divergence diagnostic between two fields", _cmd_diagnose,
        ["conjugacy-divergence-diagnostic"], table=("points", ("x", "ratio")),
    )
    p.add_argument("--X", required=True)
    p.add_argument("--Y", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--x0", type=float)

    for sp in sub.choices.values():
        sp.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


# namespace entries that are not the verb's inputs
_NOT_INPUTS = ("command", "handler", "paper_refs", "table", "format")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.handler(args)
        if args.format == "csv":
            if args.table is None:
                raise ValueError("csv output is not available for this command")
            key, header = args.table
            rows = [header, *result[key]]
            print("\n".join(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in rows))
        else:
            inputs = {name: value for name, value in vars(args).items() if value is not None and name not in _NOT_INPUTS}
            doc = {"inputs": inputs, "result": result, "paper_refs": args.paper_refs}
            print(json.dumps(doc, sort_keys=True, allow_nan=False))
        return 0
    except _ERRORS as exc:
        message = str(exc)
        if isinstance(exc, KeyError) and exc.args:
            message = str(exc.args[0])
        doc = {"error": {"code": type(exc).__name__, "message": message}}
        print(json.dumps(doc, sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
