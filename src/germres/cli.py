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

Output is deterministic JSON on stdout: an ``inputs`` echo, a ``result``
object, and a ``paper_refs`` list naming the formulas exercised.  Rationals
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
    FieldJet,
    Jet,
    NotInvertible,
    OrderError,
    field_from_json,
    field_to_dict,
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
    reduced = trace.reduced
    reduced_doc = field_to_dict(reduced) if isinstance(reduced, FieldJet) else jet_to_dict(reduced)
    return {
        "conjugator": jet_to_dict(trace.conjugator),
        "reduced": reduced_doc,
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
    """A germ from --catalog or --expr, with --ell/--a (where the verb has
    them) in place of its own flatness order and leading magnitude."""
    overrides = {name: value for name in ("ell", "a") if (value := getattr(args, name, None)) is not None}
    return dataclasses.replace(_build_germ_spec(args), **overrides)


def _build_germ_spec(args) -> numerics.GermSpec:
    if args.catalog is not None:
        return catalog.catalog_germ(args.catalog)
    if args.expr is not None:
        parsed = parse_germ(args.expr)
        if not isinstance(parsed, GermExpr):
            raise ValueError("numeric commands need a formula or catalog germ, not a jet")
        tag = parsed.catalog_tag()
        if tag is not None:
            return catalog.catalog_germ(tag)
        func, deriv = parsed.func, parsed.deriv
        try:
            # a rational formula regular at 0 gets exact flatness data; the
            # formula itself stays the evaluator
            return catalog.germ_from_jet(
                parsed.to_jet(DEFAULT_JET_ORDER),
                name=f"expr[{parsed.text}]",
                func=func,
                deriv=deriv,
                increment=lambda x: func(x) - x,
            )
        except NotASeries:
            pass
        x_probe = 0.05
        orientation = "contracting" if func(x_probe) < x_probe else "expanding"
        return numerics.GermSpec(
            name=f"expr[{parsed.text}]",
            func=func,
            deriv=deriv,
            increment=lambda x: func(x) - x,
            ell=1,
            a=1.0,
            orientation=orientation,
            x_max=0.4,
        )
    raise ValueError("need one of --expr / --catalog")


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


def _emit(doc, args, csv_rows=None, csv_header=None):
    if getattr(args, "format", "json") == "csv":
        if csv_rows is None:
            raise ValueError("csv output is not available for this command")
        lines = [",".join(csv_header)]
        lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in csv_rows]
        print("\n".join(lines))
    else:
        print(json.dumps(doc, sort_keys=True, allow_nan=False))
    return 0


def _inputs_echo(args, names):
    return {name: getattr(args, name.replace("-", "_")) for name in names if getattr(args, name.replace("-", "_"), None) is not None}


# -- command handlers --------------------------------------------------------


def _cmd_residue(args):
    f = _load_jet(args)
    report = residue_report(f)
    doc = {
        "inputs": _inputs_echo(args, ["jet", "expr", "catalog", "order"]),
        "result": {"jet": jet_to_dict(f), "report": _report_dict(report)},
        "paper_refs": ["additive-residue", "iterative-residue"],
    }
    return _emit(doc, args)


def _cmd_normal_form(args):
    f = _load_jet(args)
    trace, report = reduce_germ(f)
    doc = {
        "inputs": _inputs_echo(args, ["jet", "expr", "catalog", "order"]),
        "result": {"report": _report_dict(report), "trace": _trace_dict(trace)},
        "paper_refs": ["germ-normal-form-reduction"],
    }
    return _emit(doc, args)


def _cmd_flow(args):
    f = _load_jet(args)
    out = flow_in_G(f, args.time)
    doc = {
        "inputs": _inputs_echo(args, ["jet", "expr", "catalog", "time"]),
        "result": {"jet": jet_to_dict(out)},
        "paper_refs": ["truncated-group-flow"],
    }
    return _emit(doc, args)


def _cmd_power(args):
    f = _load_jet(args)
    out = power(f, args.n)
    doc = {
        "inputs": _inputs_echo(args, ["jet", "expr", "catalog", "n"]),
        "result": {"jet": jet_to_dict(out)},
        "paper_refs": ["composition-group"],
    }
    return _emit(doc, args)


def _cmd_field(args):
    f = _load_jet(args)
    X = germ_to_field(f)
    doc = {
        "inputs": _inputs_echo(args, ["jet", "expr", "catalog"]),
        "result": {"field": field_to_dict(X)},
        "paper_refs": ["germ-field-correspondence"],
    }
    return _emit(doc, args)


def _cmd_exp(args):
    X = field_from_json(args.field)
    _check_order(X.order)
    out = field_to_germ(X, args.time)
    doc = {
        "inputs": _inputs_echo(args, ["field", "time"]),
        "result": {"jet": jet_to_dict(out)},
        "paper_refs": ["field-time-t-map"],
    }
    return _emit(doc, args)


def _cmd_szekeres(args):
    if args.n < 1:
        raise numerics.DomainError(f"--n must be at least 1, not {args.n}")
    germ = _load_germ_spec(args)
    res = numerics.szekeres_field(germ, args.x0, n_max=args.n, tol=args.tol)
    doc = {
        "inputs": _inputs_echo(args, ["expr", "catalog", "x0", "n", "tol"]),
        "result": {"value": res.value, "iterations": res.iterations, "converged": res.converged},
        "paper_refs": ["szekeres-iterative-field"],
    }
    return _emit(doc, args)


def _cmd_estimate_resit(args):
    germ = _load_germ_spec(args)
    if args.schedule:
        schedule = [int(part) for part in args.schedule.split(",") if part.strip()]
    else:
        schedule = []
        n = 1000
        while n < args.n:
            schedule.append(n)
            n *= 10
        schedule.append(args.n)
        schedule = sorted(set(s for s in schedule if s <= args.n))
    est = numerics.estimate_resit(germ, args.x0, schedule)
    samples = [[n, e] for n, e in est.samples]
    doc = {
        "inputs": _inputs_echo(args, ["expr", "catalog", "x0", "n", "schedule", "ell", "a"]),
        "result": {
            "samples": samples,
            "extrapolated": est.extrapolated,
            "converged": est.converged,
        },
        "paper_refs": ["orbit-deviation-estimator"],
    }
    return _emit(doc, args, csv_rows=samples, csv_header=("n", "estimate"))


def _cmd_conjugate(args):
    X = _load_field(args.X)
    Y = _load_field(args.Y)
    h = numerics.canonical_conjugacy(X, Y, args.x0)
    rows = []
    for x in _grid(args.grid):
        hx = h(x)
        rows.append([x, hx, h.deriv(x)])
    doc = {
        "inputs": _inputs_echo(args, ["X", "Y", "x0", "grid"]),
        "result": {"samples": rows},
        "paper_refs": ["time-map-conjugacy"],
    }
    return _emit(doc, args, csv_rows=rows, csv_header=("x", "h", "Dh"))


def _float(c: Fraction) -> float:
    try:
        return float(c)
    except OverflowError:
        raise CoefficientError("a coefficient passes the float range (about 1.8e308)") from None


def _cmd_contour(args):
    if args.poly is not None:
        coeffs = [complex(_float(read_rational(part)), 0.0) for part in args.poly.split(",")]
    elif args.jet is not None:
        jet = jet_from_json(args.jet)
        coeffs = [_float(jet[n]) for n in range(1, jet.order + 1)]
    else:
        raise ValueError("need --poly or --jet")
    f = numerics._horner([-0j] + coeffs)  # (...) * z
    value = numerics.contour_residue(f, args.radius, args.points)
    doc = {
        "inputs": _inputs_echo(args, ["poly", "jet", "radius", "points"]),
        "result": {"value": _scalar(value)},
        "paper_refs": ["fixed-point-contour-residue"],
    }
    return _emit(doc, args)


def _cmd_diagnose(args):
    X = _load_field(args.X)
    Y = _load_field(args.Y)
    report = numerics.divergence_diagnostic(X, Y, _grid(args.grid), x0=args.x0)
    points = [[x, r] for x, r in report.points]
    doc = {
        "inputs": _inputs_echo(args, ["X", "Y", "grid", "x0"]),
        "result": {
            "slope": report.slope,
            "intercept": report.intercept,
            "correlation": report.correlation,
            "max_abs_ratio": report.max_abs_ratio,
            "points": points,
        },
        "paper_refs": ["conjugacy-divergence-diagnostic"],
    }
    return _emit(doc, args, csv_rows=points, csv_header=("x", "ratio"))


def _add_jet_inputs(p):
    p.add_argument("--jet", help="inline jet JSON {\"order\":k,\"coeffs\":[...]} ")
    p.add_argument("--expr", help="infix germ formula, e.g. 'x - x^2'")
    p.add_argument("--catalog", help="catalog germ tag")
    p.add_argument("--order", type=int, help="jet order for --expr/--catalog inputs")


@functools.cache
def build_parser():
    """The ``germres`` parser, built on the first call and shared by every
    later one in the process, so callers must not change it."""
    parser = argparse.ArgumentParser(prog="germres", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("residue", help="residue report of a parabolic jet")
    _add_jet_inputs(p)
    p.set_defaults(handler=_cmd_residue)

    p = sub.add_parser("normal-form", help="reduction trace and residue report")
    _add_jet_inputs(p)
    p.set_defaults(handler=_cmd_normal_form)

    p = sub.add_parser("flow", help="time-t flow element through a jet")
    _add_jet_inputs(p)
    p.add_argument("--time", required=True, help="rational time, e.g. 2 or 1/3")
    p.set_defaults(handler=_cmd_flow)

    p = sub.add_parser("power", help="integer composition power of a jet")
    _add_jet_inputs(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_power)

    p = sub.add_parser("field", help="generating field jet of a germ jet")
    _add_jet_inputs(p)
    p.set_defaults(handler=_cmd_field)

    p = sub.add_parser("exp", help="time-t map of a field jet")
    p.add_argument("--field", required=True, help='field JSON {"kind":"field","order":k,"coeffs":[...]}')
    p.add_argument("--time", required=True, help="rational time")
    p.set_defaults(handler=_cmd_exp)

    p = sub.add_parser("szekeres", help="iterative field value of a contracting germ")
    p.add_argument("--expr")
    p.add_argument("--catalog")
    p.add_argument("--x0", type=float, required=True, help="evaluation point")
    p.add_argument("--n", type=int, default=100_000, help="iteration cap")
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(handler=_cmd_szekeres)

    p = sub.add_parser("estimate-resit", help="orbit-deviation residue estimator")
    p.add_argument("--expr")
    p.add_argument("--catalog")
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--n", type=int, default=1_000_000, help="largest orbit length")
    p.add_argument("--schedule", help="explicit comma list of orbit lengths")
    p.add_argument("--ell", type=int)
    p.add_argument("--a", type=float)
    p.set_defaults(handler=_cmd_estimate_resit)

    p = sub.add_parser("conjugate", help="canonical conjugacy between two fields")
    p.add_argument("--X", required=True, help="field spec: catalog tag or poly:c2,c3,...")
    p.add_argument("--Y", required=True)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--grid", required=True, help="comma list of x values")
    p.set_defaults(handler=_cmd_conjugate)

    p = sub.add_parser("contour", help="complex fixed-point residue")
    p.add_argument("--poly", help="comma list a1,a2,... of f(z) = a1 z + a2 z^2 + ...")
    p.add_argument("--jet", help="inline jet JSON to evaluate as a polynomial")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--points", type=int, default=256)
    p.set_defaults(handler=_cmd_contour)

    p = sub.add_parser("diagnose", help="divergence diagnostic between two fields")
    p.add_argument("--X", required=True)
    p.add_argument("--Y", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--x0", type=float)
    p.set_defaults(handler=_cmd_diagnose)

    for name, sp in sub.choices.items():
        sp.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _ERRORS as exc:
        message = str(exc)
        if isinstance(exc, KeyError) and exc.args:
            message = str(exc.args[0])
        doc = {"error": {"code": type(exc).__name__, "message": message}}
        print(json.dumps(doc, sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
