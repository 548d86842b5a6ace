"""Residue calculus for 1-D parabolic germs.

Exact side: truncated composition algebra over rationals or integers
(:mod:`germres.jets`), coefficient homomorphisms and additive residues
(:mod:`germres.residues`), the conjugacy invariants Res and Resit read
from the fixed-point index and normal-form reduction
(:mod:`germres.normal_form`), flows in truncated groups and the
germ/field correspondence (:mod:`germres.flows`).

Numeric side: Szekeres fields, time-coordinate flows and canonical
conjugacies, the orbit-deviation residue estimator, contour residues and
divergence diagnostics (:mod:`germres.numerics`), with a catalog of worked
germs and fields (:mod:`germres.catalog`).  Importing the package loads
neither numpy nor scipy, and neither do the exact side and the exact CLI
verbs: the numeric functions that use them import them on first call.
"""

from .jets import (
    INTEGER,
    RATIONAL,
    CarrierMismatch,
    FieldJet,
    Jet,
    NotInvertible,
    OrderError,
    compose,
    conjugate,
    invert,
    jet_from_json,
    jet_to_json,
    field_from_json,
    field_to_json,
    pullback_field,
)
from .residues import (
    TangencyClass,
    TangencyError,
    mod2_homs,
    phi,
    resad,
    resad_bar,
    schwarzian_at_origin,
    schwarzian_higher,
)
from .normal_form import (
    ReductionTrace,
    ResidueReport,
    reduce_field,
    reduce_germ,
    residue_report,
    tangency_order,
)
from .flows import (
    field_to_germ,
    flow_in_G,
    germ_to_field,
    power,
    ramified_push,
)
from .numerics import (
    GermSpec,
    NumericField,
    ResitEstimate,
    SzekeresResult,
    canonical_conjugacy,
    contour_residue,
    divergence_diagnostic,
    estimate_resit,
    field_from_coeffs,
    field_from_jet,
    flow_map,
    orbit_bound_check,
    szekeres_field,
    tau,
)
from .catalog import (
    catalog_field,
    catalog_germ,
    germ_from_jet,
    moebius,
    quadratic,
    ramified_flow,
)

__version__ = "0.1.0"

__all__ = [
    "CarrierMismatch",
    "FieldJet",
    "GermSpec",
    "INTEGER",
    "Jet",
    "NotInvertible",
    "NumericField",
    "OrderError",
    "RATIONAL",
    "ReductionTrace",
    "ResidueReport",
    "ResitEstimate",
    "SzekeresResult",
    "TangencyClass",
    "TangencyError",
    "canonical_conjugacy",
    "catalog",
    "catalog_field",
    "catalog_germ",
    "compose",
    "conjugate",
    "contour_residue",
    "divergence_diagnostic",
    "estimate_resit",
    "field_from_coeffs",
    "field_from_jet",
    "field_from_json",
    "field_to_germ",
    "field_to_json",
    "flow_in_G",
    "flow_map",
    "flows",
    "germ_from_jet",
    "germ_to_field",
    "invert",
    "jet_from_json",
    "jet_to_json",
    "jets",
    "mod2_homs",
    "moebius",
    "normal_form",
    "numerics",
    "orbit_bound_check",
    "phi",
    "power",
    "pullback_field",
    "quadratic",
    "ramified_flow",
    "ramified_push",
    "reduce_field",
    "reduce_germ",
    "resad",
    "resad_bar",
    "residue_report",
    "residues",
    "schwarzian_at_origin",
    "schwarzian_higher",
    "szekeres_field",
    "tangency_order",
    "tau",
]
