"""Residue calculus for 1-D parabolic germs.

Exact side: truncated composition algebra over rationals or integers
(:mod:`germres.jets`), coefficient homomorphisms and additive residues
(:mod:`germres.residues`), normal-form reduction with the conjugacy
invariants Res and Resit (:mod:`germres.normal_form`), flows in truncated
groups and the germ/field correspondence (:mod:`germres.flows`).

Numeric side: Szekeres fields, time-coordinate flows and canonical
conjugacies, the orbit-deviation residue estimator, contour residues and
divergence diagnostics (:mod:`germres.numerics`), with a catalog of worked
germs and fields (:mod:`germres.catalog`).
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
from .normal_form import ReductionTrace, ResidueReport, reduce_field, reduce_germ, tangency_order
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

__all__ = [name for name in dir() if not name.startswith("_")]
