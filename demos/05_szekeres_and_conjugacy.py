"""Numeric dynamics: recovering generating fields by iteration, canonical
conjugacies between flows, and the divergence diagnostic that witnesses
residue mismatches.

Run:  python demos/05_szekeres_and_conjugacy.py
"""

from germres import (
    FieldJet,
    canonical_conjugacy,
    catalog_field,
    catalog_germ,
    divergence_diagnostic,
    field_to_germ,
    flow_map,
    residue_report,
    schwarzian_at_origin,
    szekeres_field,
)
from germres.catalog import szekeres_numeric_field

print("The generating field of a contracting germ has an iterative formula")
print("X(x) = lim (f^{n+1}(x) - f^n(x)) / Df^n(x):")
moeb = catalog_germ("moebius")
quad = catalog_germ("quadratic")
res = szekeres_field(moeb, 0.3, n_max=10**5, tol=0.0)
print(f"  moebius at 0.3:   {res.value:+.9f}   (exact field -x^2 gives -0.09)")
res = szekeres_field(quad, 0.05, n_max=10**5, tol=1e-12)
print(f"  quadratic at 0.05: {res.value:+.9f}  (-x^2 - x^3 gives -0.002625)")

print("\nTime maps come from the time coordinate tau(x) = int dx/X:")
X = catalog_field("neg_x2")
print(f"  flow of -x^2 from 0.5 for time 1: {flow_map(X, 0.5, 1.0):.12f}"
      "  (exact 1/3)")

print("\nTwo fields of the same flatness order conjugate canonically via")
print("h = tau_Y^{-1} o tau_X; h intertwines the flows by construction:")
Y = catalog_field("neg_2x2")
h = canonical_conjugacy(X, Y, 0.3)
x = 0.2
print(f"  h(0.2)  = {h(x):.12f}   (closed form 0.15)")
print(f"  Dh(0.2) = {h.deriv(x):.12f}")
dev = abs(flow_map(Y, h(x), 2.0) - h(flow_map(X, x, 2.0)))
print(f"  |flow_Y(h(x), 2) - h(flow_X(x, 2))| = {dev:.2e}")

print("\nWhen the residues differ, the conjugacy exists but degenerates at 0:")
print("(h(x) - x)/x^2 grows like log(1/x), so h is not twice differentiable.")
Z = catalog_field("neg_x2_x3")  # field of x - x^2, residue differs from -x^2
report = divergence_diagnostic(Z, X, [1e-2, 1e-3, 1e-4, 1e-5])
for x, ratio in report.points:
    print(f"  x = {x:8.0e}   (h(x)-x)/x^2 = {ratio:9.4f}")
print(f"  fitted slope against log(1/x): {report.slope:.4f}  "
      f"(corr {report.correlation:.6f})")

same = divergence_diagnostic(X, X, [1e-2, 1e-3, 1e-4, 1e-5])
print(f"  identical fields for comparison: slope {same.slope:.1e}")

print("\nSo the Schwarzian at 0 moves under a C^1 parabolic conjugacy (the")
print("abstract's headline at l = 1). Exactly, the time-1 map g_b of")
print("-x^2 + b x^3 has S(0) = -6b and resit -b:")
for b in (0, -1, 3):
    g = field_to_germ(FieldJet.of(-1, b), 1)
    print(f"  b = {b:2d}: g_b = {g}   S(0) = {schwarzian_at_origin(g)}, resit = {residue_report(g).resit}")
print("Numerically, h from -x^2 (g_0, S = 0) to -x^2 - x^3 (g_-1, S = 6)")
print("conjugates the time-1 maps, and Dh -> 1 though h is not C^2:")
h = canonical_conjugacy(X, Z, 0.1)
for x in (1e-2, 1e-4, 1e-6):
    dev = abs(h(x / (1 + x)) - flow_map(Z, h(x), 1.0)) / x
    print(f"  x = {x:6.0e}   |h(g_0(x)) - g_-1(h(x))|/x = {dev:.1e}   Dh(x) - 1 = {h.deriv(x) - 1:+.2e}")

print("\nThe iterative field of x - x^2, built pointwise, conjugates to -x^2")
print("with Dh -> 1 (a parabolic conjugacy, as the leading terms force):")
Xq = szekeres_numeric_field(quad, n=10_000)
hq = canonical_conjugacy(Xq, X, 0.1)
for x in (1e-2, 1e-3, 1e-4):
    print(f"  Dh({x:6.0e}) = {hq.deriv(x):.6f}")

print("\nPulling x^2 back along the singular conjugators of the catalog")
print("gives fields that are still tangent to x^2 but only finitely smooth:")
for tag in ("pullback_log_cubic", "pullback_loglog"):
    W = catalog_field(tag)
    devs = [(W.func(x) - x * x) / x**3 for x in (1e-2, 1e-3, 1e-4)]
    print(f"  {tag:20s} (Y(x)-x^2)/x^3 = " + ", ".join(f"{d:+.4f}" for d in devs))
