"""Measurements made outside the timed phase.

* ``setup_samples`` -- fresh processes that only set the workload up;
* ``cold_start`` -- fresh ``python -m germres.cli residue`` processes and
  bare interpreters;
* ``known_defects`` -- the CLI misbehaviours listed in ROADMAP.md, kept
  out of the workloads (whose requests must all succeed) and counted here;
* ``layer_probe`` -- one traced call per timed function, for the per-layer
  times of functions a workload never calls.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from .cli_mix import run_cli, strict_json

RESIDUE_ARGV = ["residue", "--jet", '{"order":3,"coeffs":["1","-1","0"]}']


def child_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, root, timeout):
    """Run a child process to completion (killed and reaped on timeout).
    Returns (elapsed seconds, exit code or None on timeout, stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=root, env=child_env(root), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return time.perf_counter() - start, None, ""
    return time.perf_counter() - start, proc.returncode, out


def setup_samples(root, workload, seed, count):
    samples = []
    for _ in range(count):
        argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "0", "--setup-probe"]
        _, code, out = run_child(argv, root, timeout=170)
        if code != 0:
            raise RuntimeError(f"setup probe exited with {code}")
        samples.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    return samples


def cold_start(root, samples=7):
    """Median wall times (ms) of a fresh CLI process and of a bare interpreter."""
    cli_ms, bare_ms = [], []
    for _ in range(samples):
        elapsed, code, _ = run_child([sys.executable, "-m", "germres.cli", *RESIDUE_ARGV], root, timeout=60)
        if code != 0:
            raise RuntimeError(f"cold-start CLI process exited with {code}")
        cli_ms.append(elapsed * 1e3)
        elapsed, code, _ = run_child([sys.executable, "-c", "pass"], root, timeout=60)
        bare_ms.append(elapsed * 1e3)
    return statistics.median(cli_ms), statistics.median(bare_ms)


def known_defects(root, cli):
    """Names of the known CLI defects that still show."""
    found = []

    def misbehaves(argv, want_result=False):
        try:
            code, text = run_cli(cli.main, argv)
        except Exception:
            return True
        doc = strict_json(code, text)
        return doc is None or (want_result and "result" not in doc)

    if misbehaves(["contour", "--poly", "1,1", "--radius", "1e308"]):
        found.append("contour-nan")
    if misbehaves(["residue", "--expr", "(" * 2000 + "x" + ")" * 2000, "--order", "3"]):
        found.append("deep-parentheses")
    # flow_map's absolute residual test on a time coordinate ~1/x^2; fails for this input
    if misbehaves(["conjugate", "--X", "poly:0,-1/2", "--Y", "poly:0,-1/2", "--x0", "0.1", "--grid", "3e-4"], True):
        found.append("tau-absolute-residual")
    argv = [sys.executable, "-m", "germres.cli", "power", "--expr", "x - x^2", "--order", "3", "--n", "100000000"]
    _, code, out = run_child(argv, root, timeout=5)
    if code is None or strict_json(code, out) is None:
        found.append("power-hang")
    return found


def _probe_calls():
    """(metric prefix, call) pairs; each call runs one timed function once."""
    from germres import catalog, cli, expr, flows, jets, normal_form, numerics, residues

    from .common import deck_rng, field_coeffs, parabolic_coeffs

    rng = deck_rng(0, "probe", "layer")

    def jet(K, ell=1):
        return jets.Jet(parabolic_coeffs(rng, K, ell))

    poly = numerics.field_from_coeffs("probe", {2: -1, 3: -1})
    square = numerics.field_from_coeffs("probe2", {2: -1})
    calls = []
    for K in (9, 17, 33):
        f, g = jet(K), jet(K)
        calls.append((f"jets.compose.k{K}", lambda f=f, g=g: jets.compose(f, g)))
        calls.append((f"jets.invert.k{K}", lambda f=f: jets.invert(f)))
        h = jet(K, 2)
        calls.append((f"normal_form.reduce_germ.k{K}", lambda h=h: normal_form.reduce_germ(h)))
    f, g = jet(17), jet(17)
    calls.append(("jets.conjugate.k17", lambda: jets.conjugate(f, g)))
    X9 = jets.FieldJet(field_coeffs(rng, 9, 1))
    h9 = jet(9)
    calls.append(("jets.pullback_field", lambda: jets.pullback_field(h9, X9)))
    calls.append(("normal_form.reduce_field", lambda: normal_form.reduce_field(X9)))
    p = jet(9, 2)
    calls.append(("flows.power.k9", lambda: flows.power(p, 20)))
    for K in (9, 13):
        X = jets.FieldJet(field_coeffs(rng, K, 1))
        calls.append((f"flows.field_to_germ.k{K}", lambda X=X: flows.field_to_germ(X, Fraction(1, 2))))
    f5 = jet(5, 2)
    calls.append(("flows.germ_to_field", lambda: flows.germ_to_field(f5)))
    calls.append(("flows.flow_in_G", lambda: flows.flow_in_G(f5, Fraction(3, 2))))
    calls.append(("residues.resad", lambda: residues.resad(f5, 2)))
    calls.append(("numerics.tau", lambda: numerics.tau(poly, 0.1, 1e-3)))
    calls.append(("numerics.flow_map", lambda: numerics.flow_map(poly, 0.1, 50.0)))
    moebius = catalog.moebius()
    quadratic = catalog.quadratic()
    calls.append(("numerics.szekeres_field", lambda: numerics.szekeres_field(moebius, 0.01, n_max=100, tol=0.0)))
    calls.append(("numerics.estimate_resit", lambda: numerics.estimate_resit(quadratic, 0.3, [1000, 10000])))
    calls.append(("numerics.divergence_diagnostic", lambda: numerics.divergence_diagnostic(poly, square, [1e-2, 1e-3, 1e-4])))
    calls.append(("numerics.contour_residue", lambda: numerics.contour_residue(lambda z: z + z * z + 0.5 * z**3, 0.3)))
    q = jets.Jet((1, Fraction(-1, 2), Fraction(1, 4)))
    calls.append(("catalog.germ_from_jet", lambda: catalog.germ_from_jet(q)))
    calls.append(("expr.parse", lambda: expr.parse_expr("x/(1+x)")))
    parsed = expr.parse_expr("x/(1+x)")
    calls.append(("expr.to_jet", lambda: parsed.to_jet(7)))
    calls.append(("cli.main", lambda: run_cli(cli.main, RESIDUE_ARGV)))
    return calls


def layer_probe(missing, tracer):
    """Run, under ``tracer``, the probe calls that cover ``missing`` metrics.
    Returns the number of calls made."""
    missing_layers = {name.split(".", 1)[0] for name in missing if name.count(".") == 1}
    chosen = [
        call
        for prefix, call in _probe_calls()
        if prefix.split(".", 1)[0] in missing_layers or any(name.startswith(prefix + ".") or name.startswith(prefix + "_") for name in missing)
    ]
    tracer.install()
    try:
        for call in chosen:
            call()
    finally:
        tracer.uninstall()
    return len(chosen)
