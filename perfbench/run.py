"""germres benchmark: one closed-loop client in one process and thread.

    python3 perfbench/run.py --workload exact-jets --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout; germres is imported from ``src/``.
The workload's requests come in decks of fixed structure whose inputs are
drawn from ``--seed``.  The timed phase serves whole decks until
``--seconds`` of serving are near and at least 100 requests are done.
Answers are checked against package-independent references afterwards.

``--trace 0`` prints the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` serves each request of the first deck untraced and then traced, and prints
the per-layer metrics; spans go to ``.bench_build/perfbench/``.  The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_REQUESTS = 100  # so that at least 10 latency samples lie beyond p90
SETUP_SAMPLES = 3  # this process plus fresh setup-only processes


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("exact-jets", "cli-mix", "szekeres-conjugacy"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help="set up, print setup_s and exit")
    return p.parse_args(argv)


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src" / "germres" / "__init__.py"
    if not spec_path.is_file() or not src.is_file():
        sys.exit(f"error: run from a germres source checkout ({src} or {spec_path} is missing)")
    return json.loads(spec_path.read_text())


def workload_class(name):
    from perfbench.cli_mix import CliMix
    from perfbench.exact_jets import ExactJets
    from perfbench.szekeres import Szekeres

    return {"exact-jets": ExactJets, "cli-mix": CliMix, "szekeres-conjugacy": Szekeres}[name]


def set_up(args, counters=None):
    """Import germres, generate the first deck, build fields and serve one
    warm-up request.  Returns (workload, first deck, seconds taken)."""
    start = time.perf_counter()
    import germres

    if Path(germres.__file__).resolve().parent != ROOT / "src" / "germres":
        sys.exit(f"error: imported germres from {germres.__file__}, not from this checkout")
    workload = workload_class(args.workload)(args.seed, counters)
    first = workload.deck(0, traced=False)
    warm = workload.warmup()
    ok, _ = warm.check(warm.call())
    if not ok:
        sys.exit("error: the warm-up request failed its check")
    return workload, first, time.perf_counter() - start


def serve(deck):
    """Serve a deck closed-loop. Returns [(request, answer, exception, seconds)]."""
    out = []
    for request in deck:
        start = time.perf_counter()
        try:
            answer, error = request.call(), None
        except Exception as exc:  # an unexpected exception is a failed request
            answer, error = None, exc
        out.append((request, answer, error, time.perf_counter() - start))
    return out


def timed_phase(workload, first, seconds):
    """Serve whole decks while the next one would end less than half a deck
    past ``seconds`` of serving, and until MIN_REQUESTS are done."""
    outcomes, busy, index = [], 0.0, 0
    while index == 0 or busy * (1 + 0.5 / index) < seconds or len(outcomes) < MIN_REQUESTS:
        deck = first if index == 0 else workload.deck(index)
        start = time.perf_counter()
        outcomes += serve(deck)
        busy += time.perf_counter() - start
        index += 1
    return outcomes, busy, index


def check(outcomes):
    """Returns (failed count, largest relative error, failure notes)."""
    from perfbench.oracle import HALF_ULP

    failed, worst, notes = 0, HALF_ULP, []
    for request, answer, error, _ in outcomes:
        if error is None:
            try:
                ok, err = request.check(answer)
            except Exception as exc:  # a malformed answer fails its check
                ok, err, error = False, None, exc
        else:
            ok, err = False, None
        if err is not None:
            worst = max(worst, err)
        if not ok:
            failed += 1
            notes.append(f"{request.kind}: {error!r}" if error is not None else f"{request.kind}: wrong answer")
    return failed, worst, notes


def end_to_end(args, spec):
    workload, first, own_setup = set_up(args)
    outcomes, busy, decks = timed_phase(workload, first, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, worst, notes = check(outcomes)
    from perfbench.probes import setup_samples

    setups = [own_setup] + setup_samples(ROOT, args.workload, args.seed, SETUP_SAMPLES - 1)
    latencies_ms = [o[3] * 1e3 for o in outcomes]
    attempted = len(outcomes)
    metrics = {
        "requests_per_s": attempted / busy,
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p90_ms": statistics.quantiles(latencies_ms, n=10)[8],
        "success_ratio": (attempted - failed) / attempted,
        "answer_error": worst,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"# {args.workload} seed={args.seed}: {attempted} requests in {decks} decks, {busy:.3f} s serving; "
          f"setup samples {', '.join(f'{s:.3f}' for s in setups)} s")
    return attempted, failed, notes, metrics


def per_layer(args, spec):
    from perfbench import probes, tracing

    counters = tracing.Counters()
    workload, first, _ = set_up(args, counters)
    tracer = tracing.Tracer(counters)
    deck = workload.deck(0, traced=True)
    # each request is served untraced and then traced, so that drift in the
    # machine's speed cancels out of the overhead ratio
    plain, traced = [], []
    for plain_request, traced_request in zip(first, deck):
        plain += serve([plain_request])
        tracer.install()
        try:
            traced += serve([traced_request])
        finally:
            tracer.uninstall()
    plain_s = sum(o[3] for o in plain)
    traced_s = sum(o[3] for o in traced)
    outcomes = plain + traced
    failed, _, notes = check(outcomes)

    metrics = tracing.layer_metrics(tracer, len(deck))
    metrics.update({
        "jets.coeff_bits_max": tracer.coeff_bits_max,
        "numerics.orbit_steps": counters.orbit_steps[0],
        "numerics.field_evals": counters.field_evals[0],
        "numerics.errors": tracer.numerics_errors,
        "expr.evals": counters.expr_evals[0],
        "trace.overhead_ratio": traced_s / plain_s - 1.0,
    })
    answers = [answer for _, answer, error, _ in traced if error is None] if args.workload == "cli-mix" else []
    metrics["cli.error_exits"] = sum(1 for code, _ in answers if code == 1)
    metrics["cli.output_bytes"] = sum(len(text.encode()) for _, text in answers)

    from germres import cli

    defects = probes.known_defects(ROOT, cli)
    metrics["cli.known_defects"] = len(defects)
    metrics["cli.cold_start_ms"], metrics["cli.interpreter_spawn_ms"] = probes.cold_start(ROOT)

    for m in spec["per_layer"]:
        if m["name"].endswith(".calls"):
            metrics.setdefault(m["name"], 0)
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in metrics and m["name"].endswith("_ms")]
    if missing:
        probe_tracer = tracing.Tracer(tracing.Counters())
        calls = probes.layer_probe(missing, probe_tracer)
        from_probe = tracing.layer_metrics(probe_tracer, calls)
        for name in missing:
            if name in from_probe:
                metrics[name] = from_probe[name]
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.dump(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    print(f"# {args.workload} seed={args.seed}: traced deck of {len(deck)} requests, "
          f"{plain_s:.3f} s untraced, {traced_s:.3f} s traced; known defects: {', '.join(defects) or 'none'}; "
          f"layer probe filled {len(missing)} metrics")
    return len(outcomes), failed, notes, metrics


def main(argv=None):
    args = parse_args(argv)
    spec = load_spec()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(ROOT))
    warnings.simplefilter("ignore")
    if args.setup_probe:
        _, _, seconds = set_up(args)
        print(json.dumps({"setup_s": seconds}))
        return 0
    attempted, failed, notes, metrics = (per_layer if args.trace else end_to_end)(args, spec)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {}
    for m in listed:
        if m["name"] not in metrics:
            raise RuntimeError(f"metric {m['name']} was not measured")
        value = metrics[m["name"]]
        if isinstance(value, float) and not math.isfinite(value):
            raise RuntimeError(f"metric {m['name']} is not finite: {value}")
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    for note in notes[:20]:
        print(f"# FAILED {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
