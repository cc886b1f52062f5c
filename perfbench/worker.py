"""One benchmark process: set up a workload, then run passes until time is up.

Started by run.py, never by hand.  With ``--role setup`` it exits once set
up, so that run.py can time set-up several times.  It prints one JSON
line; set-up time counts from ``--t0``, the CLOCK_MONOTONIC reading taken
by run.py just before it started this process, in wall seconds.  Pass
times are in reference seconds (calib.py) on workloads with
``speed_scaled`` set, else in wall seconds.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

import calib
import spans
from workloads import WORKLOADS, Recorder, max_rss_mb

ROOT = Path(__file__).resolve().parent.parent
# the one function whose plain timing lies inside a call the benchmark makes
PLAIN_SPANS = {"einstein.solve_numeric"}


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"


def speed_sampler(wl):
    """A kernel sampler for the workload's passes; none if it reports wall time."""
    return calib.SpeedSampler() if wl.speed_scaled else nullcontext()


def layer_metrics(rec: Recorder, plain: list, traced, trace_rec: Recorder,
                  traced_s: float, plain_s: list[float]) -> dict:
    """Per-layer metrics: plain timings from the untraced passes (``rec``
    and the ``plain`` spans), counts and self times from the traced pass."""
    ms = 1e3
    m = {}
    for name, by_n in rec.times.items():
        everything = [v for vs in by_n.values() for v in vs]
        if name.startswith("cli."):
            m[f"{name}_s"] = statistics.median(everything)
            continue
        m[f"{name}.ms"] = statistics.median(everything) * ms
        for n, vs in by_n.items():
            m[f"{name}.n{n}_ms"] = statistics.median(vs) * ms
    if "algebra.structure_tensors.ms" in m:  # timed only right after cache clears
        m["algebra.structure_tensors.cold_ms"] = m.pop("algebra.structure_tensors.ms")
    m.update(rec.gauges)
    for n, vs in spans.durations_by_n(plain, "einstein.solve_numeric").items():
        m[f"einstein.solve_numeric.n{n}_ms"] = statistics.median(vs) * ms
    if traced is not None:
        calls, self_s = traced["calls"], traced["self_s"]
        for name in ("nomizu.curvature", "spaces.LinearSpace.element"):
            m[f"{name}.calls"] = calls.get(name, 0)
            m[f"{name}.self_s"] = self_s.get(name, 0.0)
        m["algebra.MVec.constructed"] = calls.get("algebra.MVec.__post_init__", 0)
        m["einstein.solve_numeric.residual_evals"] = traced["residual_evals"]
        for layer in spans.LAYERS:
            m[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                       if k.startswith(layer + "."))
        m["einstein.solve_numeric.extra_samples"] = trace_rec.counts.get(
            "einstein.solve_numeric.extra_samples", 0)
        m["trace.overhead_frac"] = traced_s / statistics.median(plain_s) - 1.0
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("setup", "work"), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--spans-out", default=None)
    args = p.parse_args(argv)

    import bergerconn

    src = ROOT / "src"
    if src not in Path(bergerconn.__file__).resolve().parents:
        print(f"bergerconn imported from {bergerconn.__file__}, not {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](bergerconn, args.seed, str(ROOT))
    wl.setup()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rec = Recorder()
    passes = []
    trace = bool(args.trace)
    plain = spans.Tracer(bergerconn, PLAIN_SPANS) if trace else nullcontext()
    t_end = perf_counter() + args.seconds
    with speed_sampler(wl) as speed, plain:
        while not passes or perf_counter() < t_end:
            passes.append(wl.run_pass(rec, speed))

    # a pass's time: each task's median over the run, summed
    per_task = zip(*(p.ref for p in passes))
    out = {
        "pass_s": sum(statistics.median(ts) for ts in per_task),
        "pass_wall_s": [p.seconds for p in passes],
        "kernel_s": speed.median_kernel_s() if speed else None,
        "ref_kernel_s": calib.REF_KERNEL_S,
        "latencies_s": [t for p in passes for t in p.latencies],
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "peak_rss_mb": max_rss_mb(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(),
    }
    if not wl.in_process:  # the work ran in child processes
        out["peak_rss_mb"] = max_rss_mb(resource.RUSAGE_CHILDREN)
    if trace:
        summary, traced_s, trace_rec = None, 0.0, Recorder()
        if wl.in_process:
            full = spans.Tracer(bergerconn)
            with speed_sampler(wl) as tspeed, full:
                tp = wl.run_pass(trace_rec, tspeed)
            out["attempted"] += tp.attempted
            out["failed"] += tp.failed
            summary, traced_s = spans.summarize(full.spans), tp.ref_seconds
            if args.spans_out:
                spans.write_spans(args.spans_out, full.spans)
        out["layers"] = layer_metrics(rec, plain.spans, summary, trace_rec, traced_s,
                                      [p.ref_seconds for p in passes])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
