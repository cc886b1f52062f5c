"""Benchmark of the bergerconn package.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

W is one of spaces_cold, crosscheck, einstein_table, cli_cold, or ``all``.
The package is imported from ``src/`` of the checkout, never from an
installed copy.  Each run starts 3 to 9 fresh worker processes that
only set the workload up, to time set-up, and then one that sets it
up and runs passes over the workload's task list for T seconds, checking
every output against references fixed in perfbench/checks.py.

With --trace 0 the last line of output is the end-to-end result; with
--trace 1 it holds the per-layer metrics, and the spans of the traced pass
are written to .perfbench/.  The lines before it give the run record
(git sha, versions, BLAS library and thread count, nproc, seed, tasks
attempted, failed fraction, wall times).  The metric names and units come
from BENCHMARK.json.

setup_s is in wall seconds, the median over the run's set-ups.  pass_s is
in reference seconds: wall seconds scaled by the speed of a fixed
calibration kernel timed during the work in the process that does it
(calib.py), so that the drift of a shared host's CPU speed cancels; it
sums each task's median over the run.  On spaces_cold the SVDs do not
follow the kernel's speed, and pass_s there is in wall seconds.  Wall
pass times are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("spaces_cold", "crosscheck", "einstein_table", "cli_cold")
# set-ups timed per run: at least MIN_SETUPS, and more, up to MAX_SETUPS,
# while they have taken under SETUP_BUDGET_S, so that short set-ups are
# timed often enough for their median to hold still
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 9, 3.0
NPROC = len(os.sched_getaffinity(0))
# one BLAS thread: the tasks are mostly small matrices, where a second
# thread adds little and makes timings follow the other load of the host
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0  # one run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every run compiles the same way
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; the
    benchmark also runs in exported trees that have no .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(0.9 * len(s)) - 1)]


def run_worker(args, role: str, deadline: float, spans_out: str | None = None) -> dict:
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role, "--t0", repr(t0)]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    # own process group, so that a timeout also stops the CLI processes it started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({role}) exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(args, spec: dict, deadline: float) -> dict:
    setups = []
    while len(setups) < MIN_SETUPS or (len(setups) < MAX_SETUPS and sum(setups) < SETUP_BUDGET_S):
        setups.append(run_worker(args, "setup", deadline)["setup_s"])
    spans_out = None
    if args.trace:
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        spans_out = str(ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json.gz")
    res = run_worker(args, "work", deadline, spans_out)

    lat = res["latencies_s"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": res["python"],
        "numpy": res["numpy"], "blas": res["blas"], "blas_threads": BLAS_THREADS,
        "nproc": NPROC, "passes": len(res["pass_wall_s"]), "tasks_timed": len(lat),
        "attempted": res["attempted"], "failed": res["failed"],
        "failed_frac": res["failed"] / res["attempted"], "setup_runs_s": setups,
        "pass_wall_s": statistics.median(res["pass_wall_s"]),
        "kernel_ms": res["kernel_s"] and res["kernel_s"] * 1e3,
        "ref_kernel_ms": res["ref_kernel_s"] * 1e3,
        # recorded, not gated: passes of 6 to 100 unequal tasks put these
        # quantiles between task classes, where they jump from run to run
        "task_p50_ms": statistics.median(lat) * 1e3, "task_p90_ms": p90(lat) * 1e3,
    }
    if args.trace:
        values = dict(res["layers"])
        if args.workload == "cli_cold":
            values["cli.import_s"] = statistics.median(setups)
        record["trace.overhead_frac"] = values.get("trace.overhead_frac", 0.0)
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": res["pass_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        declared = spec["end_to_end"]
    # a per-layer metric this workload does not exercise reads 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in declared}
    return {"record": record,
            "result": {"correct": res["failed"] == 0, "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": metrics}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "bergerconn" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'bergerconn'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        out = run_workload(argparse.Namespace(**{**vars(args), "workload": name}),
                           spec, deadline)
        rec = out["record"]
        print("record " + json.dumps(rec))
        for metric, v in out["result"]["metrics"].items():
            print(f"{name}: {metric} {v['value']:.6g} {v['unit']}")
        print(f"{name}: failed_frac {rec['failed_frac']:g} ratio "
              f"({rec['failed']}/{rec['attempted']}, {rec['passes']} passes)")
        if not args.trace:
            print(f"{name}: task_p50_ms {rec['task_p50_ms']:.6g} ms, task_p90_ms "
                  f"{rec['task_p90_ms']:.6g} ms ({rec['tasks_timed']} tasks, wall)")
            kernel = ("not sampled in this process" if rec["kernel_ms"] is None else
                      f"{rec['kernel_ms']:.4g} ms (reference {rec['ref_kernel_ms']:g} ms)")
            print(f"{name}: pass_wall_s {rec['pass_wall_s']:.6g} s, kernel {kernel}")
        print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
