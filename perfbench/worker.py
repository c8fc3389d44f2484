"""One benchmark process: set up a workload, run it, check it, report.

Started by run.py with the BLAS thread count fixed in its environment.
Prints one JSON object as its last stdout line. With --setup-only it
stops once set-up is done and reports only its set-up time.

Every time is CPU time of this process (time.process_time): the process
is single-threaded (jobs=1, one BLAS thread), so it is the time the work
takes on a core of its own. On a shared machine wall-clock figures also
carry the time the core went to other tenants; the throughput in wall
time is reported beside the metrics, ungated.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

from tracer import Tracer
from workloads import TRACE_POINTS, WORKLOADS, CheckFailed, require

# span name -> per-layer self-time metric
SELF_METRICS = {
    "netgen.build": "netgen.build_s",
    "graph.all_pairs_hops": "graph.all_pairs_hops_s",
    "graph.anchor_hops": "graph.anchor_hops_s",
    "sampling.select_anchors": "sampling.select_anchors_s",
    "sampling.observe": "sampling.observe_s",
    "lowrank.complete": "lowrank.complete_s",
    "lowrank.center": "lowrank.center_s",
    "lowrank.svd": "lowrank.svd_s",
    "lowrank.spectrum": "lowrank.spectrum_s",
    "tpm.map": "tpm.map_self_s",
    "tpm.align": "tpm.align_s",
    "tpm.write": "tpm.write_s",
    "metrics.e": "metrics.e_s",
    "metrics.etp": "metrics.etp_s",
    "metrics.hdm": "metrics.hdm_s",
    "experiment.run": "experiment.self_s",
}
# the share of traced CPU time that may fall outside every span
UNATTRIBUTED_LIMIT = 0.02


def run_cycles(wl, min_seconds: float):
    """Run whole cycles of the workload's units until at least one cycle is
    done and min_seconds of unit CPU time have passed. Returns the outcomes
    and each unit's CPU and wall seconds; checks run outside the timed part."""
    outcomes, cpu, wall = [], [], []
    while not outcomes or sum(cpu) < min_seconds:
        for i in range(wl.units()):
            w0, c0 = time.perf_counter(), time.process_time()
            raw = wl.run(i)
            cpu.append(time.process_time() - c0)
            wall.append(time.perf_counter() - w0)
            outcomes.append(wl.check(i, raw))
    wl.check_cycle(outcomes[: wl.units()])
    return outcomes, cpu, wall


def untraced(wl, seconds: float) -> tuple[dict, dict, int, int]:
    outcomes, cpu, wall = run_cycles(wl, seconds)
    ops = sum(o.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    err, err2 = wl.quality(outcomes[: wl.units()])
    metrics = {
        "ops_per_s": (ops / sum(cpu), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "err_mean": (err, "ratio"),
        "err2_mean": (err2, "ratio"),
    }
    info = {"wall_ops_per_s": (ops / sum(wall), "1/s")}
    return metrics, info, ops, failed


def traced(wl, spans_path: Path) -> tuple[dict, dict, int, int]:
    """One untraced cycle, then the same cycle traced. Per-layer numbers
    are per cycle; their difference in CPU time is the tracing cost."""
    plain_cpu = sum(run_cycles(wl, 0.0)[1])

    completions = []

    def on_complete(args, res):
        o = args[0]
        asym = float(np.max(np.abs(res.completed - res.completed.T))) if o.symmetric else 0.0
        completions.append((res.iterations, res.converged, asym))

    tracer = Tracer()
    for span_name, bindings in TRACE_POINTS.items():
        hook = on_complete if span_name == "lowrank.complete" else None
        for owner, attr in bindings:
            tracer.patch(owner, attr, span_name, hook)
    try:
        outcomes, cpu, _ = run_cycles(wl, 0.0)
    finally:
        tracer.remove()
    traced_cpu = sum(cpu)

    self_s = tracer.self_times()
    calls = tracer.calls()
    unattributed = traced_cpu - sum(self_s.values())
    require(
        abs(unattributed) <= UNATTRIBUTED_LIMIT * traced_cpu,
        f"layer self times {sum(self_s.values()):.3f}s leave {unattributed:.3f}s of "
        f"{traced_cpu:.3f}s traced CPU time unaccounted",
    )
    for _, _, asym in completions:
        require(asym == 0.0, f"symmetric-mode completion returned an asymmetric result ({asym:g})")

    metrics = {m: (self_s.get(s, 0.0), "s") for s, m in SELF_METRICS.items()}
    metrics.update({f"{s}_calls": (calls.get(s, 0), "count") for s in SELF_METRICS})
    iters = [it for it, _, _ in completions]
    metrics["lowrank.iters_mean"] = (float(np.mean(iters)) if iters else 0.0, "count")
    metrics["lowrank.s_per_iter"] = (
        self_s.get("lowrank.complete", 0.0) / sum(iters) if iters and sum(iters) else 0.0,
        "s",
    )
    metrics["lowrank.converged_frac"] = (
        float(np.mean([c for _, c, _ in completions])) if completions else 0.0,
        "ratio",
    )
    first = outcomes[: wl.units()]
    for key, name in (("E_TP", "metrics.etp_mean"), ("E", "metrics.e_mean"), ("E_m", "metrics.em_mean")):
        vals = [v for o in first for v in o.samples.get(key, ())]
        metrics[name] = (float(np.mean(vals)) if vals else 0.0, "ratio")
    metrics["trace.overhead_s"] = (traced_cpu - plain_cpu, "s")
    metrics["trace.unattributed_s"] = (unattributed, "s")

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w") as fh:
        json.dump(
            {
                "workload": wl.name,
                "traced_cpu_s": traced_cpu,
                "untraced_cpu_s": plain_cpu,
                "self_s": self_s,
                "calls": calls,
                "spans": tracer.dump(),
            },
            fh,
        )
    return metrics, {}, sum(o.ops for o in outcomes), sum(o.failed for o in outcomes)


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, read through its own API."""
    found = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_applied": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True, help="directory for run outputs and span files")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out))
    try:
        wl = WORKLOADS[args.workload](args.seed, args.smoke, work)
        # CPU seconds since the process started: interpreter start-up,
        # imports and input construction
        setup_s = time.process_time()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        try:
            if args.trace:
                spans = out / f"spans-{args.workload}-seed{args.seed}.json"
                metrics, info, ops, failed = traced(wl, spans)
            else:
                metrics, info, ops, failed = untraced(wl, args.seconds)
            correct, error = True, None
        except CheckFailed as exc:
            metrics, info, ops, failed, correct, error = {}, {}, 0, 0, False, str(exc)
        print(json.dumps({
            "setup_s": setup_s,
            "info": info,
            "correct": correct,
            "error": error,
            "attempted": ops,
            "failed": failed,
            "metrics": metrics,
            "env": environment(args.seed),
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
