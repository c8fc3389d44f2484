"""hopmap benchmark: one workload, one seed, one result line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload vc_sweep --seed 0 --seconds 10 --trace 0

Workloads: vc_sweep, entry_recovery, spectrum_study (see README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
--smoke shrinks every workload to a few seconds with the same checks.

The workload runs in a child process whose BLAS thread count is fixed to
BLAS_THREADS; times are that process's CPU seconds (see worker.py).
Set-up time is taken from SETUP_SAMPLES child processes (the workload's
own and set-up-only ones) and reported as their median.
The last stdout line is one JSON object: correct, attempted, failed and
metrics. A failed output check prints correct=false and exits with 1.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("vc_sweep", "entry_recovery", "spectrum_study")
BLAS_THREADS = 1
SETUP_SAMPLES = 3
OUT_DIR = ".bench_out"
DEADLINE_S = 170.0  # every run must end within 180 s


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    # compile hopmap fresh in every child: steady set-up, no files left in src/
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(argv: list[str], env: dict, timeout: float) -> dict:
    """Run worker.py and return its report. Raises RuntimeError if it fails."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, same checks")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    src = Path.cwd() / "src"
    if not (src / "hopmap" / "__init__.py").is_file():
        print(f"error: no hopmap sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    env = child_env(src)
    argv = [
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(Path.cwd() / OUT_DIR),
    ] + (["--smoke"] if args.smoke else [])

    t_start = time.monotonic()
    extra_setups = 0 if args.trace else SETUP_SAMPLES - 1  # only untraced runs report set-up
    try:
        setups = [run_child(argv + ["--setup-only"], env, 60.0)["setup_s"]
                  for _ in range(extra_setups)]
        report = run_child(argv, env, DEADLINE_S - (time.monotonic() - t_start))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(report["setup_s"])

    metrics = dict(report["metrics"])
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
    print("env " + json.dumps(report["env"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    for name, (value, unit) in report["info"].items():
        print(f"{name} {value!r} {unit} (not gated)")
    if not report["correct"]:
        print(f"check failed: {report['error']}", file=sys.stderr)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": max(report["attempted"], 1),
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
