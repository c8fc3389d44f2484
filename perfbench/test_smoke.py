"""Smoke tests of the benchmark itself: every workload at its smoke size,
both trace modes, through the same output checks as a full run.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "vc_sweep", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def spin(seconds: float) -> None:
    """Use seconds of CPU time: spans are timed in CPU seconds."""
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_self_times_account_for_root_spans():
    tracer = Tracer()

    def leaf():
        spin(0.01)

    traced_leaf = tracer.span("leaf", leaf)
    traced_middle = tracer.span("middle", lambda: (traced_leaf(), spin(0.01)))
    root = tracer.span("root", lambda: (traced_middle(), traced_leaf()))
    root()

    self_s = tracer.self_times()
    assert tracer.calls() == {"root": 1, "middle": 1, "leaf": 2}
    root_time = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    assert sum(self_s.values()) == pytest.approx(root_time, rel=1e-9)
    assert self_s["leaf"] >= 0.02 and self_s["middle"] >= 0.01
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]


def test_remove_restores_bindings():
    import types

    mod = types.SimpleNamespace(f=lambda: 1)
    table = {"g": lambda: 2}
    f0, g0 = mod.f, table["g"]
    tracer = Tracer()
    tracer.patch(mod, "f", "f")
    tracer.patch(table, "g", "g")
    assert mod.f() == 1 and table["g"]() == 2
    assert len(tracer.spans) == 2
    tracer.remove()
    assert mod.f is f0 and table["g"] is g0
