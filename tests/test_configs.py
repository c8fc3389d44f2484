"""The study configs under configs/ load and run, shrunk to one short run
per procedure."""
from dataclasses import replace
from pathlib import Path

import pytest

from hopmap.experiment import load_config, run_experiment

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def test_configs_present():
    assert [p.name for p in CONFIGS] == [
        "deletion_sweep_circular.json",
        "deletion_sweep_concave.json",
        "social_recovery.json",
    ]


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_config_runs_shrunk(path, tmp_path):
    cfg = load_config(path)
    net = cfg.network
    if net.kind == "holme-kim":
        net = replace(net, params={**net.params, "n": 120})
    cfg = replace(
        cfg, network=net, repeats=1, fractions=cfg.fractions[:1], out_dir=str(tmp_path)
    )
    result = run_experiment(cfg)
    assert result.failures == ()
    assert result.total_runs == (len(cfg.procedures) if cfg.mode == "vc" else 1)
    assert result.reports
    for name in ("runs.csv", "summary.csv", "failures.csv", "meta.json"):
        assert (tmp_path / name).exists()
