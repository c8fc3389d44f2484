import csv
import subprocess
import sys
from pathlib import Path

import pytest

from hopmap.cli import EXIT_OK, main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _spectrum_study(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "spectrum_study.py"), *args],
        capture_output=True, text=True,
    )


def test_spectrum_study_writes_numeric_curves(tmp_path):
    proc = _spectrum_study("--n", "80", "--anchors", "12", "--probe-index", "5",
                           "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert names == sorted(
        ["hdm_centered.csv", "adjacency_centered.csv"]
        + [f"vc_{s}.csv" for s in ("random", "degree", "closeness", "betweenness")]
    )
    for name in names:
        with open(tmp_path / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "value"]
        values = [float(v) for _, v in rows[1:]]
        assert values[0] == 1.0 and all(0.0 <= v <= 1.0 for v in values)


def test_spectrum_study_curve_is_the_cli_spectrum(tmp_path):
    proc = _spectrum_study("--n", "80", "--anchors", "12", "--probe-index", "5",
                           "--out", str(tmp_path / "study"))
    assert proc.returncode == 0, proc.stderr
    net = tmp_path / "net"
    assert main(["generate", "--net", "holme-kim", "--n", "80", "--m", "3",
                 "--p-triad", "0.5", "--out", str(net)]) == EXIT_OK
    cli_curve = tmp_path / "hdm.csv"
    assert main(["spectrum", "--input", str(net / "holme-kim_edges.txt"), "--centered",
                 "--out", str(cli_curve)]) == EXIT_OK
    assert (tmp_path / "study" / "hdm_centered.csv").read_bytes() == cli_curve.read_bytes()


@pytest.mark.parametrize("probe", ["0", "-3", "81"])
def test_spectrum_study_probe_index_out_of_range(tmp_path, probe):
    out = tmp_path / "study"
    proc = _spectrum_study("--n", "80", "--anchors", "12", "--probe-index", probe,
                           "--out", str(out))
    assert proc.returncode == 2
    assert "--probe-index" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("anchors", [None, "0", "81"])
def test_spectrum_study_anchor_count_out_of_range(tmp_path, anchors):
    # None: the default 100 anchors, more than --n 80 nodes
    out = tmp_path / "study"
    count = () if anchors is None else ("--anchors", anchors)
    proc = _spectrum_study("--n", "80", "--probe-index", "5", *count, "--out", str(out))
    assert proc.returncode == 2
    assert "--anchors" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()



@pytest.mark.parametrize(
    "graph, rule",
    [(("--n", "80", "--m", "0"), "need n > m >= 1"),
     (("--n", "80", "--p-triad", "2"), "p_triad must be in [0, 1]"),
     (("--n", "80", "--p-triad", "-0.5"), "p_triad must be in [0, 1]"),
     (("--n", "3", "--m", "3"), "need n > m >= 1")],
    ids=["m-zero", "p-triad-above", "p-triad-below", "n-not-above-m"],
)
def test_spectrum_study_graph_out_of_range(tmp_path, graph, rule):
    # the library's rule is the usage error, and --out is never made
    out = tmp_path / "study"
    proc = _spectrum_study(*graph, "--anchors", "2", "--probe-index", "2", "--out", str(out))
    assert proc.returncode == 2
    assert "error: --n " in proc.stderr and rule in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()
