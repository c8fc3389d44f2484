import csv
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_spectrum_study_writes_numeric_curves(tmp_path):
    subprocess.run(
        [sys.executable, str(SCRIPTS / "spectrum_study.py"), "--n", "80", "--anchors", "12",
         "--probe-index", "5", "--out", str(tmp_path)],
        check=True, capture_output=True,
    )
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
