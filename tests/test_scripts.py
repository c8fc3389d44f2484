import csv
import re
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def test_spectrum_study_writes_numeric_curves(tmp_path):
    # the study's six hopmap spectrum curves of one 500-node graph
    proc = subprocess.run(["bash", str(SCRIPTS / "spectrum_study.sh")], cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "spectra"
    sizes = {"hdm_centered.csv": 500, "adjacency_centered.csv": 500}
    sizes.update({f"vc_{s}.csv": 100 for s in ("random", "degree", "closeness", "betweenness")})
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(sizes)
    for name, size in sizes.items():
        with open(out / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "value"]
        values = [float(v) for _, v in rows[1:]]
        assert len(values) == size
        assert values[0] == 1.0 and all(0.0 <= v <= 1.0 for v in values)


def _commands(lines):
    """Shell commands, one per item: continued lines joined, trailing and
    whole-line comments and blank lines dropped, runs of spaces collapsed."""
    text = re.sub(r"\\\n", " ", "\n".join(lines))
    commands = (re.sub(r"\s+#.*$|^#.*$", "", line) for line in text.splitlines())
    return [" ".join(c.split()) for c in commands if c.strip()]


def test_walkthrough_script_follows_readme():
    # the script opens with README's walkthrough, command for command, and
    # goes on to checks that README does not show
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"\n```\n(hopmap generate .*?)\n```\n", readme, re.S).group(1)
    shown = _commands(block.splitlines())
    script = (SCRIPTS / "walkthrough.sh").read_text().splitlines()
    start = script.index('hopmap() { python -m hopmap.cli "$@"; }') + 1
    run = _commands(script[start:])
    assert len(shown) == 13
    assert run[: len(shown)] == shown
