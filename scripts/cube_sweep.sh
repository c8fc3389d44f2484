#!/usr/bin/env bash
# A vc sweep on a 3-D layout, whose maps take the layout's dimension: the
# cube void (n=1640), the largest layout, whose neighbour fill ranks its
# rows in blocks of graph.BLOCK_CELLS // n. 12 runs, none may fail, and a
# written map has three coordinates (about a second on a 2-core VM with
# one BLAS thread).
#
# Run it from an empty directory, where it writes its files:
#   bash path/to/scripts/cube_sweep.sh
# It exits non-zero at the first command or check that fails.
set -e
export PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src${PYTHONPATH:+:$PYTHONPATH}"
echo '{"network": {"kind": "cube", "seed": 0}, "anchors": {"strategy": "random", "m": 20}, "procedures": ["grammian", "p-completion"], "fractions": [0.2, 0.6, 0.8], "repeats": 2, "seed": 0}' > cube.json
python -m hopmap.cli experiment --config cube.json --out cube_sweep > cube.log
cat cube.log
grep -q "^12 runs, 0 failures" cube.log
test "$(head -n 1 cube_sweep/tpm_p-completion_f60.csv | tr -d '\r')" = "node_id,x,y,z"
