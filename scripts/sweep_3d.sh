#!/usr/bin/env bash
# A vc sweep on each 3-D layout, whose maps take the layout's dimension:
# the cube void (n=1640), the largest layout, and the t-cylinder (n=1213),
# whose neighbour fills rank their rows in blocks of graph.BLOCK_CELLS // n
# (39 and 54 rows). Each sweep is 12 runs, none may fail, and a written map
# has three coordinates (about a second each on a 2-core VM with one BLAS
# thread).
#
# Run it from an empty directory, where it writes its files:
#   bash path/to/scripts/sweep_3d.sh
# It exits non-zero at the first command or check that fails.
set -e
export PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src${PYTHONPATH:+:$PYTHONPATH}"
for net in cube t-cylinder; do
  echo "{\"network\": {\"kind\": \"$net\", \"seed\": 0}, \"anchors\": {\"strategy\": \"random\", \"m\": 20}, \"procedures\": [\"grammian\", \"p-completion\"], \"fractions\": [0.2, 0.6, 0.8], \"repeats\": 2, \"seed\": 0}" > "$net.json"
  python -m hopmap.cli experiment --config "$net.json" --out "${net}_sweep" > "$net.log"
  cat "$net.log"
  grep -q "^12 runs, 0 failures" "$net.log"
  test "$(head -n 1 "${net}_sweep/tpm_p-completion_f60.csv" | tr -d '\r')" = "node_id,x,y,z"
done
