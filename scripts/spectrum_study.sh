#!/usr/bin/env bash
# Normalized singular-value spectra of one 500-node Holme-Kim graph: the
# centered hop matrix against the centered adjacency matrix, and the
# centered anchor-distance matrix (100 anchors) under each of the four
# anchor strategies. Writes spectra/<name>.csv, one index,value curve each,
# beside the graph's edge list (about 5 s on a 2-core VM with one BLAS
# thread, most of it starting seven interpreters).
#
# Run it from an empty directory, where it writes its files:
#   bash path/to/scripts/spectrum_study.sh
# It exits non-zero at the first command that fails.
set -e
export PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src${PYTHONPATH:+:$PYTHONPATH}"
hopmap() { python -m hopmap.cli "$@"; }
hopmap generate --net holme-kim --n 500 --m 3 --p-triad 0.5 --seed 0 --out spectra
edges=spectra/holme-kim_edges.txt
hopmap spectrum --input "$edges" --matrix-kind hdm --centered --out spectra/hdm_centered.csv
hopmap spectrum --input "$edges" --matrix-kind adjacency --centered --out spectra/adjacency_centered.csv
# a centrality strategy draws no anchors at random, so only random takes a seed
hopmap spectrum --input "$edges" --matrix-kind vc --anchors 100 --strategy random --seed 0 \
                --centered --out spectra/vc_random.csv
for strategy in degree closeness betweenness; do
  hopmap spectrum --input "$edges" --matrix-kind vc --anchors 100 --strategy "$strategy" \
                  --centered --out "spectra/vc_$strategy.csv"
done
