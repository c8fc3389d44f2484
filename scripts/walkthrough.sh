#!/usr/bin/env bash
# README's command-line walkthrough, command for command (a test pins
# this): the layout that generate writes and the maps that tpm writes from
# complete's matrix, read back by eval, then an entry-mode observation
# completed and scored by E_m, whose 555 x 555
# completion takes the randomized SVT path (about 15 s in all, 4-5 s of it
# that completion, on a 2-core VM with one BLAS thread), and a one-repeat
# sweep on the concave layout whose printed table must list its fractions
# by value. It ends with the exit codes of flags and configs that are refused.
#
# Run it from an empty directory, where it writes its files:
#   bash path/to/scripts/walkthrough.sh
# It exits non-zero at the first command that fails.
set -e
export PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src${PYTHONPATH:+:$PYTHONPATH}"
hopmap() { python -m hopmap.cli "$@"; }
hopmap generate --net concave --seed 0 --out net/
hopmap spectrum --input net/concave_edges.txt --matrix-kind hdm --centered --out spec.csv
hopmap sample   --input net/concave_edges.txt --mode vc --anchors 20 --fraction 0.6 \
                --strategy random --seed 1 --out obs
hopmap complete --input obs --out done --trace trace.csv
hopmap tpm      --matrix done --procedure p-completion --k 2 --out map.csv
hopmap tpm      --edges net/concave_edges.txt --procedure p-completion --k 2 \
                --anchors 20 --seed 1 --out map0.csv
hopmap eval     --metric E    --map map.csv --baseline map0.csv --anchor-ids obs.anchors.txt
hopmap eval     --metric E_TP --map map.csv --layout net/concave_layout.csv
hopmap sample --input net/concave_edges.txt --mode random_entry --fraction 0.8 --seed 1 --out ent
hopmap complete --input ent --out ent_done.csv
hopmap eval --metric E_m --est ent_done.csv --edges net/concave_edges.txt
echo '{"network": {"kind": "concave"}, "fractions": [0.00001, 0.1], "repeats": 1, "out_dir": "sweep"}' > sweep.json
hopmap experiment --config sweep.json > sweep.log
cat sweep.log
# the table lists the fractions by value (as text, 1e-05 would come last)
test "$(grep -o 'f=[^ ]*' sweep.log | uniq | tr '\n' ' ')" = "f=1e-05 f=0.1 "
# an anchor flag that --matrix would ignore is a usage error (exit 1)
rc=0; hopmap tpm --matrix done --anchors 5 --out x.csv || rc=$?
test "$rc" -eq 1
# so is an anchor seed that a centrality strategy would ignore
rc=0; hopmap tpm --edges net/concave_edges.txt --strategy degree --seed 5 --out x.csv || rc=$?
test "$rc" -eq 1
# and so are the second forms of an input: tpm maps only a completed
# matrix, and spectrum reads a matrix file as --matrix-kind file
rc=0; hopmap tpm --input obs --out x.csv || rc=$?
test "$rc" -eq 1
rc=0; hopmap spectrum --input done --format matrix --out x.csv || rc=$?
test "$rc" -eq 1
test ! -e x.csv
# so is a completion flag outside complete, and another metric's flag
rc=0; hopmap tpm --edges net/concave_edges.txt --tolerance 0.5 --out x.csv || rc=$?
test "$rc" -eq 1
rc=0; hopmap eval --metric E_m --est ent_done.csv --edges net/concave_edges.txt \
                  --layout net/concave_layout.csv || rc=$?
test "$rc" -eq 1
# so is a holme-kim flag with a layout, whose size its geometry fixes
rc=0; hopmap generate --net concave --n 100 --out x || rc=$?
test "$rc" -eq 1
# a config seed that no run reads is a data error (exit 2), refused
# before the results directory is made
echo '{"network": {"kind": "concave"}, "anchors": {"seed": 3}, "out_dir": "seeded"}' > seeded.json
rc=0; hopmap experiment --config seeded.json || rc=$?
test "$rc" -eq 2
test ! -e seeded
