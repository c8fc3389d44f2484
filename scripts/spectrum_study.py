#!/usr/bin/env python3
"""Normalized singular-value spectra of a scale-free network.

Two comparisons drive the low-rank story:
  1. centered hop-distance matrix vs adjacency matrix -- the hop matrix
     decays fast, the adjacency matrix does not
  2. anchor-distance matrices under different anchor selection
     strategies -- the spectra barely move

Writes one CSV per curve and prints the key percentile values.
"""
import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hopmap.graph import all_pairs_hops, anchor_hops
from hopmap.lowrank import normalized_spectrum
from hopmap.netgen import gen_holme_kim, write_spectrum
from hopmap.sampling import STRATEGIES, AnchorSelection, select_anchors


def run(args, g):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    h = all_pairs_hops(g)
    h.require_finite()

    spec_h = normalized_spectrum(h.hops.astype(float), center=True)
    spec_a = normalized_spectrum(g.adjacency_matrix(), center=True)
    write_spectrum(spec_h, out / "hdm_centered.csv")
    write_spectrum(spec_a, out / "adjacency_centered.csv")

    idx = args.probe_index - 1
    print(f"holme-kim n={args.n}: normalized singular value #{args.probe_index}")
    print(f"  centered hop matrix : {spec_h[idx]:.4f}")
    print(f"  centered adjacency  : {spec_a[idx]:.4f}")

    print(f"\nanchor-strategy spectra (M={args.anchors}):")
    curves = {}
    for strategy in STRATEGIES:
        sel = AnchorSelection(strategy, args.anchors, seed=args.seed)
        p = anchor_hops(g, select_anchors(g, sel))
        spec = normalized_spectrum(p.hops.astype(float), center=True)
        curves[strategy] = spec
        write_spectrum(spec, out / f"vc_{strategy}.csv")
        print(f"  {strategy:<12} top 5: " + " ".join(f"{v:.3f}" for v in spec[:5]))

    base = curves["random"]
    print("\nmax pointwise gap vs random anchors:")
    for strategy in STRATEGIES:
        if strategy == "random":
            continue
        k = min(base.size, curves[strategy].size)
        gap = float(np.abs(curves[strategy][:k] - base[:k]).max())
        print(f"  {strategy:<12} {gap:.4f}")
    print(f"\ncurves in {out}/")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--m", type=int, default=3)
    ap.add_argument("--p-triad", type=float, default=0.5)
    ap.add_argument("--anchors", type=int, default=100,
                    help="anchors per strategy, at most --n")
    ap.add_argument("--probe-index", type=int, default=100,
                    help="1-based singular value to print, at most --n")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="results/spectra")
    args = ap.parse_args()
    # the hop and adjacency spectra hold n values each, every strategy
    # picks its anchors from the n nodes, and gen_holme_kim refuses an
    # out-of-range --n, --m or --p-triad; all before --out is made
    if not 1 <= args.probe_index <= args.n:
        ap.error(f"--probe-index must be in [1, --n={args.n}], got {args.probe_index}")
    if not 1 <= args.anchors <= args.n:
        ap.error(f"--anchors must be in [1, --n={args.n}], got {args.anchors}")
    try:
        g = gen_holme_kim(args.n, args.m, args.p_triad, seed=args.seed)
    except ValueError as e:
        ap.error(f"--n {args.n}, --m {args.m}, --p-triad {args.p_triad}: {e}")
    run(args, g)
