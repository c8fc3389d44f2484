"""Command line front end: generate, sample, complete, map, score, sweep."""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .experiment import (
    GENERATORS,
    MODES,
    PROCEDURES,
    NetworkSpec,
    build_network,
    load_config,
    run_experiment,
    summarize,
)
from .graph import VcMatrix, all_pairs_hops, anchor_hops
from .lowrank import (
    CompletionConfig,
    complete_nuclear_norm,
    normalized_spectrum,
    write_spectrum,
)
from .metrics import (
    hdm_absolute_error,
    hdm_mean_error,
    mean_distance_error,
    scan_lines,
    topology_preservation_error,
)
from .netgen import load_snap_edge_list, read_points, write_edge_list, write_points
from .sampling import (
    STRATEGIES,
    AnchorSelection,
    load_observed,
    random_entry_observations,
    save_observed,
    select_anchors,
    vc_observations,
)
from .tpm import MAP_EXTRACTORS, CompletionFailure, complete_anchor_hops

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CONVERGENCE = 3


class _Parser(argparse.ArgumentParser):
    # usage problems exit with code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit_(EXIT_USAGE, f"{self.prog}: error: {message}")


class SystemExit_(Exception):
    def __init__(self, code, message=""):
        self.code = code
        self.message = message
        super().__init__(message)


def _checked(convert, ok, rule: str):
    """An argparse type: convert the text, then refuse a value that is not
    ok as a usage error saying it must be rule."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    parse.__name__ = convert.__name__  # argparse: "invalid int value: 'x'"
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "at least 1")
_positive_float = _checked(float, lambda v: v > 0.0, "positive")
_fraction = _checked(float, lambda v: 0.0 <= v < 1.0, "in [0, 1)")
_probability = _checked(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")


def _build_parser() -> _Parser:
    parser = _Parser(prog="hopmap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("generate", help="emit a network edge list (+ layout)")
    g.add_argument("--net", required=True, choices=sorted(GENERATORS) + ["holme-kim"])
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=".", help="output directory")
    g.add_argument("--n", type=int, default=500, help="holme-kim node count, above --m")
    g.add_argument("--m", type=_positive_int, default=3, help="holme-kim edges per node")
    g.add_argument("--p-triad", type=_probability, default=0.5)

    s = sub.add_parser("spectrum", help="normalized singular values as CSV")
    s.add_argument("--input", required=True, help="edge list or dense matrix CSV")
    s.add_argument("--format", choices=["edges", "matrix"], default="edges")
    s.add_argument(
        "--matrix-kind", choices=["hdm", "adjacency", "vc"], default="hdm"
    )
    s.add_argument("--centered", action="store_true")
    s.add_argument("--top", type=_positive_int, default=None, help="keep first K >= 1 values")
    s.add_argument("--anchors", type=_positive_int, default=20, help="anchor count for vc")
    s.add_argument("--strategy", choices=STRATEGIES, default="random")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("sample", help="draw a partial observation of P or H")
    p.add_argument("--input", required=True, help="edge list path")
    p.add_argument("--mode", choices=MODES, default="vc")
    p.add_argument("--fraction", type=_fraction, required=True, help="missing fraction in [0, 1)")
    p.add_argument("--anchors", type=_positive_int, default=20)
    p.add_argument("--strategy", choices=STRATEGIES, default="random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="observation base path (no suffix)")

    c = sub.add_parser("complete", help="nuclear-norm completion of an observation")
    c.add_argument("--input", required=True, help="observation base path")
    c.add_argument("--out", required=True, help="completed matrix CSV path")
    c.add_argument("--trace", default=None, help="iteration trace CSV path")

    t = sub.add_parser("tpm", help="topology map from observations or full VCs")
    source = t.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="observation base path")
    source.add_argument("--edges", help="edge list for the full-VC map")
    t.add_argument("--procedure", choices=PROCEDURES, default="p-completion")
    t.add_argument("--k", type=int, default=2, choices=[2, 3])
    t.add_argument("--anchors", type=_positive_int, default=20)
    t.add_argument("--strategy", choices=STRATEGIES, default="random")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", required=True, help="map CSV path")

    for completing in (c, t):
        completing.add_argument("--tolerance", type=_positive_float, default=1e-6)
        completing.add_argument("--max-iters", type=_positive_int, default=500)

    e = sub.add_parser("eval", help="score a map or completed matrix")
    e.add_argument("--metric", required=True, choices=["E", "E_TP", "E_m", "E_a"])
    e.add_argument("--map", dest="map_path", default=None)
    e.add_argument("--baseline", default=None, help="reference map CSV (metric E)")
    e.add_argument("--anchor-ids", default=None, help="comma-separated ids or a file of them (metric E)")
    e.add_argument("--layout", default=None, help="layout CSV (metric E_TP)")
    e.add_argument("--bin-width", type=_positive_float, default=1.0)
    e.add_argument("--est", default=None, help="completed matrix CSV (E_m, E_a)")
    e.add_argument("--edges", default=None, help="edge list of the true graph")
    e.add_argument("--out", default=None, help="optional single-row CSV")

    x = sub.add_parser("experiment", help="Monte-Carlo sweep from a JSON config")
    x.add_argument("--config", required=True)
    x.add_argument("--out", default=None, help="override output directory")
    x.add_argument("--seed", type=int, default=None, help="override seed")

    return parser


def _cmd_generate(args) -> int:
    params = {}
    if args.net == "holme-kim":
        if args.n <= args.m:
            raise SystemExit_(
                EXIT_USAGE,
                f"hopmap generate: error: argument --n: must exceed --m ({args.m}), got {args.n}",
            )
        params = {"n": args.n, "m": args.m, "p_triad": args.p_triad}
    g, layout, _ = build_network(NetworkSpec(kind=args.net, seed=args.seed, params=params))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    edges = out / f"{args.net}_edges.txt"
    write_edge_list(g, edges)
    if layout is None:
        print(f"wrote {edges} ({g.n} nodes)")
    else:
        write_points(layout, out / f"{args.net}_layout.csv")
        print(f"wrote {edges} and layout ({g.n} nodes)")
    return EXIT_OK


def _anchor_matrix(args, g) -> VcMatrix:
    """Hops from every node to the anchors that --anchors, --strategy and
    --seed select."""
    sel = AnchorSelection(args.strategy, args.anchors, seed=args.seed)
    return anchor_hops(g, select_anchors(g, sel))


def _spectrum_matrix(args) -> np.ndarray:
    if args.format == "matrix":
        return np.loadtxt(args.input, delimiter=",", ndmin=2)
    g, _ = load_snap_edge_list(args.input)
    if args.matrix_kind == "adjacency":
        return g.adjacency_matrix()
    if args.matrix_kind == "hdm":
        return all_pairs_hops(g).as_float()
    return _anchor_matrix(args, g).as_float()


def _cmd_spectrum(args) -> int:
    m = _spectrum_matrix(args)
    values = normalized_spectrum(m, center=args.centered)
    if args.top is not None:
        values = values[: args.top]
    write_spectrum(values, args.out)
    print(f"wrote {args.out} ({values.size} values)")
    return EXIT_OK


def _cmd_sample(args) -> int:
    g, _ = load_snap_edge_list(args.input)
    if args.mode == "vc":
        p = _anchor_matrix(args, g)
        o = vc_observations(p, args.fraction, seed=args.seed)
    else:
        o = random_entry_observations(all_pairs_hops(g), 1.0 - args.fraction, seed=args.seed)
    csv_path, json_path = save_observed(o, args.out)
    if args.mode == "vc":
        # anchor node ids, needed later by `eval --metric E --anchor-ids`
        anchors_path = Path(args.out).with_suffix(".anchors.txt")
        anchors_path.write_text(",".join(str(a) for a in p.anchor_ids) + "\n")
        print(f"anchors: {anchors_path}")
    print(f"wrote {csv_path} and {json_path} ({o.n_observed} entries)")
    return EXIT_OK


def _cmd_complete(args) -> int:
    cfg = CompletionConfig(tolerance=args.tolerance, max_iters=args.max_iters)
    res = complete_nuclear_norm(load_observed(args.input), cfg)
    if args.trace is not None:
        with open(args.trace, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iter", "residual", "nuclear_norm"])
            for it, (r, nu) in enumerate(zip(res.residual_trace, res.nuclear_trace), start=1):
                w.writerow([it, repr(r), repr(nu)])
    np.savetxt(args.out, res.completed, delimiter=",")
    meta = {
        "iterations": res.iterations,
        "final_residual": res.final_residual,
        "converged": res.converged,
        "kept_rank": res.rank_trace[-1] if res.rank_trace else None,
    }
    meta_path = Path(args.out).with_suffix(".meta.json")
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    print(
        f"wrote {args.out}: iterations={res.iterations} "
        f"residual={res.final_residual:.3e} converged={res.converged}"
    )
    return EXIT_OK if res.converged else EXIT_CONVERGENCE


def _cmd_tpm(args) -> int:
    if args.edges is not None:
        g, _ = load_snap_edge_list(args.edges)
        hops = _anchor_matrix(args, g).as_float()
    else:
        cfg = CompletionConfig(tolerance=args.tolerance, max_iters=args.max_iters)
        hops = complete_anchor_hops(load_observed(args.input), cfg)
    tm = MAP_EXTRACTORS[args.procedure](hops, args.k)
    write_points(tm, args.out)
    print(f"wrote {args.out} ({tm.n} points, k={tm.dim})")
    return EXIT_OK


def _require(args, pairs, metric) -> None:
    missing = [flag for attr, flag in pairs if getattr(args, attr) is None]
    if missing:
        raise SystemExit_(
            EXIT_USAGE, f"eval --metric {metric} needs " + ", ".join(missing)
        )


def _cmd_eval(args) -> int:
    if args.metric == "E":
        _require(
            args,
            [("map_path", "--map"), ("baseline", "--baseline"), ("anchor_ids", "--anchor-ids")],
            "E",
        )
        tm = read_points(args.map_path)
        base = read_points(args.baseline)
        spec = args.anchor_ids
        if Path(spec).is_file():
            # the .anchors.txt sidecar written by `sample --mode vc`
            spec = Path(spec).read_text().strip()
        ids = np.array([int(v) for v in spec.split(",")])
        value = mean_distance_error(tm, base, ids)
    elif args.metric == "E_TP":
        _require(args, [("map_path", "--map"), ("layout", "--layout")], "E_TP")
        tm = read_points(args.map_path)
        lines = scan_lines(read_points(args.layout), args.bin_width)
        value = topology_preservation_error(lines, tm)
    else:
        _require(args, [("est", "--est"), ("edges", "--edges")], args.metric)
        est = np.loadtxt(args.est, delimiter=",", ndmin=2)
        g, _ = load_snap_edge_list(args.edges)
        h = all_pairs_hops(g)
        fn = hdm_mean_error if args.metric == "E_m" else hdm_absolute_error
        value = fn(est, h)
    print(f"{args.metric} = {value!r}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["metric", "value"])
            w.writerow([args.metric, repr(value)])
    return EXIT_OK


def _cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    result = run_experiment(cfg)
    print(
        f"{result.total_runs} runs, {len(result.failures)} failures, "
        f"results in {cfg.out_dir}"
    )
    for key, (mean, std) in sorted(summarize(result).items(), key=str):
        net, procedure, f, metric = key
        print(f"  {net} {procedure} f={f:g} {metric}: mean={mean:.4f} std={std:.4f}")
    if not result.acceptable:
        print("more than 10% of runs failed", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


_HANDLERS = {
    "generate": _cmd_generate,
    "spectrum": _cmd_spectrum,
    "sample": _cmd_sample,
    "complete": _cmd_complete,
    "tpm": _cmd_tpm,
    "eval": _cmd_eval,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except SystemExit_ as exc:
        if exc.message:
            print(exc.message, file=sys.stderr)
        return exc.code
    except CompletionFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
