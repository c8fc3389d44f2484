"""Command line front end: generate, sample, complete, map, score, sweep."""
from __future__ import annotations

import argparse
import inspect
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
from .graph import all_pairs_hops
from .lowrank import CompletionConfig, CompletionResult, normalized_spectrum
from .metrics import (
    hdm_absolute_error,
    hdm_mean_error,
    mean_distance_error,
    scan_lines,
    topology_preservation_error,
)
from .netgen import (
    gen_holme_kim,
    load_snap_edge_list,
    parse_ids,
    read_ids,
    read_matrix,
    read_points,
    write_csv,
    write_edge_list,
    write_ids,
    write_json,
    write_matrix,
    write_points,
    write_spectrum,
)
from .sampling import (
    STRATEGIES,
    AnchorSelection,
    load_observed,
    save_observed,
)
from .tpm import MAP_EXTRACTORS, CompletionFailure, align_maps

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

# the parameters of gen_holme_kim, whose defaults `generate` takes and shows
_HOLME_KIM = inspect.signature(gen_holme_kim).parameters


# the input flags each metric reads; it needs every one and refuses the others
EVAL_FLAGS = {
    "E": ("map", "baseline", "anchor_ids"),
    "E_TP": ("map", "layout"),
    "E_m": ("est", "edges"),
    "E_a": ("est", "edges"),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="hopmap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("generate", help="emit a network edge list (+ layout)")
    g.add_argument("--net", required=True, choices=sorted(GENERATORS) + ["holme-kim"])
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=".", help="output directory")
    g.add_argument("--n", type=int, default=None, help=f"holme-kim node count, above --m (default {_HOLME_KIM['n'].default})")
    g.add_argument("--m", type=_positive_int, default=None, help=f"holme-kim edges per node (default {_HOLME_KIM['m'].default})")
    g.add_argument("--p-triad", type=_probability, default=None, help=f"holme-kim (default {_HOLME_KIM['p_triad'].default})")

    s = sub.add_parser("spectrum", help="normalized singular values as CSV")
    s.add_argument("--input", required=True, help="edge list or dense matrix CSV")
    s.add_argument("--format", choices=["edges", "matrix"], default="edges")
    s.add_argument(
        "--matrix-kind", choices=["hdm", "adjacency", "vc"], default=None,
        help="what to build from an edge list (default hdm)",
    )
    s.add_argument("--centered", action="store_true")
    s.add_argument("--top", type=_positive_int, default=None, help="keep first K >= 1 values")
    s.add_argument("--seed", type=int, default=None, help=f"vc anchor seed (default {AnchorSelection.seed})")
    s.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("sample", help="draw a partial observation of P or H")
    p.add_argument("--input", required=True, help="edge list path")
    p.add_argument("--mode", choices=MODES, default="vc")
    p.add_argument("--fraction", type=_fraction, required=True, help="missing fraction in [0, 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="observation base path (no suffix)")

    c = sub.add_parser("complete", help="complete an observation as the sweep of its mode does")
    c.add_argument("--input", required=True, help="observation base path")
    c.add_argument("--out", required=True, help="completed matrix CSV path")
    c.add_argument("--trace", default=None, help="iteration trace CSV path")

    t = sub.add_parser("tpm", help="topology map from observations or full VCs")
    source = t.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="observation base path")
    source.add_argument("--edges", help="edge list for the full-VC map")
    t.add_argument("--procedure", choices=PROCEDURES, default="p-completion")
    t.add_argument("--k", type=int, default=2, choices=[2, 3])
    t.add_argument("--seed", type=int, default=None, help=f"anchor seed (default {AnchorSelection.seed})")
    t.add_argument("--out", required=True, help="map CSV path")

    # generate's holme-kim flags and the anchor and completion flags
    # default to None, so that a command can refuse one it would
    # ignore; a flag not given takes the library's default, which its help
    # text reads from the library type
    for anchored in (s, p, t):
        anchored.add_argument("--anchors", type=_positive_int, default=None, help=f"anchor count (default {AnchorSelection.m})")
        anchored.add_argument("--strategy", choices=STRATEGIES, default=None, help=f"anchor strategy (default {AnchorSelection.strategy})")
    for completing in (c, t):
        completing.add_argument("--tolerance", type=_positive_float, default=None, help=f"default {CompletionConfig.tolerance:g}")
        completing.add_argument("--max-iters", type=_positive_int, default=None, help=f"default {CompletionConfig.max_iters}")

    e = sub.add_parser("eval", help="score a map or completed matrix")
    e.add_argument("--metric", required=True, choices=list(EVAL_FLAGS))
    e.add_argument("--map", default=None)
    e.add_argument("--baseline", default=None, help="reference map CSV (metric E)")
    e.add_argument("--anchor-ids", default=None, help="comma-separated ids or a file of them (metric E)")
    e.add_argument("--layout", default=None, help="layout CSV (metric E_TP)")
    e.add_argument("--est", default=None, help="completed matrix CSV (E_m, E_a)")
    e.add_argument("--edges", default=None, help="edge list of the true graph")
    e.add_argument("--out", default=None, help="optional single-row CSV")

    x = sub.add_parser("experiment", help="Monte-Carlo sweep from a JSON config")
    x.add_argument("--config", required=True)
    x.add_argument("--out", default=None, help="override output directory")
    x.add_argument("--seed", type=int, default=None, help="override seed")

    return parser


def _cmd_generate(args) -> int:
    params = _given(args, "n", "m", "p_triad")
    if args.net != "holme-kim":
        _refuse_given(args, params, f"with --net {args.net}, a layout of fixed size")
    n, m = (params.get(k, _HOLME_KIM[k].default) for k in ("n", "m"))
    if n <= m:
        raise SystemExit_(
            EXIT_USAGE, f"hopmap generate: error: argument --n: must exceed --m ({m}), got {n}"
        )
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


def _selection(args) -> AnchorSelection:
    """The anchors that --anchors, --strategy and --seed select, at AnchorSelection's defaults."""
    sel = AnchorSelection(**_given(args, "strategy", "seed"))
    return sel if args.anchors is None else replace(sel, m=args.anchors)


def _given(args, *names) -> dict:
    """name -> value of each of these flags that was given."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _refuse_given(args, names, where: str) -> None:
    """Refuse, as a usage error, the first of these flags that was given."""
    given = list(_given(args, *names))
    if given:
        message = f"argument {_flag(given[0])}: not allowed {where}"
        raise SystemExit_(EXIT_USAGE, f"hopmap {args.command}: error: {message}")


def _spectrum_matrix(args) -> np.ndarray:
    if args.format == "matrix":
        return read_matrix(args.input)
    g, _ = load_snap_edge_list(args.input)
    if args.matrix_kind == "adjacency":
        return g.adjacency_matrix()
    if args.matrix_kind == "vc":
        return MODES["vc"].truth(g, _selection(args)).as_float()
    return all_pairs_hops(g).as_float()


def _cmd_spectrum(args) -> int:
    if args.format == "matrix":
        _refuse_given(args, ("matrix_kind",), "with --format matrix, which is read as given")
    if args.format == "matrix" or args.matrix_kind != "vc":
        kind = "--format matrix" if args.format == "matrix" else f"--matrix-kind {args.matrix_kind or 'hdm'}"
        _refuse_given(args, ("anchors", "strategy", "seed"), f"with {kind}, which selects no anchors")
    m = _spectrum_matrix(args)
    values = normalized_spectrum(m, center=args.centered)
    if args.top is not None:
        values = values[: args.top]
    write_spectrum(values, args.out)
    print(f"wrote {args.out} ({values.size} values)")
    return EXIT_OK


def _cmd_sample(args) -> int:
    if args.mode == "random_entry":
        _refuse_given(args, ("anchors", "strategy"), "with --mode random_entry, where every node is an anchor")
    g, _ = load_snap_edge_list(args.input)
    mode = MODES[args.mode]
    truth = mode.truth(g, _selection(args))
    o = mode.observe(truth, args.fraction, args.seed)
    csv_path, json_path = save_observed(o, args.out)
    if args.mode == "vc":
        # anchor node ids, needed later by `eval --metric E --anchor-ids`
        anchors_path = Path(args.out).with_suffix(".anchors.txt")
        write_ids(truth.anchor_ids, anchors_path)
        print(f"anchors: {anchors_path}")
    print(f"wrote {csv_path} and {json_path} ({o.n_observed} entries)")
    return EXIT_OK


def _complete(args) -> CompletionResult:
    """The completion of the observation at --input by its mode's
    completer: random_entry's for a symmetric header, vc's for a general one."""
    o = load_observed(args.input)
    cfg = CompletionConfig(**_given(args, "tolerance", "max_iters"))
    return MODES["random_entry" if o.symmetric else "vc"].complete(o, cfg)


def _cmd_complete(args) -> int:
    try:
        res = _complete(args)
    except CompletionFailure as exc:
        # still written, with converged false in its meta file
        res = exc.result
    if args.trace is not None:
        trace = zip(range(1, res.iterations + 1), res.residual_trace, res.nuclear_trace)
        write_csv(["iter", "residual", "nuclear_norm"], trace, args.trace)
    write_matrix(res.completed, args.out)
    meta = {
        "iterations": res.iterations,
        "final_residual": res.final_residual,
        "converged": res.converged,
        "kept_rank": res.rank_trace[-1] if res.rank_trace else None,
    }
    write_json(meta, Path(args.out).with_suffix(".meta.json"))
    print(
        f"wrote {args.out}: iterations={res.iterations} "
        f"residual={res.final_residual:.3e} converged={res.converged}"
    )
    return EXIT_OK if res.converged else EXIT_CONVERGENCE


def _cmd_tpm(args) -> int:
    if args.edges is not None:
        _refuse_given(args, ("tolerance", "max_iters"), "with --edges, which completes nothing")
        g, _ = load_snap_edge_list(args.edges)
        hops = MODES["vc"].truth(g, _selection(args)).as_float()
    else:
        _refuse_given(args, ("anchors", "strategy", "seed"), "with --input, which selects no anchors")
        hops = _complete(args).completed
    tm = MAP_EXTRACTORS[args.procedure](hops, args.k)
    write_points(tm, args.out)
    print(f"wrote {args.out} ({tm.n} points, k={tm.dim})")
    return EXIT_OK


def _anchor_ids(spec: str) -> np.ndarray:
    """The ids --anchor-ids gives: a file of them, such as the .anchors.txt
    sidecar that `sample --mode vc` writes, or the comma-separated list."""
    if Path(spec).is_file():
        return read_ids(spec)
    try:
        return parse_ids(spec)
    except ValueError as exc:
        raise SystemExit_(EXIT_USAGE, f"hopmap eval: error: argument --anchor-ids: {exc}") from None


def _cmd_eval(args) -> int:
    reads = EVAL_FLAGS[args.metric]
    unread = [n for n in dict.fromkeys(sum(EVAL_FLAGS.values(), ())) if n not in reads]
    _refuse_given(args, unread, f"with --metric {args.metric}, which does not read it")
    missing = [_flag(n) for n in reads if getattr(args, n) is None]
    if missing:
        raise SystemExit_(EXIT_USAGE, f"eval --metric {args.metric} needs " + ", ".join(missing))
    if args.metric == "E":
        ids = _anchor_ids(args.anchor_ids)
        value = mean_distance_error(read_points(args.map), read_points(args.baseline), ids)
    elif args.metric == "E_TP":
        layout = read_points(args.layout)
        lines = scan_lines(layout)
        # SVD maps are rotated arbitrarily; match axes before scanning, as the sweep does
        oriented, _ = align_maps(read_points(args.map), layout)
        value = topology_preservation_error(lines, oriented)
    else:
        est = read_matrix(args.est)
        g, _ = load_snap_edge_list(args.edges)
        h = all_pairs_hops(g)
        fn = hdm_mean_error if args.metric == "E_m" else hdm_absolute_error
        value = fn(est, h)
    print(f"{args.metric} = {value!r}")
    if args.out:
        write_csv(["metric", "value"], [[args.metric, value]], args.out)
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
    for (net, procedure, _, f, metric), (mean, std, _) in summarize(result).items():
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
