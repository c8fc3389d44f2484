"""Monte-Carlo experiment harness: sample, complete, map, score, summarize."""
from __future__ import annotations

import dataclasses
import inspect
import os
import platform
import time
import typing
from collections import Counter
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from .graph import Graph, HopDistanceMatrix, all_pairs_hops, anchor_hops
from .lowrank import CompletionConfig, CompletionResult
from .metrics import (
    MetricReport,
    hdm_absolute_error,
    hdm_mean_error,
    mean_distance_error,
    scan_lines,
    topology_preservation_error,
)
from .netgen import (
    GeneratorConfig,
    PointCloud,
    gen_circular_voids_2d,
    gen_concave_2d,
    gen_cube_void_3d,
    gen_holme_kim,
    gen_t_cylinder_3d,
    load_snap_edge_list,
    read_json_object,
    write_csv,
    write_json,
)
from .sampling import (
    AnchorSelection,
    ObservedMatrix,
    random_entry_observations,
    select_anchors,
    vc_observations,
)
from .seeding import run_seed
from .tpm import (
    MAP_EXTRACTORS,
    CompletionFailure,
    align_maps,
    complete_anchor_hops,
    complete_nuclear_norm,
    require_converged,
)
# no caller here: bound only for perfbench's tpm.map span
from .tpm import (  # noqa: F401
    tpm_full_vc,
    tpm_via_grammian,
    tpm_via_p_completion,
)
# the map writer, under the name perfbench's tpm.write span patches
from .netgen import write_points as write_tpm

PROCEDURES = tuple(MAP_EXTRACTORS)
GENERATORS = {
    "concave": gen_concave_2d,
    "circular": gen_circular_voids_2d,
    "cube": gen_cube_void_3d,
    "t-cylinder": gen_t_cylinder_3d,
}


def _edge_network(path: str) -> Graph:
    """The whole graph of an edge-list file."""
    return load_snap_edge_list(path)[0]


def _declared(target, *skip: str) -> dict[str, tuple[object, bool]]:
    """name -> (type hint, required) of each parameter that target, a
    dataclass or a function, declares, less the names in skip."""
    hints = typing.get_type_hints(target)
    return {
        name: (hints[name], p.default is inspect.Parameter.empty)
        for name, p in inspect.signature(target).parameters.items()
        if name not in skip
    }


def _type_name(hint) -> str:
    if typing.get_origin(hint) is tuple:
        return f"a list of {_type_name(typing.get_args(hint)[0])}"
    return hint.__name__


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a field typed hint (a tuple[X, ...] takes
    a list of X)."""
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return isinstance(value, (list, tuple)) and all(_fits(v, item) for v in value)
    # JSON true/false are not numbers; an integer is a valid float
    if hint in (int, float) and isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def _read_block(block: dict, keys: dict[str, tuple[object, bool]], where: str) -> dict:
    """Check the JSON object block against keys (see _declared): an unknown
    key, a missing required key or a value of the wrong type raises
    ValueError naming it. Returns the values as the fields hold them: a
    list as a tuple, the object under a dataclass-typed key as an instance."""
    unknown = sorted(set(block) - set(keys))
    if unknown:
        raise ValueError(f"unknown {where} key(s) {unknown}; accepted keys: {sorted(keys)}")
    for key, (_, required) in keys.items():
        if required and key not in block:
            raise ValueError(f"{where} needs the key {key!r}")
    out = dict(block)
    for key, value in block.items():
        hint = keys[key][0]
        if hint is dict or dataclasses.is_dataclass(hint):
            if not isinstance(value, dict):
                raise ValueError(f"config key {key!r} must be an object")
            if hint is not dict:
                out[key] = hint(**_read_block(value, _declared(hint), key))
        elif not _fits(value, hint):
            raise ValueError(f"{where} key {key!r} must be {_type_name(hint)}, got {value!r}")
        elif isinstance(value, list):
            out[key] = tuple(value)
    return out


def _network_params(kind: str) -> dict[str, tuple[object, bool]]:
    """The params a network of this kind takes; its seed is NetworkSpec.seed."""
    build = GENERATORS.get(kind) or (gen_holme_kim if kind == "holme-kim" else _edge_network)
    return _declared(build, "cfg", "seed")


@dataclass(frozen=True)
class NetworkSpec:
    kind: str                     # generator id, holme-kim, or edges
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        known = sorted([*GENERATORS, "holme-kim", "edges"])
        if self.kind not in known:
            raise ValueError(f"unknown network kind {self.kind!r}; choose from {known}")
        _read_block(self.params, _network_params(self.kind), f"{self.kind} network")
        if self.seed < 0:
            raise ValueError(f"network.seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    network: NetworkSpec
    anchors: AnchorSelection = AnchorSelection()
    mode: str = "vc"
    procedures: tuple[str, ...] = ("p-completion",)
    fractions: tuple[float, ...] = (0.1, 0.2, 0.4, 0.6, 0.8)
    repeats: int = 100
    seed: int = 0
    out_dir: str = "results"
    jobs: int = 1
    completion: CompletionConfig = field(default_factory=CompletionConfig)

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.fractions:
            raise ValueError("fractions must list at least one fraction")
        for f in self.fractions:
            if not 0.0 <= f < 1.0:
                raise ValueError("fractions must lie in [0, 1)")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {tuple(MODES)}")
        if self.mode == "vc" and not self.procedures:
            raise ValueError("procedures must list at least one procedure in vc mode")
        for p in self.procedures:
            if p not in PROCEDURES:
                raise ValueError(f"procedure must be one of {PROCEDURES}")
        # a repeated value would be scored once but counted twice in total_runs
        for key in ("procedures", "fractions"):
            repeated = [v for v, count in Counter(getattr(self, key)).items() if count > 1]
            if repeated:
                raise ValueError(f"{key} lists {repeated[0]!r} more than once")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a JSON experiment config. Unknown or unread keys in any block,
    missing required keys and values of the wrong type raise ValueError
    naming them; a file that is not a JSON object raises one naming it."""
    raw = read_json_object(path)
    cfg = ExperimentConfig(**_read_block(raw, _declared(ExperimentConfig), "config"))
    # a key only another mode reads would be ignored without a word
    others = {key for mode in MODES.values() for key in mode.keys} - set(MODES[cfg.mode].keys)
    unread = sorted(others.intersection(raw))
    if unread:
        raise ValueError(f"config key(s) {unread} not read in {cfg.mode} mode")
    # so would these seeds
    seeds = {}
    if "seed" in raw.get("anchors", {}):
        seeds["anchors.seed"] = "run_experiment draws the anchors from the top-level seed"
    if cfg.network.kind == "edges" and "seed" in raw["network"]:
        seeds["network.seed"] = "an edge-list network is read, not drawn"
    if seeds:
        raise ValueError(f"config key(s) {list(seeds)} never read: " + "; ".join(seeds.values()))
    return cfg


def build_network(spec: NetworkSpec) -> tuple[Graph, PointCloud | None, str]:
    """Realize a network spec: the graph, its layout when one exists, and
    a short display name."""
    params = spec.params
    if spec.kind in GENERATORS:
        pc, g = GENERATORS[spec.kind](GeneratorConfig(seed=spec.seed))
        return g, pc, f"{spec.kind}-{g.n}"
    if spec.kind == "holme-kim":
        g = gen_holme_kim(**params, seed=spec.seed)
        return g, None, f"holme-kim-{g.n}"
    g = _edge_network(**params)
    return g, None, f"{Path(params['path']).stem}-{g.n}"


@dataclass(frozen=True)
class Mode:
    """One observation mode of a sweep: truth(graph, anchor selection),
    observe(truth, deleted fraction f, seed), complete(observation,
    completion config) -> CompletionResult, raising CompletionFailure when
    the solve does not converge, and scoring(cfg, truth, layout, out dir)
    -> (labels, baseline map per label, score), where score(label, f,
    repeat, completed hops) yields (metric, value) pairs.
    Each calls the pipeline through this module's names at call time:
    those are the bindings perfbench's spans patch. keys are the config
    keys that this mode reads and some other mode does not; load_config
    refuses a config file that gives one of another mode's keys. A vc
    map's dimension is no key: it follows the network's layout."""

    truth: Callable[[Graph, AnchorSelection], HopDistanceMatrix]
    observe: Callable[[HopDistanceMatrix, float, int], ObservedMatrix]
    complete: Callable[[ObservedMatrix, CompletionConfig], CompletionResult]
    scoring: Callable[..., tuple]
    keys: tuple[str, ...]


def _vc_scoring(cfg, truth, layout, out):
    """One label per procedure: its map of each completion in the
    layout's dimension (2 without a layout), scored by E against its map
    of the full anchor matrix and, on 2-D layouts, by E_TP over the grid
    rows one unit apart; the first repeat's maps are written."""
    # a fraction's maps are named by its percent, which two fractions may round to
    names = {f: f"f{int(round(100 * f))}" for f in cfg.fractions}
    first = {}
    for f, name in names.items():
        other = first.setdefault(name, f)
        if other != f:
            raise ValueError(
                f"fractions {other!r} and {f!r} would both write tpm_{cfg.procedures[0]}_{name}.csv"
            )
    k = 2 if layout is None else layout.dim
    baselines = {p: MAP_EXTRACTORS[p](truth.as_float(), k) for p in cfg.procedures}
    lines = None
    if layout is not None and layout.dim == 2:
        # one layout for every run: pair up its scan lines once
        lines = scan_lines(layout)

    def score(procedure, f, rep, hops):
        tm = MAP_EXTRACTORS[procedure](hops, k)
        if rep == 0:
            write_tpm(tm, out / f"tpm_{procedure}_{names[f]}.csv")
        yield "E", mean_distance_error(tm, baselines[procedure], truth.anchor_ids)
        if lines is not None:
            # SVD maps are rotated arbitrarily; match axes before scanning
            oriented, _ = align_maps(tm, layout)
            yield "E_TP", topology_preservation_error(lines, oriented)

    return cfg.procedures, baselines, score


def _entry_scoring(cfg, truth, layout, out):
    """The one label completion, scored by E_m and E_a against the truth,
    which must connect every pair."""
    truth.require_finite()

    def score(label, f, rep, completed):
        yield "E_m", hdm_mean_error(completed, truth)
        yield "E_a", hdm_absolute_error(completed, truth)

    return ("completion",), {}, score


# mode name -> Mode; in random_entry mode every node is an anchor, the
# sampler takes the observed share 1 - f, and the nuclear-norm solve
# alone completes: with a fifth or more of all pairs observed it is
# already closer than the neighbour fill, which would also break the
# symmetry
MODES = {
    "vc": Mode(
        truth=lambda g, sel: anchor_hops(g, select_anchors(g, sel)),
        observe=lambda truth, f, seed: vc_observations(truth, f, seed=seed),
        complete=lambda o, cfg: complete_anchor_hops(o, cfg),
        scoring=_vc_scoring,
        keys=("anchors", "procedures"),
    ),
    "random_entry": Mode(
        truth=lambda g, sel: all_pairs_hops(g),
        observe=lambda truth, f, seed: random_entry_observations(truth, 1.0 - f, seed=seed),
        complete=lambda o, cfg: require_converged(complete_nuclear_norm(o, cfg)),
        scoring=_entry_scoring,
        keys=(),
    ),
}


@dataclass(frozen=True)
class RunFailure:
    network: str
    procedure: str
    f: float
    repeat: int
    error: str


@dataclass(frozen=True)
class ExperimentResult:
    reports: tuple[MetricReport, ...]
    failures: tuple[RunFailure, ...]
    total_runs: int

    @property
    def failure_fraction(self) -> float:
        return len(self.failures) / self.total_runs if self.total_runs else 0.0

    @property
    def acceptable(self) -> bool:
        return self.failure_fraction <= 0.10


# worker globals, set once per process by _init_worker
_WORK: dict = {}


def _init_worker(payload: dict) -> None:
    _WORK.update(payload)


def _run(task: tuple) -> tuple:
    """Observe the truth matrix once and complete it; every label of the
    run is scored from this one completion, so a failed completion fails
    them all alike."""
    fi, f, rep = task
    seed = run_seed(_WORK["seed"], "run", fi, rep)
    mode = MODES[_WORK["mode"]]
    o = mode.observe(_WORK["truth"], f, seed)
    return seed, mode.complete(o, _WORK["completion"]).completed


def _map_tasks(fn, tasks, payload, jobs):
    # at most one worker per task: under fork the pool starts every worker
    # at its first task
    workers = min(jobs, len(tasks))
    if workers <= 1:
        _init_worker(payload)
        try:
            for task in tasks:
                yield task, _call_guarded(fn, task)
        finally:
            _WORK.clear()
        return
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(payload,)
    ) as pool:
        for task, outcome in zip(tasks, pool.map(partial(_call_guarded, fn), tasks)):
            yield task, outcome


def _call_guarded(fn, task):
    try:
        return True, fn(task)
    except (ValueError, CompletionFailure) as exc:
        return False, f"{type(exc).__name__}: {exc}"


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    out = Path(cfg.out_dir)
    started = time.time()

    g, layout, net_name = build_network(cfg.network)
    tasks = [
        (fi, f, rep) for fi, f in enumerate(cfg.fractions) for rep in range(cfg.repeats)
    ]

    mode = MODES[cfg.mode]
    truth = mode.truth(g, replace(cfg.anchors, seed=run_seed(cfg.seed, "anchors")))
    labels, baselines, score = mode.scoring(cfg, truth, layout, out)
    m = len(truth.anchor_ids)

    # no results directory for inputs that fail to build
    out.mkdir(parents=True, exist_ok=True)
    for procedure, tm in baselines.items():
        write_tpm(tm, out / f"tpm_{procedure}_baseline.csv")
    payload = {"mode": cfg.mode, "truth": truth, "seed": cfg.seed, "completion": cfg.completion}
    # rows stay grouped by label, then fraction, then repeat
    by_label = {label: ([], []) for label in labels}
    for (_, f, rep), (ok, value) in _map_tasks(_run, tasks, payload, cfg.jobs):
        for label, (label_reports, label_failures) in by_label.items():
            if not ok:
                label_failures.append(RunFailure(net_name, label, f, rep, value))
                continue
            seed, completed = value
            label_reports.extend(
                MetricReport(net_name, label, m, f, seed, metric, v)
                for metric, v in score(label, f, rep, completed)
            )

    result = ExperimentResult(
        reports=tuple(r for label_reports, _ in by_label.values() for r in label_reports),
        failures=tuple(r for _, label_failures in by_label.values() for r in label_failures),
        total_runs=len(tasks) * len(labels),
    )
    _write_outputs(cfg, result, out, net_name, labels, time.time() - started)
    return result


# environment variables that set the BLAS thread count, recorded in meta.json
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _simd_extensions() -> list[str] | None:
    """numpy's active SIMD extensions, None on numpy < 1.26, whose
    show_config takes no mode. Ties in argsort and argpartition (the
    neighbour order of tpm.fill_from_neighbours) follow numpy's SIMD
    dispatch, so seeded vc outputs are byte-identical only between
    machines that share this set."""
    try:
        return list(np.show_config(mode="dicts")["SIMD Extensions"]["found"])
    except (TypeError, KeyError):
        return None


def _write_outputs(cfg, result, out, net_name, labels, elapsed):
    write_csv(
        ["network", "procedure", "M", "f", "seed", "metric", "value"],
        ([r.network, r.procedure, r.m, r.f, r.seed, r.metric, r.value] for r in result.reports),
        out / "runs.csv",
    )
    write_csv(
        ["network", "procedure", "M", "f", "metric", "mean", "std", "n_runs"],
        ([*key, *cell] for key, cell in summarize(result).items()),
        out / "summary.csv",
    )
    write_csv(
        ["network", "procedure", "f", "repeat", "error"],
        ([r.network, r.procedure, r.f, r.repeat, r.error] for r in result.failures),
        out / "failures.csv",
    )
    meta = {
        "network": net_name,
        "mode": cfg.mode,
        # the labels the mode scored: an entry sweep scores only completion
        "procedures": list(labels),
        "fractions": list(cfg.fractions),
        "repeats": cfg.repeats,
        "seed": cfg.seed,
        "total_runs": result.total_runs,
        "failures": len(result.failures),
        "elapsed_seconds": elapsed,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
            "simd": _simd_extensions(),
            **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        },
    }
    write_json(meta, out / "meta.json")


def summarize(result: ExperimentResult) -> dict[tuple, tuple[float, float, int]]:
    """(network, procedure, M, f, metric) -> (mean, std, run count) over
    repeats, sorted by key: summary.csv and the printed table keep this order."""
    cells: dict[tuple, list[float]] = {}
    for r in result.reports:
        cells.setdefault((r.network, r.procedure, r.m, r.f, r.metric), []).append(r.value)
    return {
        key: (float(np.mean(v)), float(np.std(v)), len(v)) for key, v in sorted(cells.items())
    }
