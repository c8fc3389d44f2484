"""Monte-Carlo experiment harness: sample, complete, map, score, summarize."""
from __future__ import annotations

import csv
import dataclasses
import inspect
import json
import os
import platform
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from .graph import Graph, HopDistanceMatrix, VcMatrix, all_pairs_hops, anchor_hops
from .lowrank import CompletionConfig, complete_nuclear_norm
from .metrics import (
    MetricReport,
    ScanLineConfig,
    hdm_absolute_error,
    hdm_mean_error,
    mean_distance_error,
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
    subgraph_bfs,
)
from .sampling import (
    AnchorSelection,
    random_entry_observations,
    select_anchors,
    vc_observations,
)
from .seeding import run_seed
from .tpm import (
    MAP_EXTRACTORS,
    CompletionFailure,
    TopologyMap,
    align_maps,
    complete_anchor_hops,
    tpm_full_vc,
    tpm_via_grammian,
    tpm_via_p_completion,  # noqa: F401  bound here for perfbench's tpm.map span
    write_tpm,
)

PROCEDURES = tuple(MAP_EXTRACTORS)
MODES = ("vc", "random_entry")
GENERATORS = {
    "concave": gen_concave_2d,
    "circular": gen_circular_voids_2d,
    "cube": gen_cube_void_3d,
    "t-cylinder": gen_t_cylinder_3d,
}
# network params of the kinds that are not layout generators
NETWORK_PARAMS = {"holme-kim": ("n", "m", "p_triad"), "edges": ("path", "target_n", "root")}


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def _reject_unknown(block: dict, accepted, where: str) -> None:
    unknown = sorted(set(block) - set(accepted))
    if unknown:
        raise ValueError(
            f"unknown {where} key(s) {unknown}; accepted keys: {sorted(accepted)}"
        )


def _fits(value, want) -> bool:
    if want in (int, float):
        # JSON true/false are not numbers; an integer is a valid float
        ok = (int,) if want is int else (int, float)
        return isinstance(value, ok) and not isinstance(value, bool)
    return isinstance(value, want)


def _check_types(block: dict, cls, where: str) -> None:
    """Raise ValueError naming the first key of block whose value does not
    have the type of cls's field of that name (a tuple field takes a list)."""
    hints = typing.get_type_hints(cls)
    for key, value in block.items():
        want = hints[key]
        if typing.get_origin(want) is tuple:
            item = typing.get_args(want)[0]
            ok = isinstance(value, (list, tuple)) and all(_fits(v, item) for v in value)
            name = f"a list of {item.__name__}"
        else:
            ok = _fits(value, want)
            name = want.__name__
        if not ok:
            raise ValueError(f"{where} key {key!r} must be {name}, got {value!r}")


def _object(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"config key {key!r} must be an object")
    return value


def _accepted_params(kind: str) -> set[str]:
    if kind in GENERATORS:
        # placement fields of GeneratorConfig, then the generator's geometry
        geometry = set(inspect.signature(GENERATORS[kind]).parameters) - {"cfg"}
        return (_field_names(GeneratorConfig) - {"seed"}) | geometry
    return set(NETWORK_PARAMS[kind])


@dataclass(frozen=True)
class NetworkSpec:
    kind: str                     # generator id, holme-kim, or edges
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        known = set(GENERATORS) | set(NETWORK_PARAMS)
        if self.kind not in known:
            raise ValueError(f"unknown network kind {self.kind!r}; choose from {sorted(known)}")
        _reject_unknown(self.params, _accepted_params(self.kind), f"{self.kind} network")


@dataclass(frozen=True)
class ExperimentConfig:
    network: NetworkSpec
    anchors: AnchorSelection = AnchorSelection("random", 20)
    mode: str = "vc"
    procedures: tuple[str, ...] = ("p-completion",)
    fractions: tuple[float, ...] = (0.1, 0.2, 0.4, 0.6, 0.8)
    k: int = 2
    repeats: int = 100
    seed: int = 0
    out_dir: str = "results"
    jobs: int = 1
    completion: CompletionConfig = field(default_factory=CompletionConfig)
    bin_width: float = 1.0

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        for f in self.fractions:
            if not 0.0 <= f < 1.0:
                raise ValueError("fractions must lie in [0, 1)")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        for p in self.procedures:
            if p not in PROCEDURES:
                raise ValueError(f"procedure must be one of {PROCEDURES}")
        if self.k not in (2, 3):
            raise ValueError("map dimension k must be 2 or 3")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a JSON experiment config; unknown keys in any block, and values
    of the wrong type, raise ValueError naming them."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    _reject_unknown(raw, _field_names(ExperimentConfig) | {"procedure"}, "config")
    net = dict(_object(raw.pop("network"), "network"))
    kind = net.pop("kind")
    net_seed = net.pop("seed", 0)
    _check_types({"kind": kind, "seed": net_seed}, NetworkSpec, "network")
    # generator params may sit under an explicit "params" key or inline
    params = net.pop("params", None)
    if params is None:
        params = net
    elif net:
        raise ValueError(f"network has both 'params' and inline keys {sorted(net)}")
    spec = NetworkSpec(kind=kind, seed=net_seed, params=_object(params, "params"))
    anchors = _object(raw.pop("anchors", {}), "anchors")
    _reject_unknown(anchors, _field_names(AnchorSelection), "anchors")
    _check_types(anchors, AnchorSelection, "anchors")
    completion = _object(raw.pop("completion", {}), "completion")
    _reject_unknown(completion, _field_names(CompletionConfig), "completion")
    _check_types(completion, CompletionConfig, "completion")
    procedures = raw.pop("procedures", raw.pop("procedure", "p-completion"))
    if isinstance(procedures, str):
        procedures = (procedures,)
    _check_types({"procedures": procedures, **raw}, ExperimentConfig, "config")
    return ExperimentConfig(
        network=spec,
        anchors=AnchorSelection(**anchors),
        procedures=tuple(procedures),
        fractions=tuple(raw.pop("fractions", (0.1, 0.2, 0.4, 0.6, 0.8))),
        completion=CompletionConfig(**completion),
        **raw,
    )


def build_network(spec: NetworkSpec) -> tuple[Graph, PointCloud | None, str]:
    """Realize a network spec: the graph, its layout when one exists, and
    a short display name."""
    params = spec.params
    if spec.kind in GENERATORS:
        # placement params (pitch, jitter, ...) go to the generator config,
        # geometry params (extents, voids, ...) to the generator itself
        cfg_fields = _field_names(GeneratorConfig)
        cfg_params = {k: v for k, v in params.items() if k in cfg_fields}
        geo_params = {k: v for k, v in params.items() if k not in cfg_fields}
        cfg = GeneratorConfig(seed=spec.seed, **cfg_params)
        pc, g = GENERATORS[spec.kind](cfg, **geo_params)
        return g, pc, f"{spec.kind}-{g.n}"
    if spec.kind == "holme-kim":
        n = int(params.get("n", 500))
        m = int(params.get("m", 3))
        p_triad = float(params.get("p_triad", 0.5))
        return gen_holme_kim(n, m, p_triad, seed=spec.seed), None, f"holme-kim-{n}"
    path = params["path"]
    g, _ = load_snap_edge_list(path)
    if params.get("target_n") is not None:
        g = subgraph_bfs(g, int(params.get("root", 0)), int(params["target_n"]))
    return g, None, f"{Path(path).stem}-{g.n}"


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


def _vc_run(task: tuple) -> tuple:
    """Complete one observation once and extract every procedure's map
    from it, so a failed completion fails all procedures alike."""
    fi, f, rep = task
    p: VcMatrix = _WORK["p"]
    seed = run_seed(_WORK["seed"], "run", fi, rep)
    o = vc_observations(p, f, seed=seed)
    hops = complete_anchor_hops(o, _WORK["completion"])
    coords = {
        procedure: MAP_EXTRACTORS[procedure](hops, _WORK["k"]).coords
        for procedure in _WORK["procedures"]
    }
    return seed, coords


def _entry_run(task: tuple) -> tuple:
    fi, f, rep = task
    h: HopDistanceMatrix = _WORK["h"]
    seed = run_seed(_WORK["seed"], "run", fi, rep)
    o = random_entry_observations(h, 1.0 - f, seed=seed)
    res = complete_nuclear_norm(o, _WORK["completion"])
    if not res.converged:
        raise CompletionFailure(res)
    return seed, res.completed


def _map_tasks(fn, tasks, payload, jobs):
    if jobs <= 1:
        _init_worker(payload)
        for task in tasks:
            yield task, _call_guarded(fn, task)
        _WORK.clear()
        return
    with ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=(payload,)
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
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()

    g, layout, net_name = build_network(cfg.network)
    reports: list[MetricReport] = []
    failures: list[RunFailure] = []
    tasks = [
        (fi, f, rep) for fi, f in enumerate(cfg.fractions) for rep in range(cfg.repeats)
    ]

    if cfg.mode == "vc":
        sel = replace(cfg.anchors, seed=run_seed(cfg.seed, "anchors"))
        anchors = select_anchors(g, sel)
        p = anchor_hops(g, anchors)
        baselines: dict[str, TopologyMap] = {}
        for procedure in cfg.procedures:
            if procedure == "p-completion":
                baselines[procedure] = tpm_full_vc(p, cfg.k)
            else:
                full = vc_observations(p, 0.0, seed=run_seed(cfg.seed, "baseline"))
                baselines[procedure] = tpm_via_grammian(full, cfg.k, cfg.completion)
            write_tpm(baselines[procedure], out / f"tpm_{procedure}_baseline.csv")

        payload = {
            "p": p,
            "k": cfg.k,
            "seed": cfg.seed,
            "completion": cfg.completion,
            "procedures": cfg.procedures,
        }
        scan_cfg = ScanLineConfig(bin_width=cfg.bin_width)
        # rows stay grouped by procedure, then fraction, then repeat
        by_proc = {procedure: ([], []) for procedure in cfg.procedures}
        for task, (ok, value) in _map_tasks(_vc_run, tasks, payload, cfg.jobs):
            _, f, rep = task
            for procedure, (proc_reports, proc_failures) in by_proc.items():
                if not ok:
                    proc_failures.append(RunFailure(net_name, procedure, f, rep, value))
                    continue
                seed, coords = value
                tm = TopologyMap(coords=coords[procedure])
                if rep == 0:
                    write_tpm(tm, out / f"tpm_{procedure}_f{int(round(100 * f))}.csv")
                e = mean_distance_error(tm, baselines[procedure], anchors)
                proc_reports.append(
                    MetricReport(net_name, procedure, sel.m, f, seed, "E", e)
                )
                if layout is not None and layout.dim == 2 and cfg.k == 2:
                    # SVD maps are rotated arbitrarily; match axes before scanning
                    oriented, _ = align_maps(tm, TopologyMap(coords=layout.coords.copy()))
                    etp = topology_preservation_error(layout, oriented, scan_cfg)
                    proc_reports.append(
                        MetricReport(net_name, procedure, sel.m, f, seed, "E_TP", etp)
                    )
        for proc_reports, proc_failures in by_proc.values():
            reports.extend(proc_reports)
            failures.extend(proc_failures)
    else:
        h = all_pairs_hops(g)
        h.require_finite()
        payload = {"h": h, "seed": cfg.seed, "completion": cfg.completion}
        for (_, f, rep), (ok, value) in _map_tasks(_entry_run, tasks, payload, cfg.jobs):
            if not ok:
                failures.append(RunFailure(net_name, "completion", f, rep, value))
                continue
            seed, completed = value
            em = hdm_mean_error(completed, h)
            ea = hdm_absolute_error(completed, h)
            # every node acts as an anchor in entrywise observation mode
            reports.append(MetricReport(net_name, "completion", h.n, f, seed, "E_m", em))
            reports.append(MetricReport(net_name, "completion", h.n, f, seed, "E_a", ea))

    result = ExperimentResult(
        reports=tuple(reports),
        failures=tuple(failures),
        total_runs=len(tasks) * (len(cfg.procedures) if cfg.mode == "vc" else 1),
    )
    _write_outputs(cfg, result, out, net_name, time.time() - started)
    return result


# environment variables that set the BLAS thread count, recorded in meta.json
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _write_outputs(cfg, result, out, net_name, elapsed):
    with open(out / "runs.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["network", "procedure", "M", "f", "seed", "metric", "value"])
        for r in result.reports:
            w.writerow(
                [r.network, r.procedure, r.m, r.f, r.seed, r.metric, repr(float(r.value))]
            )

    cells = _summary_cells(result)
    with open(out / "summary.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["network", "procedure", "M", "f", "metric", "mean", "std", "n_runs"])
        for key in sorted(cells, key=str):
            mean, std, n_runs = cells[key]
            w.writerow(list(key) + [repr(mean), repr(std), n_runs])

    with open(out / "failures.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["network", "procedure", "f", "repeat", "error"])
        for r in result.failures:
            w.writerow([r.network, r.procedure, r.f, r.repeat, r.error])

    meta = {
        "network": net_name,
        "mode": cfg.mode,
        "procedures": list(cfg.procedures),
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
            **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        },
    }
    with open(out / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def _summary_cells(result: ExperimentResult) -> dict[tuple, tuple[float, float, int]]:
    """(network, procedure, M, f, metric) -> (mean, std, run count) over
    repeats, in order of first report."""
    cells: dict[tuple, list[float]] = {}
    for r in result.reports:
        cells.setdefault((r.network, r.procedure, r.m, r.f, r.metric), []).append(r.value)
    return {
        key: (float(np.mean(v)), float(np.std(v)), len(v)) for key, v in cells.items()
    }


def summarize(result: ExperimentResult) -> dict[tuple, tuple[float, float]]:
    """(network, procedure, f, metric) -> (mean, std) over repeats; M is
    fixed within one experiment."""
    return {
        (net, procedure, f, metric): (mean, std)
        for (net, procedure, _, f, metric), (mean, std, _) in _summary_cells(result).items()
    }
