"""Experiment sweep driver: config loading, network building, run bookkeeping."""
import csv
import json
import typing
from dataclasses import replace

import numpy as np
import pytest

from hopmap import experiment
from hopmap.experiment import (
    ExperimentConfig,
    ExperimentResult,
    NetworkSpec,
    RunFailure,
    build_network,
    load_config,
    run_experiment,
    summarize,
)
from hopmap.graph import anchor_hops
from hopmap.lowrank import FULL_SVD_BELOW, CompletionConfig
from hopmap.metrics import MetricReport
from hopmap.netgen import read_points, write_edge_list
from hopmap.sampling import AnchorSelection, ObservedMatrix, select_anchors, vc_observations
from hopmap.seeding import run_seed
from hopmap.tpm import tpm_via_grammian, tpm_via_p_completion


def _tiny_vc_config(out_dir, **over):
    base = dict(
        network=NetworkSpec("holme-kim", seed=2, params={"n": 50, "m": 3, "p_triad": 0.3}),
        anchors=AnchorSelection("random", 8, seed=0),
        mode="vc",
        procedures=("p-completion",),
        fractions=(0.0, 0.3),
        repeats=2,
        seed=9,
        out_dir=str(out_dir),
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestConfigLoading:
    def test_nested_params_and_procedure_string(self, tmp_path):
        # one spelling per key: procedures is a list, a single "procedure"
        # string is an unknown key
        raw = {
            "network": {"kind": "holme-kim", "seed": 4, "params": {"n": 60, "m": 2, "p_triad": 0.1}},
            "procedures": ["grammian"],
            "fractions": [0.2],
            "repeats": 3,
            "seed": 1,
            "out_dir": str(tmp_path / "r"),
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        cfg = load_config(p)
        assert cfg.network.kind == "holme-kim"
        assert cfg.network.params == {"n": 60, "m": 2, "p_triad": 0.1}
        assert cfg.procedures == ("grammian",)
        assert cfg.fractions == (0.2,)
        assert cfg.repeats == 3
        del raw["procedures"]
        p.write_text(json.dumps({**raw, "procedure": "grammian"}))
        with pytest.raises(ValueError, match=r"unknown config key\(s\) \['procedure'\]"):
            load_config(p)
        p.write_text(json.dumps({**raw, "procedures": "grammian"}))
        with pytest.raises(ValueError, match="'procedures' must be a list of str"):
            load_config(p)

    def test_non_object_names_the_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match=r"cfg\.json: must hold a JSON object"):
            load_config(p)

    def test_inline_params_and_procedures_list(self, tmp_path):
        # network params go under "params" only; inline they are unknown keys
        raw = {
            "network": {"kind": "holme-kim", "seed": 2, "params": {"n": 40}},
            "anchors": {"strategy": "degree", "m": 10},
            "procedures": ["grammian", "p-completion"],
            "completion": {"tolerance": 1e-4, "max_iters": 100},
            "out_dir": str(tmp_path / "r"),
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        cfg = load_config(p)
        assert cfg.network.params == {"n": 40}
        assert cfg.anchors.strategy == "degree" and cfg.anchors.m == 10
        assert cfg.procedures == ("grammian", "p-completion")
        assert cfg.completion.tolerance == 1e-4
        assert cfg.fractions == (0.1, 0.2, 0.4, 0.6, 0.8)
        assert cfg.repeats == 100
        raw["network"] = {"kind": "holme-kim", "seed": 2, "n": 40}
        p.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=r"unknown network key\(s\) \['n'\]"):
            load_config(p)

    def test_optional_params_take_null(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "network": {"kind": "edges", "params": {"path": "net.txt", "target_n": None}},
        }))
        assert load_config(p).network.params == {"path": "net.txt", "target_n": None}
        with pytest.raises(ValueError, match="'target_n' must be int or null, got 1.5"):
            NetworkSpec("edges", params={"path": "net.txt", "target_n": 1.5})
        # typing.Optional and the X | None union read alike
        assert experiment._fits(None, typing.Optional[int])
        assert not experiment._fits(1.5, typing.Optional[int])

    def test_params_and_inline_conflict_rejected(self, tmp_path):
        raw = {
            "network": {"kind": "holme-kim", "params": {"n": 50}, "n": 60},
            "out_dir": str(tmp_path / "r"),
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ValueError):
            load_config(p)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            _tiny_vc_config("x", repeats=0)
        with pytest.raises(ValueError):
            _tiny_vc_config("x", fractions=(1.0,))
        with pytest.raises(ValueError):
            _tiny_vc_config("x", procedures=("mystery",))
        with pytest.raises(ValueError):
            _tiny_vc_config("x", mode="other")
        with pytest.raises(ValueError):
            _tiny_vc_config("x", jobs=0)
        # numpy's SeedSequence would refuse these later, without naming the key
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -3$"):
            _tiny_vc_config("x", seed=-3)
        with pytest.raises(ValueError, match=r"^network\.seed must be >= 0, got -1$"):
            NetworkSpec("concave", seed=-1)

    def test_anchor_default_is_the_library_default(self):
        assert ExperimentConfig(network=NetworkSpec("concave")).anchors == AnchorSelection()

    @pytest.mark.parametrize(
        "over, named",
        [
            ({"procedures": ("grammian", "p-completion", "grammian")}, "procedures lists 'grammian'"),
            ({"fractions": (0.3, 0.3)}, "fractions lists 0.3"),
            ({"fractions": (0.0, 0.6, 0)}, "fractions lists 0.0"),
        ],
    )
    def test_repeated_procedure_or_fraction_rejected(self, over, named):
        # a repeat would be counted in total_runs but scored once, and
        # would share one summary cell with its twin
        with pytest.raises(ValueError, match=f"^{named} more than once$"):
            _tiny_vc_config("x", **over)


class TestBuildNetwork:
    def test_holme_kim(self):
        g, layout, name = build_network(
            NetworkSpec("holme-kim", seed=1, params={"n": 70, "m": 3, "p_triad": 0.2})
        )
        assert g.n == 70 and layout is None and name == "holme-kim-70"

    def test_geometric_layout(self):
        g, layout, name = build_network(NetworkSpec("circular", seed=1))
        assert layout is not None and layout.dim == 2
        assert layout.n == g.n
        assert name == f"circular-{g.n}"

    def test_edge_list_with_bfs_ball(self, tmp_path):
        g0, _, _ = build_network(
            NetworkSpec("holme-kim", seed=5, params={"n": 120, "m": 3, "p_triad": 0.3})
        )
        path = tmp_path / "net.txt"
        write_edge_list(g0, path)
        g, layout, name = build_network(
            NetworkSpec("edges", params={"path": str(path), "target_n": 60, "root": 0})
        )
        assert g.n == 60 and layout is None
        assert name == "net-60"

    def test_unknown_params_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            build_network(NetworkSpec("holme-kim", params={"n": 50, "bogus": 1}))
        path = tmp_path / "net.txt"
        g0, _, _ = build_network(
            NetworkSpec("holme-kim", seed=5, params={"n": 30, "m": 2, "p_triad": 0.1})
        )
        write_edge_list(g0, path)
        with pytest.raises(ValueError):
            build_network(NetworkSpec("edges", params={"path": str(path), "bogus": 1}))


class TestVcSweep:
    def test_outputs_and_zero_fraction(self, tmp_path):
        cfg = _tiny_vc_config(tmp_path / "r")
        res = run_experiment(cfg)
        assert res.total_runs == 4 and not res.failures
        assert res.acceptable

        out = tmp_path / "r"
        for fname in ("runs.csv", "summary.csv", "failures.csv", "meta.json"):
            assert (out / fname).exists()
        assert (out / "tpm_p-completion_baseline.csv").exists()
        assert (out / "tpm_p-completion_f0.csv").exists()
        assert (out / "tpm_p-completion_f30.csv").exists()

        with open(out / "runs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["metric"] for r in rows} == {"E"}
        zero_rows = [r for r in rows if float(r["f"]) == 0.0]
        assert zero_rows and all(float(r["value"]) == 0.0 for r in zero_rows)

        meta = json.loads((out / "meta.json").read_text())
        assert meta["total_runs"] == 4 and meta["failures"] == 0
        assert meta["network"] == "holme-kim-50"

    def test_summary_matches_reports(self, tmp_path):
        cfg = _tiny_vc_config(tmp_path / "r", fractions=(0.3,), repeats=3)
        res = run_experiment(cfg)
        values = [r.value for r in res.reports if r.f == 0.3]
        mean, std, _ = summarize(res)[("holme-kim-50", "p-completion", 8, 0.3, "E")]
        assert abs(mean - np.mean(values)) < 1e-15
        assert abs(std - np.std(values)) < 1e-15

        with open(tmp_path / "r" / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        row = [r for r in rows if float(r["f"]) == 0.3][0]
        assert abs(float(row["mean"]) - mean) < 1e-15
        assert int(row["n_runs"]) == 3

    def test_deterministic_across_runs(self, tmp_path):
        a = run_experiment(_tiny_vc_config(tmp_path / "a"))
        b = run_experiment(_tiny_vc_config(tmp_path / "b"))
        assert [r.value for r in a.reports] == [r.value for r in b.reports]
        assert (tmp_path / "a" / "runs.csv").read_bytes() == (
            tmp_path / "b" / "runs.csv"
        ).read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        serial = run_experiment(_tiny_vc_config(tmp_path / "s", jobs=1))
        parallel = run_experiment(_tiny_vc_config(tmp_path / "p", jobs=2))
        assert [r.value for r in serial.reports] == [r.value for r in parallel.reports]

    def test_geometric_layout_adds_etp(self, tmp_path):
        cfg = _tiny_vc_config(
            tmp_path / "r",
            network=NetworkSpec("circular", seed=1),
            fractions=(0.2,),
        )
        res = run_experiment(cfg)
        metrics = {r.metric for r in res.reports}
        assert metrics == {"E", "E_TP"}

    @pytest.mark.parametrize("kind, dim", [("cube", 3), ("concave", 2)])
    def test_maps_take_the_layout_dimension(self, tmp_path, kind, dim):
        # E_TP scans 2-D layouts only
        cfg = _tiny_vc_config(tmp_path / "r", network=NetworkSpec(kind), fractions=(0.2,))
        res = run_experiment(cfg)
        n = build_network(cfg.network)[0].n
        for name in ("baseline", "f20"):
            assert read_points(tmp_path / "r" / f"tpm_p-completion_{name}.csv").coords.shape == (n, dim)
        assert {r.metric for r in res.reports} == ({"E"} if dim == 3 else {"E", "E_TP"})

    def test_both_procedures(self, tmp_path):
        cfg = _tiny_vc_config(
            tmp_path / "r", procedures=("grammian", "p-completion"), fractions=(0.2,)
        )
        res = run_experiment(cfg)
        assert {r.procedure for r in res.reports} == {"grammian", "p-completion"}
        out = tmp_path / "r"
        assert (out / "tpm_grammian_baseline.csv").exists()
        assert (out / "tpm_grammian_f20.csv").exists()

    def test_shared_completion_matches_tpm_functions(self, tmp_path):
        # one completion per observation feeds both procedures; each map
        # must equal what the library call gives on that observation
        cfg = _tiny_vc_config(
            tmp_path / "r", procedures=("grammian", "p-completion"), fractions=(0.0, 0.3)
        )
        res = run_experiment(cfg)
        assert not res.failures
        g, _, _ = build_network(cfg.network)
        anchors = select_anchors(g, replace(cfg.anchors, seed=run_seed(cfg.seed, "anchors")))
        p = anchor_hops(g, anchors)
        for fi, f in enumerate(cfg.fractions):
            o = vc_observations(p, f, seed=run_seed(cfg.seed, "run", fi, 0))
            for procedure, fn in (
                ("grammian", tpm_via_grammian),
                ("p-completion", tpm_via_p_completion),
            ):
                written = read_points(tmp_path / "r" / f"tpm_{procedure}_f{int(round(100 * f))}.csv")
                assert np.array_equal(written.coords, fn(o, 2, cfg.completion).coords)

        # rows stay grouped by procedure, then fraction, then repeat
        keys = [(r.procedure, r.f) for r in res.reports]
        assert keys == sorted(keys, key=lambda key: (cfg.procedures.index(key[0]), key[1]))


class TestEntrySweep:
    def test_reports_both_hop_metrics(self, tmp_path):
        cfg = _tiny_vc_config(
            tmp_path / "r",
            mode="random_entry",
            fractions=(0.5,),
            repeats=2,
        )
        res = run_experiment(cfg)
        assert res.total_runs == 2 and not res.failures
        metrics = {r.metric for r in res.reports}
        assert metrics == {"E_m", "E_a"}
        # M column records that every node is measured against every node
        assert all(r.m == 50 for r in res.reports)
        for r in res.reports:
            assert r.value >= 0.0

    def test_summary_is_in_value_order(self, tmp_path):
        # by value, not by first report: f ascending, then E_a before E_m
        cfg = _tiny_vc_config(tmp_path / "r", mode="random_entry", fractions=(0.6, 0.2), repeats=1)
        res = run_experiment(cfg)
        order = [(0.2, "E_a"), (0.2, "E_m"), (0.6, "E_a"), (0.6, "E_m")]
        assert [(f, metric) for _, _, _, f, metric in summarize(res)] == order
        with open(tmp_path / "r" / "summary.csv", newline="") as fh:
            assert [(float(r["f"]), r["metric"]) for r in csv.DictReader(fh)] == order

    def test_meta_names_the_scored_label(self, tmp_path):
        # the config's procedures play no part in entry mode, so meta.json
        # records the one label the runs were scored under
        cfg = _tiny_vc_config(
            tmp_path / "entry",
            mode="random_entry",
            procedures=("grammian", "p-completion"),
            fractions=(0.5,),
            repeats=1,
        )
        run_experiment(cfg)
        meta = json.loads((tmp_path / "entry" / "meta.json").read_text())
        assert meta["procedures"] == ["completion"]
        with open(tmp_path / "entry" / "runs.csv", newline="") as fh:
            assert {r["procedure"] for r in csv.DictReader(fh)} == {"completion"}
        # a vc sweep still records its configured procedures
        vc = _tiny_vc_config(tmp_path / "vc", procedures=("grammian", "p-completion"), repeats=1)
        run_experiment(vc)
        meta = json.loads((tmp_path / "vc" / "meta.json").read_text())
        assert meta["procedures"] == ["grammian", "p-completion"]

    def test_parallel_matches_serial_on_randomized_svt_path(self, tmp_path):
        # 450 nodes: above FULL_SVD_BELOW, so every completion runs the
        # warm-started randomized range finder
        def cfg(name, jobs):
            return _tiny_vc_config(
                tmp_path / name,
                network=NetworkSpec("holme-kim", seed=0, params={"n": 450, "m": 3, "p_triad": 0.3}),
                mode="random_entry",
                fractions=(0.8,),
                repeats=2,
                jobs=jobs,
                completion=CompletionConfig(tolerance=1e-4),
            )

        assert 450 > FULL_SVD_BELOW
        serial = run_experiment(cfg("s", 1))
        parallel = run_experiment(cfg("p", 2))
        assert not serial.failures and not parallel.failures
        assert (tmp_path / "s" / "runs.csv").read_bytes() == (
            tmp_path / "p" / "runs.csv"
        ).read_bytes()

    def test_failures_name_the_completion(self, tmp_path):
        cfg = _tiny_vc_config(
            tmp_path / "r",
            mode="random_entry",
            procedures=("grammian", "p-completion"),
            fractions=(0.4, 0.6),
            repeats=3,
            completion=CompletionConfig(max_iters=1),
        )
        res = run_experiment(cfg)
        # each run has the one label "completion"; procedures play no part
        assert res.total_runs == len(cfg.fractions) * cfg.repeats
        assert len(res.failures) == res.total_runs and not res.reports
        with open(tmp_path / "r" / "failures.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["procedure"], float(r["f"]), int(r["repeat"])) for r in rows] == [
            ("completion", f, rep) for f in cfg.fractions for rep in range(cfg.repeats)
        ]
        assert all("CompletionFailure" in r["error"] for r in rows)
        meta = json.loads((tmp_path / "r" / "meta.json").read_text())
        assert meta["total_runs"] == res.total_runs

    def test_hop_metric_identity_holds_in_reports(self, tmp_path):
        cfg = _tiny_vc_config(
            tmp_path / "r", mode="random_entry", fractions=(0.4,), repeats=1
        )
        res = run_experiment(cfg)
        em = [r.value for r in res.reports if r.metric == "E_m"][0]
        ea = [r.value for r in res.reports if r.metric == "E_a"][0]
        g, _, _ = build_network(cfg.network)
        from hopmap.graph import all_pairs_hops

        h = all_pairs_hops(g)
        assert abs(ea - em * h.hops.sum() / h.hops.size) < 1e-12


class TestModeTable:
    def test_sweeps_call_the_module_bindings_once_per_build_and_run(self, tmp_path, monkeypatch):
        # perfbench's spans patch these names in hopmap.experiment: a mode
        # that held on to the functions at import would skip the patch
        calls = []
        for name in (
            "select_anchors",
            "anchor_hops",
            "all_pairs_hops",
            "vc_observations",
            "random_entry_observations",
        ):

            def counting(*args, _name=name, _fn=getattr(experiment, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(experiment, name, counting)
        # two fractions x two repeats
        assert not run_experiment(_tiny_vc_config(tmp_path / "vc")).failures
        assert calls == ["select_anchors", "anchor_hops"] + ["vc_observations"] * 4
        calls.clear()
        cfg = _tiny_vc_config(tmp_path / "entry", mode="random_entry", fractions=(0.5,), repeats=3)
        assert not run_experiment(cfg).failures
        assert calls == ["all_pairs_hops"] + ["random_entry_observations"] * 3

    def test_vc_completer_refuses_negative_values(self):
        # no hop count is negative: with one, the geodesic bounds' triangle
        # closure runs down negative cycles, and this rank-2 Gaussian matrix
        # was completed with a mean miss of about 1e9
        rng = np.random.default_rng(12)
        truth = rng.standard_normal((30, 2)) @ rng.standard_normal((2, 30))
        mask = rng.random((30, 30)) < 0.7
        o = ObservedMatrix(values=truth, mask=mask)
        i, j = np.argwhere(mask & (truth < 0))[0]
        with pytest.raises(ValueError, match=rf"observed hop \({i}, {j}\) is negative"):
            experiment.MODES["vc"].complete(o, CompletionConfig())


class TestFailureAccounting:
    def test_failures_recorded_not_raised(self, tmp_path):
        # one iteration cannot reach tolerance, so every completion run
        # fails and is logged instead of aborting the sweep
        cfg = _tiny_vc_config(
            tmp_path / "r",
            fractions=(0.4,),
            repeats=2,
            completion=CompletionConfig(max_iters=1),
        )
        res = run_experiment(cfg)
        assert res.total_runs == 2
        assert len(res.failures) == 2
        assert not res.acceptable
        assert all("residual" in f.error for f in res.failures)

        with open(tmp_path / "r" / "failures.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(r["procedure"] == "p-completion" for r in rows)

    def test_failed_completion_fails_both_procedures(self, tmp_path):
        cfg = _tiny_vc_config(
            tmp_path / "r",
            procedures=("grammian", "p-completion"),
            fractions=(0.0, 0.4),
            repeats=2,
            completion=CompletionConfig(max_iters=1),
        )
        res = run_experiment(cfg)
        assert res.total_runs == 8
        assert [(r.procedure, r.f, r.repeat) for r in res.failures] == [
            (procedure, 0.4, rep) for procedure in cfg.procedures for rep in range(2)
        ]
        assert all("residual" in r.error for r in res.failures)
        # the full-mask runs need no iterations and succeed for both
        assert {(r.procedure, r.f) for r in res.reports} == {
            ("grammian", 0.0),
            ("p-completion", 0.0),
        }

    def test_zero_fraction_survives_strict_budget(self, tmp_path):
        # the full mask short-circuits without iterating, so f=0 runs
        # succeed even under an absurd iteration budget
        cfg = _tiny_vc_config(
            tmp_path / "r",
            fractions=(0.0,),
            repeats=1,
            completion=CompletionConfig(max_iters=1),
        )
        res = run_experiment(cfg)
        assert not res.failures

    def test_serial_map_clears_worker_state_when_closed_early(self):
        gen = experiment._map_tasks(lambda task: task, [1, 2, 3], {"seed": 0}, jobs=1)
        assert next(gen) == (1, (True, 1))
        assert experiment._WORK == {"seed": 0}
        gen.close()
        assert experiment._WORK == {}

    def test_pool_starts_at_most_one_worker_per_task(self, monkeypatch):
        started = []

        class InlinePool:
            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                experiment._WORK.clear()

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", InlinePool)
        got = list(experiment._map_tasks(lambda task: -task, [1, 2, 3], {"seed": 0}, jobs=8))
        assert got == [(1, (True, -1)), (2, (True, -2)), (3, (True, -3))]
        assert started == [3]
        # one task runs in process: no pool is built
        assert list(experiment._map_tasks(lambda task: -task, [1], {"seed": 0}, jobs=8)) == [
            (1, (True, -1))
        ]
        assert started == [3]
        assert experiment._WORK == {}

    def test_acceptable_threshold(self):
        reports = tuple()
        fail = RunFailure("n", "p", 0.1, 0, "x")
        assert ExperimentResult(reports, (fail,), 10).acceptable
        assert not ExperimentResult(reports, (fail, fail), 10).acceptable
        assert ExperimentResult(reports, (), 0).failure_fraction == 0.0
