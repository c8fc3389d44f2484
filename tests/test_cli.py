"""Command-line interface: subcommand wiring, file formats, exit codes."""
import csv
import inspect
import json
import os
import re

import numpy as np
import pytest

from hopmap import cli, experiment, netgen
from hopmap.cli import EXIT_CONVERGENCE, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from hopmap.graph import anchor_hops
from hopmap.lowrank import CompletionConfig, complete_nuclear_norm
from hopmap.netgen import PointCloud, gen_holme_kim, read_points, write_points
from hopmap.sampling import (
    AnchorSelection,
    ObservedMatrix,
    load_observed,
    save_observed,
    select_anchors,
)
from hopmap.tpm import MAP_EXTRACTORS


@pytest.fixture
def hk_edges(tmp_path):
    rc = main(
        ["generate", "--net", "holme-kim", "--n", "70", "--m", "3",
         "--p-triad", "0.4", "--seed", "7", "--out", str(tmp_path)]
    )
    assert rc == EXIT_OK
    return tmp_path / "holme-kim_edges.txt"


class TestGenerate:
    def test_holme_kim_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for d in (a, b):
            rc = main(
                ["generate", "--net", "holme-kim", "--n", "60", "--m", "3",
                 "--p-triad", "0.4", "--seed", "5", "--out", str(d)]
            )
            assert rc == EXIT_OK
        assert (a / "holme-kim_edges.txt").read_bytes() == (
            b / "holme-kim_edges.txt"
        ).read_bytes()

    def test_geometric_writes_layout(self, tmp_path):
        rc = main(["generate", "--net", "circular", "--seed", "2", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert (tmp_path / "circular_edges.txt").exists()
        layout = (tmp_path / "circular_layout.csv").read_text().strip().splitlines()
        assert layout[0] == "node_id,x,y"
        edges = (tmp_path / "circular_edges.txt").read_text().strip().splitlines()
        n_nodes = len(layout) - 1
        assert n_nodes == 496

    def test_unknown_generator_is_usage_error(self, tmp_path):
        assert main(["generate", "--net", "dodecahedron", "--out", str(tmp_path)]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n", "-5"], "--n -5, --m 3, --p-triad 0.5: need n > m >= 1"),
            (["--n", "2"], "--n 2, --m 3, --p-triad 0.5: need n > m >= 1"),
            (["--m", "0"], "--n 500, --m 0, --p-triad 0.5: need n > m >= 1"),
            (["--p-triad", "2"], "--n 500, --m 3, --p-triad 2.0: p_triad must be in [0, 1]"),
            (["--n", "3", "--m", "3"], "--n 3, --m 3, --p-triad 0.5: need n > m >= 1"),
            (["--p-triad", "nan"], "--n 500, --m 3, --p-triad nan: p_triad must be in [0, 1]"),
        ],
        ids=["n-negative", "n-not-above-m", "m-zero", "p-triad-above-one", "n-equals-m",
             "p-triad-nan"],
    )
    def test_out_of_range_holme_kim_flag_is_usage_error(self, tmp_path, capsys, flags, message):
        # gen_holme_kim's rule, with the value of each of its flags
        out = tmp_path / "net"
        rc = main(["generate", "--net", "holme-kim", *flags, "--out", str(out)])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == f"hopmap generate: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--n", "100"], ["--m", "7"], ["--p-triad", "0.9"]])
    def test_layout_refuses_holme_kim_flags(self, tmp_path, capsys, flags):
        # a layout's size is fixed by its geometry; the flag would change nothing
        out = tmp_path / "net"
        rc = main(["generate", "--net", "concave", *flags, "--out", str(out)])
        assert rc == EXIT_USAGE
        assert f"argument {flags[0]}: not allowed with --net concave" in capsys.readouterr().err
        assert not out.exists()

    def test_disconnected_layout_is_data_error(self, tmp_path, capsys, monkeypatch):
        # a layout reads no flag that could fix it, so it is no usage error
        monkeypatch.setattr(netgen, "RADIUS", 0.5)
        out = tmp_path / "net"
        rc = main(["generate", "--net", "concave", "--seed", "3", "--out", str(out)])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == (
            "error: concave-2d layout with seed 3 is disconnected at radius 0.5\n"
        )
        assert not out.exists()

    def test_holme_kim_defaults(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--net", "holme-kim", "--out", str(a)]) == EXIT_OK
        flags = ["--n", "500", "--m", "3", "--p-triad", "0.5"]
        assert main(["generate", "--net", "holme-kim", *flags, "--out", str(b)]) == EXIT_OK
        assert (a / "holme-kim_edges.txt").read_bytes() == (b / "holme-kim_edges.txt").read_bytes()


class TestSpectrum:
    def test_identity_matrix_all_ones(self, tmp_path):
        m = tmp_path / "m.csv"
        np.savetxt(m, np.eye(6), delimiter=",")
        out = tmp_path / "s.csv"
        rc = main(["spectrum", "--input", str(m), "--matrix-kind", "file", "--out", str(out)])
        assert rc == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert all(float(r["value"]) == 1.0 for r in rows)

    def test_graph_kinds_and_top(self, hk_edges, tmp_path):
        # every value, the top one 1; vc has one per anchor
        for kind, size in (("hdm", 70), ("adjacency", 70), ("vc", AnchorSelection.m)):
            out = tmp_path / f"{kind}.csv"
            rc = main(
                ["spectrum", "--input", str(hk_edges), "--matrix-kind", kind,
                 "--centered", "--out", str(out)]
            )
            assert rc == EXIT_OK
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == size
            values = [float(r["value"]) for r in rows]
            assert values[0] == 1.0
            assert all(v1 >= v2 for v1, v2 in zip(values, values[1:]))

    def test_missing_input_is_data_error(self, tmp_path):
        rc = main(
            ["spectrum", "--input", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "s.csv")]
        )
        assert rc == EXIT_DATA


class TestPipeline:
    @pytest.mark.parametrize(
        "mode, observer, share",
        [("vc", "vc_observations", 0.3), ("random_entry", "random_entry_observations", 1.0 - 0.3)],
    )
    def test_sample_observes_through_the_mode_table(
        self, hk_edges, tmp_path, monkeypatch, mode, observer, share
    ):
        # the sweep's mode entry, with the deleted share in vc mode and
        # the observed share in random_entry mode
        calls = []
        observe = getattr(experiment, observer)
        monkeypatch.setattr(
            experiment, observer, lambda h, f, **kw: calls.append(f) or observe(h, f, **kw)
        )
        rc = main(["sample", "--input", str(hk_edges), "--mode", mode, "--fraction", "0.3",
                   "--seed", "3", "--out", str(tmp_path / "obs")])
        assert rc == EXIT_OK and calls == [share]

    def test_sample_complete_tpm_eval(self, hk_edges, tmp_path):
        obs = tmp_path / "obs"
        rc = main(
            ["sample", "--input", str(hk_edges), "--mode", "vc", "--fraction", "0.3",
             "--anchors", "10", "--strategy", "random", "--seed", "3", "--out", str(obs)]
        )
        assert rc == EXIT_OK
        assert (tmp_path / "obs.csv").exists() and (tmp_path / "obs.json").exists()
        anchors_file = tmp_path / "obs.anchors.txt"
        ids = anchors_file.read_text().strip()
        assert len(ids.split(",")) == 10

        done = tmp_path / "done.csv"
        rc = main(["complete", "--input", str(obs), "--out", str(done),
                   "--trace", str(tmp_path / "trace.csv")])
        assert rc == EXIT_OK
        meta = json.loads((tmp_path / "done.meta.json").read_text())
        assert meta["converged"] is True
        # a vc observation has 10 anchor columns, so at most rank 10
        assert isinstance(meta["kept_rank"], int) and 1 <= meta["kept_rank"] <= 10
        trace = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert trace[0] == "iter,residual,nuclear_norm"
        assert len(trace) == meta["iterations"] + 1

        mp = tmp_path / "map.csv"
        rc = main(["tpm", "--matrix", str(done), "--procedure", "p-completion",
                   "--k", "2", "--out", str(mp)])
        assert rc == EXIT_OK

        # the full-VC baseline: the pipeline with nothing deleted, same anchors
        obs0, done0, base = tmp_path / "obs0", tmp_path / "done0.csv", tmp_path / "base.csv"
        rc = main(["sample", "--input", str(hk_edges), "--mode", "vc", "--fraction", "0",
                   "--anchors", "10", "--strategy", "random", "--seed", "3", "--out", str(obs0)])
        assert rc == EXIT_OK
        assert (tmp_path / "obs0.anchors.txt").read_text() == anchors_file.read_text()
        assert main(["complete", "--input", str(obs0), "--out", str(done0)]) == EXIT_OK
        rc = main(["tpm", "--matrix", str(done0), "--procedure", "p-completion",
                   "--k", "2", "--out", str(base)])
        assert rc == EXIT_OK

        rc = main(["eval", "--metric", "E", "--map", str(mp), "--baseline", str(base),
                   "--anchor-ids", str(anchors_file), "--out", str(tmp_path / "e.csv")])
        assert rc == EXIT_OK
        with open(tmp_path / "e.csv", newline="") as fh:
            row = list(csv.DictReader(fh))[0]
        assert row["metric"] == "E" and float(row["value"]) >= 0.0

    def test_zero_fraction_map_matches_full_vc(self, hk_edges, tmp_path):
        # the pipeline at f = 0 writes the sweep's baseline map: the map
        # of the full anchor hops
        sel = AnchorSelection("degree", 10)
        obs = tmp_path / "obs"
        main(["sample", "--input", str(hk_edges), "--mode", "vc", "--fraction", "0.0",
              "--anchors", "10", "--strategy", "degree", "--seed", "3", "--out", str(obs)])
        done = tmp_path / "done.csv"
        assert main(["complete", "--input", str(obs), "--out", str(done)]) == EXIT_OK
        g, _ = netgen.load_snap_edge_list(hk_edges)
        hops = anchor_hops(g, select_anchors(g, sel)).as_float()
        maps = {}
        for procedure in ("p-completion", "grammian"):
            mp, ref = tmp_path / f"map_{procedure}.csv", tmp_path / f"ref_{procedure}.csv"
            main(["tpm", "--matrix", str(done), "--procedure", procedure,
                  "--k", "2", "--out", str(mp)])
            write_points(MAP_EXTRACTORS[procedure](hops, 2), ref)
            assert mp.read_bytes() == ref.read_bytes()
            maps[procedure] = mp.read_bytes()
        # tpm honours --procedure: the two maps differ
        assert maps["p-completion"] != maps["grammian"]

    def test_complete_writes_the_matrix_tpm_maps(self, hk_edges, tmp_path):
        # each kind of file is completed by its mode's completer, and tpm
        # --matrix maps that matrix; np.savetxt's %.18e reads back to the
        # same float64 values
        for mode, completer in experiment.MODES.items():
            obs, done = tmp_path / mode, tmp_path / f"{mode}_done.csv"
            main(["sample", "--input", str(hk_edges), "--mode", mode, "--fraction", "0.5",
                  "--seed", "3", "--out", str(obs)])
            assert main(["complete", "--input", str(obs), "--out", str(done)]) == EXIT_OK
            hops = np.loadtxt(done, delimiter=",")
            want = completer.complete(load_observed(obs), CompletionConfig()).completed
            assert np.array_equal(hops, want)
            for procedure in experiment.PROCEDURES:
                mp, ref = tmp_path / f"{mode}_{procedure}.csv", tmp_path / f"{mode}_{procedure}_ref.csv"
                rc = main(["tpm", "--matrix", str(done), "--procedure", procedure, "--out", str(mp)])
                assert rc == EXIT_OK
                write_points(MAP_EXTRACTORS[procedure](hops, 2), ref)
                assert mp.read_bytes() == ref.read_bytes()

    def test_complete_trace_rows_are_the_result_traces(self, hk_edges, tmp_path):
        # a vc file: its completer keeps the nuclear-norm solve's traces
        obs = tmp_path / "obs"
        main(["sample", "--input", str(hk_edges), "--mode", "vc", "--fraction", "0.3",
              "--seed", "12", "--out", str(obs)])
        done, trace = tmp_path / "done.csv", tmp_path / "trace.csv"
        rc = main(["complete", "--input", str(obs), "--out", str(done),
                   "--trace", str(trace)])
        assert rc == EXIT_OK
        res = complete_nuclear_norm(load_observed(obs))
        assert res.iterations > 0
        expected = ["iter,residual,nuclear_norm"] + [
            f"{it},{r!r},{nu!r}"
            for it, (r, nu) in enumerate(zip(res.residual_trace, res.nuclear_trace), start=1)
        ]
        assert trace.read_text().splitlines() == expected
        meta = json.loads((tmp_path / "done.meta.json").read_text())
        assert len(res.residual_trace) == res.iterations == meta["iterations"]
        assert float(expected[-1].split(",")[1]) == meta["final_residual"]

    def test_sibling_files_append_to_the_given_name(self, hk_edges, tmp_path):
        # every suffix is appended, so bases that differ after a dot keep
        # apart; complete drops only a trailing .csv before .meta.json
        out = tmp_path / "out"
        out.mkdir()
        for base in ("run.a", "run.b"):
            rc = main(["sample", "--input", str(hk_edges), "--fraction", "0.3",
                       "--anchors", "10", "--out", str(out / base)])
            assert rc == EXIT_OK
        written = sorted(p.name for p in out.iterdir())
        assert written == sorted(f"run.{x}.{s}" for x in "ab" for s in ("csv", "json", "anchors.txt"))
        assert main(["complete", "--input", str(out / "run.a"), "--out", str(out / "a.b")]) == EXIT_OK
        assert (out / "a.b.meta.json").exists() and not (out / "a.meta.json").exists()

    def test_complete_trace_of_full_observation_is_header_only(self, tmp_path):
        o = ObservedMatrix(values=np.ones((4, 3)), mask=np.ones((4, 3), dtype=bool))
        save_observed(o, tmp_path / "obs")
        trace = tmp_path / "trace.csv"
        rc = main(["complete", "--input", str(tmp_path / "obs"),
                   "--out", str(tmp_path / "done.csv"), "--trace", str(trace)])
        assert rc == EXIT_OK
        assert trace.read_text() == "iter,residual,nuclear_norm\n"

    def test_complete_symmetric_observation_with_zero_row_sums(self, tmp_path, capsys):
        # the all-ones vector lies in the observations' null space, where
        # the power iteration for mu_0 starts
        values = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [-1.0, -1.0, 2.0]])
        mask = np.ones((3, 3), dtype=bool)
        mask[0, 1] = mask[1, 0] = False
        o = ObservedMatrix(values=np.where(mask, values, 0.0), mask=mask, symmetric=True)
        save_observed(o, tmp_path / "obs")
        done = tmp_path / "done.csv"
        assert main(["complete", "--input", str(tmp_path / "obs"), "--out", str(done)]) == EXIT_OK
        assert "converged=True" in capsys.readouterr().out
        completed = np.loadtxt(done, delimiter=",")
        assert np.allclose(completed[mask], values[mask])

    def test_entry_mode_hop_metrics(self, hk_edges, tmp_path):
        ent = tmp_path / "ent"
        rc = main(["sample", "--input", str(hk_edges), "--mode", "random_entry",
                   "--fraction", "0.5", "--seed", "5", "--out", str(ent)])
        assert rc == EXIT_OK
        hhat = tmp_path / "hhat.csv"
        rc = main(["complete", "--input", str(ent), "--out", str(hhat)])
        assert rc == EXIT_OK
        for metric in ("E_m", "E_a"):
            rc = main(["eval", "--metric", metric, "--est", str(hhat),
                       "--edges", str(hk_edges)])
            assert rc == EXIT_OK

    def test_etp_against_layout(self, tmp_path):
        main(["generate", "--net", "concave", "--seed", "1", "--out", str(tmp_path)])
        edges = tmp_path / "concave_edges.txt"
        obs = tmp_path / "obs"
        main(["sample", "--input", str(edges), "--mode", "vc", "--fraction", "0.1",
              "--anchors", "20", "--seed", "2", "--out", str(obs)])
        done, mp = tmp_path / "done.csv", tmp_path / "map.csv"
        assert main(["complete", "--input", str(obs), "--out", str(done)]) == EXIT_OK
        main(["tpm", "--matrix", str(done), "--procedure", "grammian", "--out", str(mp)])
        rc = main(["eval", "--metric", "E_TP", "--map", str(mp),
                   "--layout", str(tmp_path / "concave_layout.csv")])
        assert rc == EXIT_OK

    def test_etp_of_a_rotated_map_is_unchanged(self, tmp_path):
        # eval aligns the map onto the layout before scanning, as the sweep does
        main(["generate", "--net", "concave", "--seed", "1", "--out", str(tmp_path)])
        obs = tmp_path / "obs"
        main(["sample", "--input", str(tmp_path / "concave_edges.txt"), "--mode", "vc",
              "--fraction", "0.4", "--seed", "2", "--out", str(obs)])
        done, mp = tmp_path / "done.csv", tmp_path / "map.csv"
        assert main(["complete", "--input", str(obs), "--out", str(done)]) == EXIT_OK
        main(["tpm", "--matrix", str(done), "--out", str(mp)])
        turn = np.radians(37.0)
        rotation = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
        write_points(PointCloud(coords=read_points(mp).coords @ rotation), tmp_path / "rot.csv")
        values = []
        for name in ("map.csv", "rot.csv"):
            out = tmp_path / f"{name}.etp"
            rc = main(["eval", "--metric", "E_TP", "--map", str(tmp_path / name),
                       "--layout", str(tmp_path / "concave_layout.csv"), "--out", str(out)])
            assert rc == EXIT_OK
            values.append(out.read_text())
        assert values[0] == values[1]


class TestExitCodes:
    def test_missing_required_flag(self):
        assert main(["sample", "--mode", "vc"]) == EXIT_USAGE

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_no_subcommand(self):
        assert main([]) == EXIT_USAGE

    @pytest.mark.parametrize("command", list(cli._HANDLERS))
    def test_help_renders(self, capsys, command):
        # argparse %-formats help text only when it prints it
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert f"usage: hopmap {command}" in capsys.readouterr().out

    def test_help_reads_the_library_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["spectrum", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        sel, done = AnchorSelection(), CompletionConfig()
        for default in (f"vc anchor seed (default {sel.seed})", f"anchor count (default {sel.m})",
                        f"anchor strategy (default {sel.strategy})"):
            assert default in text
        with pytest.raises(SystemExit):
            main(["complete", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for default in (f"default {done.tolerance:g}", f"default {done.max_iters}"):
            assert default in text
        with pytest.raises(SystemExit):
            main(["generate", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        hk = inspect.signature(gen_holme_kim).parameters
        for flag, name in (("--n N", "n"), ("--m M", "m"), ("--p-triad P_TRIAD", "p_triad")):
            assert re.search(rf"{flag} holme-kim .*?\(default {hk[name].default}\)", text)

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--input", "e.txt", "--matrix-kind", "vc", "--out", "s.csv"],
            ["sample", "--input", "e.txt", "--fraction", "0.5", "--out", "obs"],
        ],
    )
    def test_selection_without_anchor_flags_is_the_library_default(self, argv):
        assert cli._selection(cli._build_parser().parse_args(argv)) == AnchorSelection()

    def test_key_error_is_a_bug_not_a_data_error(self, monkeypatch):
        # every data path validates before it indexes, so a KeyError keeps
        # its traceback instead of becoming exit 2
        def handler(args):
            raise KeyError("x")

        monkeypatch.setitem(cli._HANDLERS, "generate", handler)
        with pytest.raises(KeyError, match="x"):
            main(["generate", "--net", "concave", "--out", "unused"])

    @pytest.mark.parametrize(
        "extra, flag",
        [(["--anchors", "20"], "--anchors"), (["--strategy", "random"], "--strategy")],
    )
    def test_entry_sample_refuses_anchor_flags(self, hk_edges, tmp_path, capsys, extra, flag):
        # every node is an anchor in random_entry mode, even with the vc defaults
        obs = tmp_path / "ent"
        rc = main(["sample", "--input", str(hk_edges), "--mode", "random_entry",
                   "--fraction", "0.5", "--out", str(obs), *extra])
        assert rc == EXIT_USAGE
        assert f"argument {flag}" in capsys.readouterr().err
        assert not (tmp_path / "ent.csv").exists()

    @pytest.mark.parametrize(
        "source, extra, flag",
        [
            (["--matrix-kind", "hdm"], ["--anchors", "5"], "--anchors"),
            (["--matrix-kind", "adjacency"], ["--strategy", "degree"], "--strategy"),
            (["--matrix-kind", "file"], ["--seed", "3"], "--seed"),
        ],
        ids=["hdm", "adjacency", "matrix-file"],
    )
    def test_spectrum_without_anchors_refuses_anchor_flags(
        self, hk_edges, tmp_path, capsys, source, extra, flag
    ):
        # only an edge list read as vc selects anchors; the refusal comes
        # before the input is read, so a missing matrix file is not reached
        path = tmp_path / "m.csv" if "file" in source else hk_edges
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--input", str(path), *source, *extra, "--out", str(out)])
        assert rc == EXIT_USAGE
        assert f"argument {flag}: not allowed with {source[0]} {source[1]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, flag",
        [(["--anchors", "5"], "--anchors"), (["--strategy", "degree"], "--strategy"),
         (["--seed", "9"], "--seed")],
    )
    def test_tpm_input_refuses_anchor_flags(self, hk_edges, tmp_path, capsys, extra, flag):
        # tpm's input matrix file fixes the anchors, so tpm has no anchor
        # flag. The refusal comes before the file is read
        out = tmp_path / "map.csv"
        rc = main(["tpm", "--matrix", str(tmp_path / "done.csv"), *extra, "--out", str(out)])
        assert rc == EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, flag",
        [(["--tolerance", "0.5"], "--tolerance"), (["--max-iters", "1"], "--max-iters")],
    )
    def test_tpm_edges_refuses_completion_flags(self, hk_edges, tmp_path, capsys, extra, flag):
        # tpm completes nothing: only complete takes the completion flags
        out = tmp_path / "map.csv"
        rc = main(["tpm", "--matrix", str(tmp_path / "done.csv"), *extra, "--out", str(out)])
        assert rc == EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["tpm", "--input", "{obs}"],
            ["spectrum", "--input", "{done}", "--format", "matrix"],
            ["spectrum", "--input", "{edges}", "--format", "edges"],
        ],
        ids=["tpm-input", "spectrum-format-matrix", "spectrum-format-edges"],
    )
    def test_second_input_forms_are_usage_errors(self, hk_edges, tmp_path, capsys, argv):
        # tpm maps the matrix that complete writes, and spectrum reads a
        # matrix file as --matrix-kind file: neither completes or reads
        # its input another way
        obs, done = tmp_path / "obs", tmp_path / "done.csv"
        main(["sample", "--input", str(hk_edges), "--fraction", "0.3", "--out", str(obs)])
        main(["complete", "--input", str(obs), "--out", str(done)])
        capsys.readouterr()
        out = tmp_path / "out.csv"
        argv = [a.format(obs=obs, done=done, edges=hk_edges) for a in argv]
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--input", "{edges}", "--matrix-kind", "vc", "--strategy", "degree"],
            ["spectrum", "--input", "{edges}", "--matrix-kind", "vc", "--strategy", "closeness"],
            ["spectrum", "--input", "{edges}", "--matrix-kind", "vc", "--strategy", "betweenness"],
        ],
        ids=["spectrum-degree", "spectrum-closeness", "spectrum-betweenness"],
    )
    def test_centrality_strategy_refuses_anchor_seed(self, hk_edges, tmp_path, capsys, argv):
        # a centrality strategy takes the most central nodes and draws
        # nothing, so the seed would change nothing
        out = tmp_path / "out.csv"
        argv = [a.format(edges=hk_edges) for a in argv]
        assert main([*argv, "--seed", "5", "--out", str(out)]) == EXIT_USAGE
        strategy = argv[argv.index("--strategy") + 1]
        assert f"argument --seed: not allowed with --strategy {strategy}" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_keeps_seed_with_centrality_strategy(self, hk_edges, tmp_path):
        # sample's --seed also draws the deleted entries
        masks = []
        for seed in ("5", "6"):
            obs = tmp_path / f"obs{seed}"
            rc = main(["sample", "--input", str(hk_edges), "--strategy", "degree", "--anchors", "8",
                       "--fraction", "0.5", "--seed", seed, "--out", str(obs)])
            assert rc == EXIT_OK
            masks.append(load_observed(obs).mask)
        assert not np.array_equal(*masks)

    @pytest.mark.parametrize(
        "metric, extra, flag",
        [
            (["E_m", "--est", "e.csv", "--edges", "g.txt"], ["--layout", "l.csv"], "--layout"),
            (["E_m", "--est", "e.csv", "--edges", "g.txt"], ["--map", "m.csv"], "--map"),
            (["E", "--map", "m.csv", "--baseline", "b.csv", "--anchor-ids", "ids.txt"],
             ["--edges", "g.txt"], "--edges"),
            (["E_TP", "--map", "m.csv", "--layout", "l.csv"], ["--baseline", "b.csv"], "--baseline"),
            (["E_TP", "--map", "m.csv", "--layout", "l.csv"], ["--anchor-ids", "ids.txt"], "--anchor-ids"),
            (["E_TP", "--map", "m.csv", "--layout", "l.csv"], ["--est", "e.csv"], "--est"),
        ],
        ids=["em-layout", "em-map", "e-edges", "etp-baseline",
             "etp-anchor-ids", "etp-est"],
    )
    def test_eval_refuses_other_metrics_flags(self, tmp_path, capsys, metric, extra, flag):
        # refused before any input is read, so the named files need not exist
        out = tmp_path / "score.csv"
        rc = main(["eval", "--metric", *metric, *extra, "--out", str(out)])
        assert rc == EXIT_USAGE
        assert f"argument {flag}: not allowed with --metric {metric[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_bin_width_is_no_flag(self, tmp_path, capsys):
        # E_TP's scan lines lie one grid unit apart, as in the sweep
        out = tmp_path / "score.csv"
        rc = main(["eval", "--metric", "E_TP", "--map", "m.csv", "--layout", "l.csv",
                   "--bin-width", "2", "--out", str(out)])
        assert rc == EXIT_USAGE
        assert "unrecognized arguments: --bin-width 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, removed",
        [
            (["tpm", "--matrix", "done.csv"], ["--edges", "{edges}"]),
            (["spectrum", "--input", "{edges}"], ["--top", "5"]),
            (["experiment", "--config", "{config}"], ["--seed", "1"]),
        ],
        ids=["tpm-edges", "spectrum-top", "experiment-seed"],
    )
    def test_duplicate_routes_are_unrecognized(self, hk_edges, tmp_path, capsys, argv, removed):
        # the full-VC map is tpm --matrix of the pipeline at f = 0, the
        # leading values are head's, and a sweep's seed is its config's
        config = tmp_path / "cfg.json"
        sweep = tmp_path / "sweep"
        config.write_text(json.dumps({"network": {"kind": "concave"}, "out_dir": str(sweep)}))
        out = tmp_path / "out.csv"
        removed = [a.format(edges=hk_edges) for a in removed]
        argv = [a.format(edges=hk_edges, config=config) for a in argv] + removed
        if argv[0] != "experiment":
            argv += ["--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err
        assert not out.exists() and not sweep.exists()

    def test_tpm_requires_one_source(self, tmp_path):
        rc = main(["tpm", "--out", str(tmp_path / "m.csv")])
        assert rc == EXIT_USAGE
        rc = main(["tpm", "--matrix", "a", "--edges", "b", "--out", str(tmp_path / "m.csv")])
        assert rc == EXIT_USAGE

    def test_eval_missing_companions(self, tmp_path):
        assert main(["eval", "--metric", "E", "--map", "x.csv"]) == EXIT_USAGE
        assert main(["eval", "--metric", "E_TP"]) == EXIT_USAGE
        assert main(["eval", "--metric", "E_m"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["spectrum", "--matrix-kind", "vc", "--anchors", "0"], "--anchors"),
            (["sample", "--fraction", "0.3", "--anchors", "-2"], "--anchors"),
            (["sample", "--fraction", "1.5"], "--fraction"),
            (["sample", "--fraction", "-0.1"], "--fraction"),
            (["sample", "--fraction", "1"], "--fraction"),
            (["complete", "--input", "{obs}", "--tolerance", "-1"], "--tolerance"),
            (["complete", "--input", "{obs}", "--max-iters", "0"], "--max-iters"),
            (["generate", "--net", "concave", "--seed", "-1"], "--seed"),
            (["spectrum", "--matrix-kind", "vc", "--seed", "-1"], "--seed"),
            (["sample", "--fraction", "0.3", "--seed", "-2"], "--seed"),
        ],
        ids=["spectrum-anchors", "sample-anchors", "fraction-above",
             "fraction-below", "fraction-one", "complete-tolerance", "max-iters",
             "generate-seed", "spectrum-seed", "sample-seed"],
    )
    def test_out_of_range_number_is_usage_error(self, hk_edges, tmp_path, capsys, argv, flag):
        # refused by the parser, before any input is read or output written
        obs = tmp_path / "obs"
        main(["sample", "--input", str(hk_edges), "--fraction", "0.3", "--anchors", "8",
              "--out", str(obs)])
        capsys.readouterr()
        out = tmp_path / "out.csv"
        argv = [a.format(edges=hk_edges, obs=obs) for a in argv] + ["--out", str(out)]
        if argv[0] in ("spectrum", "sample"):
            argv += ["--input", str(hk_edges)]
        assert main(argv) == EXIT_USAGE
        assert f"argument {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["map", "layout"])
    def test_non_finite_point_names_its_file(self, tmp_path, capsys, bad):
        for name in ("map", "layout"):
            x = "nan" if name == bad else "1.0"
            (tmp_path / f"{name}.csv").write_text(
                f"node_id,x,y\n0,0.0,0.0\n1,{x},0.0\n2,2.0,0.0\n"
            )
        rc = main(["eval", "--metric", "E_TP", "--map", str(tmp_path / "map.csv"),
                   "--layout", str(tmp_path / "layout.csv")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{bad}.csv" in err and "finite" in err

    def test_malformed_edge_list_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n2 x\n")
        rc = main(["spectrum", "--input", str(bad), "--out", str(tmp_path / "s.csv")])
        assert rc == EXIT_DATA

    def test_edge_list_id_beyond_int64_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "huge.txt"
        bad.write_text("0 1\n1 18446744073709551616\n")
        rc = main(["spectrum", "--input", str(bad), "--out", str(tmp_path / "s.csv")])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err.startswith(
            f"error: {bad}:2: value '18446744073709551616' outside the int64 range"
        )

    def test_out_of_range_observation_is_data_error(self, tmp_path, capsys):
        (tmp_path / "obs.json").write_text('{"rows": 3, "cols": 3, "mode": "general"}\n')
        (tmp_path / "obs.csv").write_text("row,col,value\n0,0,1.0\n5,1,2.0\n")
        rc = main(["complete", "--input", str(tmp_path / "obs"),
                   "--out", str(tmp_path / "done.csv")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error:") and "obs.csv" in err
        assert not (tmp_path / "done.csv").exists()

    def test_header_only_observation_is_data_error(self, tmp_path, capsys):
        (tmp_path / "obs.json").write_text('{"rows": 3, "cols": 3, "mode": "general"}\n')
        (tmp_path / "obs.csv").write_text("row,col,value\n")
        out = tmp_path / "done.csv"
        assert main(["complete", "--input", str(tmp_path / "obs"), "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'obs.csv'}: observation file contains no entries\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["complete"])
    def test_negative_hop_is_data_error(self, tmp_path, capsys, command):
        # a general file holds hops; a negative one would send the geodesic
        # bounds down negative cycles
        (tmp_path / "obs.json").write_text('{"rows": 4, "cols": 3, "mode": "general"}\n')
        (tmp_path / "obs.csv").write_text("row,col,value\n0,0,1.0\n1,2,-2.0\n")
        out = tmp_path / "out.csv"
        rc = main([command, "--input", str(tmp_path / "obs"), "--out", str(out)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error:") and "obs.csv:3" in err and "negative" in err
        assert not out.exists()

    def test_shape_beyond_memory_is_data_error(self, tmp_path, capsys):
        # its 2**31 x 2**31 mask is 2**62 bytes, more than any address space
        side = 2**31
        (tmp_path / "obs.json").write_text(f'{{"rows": {side}, "cols": {side}, "mode": "general"}}\n')
        (tmp_path / "obs.csv").write_text("row,col,value\n0,0,1.0\n")
        out = tmp_path / "out.csv"
        rc = main(["complete", "--input", str(tmp_path / "obs"), "--out", str(out)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'obs.json'}: a {side} x {side} matrix does not fit in memory\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "header, body, named",
        [
            ("[1, 2]", "0,0,1.0\n", "obs.json"),
            ('{"cols": 3, "mode": "general"}', "0,0,1.0\n", "obs.json"),
            ('{"rows": 3, "cols": 3, "mode": "general"}', "0,0,1.0\n0.5,1,2.0\n", "obs.csv:3"),
            ('{"rows": 3, "cols": 3, "mode": "general"}', "0,0,1.0\n1,1,abc\n", "obs.csv:3"),
            ('{"rows": 3, "cols": 3, "mode": "general"}', "0,0,1.0\n1,1,nan\n", "obs.csv:3"),
            ('{"rows": 3, "cols": 3, "mode": "symetric"}', "0,0,1.0\n", "obs.json"),
        ],
        ids=["header-list", "no-rows", "index-0.5", "value-abc", "value-nan", "mode-typo"],
    )
    def test_malformed_observation_is_data_error(self, tmp_path, capsys, header, body, named):
        (tmp_path / "obs.json").write_text(header + "\n")
        (tmp_path / "obs.csv").write_text("row,col,value\n" + body)
        rc = main(["complete", "--input", str(tmp_path / "obs"),
                   "--out", str(tmp_path / "done.csv")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize(
        "spec, code, named",
        [
            ("{ids}", EXIT_DATA, "ids.txt: non-integer value 'x'"),
            ("1,2", EXIT_DATA, "No such file or directory: '1,2'"),
        ],
        ids=["file", "inline-list-is-no-file"],
    )
    def test_bad_anchor_id_names_its_source(self, tmp_path, capsys, spec, code, named):
        # --anchor-ids reads only the ids file that sample writes: a bad id
        # in it is a data error naming the file, and a list is a file name
        for name in ("map", "base"):
            (tmp_path / f"{name}.csv").write_text("node_id,x,y\n0,0.0,0.0\n1,1.0,0.0\n2,2.0,1.0\n")
        (tmp_path / "ids.txt").write_text("1,x,3\n")
        rc = main(["eval", "--metric", "E", "--map", str(tmp_path / "map.csv"),
                   "--baseline", str(tmp_path / "base.csv"),
                   "--anchor-ids", spec.format(ids=tmp_path / "ids.txt")])
        assert rc == code
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "spectrum", "tpm"])
    def test_bad_matrix_cell_names_file_and_line(self, hk_edges, tmp_path, capsys, command):
        est = tmp_path / "est.csv"
        est.write_text("0.0,1.0\n1.0,x\n")
        argv = {
            "eval": ["eval", "--metric", "E_m", "--est", str(est), "--edges", str(hk_edges)],
            "spectrum": ["spectrum", "--input", str(est), "--matrix-kind", "file",
                         "--out", str(tmp_path / "s.csv")],
            "tpm": ["tpm", "--matrix", str(est), "--out", str(tmp_path / "m.csv")],
        }[command]
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {est}:2: non-numeric value 'x'")

    def test_non_convergence_exit(self, hk_edges, tmp_path):
        # both kinds of file: the solve's matrix is written all the same
        for mode in ("random_entry", "vc"):
            obs, done = tmp_path / mode, tmp_path / f"{mode}_done.csv"
            main(["sample", "--input", str(hk_edges), "--mode", mode,
                  "--fraction", "0.5", "--seed", "5", "--out", str(obs)])
            rc = main(["complete", "--input", str(obs), "--out", str(done),
                       "--max-iters", "2"])
            assert rc == EXIT_CONVERGENCE
            assert np.isfinite(np.loadtxt(done, delimiter=",")).all()
            meta = json.loads(done.with_suffix(".meta.json").read_text())
            assert meta["converged"] is False and meta["iterations"] == 2

    def test_tpm_non_convergence_exit(self, hk_edges, tmp_path):
        # complete exits 3 and records converged false; mapping its matrix
        # all the same is the user's choice, and tpm maps it
        obs, done, mp = tmp_path / "obs", tmp_path / "done.csv", tmp_path / "m.csv"
        main(["sample", "--input", str(hk_edges), "--mode", "vc", "--fraction", "0.5",
              "--anchors", "10", "--seed", "3", "--out", str(obs)])
        rc = main(["complete", "--input", str(obs), "--max-iters", "1", "--out", str(done)])
        assert rc == EXIT_CONVERGENCE
        assert json.loads((tmp_path / "done.meta.json").read_text())["converged"] is False
        rc = main(["tpm", "--matrix", str(done), "--procedure", "p-completion", "--out", str(mp)])
        assert rc == EXIT_OK and read_points(mp).n == 70


class TestExperimentCommand:
    def _config(self, tmp_path, **over):
        raw = {
            "network": {"kind": "holme-kim", "seed": 2,
                        "params": {"n": 50, "m": 3, "p_triad": 0.3}},
            "anchors": {"strategy": "random", "m": 8},
            "procedures": ["p-completion"],
            "fractions": [0.0, 0.3],
            "repeats": 2,
            "seed": 9,
            "out_dir": str(tmp_path / "results"),
        }
        raw.update(over)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        return p

    def test_sweep_outputs(self, tmp_path):
        cfg = self._config(tmp_path)
        rc = main(["experiment", "--config", str(cfg)])
        assert rc == EXIT_OK
        out = tmp_path / "results"
        for fname in ("runs.csv", "summary.csv", "failures.csv", "meta.json"):
            assert (out / fname).exists()
        env = json.loads((out / "meta.json").read_text())["environment"]
        assert set(env) == {
            "python", "numpy", "scipy", "cpu_count", "simd",
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        }
        assert env["numpy"] == np.__version__ and env["cpu_count"] == os.cpu_count()
        try:
            simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
        except TypeError:  # numpy < 1.26: show_config takes no mode
            simd = None
        assert env["simd"] == simd

    def test_summary_lists_fractions_by_value(self, tmp_path, capsys):
        # 1e-05 sorts after 0.5 as text
        cfg = self._config(tmp_path, fractions=[0.00001, 0.1, 0.5], repeats=1)
        assert main(["experiment", "--config", str(cfg)]) == EXIT_OK
        printed = [w for w in capsys.readouterr().out.split() if w.startswith("f=")]
        assert printed == ["f=1e-05", "f=0.1", "f=0.5"]
        with open(tmp_path / "results" / "summary.csv", newline="") as fh:
            assert [float(r["f"]) for r in csv.DictReader(fh)] == [0.00001, 0.1, 0.5]

    def test_out_and_seed_overrides(self, tmp_path):
        # --out moves the results; the seed is the config's alone
        cfg = self._config(tmp_path, seed=123)
        rc = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "other")])
        assert rc == EXIT_OK
        assert not (tmp_path / "results").exists()
        meta = json.loads((tmp_path / "other" / "meta.json").read_text())
        assert meta["seed"] == 123

    def test_failing_sweep_exits_nonzero(self, tmp_path):
        cfg = self._config(
            tmp_path,
            fractions=[0.4],
            completion={"max_iters": 1},
        )
        rc = main(["experiment", "--config", str(cfg)])
        assert rc == EXIT_CONVERGENCE

    def test_missing_config_is_data_error(self, tmp_path):
        rc = main(["experiment", "--config", str(tmp_path / "nope.json")])
        assert rc == EXIT_DATA

    def test_invalid_json_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        assert main(["experiment", "--config", str(p)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {p}:")

    def test_non_object_config_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text("[1, 2]\n")
        assert main(["experiment", "--config", str(p)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {p}: must hold a JSON object\n"

    def test_missing_edge_list_leaves_no_results_dir(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        cfg = self._config(tmp_path, network={"kind": "edges", "params": {"path": str(missing)}})
        assert main(["experiment", "--config", str(cfg)]) == EXIT_DATA
        assert "No such file or directory" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize(
        "key, values", [("procedures", ["grammian", "grammian"]), ("fractions", [0.3, 0.3])]
    )
    def test_repeated_value_is_data_error(self, tmp_path, capsys, key, values):
        cfg = self._config(tmp_path, **{key: values})
        assert main(["experiment", "--config", str(cfg)]) == EXIT_DATA
        assert f"error: {key} lists {values[0]!r} more than once" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_fractions_that_share_a_map_name_are_data_error(self, tmp_path, capsys):
        # a vc sweep names its maps by percent: 0.1% and 0.4% both round to f0
        cfg = self._config(tmp_path, fractions=[0.001, 0.25, 0.004])
        assert main(["experiment", "--config", str(cfg)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == "error: fractions 0.001 and 0.004 would both write tpm_p-completion_f0.csv\n"
        assert not (tmp_path / "results").exists()

    def test_entry_sweep_takes_fractions_of_one_percent(self, tmp_path):
        # an entry sweep writes no maps, so two fractions may round to one percent
        cfg = self._config(tmp_path, mode="random_entry", fractions=[0.001, 0.004], repeats=1)
        raw = json.loads(cfg.read_text())
        del raw["anchors"], raw["procedures"]
        cfg.write_text(json.dumps(raw))
        assert main(["experiment", "--config", str(cfg)]) == EXIT_OK
        with open(tmp_path / "results" / "summary.csv", newline="") as fh:
            assert sorted({float(r["f"]) for r in csv.DictReader(fh)}) == [0.001, 0.004]


class TestConfigKeys:
    """Unknown keys in any config block are a data error naming the key."""

    def _run(self, tmp_path, capsys, raw):
        raw = {"repeats": 1, "fractions": [0.2], "out_dir": str(tmp_path / "r"), **raw}
        raw.setdefault("network", {"kind": "holme-kim", "params": {"n": 40}})
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        rc = main(["experiment", "--config", str(p)])
        return rc, capsys.readouterr().err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        rc, err = self._run(tmp_path, capsys, {"repetas": 1})
        assert rc == EXIT_DATA
        assert err.startswith("error:") and "repetas" in err

    def test_unknown_completion_key(self, tmp_path, capsys):
        # the penalty growth is the constant lowrank.MU_GROWTH, not a key
        for key in ("oversampel", "mu_growth"):
            rc, err = self._run(tmp_path, capsys, {"completion": {key: 3}})
            assert rc == EXIT_DATA
            assert err.startswith("error:") and key in err

    def test_unknown_anchors_key(self, tmp_path, capsys):
        rc, err = self._run(tmp_path, capsys, {"anchors": {"mm": 5}})
        assert rc == EXIT_DATA
        assert err.startswith("error:") and "mm" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("anchors", {"strategy": "degree", "m": 5}), ("procedures", ["grammian"])],
    )
    def test_entry_mode_refuses_vc_keys(self, tmp_path, capsys, key, value):
        # every node is an anchor and no map is made in random_entry mode
        rc, err = self._run(tmp_path, capsys, {"mode": "random_entry", key: value})
        assert rc == EXIT_DATA
        assert err.strip() == f"error: config key(s) ['{key}'] not read in random_entry mode"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("mode", ["vc", "random_entry"])
    @pytest.mark.parametrize("key, value", [("k", 3), ("bin_width", 2.0)])
    def test_map_dimension_and_scan_width_are_no_keys(self, tmp_path, capsys, mode, key, value):
        # a map takes its layout's dimension, and E_TP's scan lines lie one
        # grid unit apart
        rc, err = self._run(tmp_path, capsys, {"mode": mode, key: value})
        assert rc == EXIT_DATA
        assert err.startswith(f"error: unknown config key(s) ['{key}']; accepted keys: [")
        assert not (tmp_path / "r").exists()

    def test_nan_tolerance_is_data_error(self, tmp_path, capsys):
        # json reads NaN, and no residual is ever at most NaN
        rc, err = self._run(tmp_path, capsys, {"completion": {"tolerance": float("nan")}})
        assert rc == EXIT_DATA
        assert err.startswith("error:") and "tolerance must be positive, got nan" in err
        assert not (tmp_path / "r").exists()

    def test_anchor_seed_is_data_error(self, tmp_path, capsys):
        # run_experiment draws the anchors from the top-level seed
        rc, err = self._run(tmp_path, capsys, {"anchors": {"m": 5, "seed": 3}})
        assert rc == EXIT_DATA
        assert err.startswith("error: config key(s) ['anchors.seed'] never read")
        assert not (tmp_path / "r").exists()

    def test_edge_list_seed_is_data_error(self, hk_edges, tmp_path, capsys):
        network = {"kind": "edges", "seed": 7, "params": {"path": str(hk_edges)}}
        rc, err = self._run(tmp_path, capsys, {"network": network, "anchors": {"seed": 0}})
        assert rc == EXIT_DATA
        assert err.startswith("error: config key(s) ['anchors.seed', 'network.seed'] never read")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "raw, message",
        [({"seed": -3}, "seed must be >= 0, got -3"),
         ({"network": {"kind": "holme-kim", "seed": -1, "params": {"n": 40}}},
          "network.seed must be >= 0, got -1")],
        ids=["seed", "network.seed"],
    )
    def test_negative_seed_is_data_error(self, tmp_path, capsys, raw, message):
        rc, err = self._run(tmp_path, capsys, raw)
        assert rc == EXIT_DATA
        assert err == f"error: {message}\n"
        assert not (tmp_path / "r").exists()

    def test_unknown_generator_param(self, tmp_path, capsys):
        rc, err = self._run(tmp_path, capsys, {"network": {"kind": "concave", "widht": 20}})
        assert rc == EXIT_DATA
        assert err.startswith("error:") and "widht" in err

    @pytest.mark.parametrize("key", ["pitch", "jitter", "comm_radius", "max_retries"])
    def test_placement_is_no_param(self, tmp_path, capsys, key):
        # every layout shares one placement: a unit grid, netgen's JITTER
        # and RADIUS
        network = {"kind": "concave", "params": {key: 1}}
        rc, err = self._run(tmp_path, capsys, {"network": network})
        assert rc == EXIT_DATA
        assert err.startswith(f"error: unknown concave network key(s) ['{key}']; accepted keys: [")
        assert not (tmp_path / "r").exists()

    def test_unknown_network_kind(self, tmp_path, capsys):
        rc, err = self._run(tmp_path, capsys, {"network": {"kind": "grid"}})
        assert rc == EXIT_DATA
        assert err == (
            "error: unknown network kind 'grid'; choose from "
            "['circular', 'concave', 'cube', 'edges', 'holme-kim', 't-cylinder']\n"
        )
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("key, value", [("target_n", 30), ("root", 0)])
    def test_edge_list_is_read_whole(self, hk_edges, tmp_path, capsys, key, value):
        # an edges network is its whole file: no breadth-first cut
        network = {"kind": "edges", "params": {"path": str(hk_edges), key: value}}
        rc, err = self._run(tmp_path, capsys, {"network": network})
        assert rc == EXIT_DATA
        assert err == f"error: unknown edges network key(s) ['{key}']; accepted keys: ['path']\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "kind, key",
        [("concave", "width"), ("circular", "outer_radius"), ("cube", "side"),
         ("t-cylinder", "bar_length")],
    )
    def test_layout_geometry_is_no_param(self, tmp_path, capsys, kind, key):
        # each layout is the paper's one deployment, of fixed geometry
        rc, err = self._run(tmp_path, capsys, {"network": {"kind": kind, "params": {key: 12}}})
        assert rc == EXIT_DATA
        assert err == f"error: unknown {kind} network key(s) ['{key}']; accepted keys: []\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "network, message",
        [
            (None, "config needs the key 'network'"),
            ({"params": {"n": 40}}, "network needs the key 'kind'"),
            ({"kind": "edges"}, "edges network needs the key 'path'"),
        ],
    )
    def test_missing_required_key(self, tmp_path, capsys, network, message):
        raw = {"repeats": 1, "out_dir": str(tmp_path / "r")}
        if network is not None:
            raw["network"] = network
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        assert main(["experiment", "--config", str(p)]) == EXIT_DATA
        assert capsys.readouterr().err.strip() == f"error: {message}"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"repeats": "2"}, "repeats"),
            ({"repeats": 2.0}, "repeats"),
            ({"fractions": [0.2, "0.4"]}, "fractions"),
            ({"fractions": 0.2}, "fractions"),
            ({"completion": {"tolerance": "1e-4"}}, "tolerance"),
            ({"completion": {"max_iters": True}}, "max_iters"),
            ({"anchors": {"m": "5"}}, "m"),
            ({"network": {"kind": "holme-kim", "seed": "1", "params": {"n": 40}}}, "seed"),
            ({"jobs": "2"}, "jobs"),
            ({"network": {"kind": "holme-kim", "params": {"p_triad": "0.5"}}}, "p_triad"),
            ({"network": {"kind": "holme-kim", "params": {"n": 40.7}}}, "n"),
            ({"network": {"kind": "holme-kim", "params": {"n": True}}}, "n"),
            ({"network": {"kind": "holme-kim", "params": {"n": "abc"}}}, "n"),
            ({"procedures": "grammian"}, "procedures"),
            ({"network": {"kind": "edges", "params": {"path": 5}}}, "path"),
            ({"network": {"kind": "edges", "params": {"path": 0}}}, "path"),
        ],
    )
    def test_wrong_value_type(self, tmp_path, capsys, raw, key):
        rc, err = self._run(tmp_path, capsys, raw)
        assert rc == EXIT_DATA
        assert err.startswith("error:") and repr(key) in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"network": 5}, "network"),
            ({"network": {"kind": "holme-kim", "params": [1]}}, "params"),
            ({"anchors": 5}, "anchors"),
            ({"anchors": [1]}, "anchors"),
            ({"completion": "fast"}, "completion"),
        ],
    )
    def test_block_must_be_object(self, tmp_path, capsys, raw, key):
        rc, err = self._run(tmp_path, capsys, raw)
        assert rc == EXIT_DATA
        assert err.strip() == f"error: config key '{key}' must be an object"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"fractions": []}, "fractions must list at least one fraction"),
            ({"procedures": []}, "procedures must list at least one procedure in vc mode"),
        ],
        ids=["no-fractions", "no-procedures"],
    )
    def test_empty_list_is_data_error(self, tmp_path, capsys, raw, message):
        rc, err = self._run(tmp_path, capsys, raw)
        assert rc == EXIT_DATA
        assert err.strip() == f"error: {message}"
        assert not (tmp_path / "r").exists()

    def test_integer_accepted_for_float_field(self, tmp_path, capsys):
        rc, _ = self._run(tmp_path, capsys, {"completion": {"tolerance": 1}})
        assert rc == EXIT_OK
