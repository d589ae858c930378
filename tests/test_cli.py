import json
from pathlib import Path

import numpy as np
import pytest

from graphcarve import (
    WeightedCloud,
    lipschitz_graph,
    load_cloud_json,
    save_cloud_csv,
    save_cloud_json,
    union_of_graphs,
)
from graphcarve import audit, shells
from graphcarve.cli import build_parser, main


@pytest.fixture
def cloud_file(tmp_path):
    cloud = lipschitz_graph(120, 0.2, seed=1)
    path = tmp_path / "cloud.json"
    save_cloud_json(cloud, path)
    return path


def run(args):
    return main([str(a) for a in args])


def _json_cloud(n="1", delta_res="0.1"):
    """A two-point JSON cloud file with the given field texts."""
    return ('{"d": 2, "n": %s, "delta_res": %s, "points": [{"x": [0, 0], "w": 1}, '
            '{"x": [1, 0], "w": 1}]}' % (n, delta_res))


class TestGenerate:
    def test_writes_cloud(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code = run(["generate", "--kind", "lipschitz_graph",
                    "--param", "n_points=50", "--param", "lip=0.2",
                    "--seed", "3", "--output", out, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["points"] == 50
        assert out.exists()

    def test_unknown_kind_exits_2(self, tmp_path, capsys):
        code = main(["generate", "--kind", "lipschitz_graph",
                     "--param", "bogus"])
        assert code == 2

    def test_unknown_param_exits_2(self, tmp_path, capsys):
        code = run(["generate", "--kind", "lipschitz_graph", "--param", "bogus=1",
                    "--output", tmp_path / "c.json"])
        assert code == 2
        assert "'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, param, named", [
        ("lipschitz_graph", "n_points=abc", "'n_points'"),
        ("lipschitz_graph", "n_points=3.5", "'n_points'"),
        ("lipschitz_graph", "value_map=1", "'value_map'"),
        ("union_of_graphs", "lips=0.1,x", "'lips'"),
        ("outlier_stacks", "unit_weights=maybe", "'unit_weights'"),
        ("lipschitz_graph", "lip=nan", "'lip'"),
        ("union_of_graphs", "lips=0.1,inf", "'lips'"),
    ])
    def test_mistyped_param_exits_2(self, tmp_path, kind, param, named, capsys):
        code = run(["generate", "--kind", kind, "--param", param,
                    "--output", tmp_path / "c.json"])
        assert code == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("params, named", [
        (["d=1"], "n = 1, d = 1"),
        (["n=2", "d=2"], "n = 2, d = 2"),
        (["n=0"], "n = 0, d = 2"),
        (["lip=-1"], "lip = -1.0"),
    ], ids=["d1", "n_equals_d", "n0", "negative_lip"])
    def test_graph_dimensions_or_slope_out_of_range_exit_2(self, tmp_path, params,
                                                           named, capsys):
        args = ["generate", "--kind", "lipschitz_graph", "--output", tmp_path / "c.json"]
        for param in params:
            args += ["--param", param]
        assert run(args) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()

    def test_tuple_params_match_the_python_call(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run(["generate", "--kind", "union_of_graphs", "--param", "n_points=120",
                    "--param", "lips=0.1,0.25", "--param", "offsets=0,0.5",
                    "--seed", "3", "--output", out]) == 0
        want = union_of_graphs(120, lips=(0.1, 0.25), offsets=(0.0, 0.5), seed=3)
        got = load_cloud_json(out)
        assert np.array_equal(got.coords, want.coords)
        assert np.array_equal(got.weights, want.weights)

    def test_one_tuple_param_keeps_the_other_default(self, tmp_path, capsys):
        # lips alone arrives as two numbers, matching the two default offsets.
        assert run(["generate", "--kind", "union_of_graphs", "--param", "lips=0.1,0.2",
                    "--output", tmp_path / "c.json"]) == 0

    def test_csv_output(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["generate", "--kind", "four_corner_cantor",
                    "--param", "depth=2", "--output", out]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "x1,x2,weight"


class TestDiagnostics:
    def test_adr_check_json(self, cloud_file, capsys):
        assert run(["adr-check", "--input", cloud_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["c1_hat"] > 0

    def test_adr_check_csv_requires_n(self, tmp_path, capsys):
        cloud = lipschitz_graph(60, 0.1, seed=2)
        path = tmp_path / "c.csv"
        save_cloud_csv(cloud, path)
        assert run(["adr-check", "--input", path]) == 2
        assert run(["adr-check", "--input", path, "--n", "1"]) == 0

    def test_missing_input_exits_2(self, tmp_path):
        assert run(["adr-check", "--input", tmp_path / "nope.json"]) == 2

    @pytest.mark.parametrize("name, text, named", [
        ("short.csv", "x1,x2,weight\n0,0,1\n1,2\n", "row 3"),
        ("word.csv", "x1,x2,weight\n0,zero,1\n", "row 2"),
        ("broken.json", '{"d": 2,', "not valid JSON"),
        ("no_w.json", '{"d": 2, "n": 1, "delta_res": 0.1, '
                      '"points": [{"x": [0, 0], "w": 1}, {"x": [0, 1]}]}', "point 1"),
        ("no_x.json", '{"d": 2, "n": 1, "delta_res": 0.1, "points": [{"w": 1}]}',
         "point 0"),
        ("ragged.json", '{"d": 2, "n": 1, "delta_res": 0.1, '
                        '"points": [{"x": [0, 0], "w": 1}, {"x": [1], "w": 1}]}',
         "point 1"),
        ("n_word.json", _json_cloud(n='"one"'), "'n'"),
        ("n_null.json", _json_cloud(n="null"), "'n'"),
        ("n_fraction.json", _json_cloud(n="1.5"), "'n'"),
        ("delta_res_word.json", _json_cloud(delta_res='"abc"'), "'delta_res'"),
        ("delta_res_null.json", _json_cloud(delta_res="null"), "'delta_res'"),
        ("delta_res_nan.json", _json_cloud(delta_res="NaN"), "'delta_res'"),
    ], ids=["short_row", "non_number", "unparsable", "no_w", "no_x", "ragged_x", "n_word",
            "n_null", "n_fraction", "delta_res_word", "delta_res_null", "delta_res_nan"])
    def test_malformed_input_exits_2(self, tmp_path, name, text, named, capsys):
        path = tmp_path / name
        path.write_text(text)
        assert run(["adr-check", "--input", path, "--n", "1"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and named in err

    @pytest.mark.parametrize("band", ["1", "a:b", "1:2:3", "nan:1", "0.5:inf"])
    def test_malformed_band_exits_2(self, cloud_file, band, capsys):
        assert run(["adr-check", "--input", cloud_file, "--band", band]) == 2
        assert "--band" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["visitation", "--aperture", "0.3"],
                                         ["refine", "--alpha", "0.1"]])
    def test_malformed_direction_exits_2(self, cloud_file, tmp_path, command, capsys):
        for direction in ("a,b", "nan,1", "inf,1"):
            assert run(command + ["--input", cloud_file, "--direction", direction,
                                  "--output-dir", tmp_path]) == 2
            assert "--direction" in capsys.readouterr().err

    @pytest.mark.parametrize("direction, same_as", [
        ("1e200,1e200", "1,1"), ("1e-200,1e-200", "1,1"), ("3e-170,4e-170", "3,4")])
    def test_direction_scale_does_not_matter(self, tmp_path, direction, same_as, capsys):
        # The norm of a huge or tiny vector neither overflows nor underflows.
        coords = np.random.default_rng(5).random((150, 2))
        path = tmp_path / "square.json"
        save_cloud_json(WeightedCloud(coords, np.ones(150), n=1, delta_res=1e-3), path)
        printed = []
        for text in (direction, same_as):
            assert run(["visitation", "--input", path, "--aperture", "0.3",
                        "--direction", text, "--json"]) == 0
            printed.append(json.loads(capsys.readouterr().out))
        assert printed[0] == printed[1] and printed[0]["max_count"] > 0
        assert run(["visitation", "--input", path, "--aperture", "0.3",
                    "--direction", "0,0"]) == 2
        assert "nonzero" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["energy", "--kappa", "nan"],
        ["adr-check", "--delta-res", "nan"],
        ["visitation", "--aperture", "inf"],
        ["extract", "--theta", "nan"],
    ], ids=lambda argv: argv[1])
    def test_non_finite_number_flag_exits_2(self, cloud_file, argv, capsys):
        # argparse rejects the value before the command runs.
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--input", cloud_file])
        assert exc.value.code == 2
        assert f"argument {argv[1]}: invalid finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["generate", "--kind", "lipschitz_graph"],
        ["energy", "--input", None],
        ["cover", "--d", "2", "--n", "1", "--alpha", "0.3"],
        ["grassmann-verify"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_exits_2(self, cloud_file, tmp_path, argv, capsys):
        # numpy's generators take no negative seed: argparse refuses it
        # before the command runs.
        argv = [cloud_file if a is None else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--seed", "-1", "--output-dir", tmp_path])
        assert exc.value.code == 2
        assert "argument --seed: invalid non_negative_int value: '-1'" in \
            capsys.readouterr().err

    def test_energy(self, cloud_file, capsys):
        assert run(["energy", "--input", cloud_file, "--samples", "20",
                    "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mean_l2_sq"] > 0

    def test_energy_lattice_past_int64_exits_2(self, tmp_path, capsys):
        # floor(1 / 1e-20) leaves int64: an unchecked cast put both nonzero
        # points in cell INT64_MIN, exited 0 and printed 5e+20, not 3e+20.
        path = tmp_path / "tiny.json"
        save_cloud_json(WeightedCloud(np.array([[0.0, 0.0], [0.5, 0.1], [1.0, 0.0]]),
                                      np.ones(3), n=1, delta_res=1e-30), path)
        assert run(["energy", "--input", path, "--bin", "1e-20", "--json"]) == 2
        captured = capsys.readouterr()
        assert "int64" in captured.err and captured.out == ""

    def test_energy_bin_zero_exits_2(self, cloud_file, capsys):
        # A given bin of 0 is not the default: it fails the resolution check.
        assert run(["energy", "--input", cloud_file, "--samples", "20",
                    "--bin", "0"]) == 2
        assert "bin width 0" in capsys.readouterr().err

    def test_visitation_with_threshold(self, cloud_file, capsys):
        assert run(["visitation", "--input", cloud_file, "--aperture", "0.3",
                    "--threshold", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_count"] == 0
        assert payload["selected"] == 0

    @pytest.mark.parametrize("oracle", [False, True])
    def test_visitation_threshold_counts_once(self, tmp_path, monkeypatch, oracle,
                                              capsys):
        # The bad set is read off the report printed above it: one shell
        # table per invocation, whose candidates are all pairs under --oracle
        # and the kd-tree search's otherwise.
        builds = []
        kd_pairs = shells._candidate_pairs

        class Counted(audit.ShellTable):
            def __init__(self, *args, **kwargs):
                builds.append("table")
                super().__init__(*args, **kwargs)

        def counted_kd_pairs(*args):
            builds.append("kd")
            return kd_pairs(*args)

        monkeypatch.setattr(audit, "ShellTable", Counted)
        monkeypatch.setattr(shells, "_candidate_pairs", counted_kd_pairs)
        cloud = WeightedCloud(np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0], [1.5, 0.0]]),
                              np.ones(4), n=1, delta_res=0.1)
        path = tmp_path / "stack.json"
        save_cloud_json(cloud, path)
        assert run(["visitation", "--input", path, "--aperture", "0.5",
                    "--threshold", "1", "--json"] + ["--oracle"] * oracle) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["selected"] == 3
        assert builds == (["table"] if oracle else ["table", "kd"])

    def test_grassmann_verify(self, capsys):
        assert run(["grassmann-verify", "--samples", "20000", "--trials", "5",
                    "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.5 <= payload["slope"] <= 1.5


class TestCoverCommand:
    def test_cover_written(self, tmp_path, capsys):
        out = tmp_path / "cover.json"
        assert run(["cover", "--d", "2", "--n", "1", "--alpha", "0.3",
                    "--s", "0.5", "--net-samples", "40000",
                    "--check-samples", "4000", "--output", out, "--json"]) == 0
        data = json.loads(out.read_text())
        assert data["schema"] == "graphcarve/1"
        assert len(data["directions"]) >= 2

    @pytest.mark.parametrize("flag, value, named", [
        ("--check-samples", "0", "check_samples"),
        ("--net-samples", "0", "net_samples"),
        ("--net-samples", "-5", "net_samples"),
    ])
    def test_sample_count_below_one_exits_2(self, tmp_path, flag, value, named, capsys):
        code = run(["cover", "--d", "2", "--n", "1", "--alpha", "0.3", "--s", "0.5",
                    flag, value, "--output", tmp_path / "cover.json"])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "cover.json").exists()

    @pytest.mark.parametrize("d, n", [(1, 1), (2, 2)])
    def test_axis_outside_the_ambient_space_exits_2(self, tmp_path, d, n, capsys):
        code = run(["cover", "--d", d, "--n", n, "--alpha", "0.3",
                    "--output", tmp_path / "cover.json"])
        assert code == 2
        assert f"k={d - n}, d={d}" in capsys.readouterr().err

    def test_dimension_above_the_sobol_table_exits_3(self, tmp_path, capsys):
        code = run(["cover", "--d", "22", "--n", "1", "--alpha", "0.3", "--s", "1",
                    "--output", tmp_path / "cover.json"])
        assert code == 3
        assert "d <= 21" in capsys.readouterr().err


class TestRefineCommand:
    def test_refine_flat_cloud_trivial(self, tmp_path, capsys):
        cloud = lipschitz_graph(80, 0.1, seed=4)
        path = tmp_path / "c.json"
        save_cloud_json(cloud, path)
        assert run(["refine", "--input", path, "--direction", "0,1",
                    "--alpha", "0.1", "--output-dir", tmp_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "already_zero"

    def test_refine_stack_instance(self, tmp_path, capsys):
        tt = np.arange(200) * 0.005
        base = np.column_stack([tt, np.zeros_like(tt)])
        coords = np.vstack([base, [[0.5, 0.61]]])
        cloud = WeightedCloud(coords, np.ones(len(coords)), n=1, delta_res=0.005)
        path = tmp_path / "stack.json"
        save_cloud_json(cloud, path)
        assert run(["refine", "--input", path, "--direction", "0,1",
                    "--alpha", "0.1", "--output-dir", tmp_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate_max_count"] == 0
        assert (tmp_path / "refine_ledger.json").exists()

    def test_one_candidate_search(self, tmp_path, monkeypatch, capsys):
        # The entry table searches for candidates (all pairs under --oracle) and
        # the pass's alpha/2 table filters its entries: one kd-tree search at most,
        # and the same ledger either way.
        searches = []
        kd_pairs = shells._candidate_pairs

        def counted_kd_pairs(*args):
            searches.append(args)
            return kd_pairs(*args)

        monkeypatch.setattr(shells, "_candidate_pairs", counted_kd_pairs)
        tt = np.arange(200) * 0.005
        coords = np.vstack([np.column_stack([tt, np.zeros_like(tt)]), [[0.5, 0.61]]])
        path = tmp_path / "stack.json"
        save_cloud_json(WeightedCloud(coords, np.ones(len(coords)), n=1, delta_res=0.005),
                        path)
        ledgers = []
        for oracle in (False, True):
            searches.clear()
            out = tmp_path / f"run_{oracle}"
            assert run(["refine", "--input", path, "--direction", "0,1", "--alpha", "0.1",
                        "--output-dir", out, "--json"] + ["--oracle"] * oracle) == 0
            assert json.loads(capsys.readouterr().out)["status"] != "already_zero"
            assert len(searches) == (0 if oracle else 1)
            ledgers.append((out / "refine_ledger.json").read_bytes())
        assert ledgers[0] == ledgers[1]


class TestExtractCommand:
    def test_extract_graph(self, cloud_file, tmp_path, capsys):
        assert run(["extract", "--input", cloud_file, "--theta", "0.5",
                    "--output-dir", tmp_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fraction"] == 1.0
        lines = (tmp_path / "graph.csv").read_text().splitlines()
        assert lines[0] == "t1,a1"
        assert len(lines) > 10

    def test_full_dimensional_cloud_exits_2(self, tmp_path, capsys):
        # A planar cloud read with n = 2 has no vertical coordinate to graph.
        path = tmp_path / "sq.csv"
        save_cloud_csv(lipschitz_graph(60, 0.1, seed=2), path)
        assert run(["extract", "--input", path, "--n", "2", "--theta", "0.3",
                    "--output-dir", tmp_path]) == 2
        assert "n = 2, d = 2" in capsys.readouterr().err
        assert not (tmp_path / "graph.csv").exists()

    def test_aperture_with_a_subnormal_square_exits_2(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        save_cloud_json(WeightedCloud(np.array([[0.0, 0.0], [1e-150, 1e5]]), np.ones(2),
                                      n=1, delta_res=1e-151), path)
        assert run(["extract", "--input", path, "--theta", "1e-160",
                    "--output-dir", tmp_path]) == 2
        assert "normal float square" in capsys.readouterr().err
        assert not (tmp_path / "graph.csv").exists()

    def test_negative_grid_points_exits_2(self, cloud_file, tmp_path, capsys):
        assert run(["extract", "--input", cloud_file, "--theta", "0.5",
                    "--grid-points", "-1", "--output-dir", tmp_path]) == 2
        assert "--grid-points" in capsys.readouterr().err
        assert not (tmp_path / "graph.csv").exists()


class TestPipelineCommand:
    def test_end_to_end_with_config_and_plots(self, tmp_path, capsys):
        cloud_path = tmp_path / "c.json"
        save_cloud_json(outlier_cloud(), cloud_path)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("energy_samples = 40\nseed = 9\n")
        outdir = tmp_path / "run"
        assert run(["pipeline", "--input", cloud_path, "--config", cfg,
                    "--output-dir", outdir, "--json"]) == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["params"]["energy_samples"] == 40
        assert report["params"]["seed"] == 9
        assert (outdir / "cloud.svg").exists()
        # re-emit plot data from the saved artifacts
        plotdir = tmp_path / "plots"
        assert run(["plots", "--input-dir", outdir,
                    "--output-dir", plotdir]) == 0
        assert (plotdir / "mass_ledger.csv").exists()
        assert (plotdir / "cloud.svg").exists()

    @pytest.mark.parametrize("make, refines", [
        (lambda: union_of_graphs(300, seed=2), True),
        (lambda: lipschitz_graph(200, 0.2, seed=1), False),
    ], ids=["refining", "m0_zero"])
    def test_plots_rewrite_the_pipeline_files(self, tmp_path, make, refines, capsys):
        # Every series plots writes from the saved run equals the file the
        # pipeline wrote; the ones a saved run cannot rebuild are not written.
        cloud_path = tmp_path / "c.json"
        save_cloud_json(make(), cloud_path)
        outdir, plotdir = tmp_path / "run", tmp_path / "plots"
        assert run(["pipeline", "--input", cloud_path, "--seed", "4",
                    "--output-dir", outdir]) == 0
        report = json.loads((outdir / "report.json").read_text())
        assert (report["thresholds"]["m0"] > 0) == refines
        capsys.readouterr()
        assert run(["plots", "--input-dir", outdir, "--output-dir", plotdir,
                    "--json"]) == 0
        written = json.loads(capsys.readouterr().out)["written"]
        assert {Path(p).name for p in written} == {
            "mass_ledger.csv", "visitation_before.csv", "visitation_after.csv",
            "cloud.svg"}
        for name in (Path(p).name for p in written):
            assert (plotdir / name).read_bytes() == (outdir / name).read_bytes(), name

    def test_plots_accept_a_pair_rounded_under_the_guard(self, tmp_path, capsys):
        # Points 0 and 5 sit exactly delta_res/100 apart; normalization rounds
        # them to just under the guard, and the saved clouds keep them so.
        coords = [[0, 0], [0, 1], [0, 2], [0, 3], [1, 0], [0.005, 0]]
        cloud_path = tmp_path / "c.json"
        save_cloud_json(WeightedCloud(np.array(coords, dtype=float), np.ones(6), n=1,
                                      delta_res=0.5), cloud_path)
        outdir, plotdir = tmp_path / "run", tmp_path / "plots"
        assert run(["pipeline", "--input", cloud_path, "--output-dir", outdir]) == 0
        assert run(["plots", "--input-dir", outdir, "--output-dir", plotdir]) == 0
        assert (plotdir / "cloud.svg").exists()

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cloud_path = tmp_path / "c.json"
        save_cloud_json(lipschitz_graph(100, 0.1, seed=2), cloud_path)
        outdir = tmp_path / "run"
        assert run(["pipeline", "--input", cloud_path, "--seed", "77",
                    "--output-dir", outdir, "--json"]) == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["params"]["seed"] == 77

    @pytest.mark.parametrize("line, named", [
        ("energy_samples = 4.5", "'energy_samples'"),
        ("oracle = yes", "'oracle'"),
        ("theta0 = wide", "'theta0'"),
        ("m0_cap = none", "'m0_cap'"),   # only the fields whose default is None
        ("kappa = auto", "'kappa'"),     # take none or auto
        ("energy_budget = nan", "'energy_budget'"),
        ("energy_budget = inf", "'energy_budget'"),
        ("prune_factor = nan", "'prune_factor'"),
        ("refine_epsilon = nan", "'refine_epsilon'"),
    ])
    def test_mistyped_config_value_exits_2(self, cloud_file, tmp_path, line, named, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"seed = 1\n{line}\n")
        code = run(["pipeline", "--input", cloud_file, "--config", cfg,
                    "--output-dir", tmp_path / "run"])
        assert code == 2
        err = capsys.readouterr().err
        assert named in err and f"{cfg}:2:" in err

    @pytest.mark.parametrize("line, named", [
        ("cover_net_samples = 0", "net_samples"),
        ("cover_check_samples = -5", "check_samples"),
    ])
    def test_config_sample_count_below_one_exits_2(self, cloud_file, tmp_path, line,
                                                   named, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{line}\n")
        code = run(["pipeline", "--input", cloud_file, "--config", cfg,
                    "--output-dir", tmp_path / "run"])
        assert code == 2
        assert named in capsys.readouterr().err

    def test_negative_m0_cap_exits_2(self, cloud_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("m0_cap = -1\n")
        code = run(["pipeline", "--input", cloud_file, "--config", cfg,
                    "--output-dir", tmp_path / "run"])
        assert code == 2
        assert "m0_cap" in capsys.readouterr().err

    @pytest.mark.parametrize("line, named", [
        ("refine_scale_choice = bogus", "scale_choice"),
        ("refine_c_factor = 0", "c_factor"),
        ("refine_c_factor = nan", "c_factor"),
    ])
    def test_bad_refinement_setting_exits_2_before_any_stage(self, cloud_file, tmp_path,
                                                             monkeypatch, line, named, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr("graphcarve.cli.run_pipeline", no_run)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{line}\n")
        code = run(["pipeline", "--input", cloud_file, "--config", cfg,
                    "--output-dir", tmp_path / "run"])
        assert code == 2
        assert named in capsys.readouterr().err

    def test_missing_config_exits_2(self, cloud_file, tmp_path, capsys):
        cfg = tmp_path / "missing.txt"
        code = run(["pipeline", "--input", cloud_file, "--config", cfg,
                    "--output-dir", tmp_path / "run"])
        assert code == 2
        assert str(cfg) in capsys.readouterr().err

    def test_stage_collapse_exits_3(self, tmp_path, capsys):
        cloud_path = tmp_path / "c.json"
        save_cloud_json(lipschitz_graph(80, 0.1, seed=3), cloud_path)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("kappa = 1e-9\n")  # ball sampling cannot accept anything
        code = run(["pipeline", "--input", cloud_path, "--config", cfg,
                    "--output-dir", tmp_path / "run"])
        assert code == 3


def outlier_cloud():
    from graphcarve import outlier_stacks
    return outlier_stacks(n_base=250, n_stacks=3, points_per_stack=5, seed=17)


class TestOracleFlag:
    @pytest.mark.parametrize("argv", [
        ["visitation", "--input", "c.json", "--aperture", "0.3"],
        ["refine", "--input", "c.json", "--direction", "0,1", "--alpha", "0.1"],
        ["pipeline", "--input", "c.json"],
    ])
    def test_taken_where_it_acts(self, argv):
        assert build_parser().parse_args(argv + ["--oracle"]).oracle

    @pytest.mark.parametrize("argv", [
        ["generate", "--kind", "lipschitz_graph"],
        ["adr-check", "--input", "c.json"],
        ["energy", "--input", "c.json"],
        ["cover", "--d", "2", "--n", "1", "--alpha", "0.3"],
        ["extract", "--input", "c.json", "--theta", "0.5"],
        ["grassmann-verify"],
        ["plots", "--input-dir", "run"],
    ])
    def test_rejected_where_it_does_nothing(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--oracle"])
        assert exc.value.code == 2
        build_parser().parse_args(argv)
