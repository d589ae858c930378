import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import graphcarve
from graphcarve import (
    InputError,
    PipelineConfig,
    PipelineReport,
    ScaleRange,
    WeightedCloud,
    emit_plots,
    four_corner_cantor,
    lipschitz_graph,
    normalize_to_unit_ball,
    outlier_stacks,
    run_pipeline,
    union_of_graphs,
)
from graphcarve import audit, shells
from graphcarve import pipeline as pipeline_module
from graphcarve import refine as refine_module
from graphcarve.errors import STAGE_COLLAPSE_ERRORS
from graphcarve.pipeline import _resolution_dedup
from tests.dedup_reference import resolution_dedup_loop


@pytest.fixture(scope="module")
def graph_report():
    cloud = outlier_stacks(n_base=700, lip=0.3, n_stacks=6, points_per_stack=10,
                           max_height=0.6, mass_fraction=0.1, seed=21)
    return run_pipeline(cloud, PipelineConfig(seed=13))


@pytest.fixture(scope="module")
def refine_report():
    # m0 = 1: the direction schedule deletes mass.
    return run_pipeline(union_of_graphs(300, seed=2), PipelineConfig(seed=4))


class TestVerticalStacks:
    @pytest.mark.parametrize("coords", [[[0.0, 0.0], [0.0, 1.0]],
                                        [[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]]])
    def test_stack_keeps_one_point(self, coords):
        # Normalization puts the stack ends exactly 2 = 2^1 apart, a radius
        # shared by two dyadic shells; the refinement must still delete the
        # witness sitting there instead of running out of saved-ball radii.
        cloud = WeightedCloud(np.array(coords), np.ones(len(coords)), n=1,
                              delta_res=0.01)
        report = run_pipeline(cloud, PipelineConfig())
        assert report.refinement["total_applications"] >= 1
        assert report.point_counts["e3"] == 1
        assert report.graph is not None


class TestTinyClouds:
    @given(d=st.sampled_from([2, 3]), stack=st.booleans(),
           twin=st.sampled_from([None, "at_guard", "ulp_above"]), data=st.data())
    def test_report_or_stage_collapse(self, d, stack, twin, data):
        # One to eight points on a dyadic lattice, or stacked vertically with
        # dyadic gaps: one-point clouds, zero-span axes and exact distance
        # ties everywhere.  A twin of the first point may sit exactly at, or
        # one ulp beyond, the delta_res/100 separation guard, along a random
        # axis.  Weights reach 1e300.  The run ends in a report whose fields
        # are all finite, a documented stage collapse, or an InputError that
        # names the float limit; never in an invariant trap or another error.
        k = data.draw(st.integers(1, 8))
        gap = 2.0 ** -data.draw(st.integers(0, 3))
        if stack:
            base = data.draw(st.lists(st.integers(0, 3), min_size=d - 1, max_size=d - 1))
            heights = data.draw(st.lists(st.integers(0, 15), min_size=k, max_size=k,
                                         unique=True))
            coords = np.array([[*base, h] for h in sorted(heights)], dtype=float) * gap
        else:
            cells = data.draw(st.lists(st.integers(0, 4**d - 1), min_size=k, max_size=k,
                                       unique=True))
            coords = np.array(np.unravel_index(cells, (4,) * d), dtype=float).T * gap
        delta_res = gap / 2
        if twin is not None:
            guard = delta_res / 100.0
            spacing = guard if twin == "at_guard" else np.nextafter(guard, np.inf)
            coords = coords - coords[0]  # the twin offset is then exact
            offset = np.zeros(d)
            offset[data.draw(st.integers(0, d - 1))] = spacing
            coords = np.vstack([coords, offset])
        weights = data.draw(st.lists(
            st.sampled_from([0.25, 0.5, 1.0, 3.0, 1e150, 1e300]),
            min_size=len(coords), max_size=len(coords)))
        cloud = WeightedCloud(coords, np.array(weights), n=1, delta_res=delta_res)
        cfg = PipelineConfig(cover_net_samples=20_000, cover_check_samples=2_000)
        try:
            report = run_pipeline(cloud, cfg)
        except STAGE_COLLAPSE_ERRORS:
            return
        except InputError as exc:
            assert "the largest float" in str(exc)
            return
        json.loads(report.to_json())  # allow_nan=False: every field is finite
        assert report.masses["e3"] <= report.masses["e1"]

    def test_heavy_weights_name_the_float_limit(self):
        # Squaring 1e300 cell masses overflowed into an inf energy, which
        # reached report.json as the non-JSON token Infinity.
        line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]) * 0.25
        with pytest.raises(InputError, match="exceeds the largest float"):
            run_pipeline(WeightedCloud(line, np.full(4, 1e300), n=1, delta_res=0.125))
        # Normalizing scales the weights of this 0.25-wide pair by 8.
        pair = WeightedCloud(line[:2], np.full(2, 1e308), n=1, delta_res=0.125)
        with pytest.raises(InputError, match="exceeds the largest float"):
            run_pipeline(pair)
        report = run_pipeline(WeightedCloud(line, np.full(4, 1e150), n=1,
                                            delta_res=0.125))
        assert report.masses["e3"] == report.masses["e1"]
        json.loads(report.to_json())


class TestOracleMode:
    @pytest.mark.parametrize("make_cloud", [
        lambda: union_of_graphs(300, seed=2),  # refinement deletes mass
        lambda: outlier_stacks(n_base=300, lip=0.3, n_stacks=4, points_per_stack=8,
                               max_height=0.6, mass_fraction=0.1, seed=5),
    ], ids=["union_of_graphs", "outlier_stacks"])
    def test_report_bytes_match_the_default_mode(self, make_cloud, monkeypatch):
        # Under the oracle the theta0 table takes all pairs as candidates and
        # every later table, each refinement pass's included, filters a parent's,
        # so no kd-tree search runs;
        # only the recorded switch may differ from the default run.
        cloud = make_cloud()
        default = run_pipeline(cloud, PipelineConfig(seed=4))

        def no_kd_search(*args):
            raise AssertionError("an oracle table ran the kd-tree candidate search")

        monkeypatch.setattr(shells, "_candidate_pairs", no_kd_search)
        oracle = run_pipeline(cloud, PipelineConfig(seed=4, oracle=True))
        assert oracle.params["oracle"] and not default.params["oracle"]
        oracle.params["oracle"] = False
        assert oracle.to_json().encode() == default.to_json().encode()


def test_a_run_makes_one_candidate_search(monkeypatch):
    # The theta0 table is the run's only kd-tree search: the schedule's
    # per-direction counts and its final two-sided check filter its pairs, and
    # each pass filters the table that counted the report it refines.
    searches, built = [], []
    search = shells._candidate_pairs

    def counted(*args):
        searches.append(args[1])
        return search(*args)

    class Recorded(shells.ShellTable):
        def __init__(self, cloud, subset, aperture, scale_range, direction=None,
                     oracle=False, parent=None):
            super().__init__(cloud, subset, aperture, scale_range, direction, oracle, parent)
            built.append((self, parent))

    monkeypatch.setattr(shells, "_candidate_pairs", counted)
    for module in (pipeline_module, audit, refine_module):
        monkeypatch.setattr(module, "ShellTable", Recorded)
    report = run_pipeline(union_of_graphs(300, seed=2), PipelineConfig(seed=4))
    assert report.thresholds["m0"] == 1 and report.refinement["total_applications"] > 0
    assert searches == [report.thresholds["theta0"]]
    root, schedule, cover = built[0][0], report.schedule, report.cover
    parent_of = {id(table): parent for table, parent in built}
    passes = [o for run in schedule.runs for o in run.outcomes]
    visited = shells.visited_directions(root, report.e2_indices, cover.directions, cover.alpha)
    assert built[0][1] is None and root.aperture == report.thresholds["theta0"]
    assert len(built) == 1 + np.count_nonzero(visited) + len(passes) + 1
    assert sum(parent is root for _, parent in built) == np.count_nonzero(visited) + 1
    assert parent_of[id(schedule.final_certificate.table)] is root
    # A direction's table filters the root, each pass the table built just before it.
    for (table, parent), (before, _) in zip(built[1:], built):
        assert parent is root or parent is before


class TestResolutionDedup:
    # j_max = 4: pairs closer than 2^-5 = 0.03125 are below the audit floor.
    SCALES = ScaleRange(0, 4)

    def dedup(self, coords, weights, subset=None, theta=0.5):
        cloud = WeightedCloud(np.array(coords, dtype=float), np.array(weights, dtype=float),
                              n=1, delta_res=0.01)
        subset = cloud.all_indices() if subset is None else np.array(subset)
        got = _resolution_dedup(cloud, subset, theta, self.SCALES)
        want = resolution_dedup_loop(cloud, subset, theta, self.SCALES)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        return got

    def test_only_steep_sub_floor_pairs_lose_a_point(self):
        line = [[0.1 * k, 0.0] for k in range(10)]
        extra = [[0.5, 0.02],     # 10: steep and below the floor -> dropped
                 [0.72, 0.001],   # 11: below the floor but shallow
                 [0.3, 0.05],     # 12: steep but above the floor
                 [0.9, 0.02]]     # 13: steep, below the floor, outside the subset
        weights = [1.0] * 10 + [0.5, 0.5, 0.5, 0.5]
        kept, removed = self.dedup(line + extra, weights, subset=np.arange(13))
        assert np.array_equal(kept, [*range(10), 11, 12])
        assert removed == 0.5

    @pytest.mark.parametrize("weights, kept, removed", [
        ([1.0, 2.0, 1.5], [1], 2.5),   # the middle one outweighs both ends
        ([2.0, 1.0, 2.0], [0], 3.0),   # tie between the ends drops the higher index
        ([1.0, 1.0, 1.0], [0], 2.0),
    ])
    def test_vertical_chain_of_three(self, weights, kept, removed):
        got_kept, got_removed = self.dedup([[0.0, 0.0], [0.0, 0.01], [0.0, 0.02]], weights)
        assert np.array_equal(got_kept, kept)
        assert got_removed == removed

    def test_equal_weights_drop_the_higher_index(self):
        kept, removed = self.dedup([[0.3, 0.01], [0.3, 0.0]], [0.7, 0.7])
        assert np.array_equal(kept, [0])
        assert removed == 0.7

    @given(st.integers(0, 10_000))
    def test_matches_per_vertex_loop(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 4))
        centres = rng.uniform(-1, 1, (int(rng.integers(1, 8)), d))
        coords = np.concatenate([c + rng.uniform(-0.03, 0.03, (int(rng.integers(1, 6)), d))
                                 for c in centres])
        weights = rng.choice([1.0, 2.0, 3.0], len(coords))
        subset = np.nonzero(rng.random(len(coords)) < 0.8)[0]
        try:
            self.dedup(coords, weights, subset, theta=float(rng.uniform(0.05, 0.95)))
        except InputError:
            pass  # two points under the duplicate guard; not this test's topic


class TestNormalization:
    def test_unit_ball_and_scale_reported(self):
        cloud = lipschitz_graph(80, 0.2, extent=3.0, seed=1)
        moved, info = normalize_to_unit_ball(cloud)
        assert np.all(np.linalg.norm(moved.coords, axis=1) <= 1.0 + 1e-12)
        assert info["scale"] > 0
        assert len(info["offset"]) == 2
        # weights scale with the intrinsic-dimension power of the map
        assert moved.mass() == pytest.approx(cloud.mass() * info["scale"])

    def test_pair_on_the_guard_survives_rounding(self):
        # Points 0 and 5 sit exactly delta_res/100 apart; scaled by 2/sqrt(10)
        # they round to just under the scaled guard.
        coords = [[0, 0], [0, 1], [0, 2], [0, 3], [1, 0], [0.005, 0]]
        cloud = WeightedCloud(np.array(coords, dtype=float), np.ones(6), n=1,
                              delta_res=0.5)
        moved, _ = normalize_to_unit_ball(cloud)
        assert len(moved) == 6

    def test_empty_rejected(self):
        empty = WeightedCloud(np.empty((0, 2)), np.empty(0), n=1, delta_res=0.1)
        with pytest.raises(InputError):
            normalize_to_unit_ball(empty)


class TestFlatGraph:
    def test_nothing_to_refine(self):
        cloud = lipschitz_graph(400, 0.0, seed=3)
        report = run_pipeline(cloud, PipelineConfig(seed=2))
        assert report.masses["e3"] == pytest.approx(report.masses["e2"])
        assert report.graph["lipschitz"] == 0.0
        assert report.graph["containment_fraction_e3"] == 1.0
        assert report.thresholds["m0"] == 0


class TestGraphWithOutliers:
    def test_retention_and_certificates(self, graph_report):
        report = graph_report
        assert report.masses["e3"] >= 0.5 * report.masses["e1"]
        assert report.graph["lipschitz"] <= report.graph["lipschitz_bound"]
        assert report.graph["containment_fraction_e3"] == 1.0

    def test_mass_ledger_non_increasing(self, graph_report):
        masses = graph_report.masses
        chain = [masses[k] for k in ("e1", "e_prime", "e", "e2", "e3")]
        assert all(a >= b - 1e-12 for a, b in zip(chain, chain[1:]))

    def test_histograms_cover_all_mass(self, graph_report):
        before = sum(graph_report.visitation_before.values())
        assert before == pytest.approx(graph_report.masses["e"], abs=1e-9)

    def test_canonical_payload_has_no_timings(self, graph_report):
        payload = json.loads(graph_report.to_json())
        assert "wall_times" not in payload
        assert payload["schema"] == "graphcarve/1"
        assert graph_report.wall_times  # the timers go to timings.json instead


class TestCantorContrast:
    def test_small_retention_and_energy_warning(self):
        report = run_pipeline(four_corner_cantor(5), PipelineConfig(seed=2))
        fraction = report.masses["e3"] / report.masses["e1"]
        assert fraction <= 0.2
        assert report.energy["warning"]


class TestDeterminism:
    def test_reports_byte_identical(self):
        cloud = outlier_stacks(n_base=300, n_stacks=3, points_per_stack=5,
                               seed=5)
        a = run_pipeline(cloud, PipelineConfig(seed=11)).to_json()
        b = run_pipeline(cloud, PipelineConfig(seed=11)).to_json()
        assert a == b

    def test_seed_changes_energy_samples(self):
        cloud = lipschitz_graph(150, 0.1, seed=6)
        a = run_pipeline(cloud, PipelineConfig(seed=1))
        b = run_pipeline(cloud, PipelineConfig(seed=2))
        assert a.energy["mean_l2_sq"] != b.energy["mean_l2_sq"]


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        text = (
            "kappa = 0.3\n"
            "# a comment line\n"
            "m0_cap = 6\n"
            "theta0 = none\n"
            "oracle = true\n"
            "refine_scale_choice = smallest\n"
        )
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        cfg = PipelineConfig.from_file(path)
        assert cfg.kappa == 0.3
        assert cfg.m0_cap == 6
        assert cfg.theta0 is None
        assert cfg.oracle is True
        assert cfg.refine_scale_choice == "smallest"

    def test_values_take_the_field_type(self, tmp_path):
        # An integer written for a float field loads as a float; the fields
        # whose default is None take none or auto.
        path = tmp_path / "cfg.txt"
        path.write_text("kappa = 1\nrefine_epsilon = auto\nenergy_bin = 0.1\n"
                        "refine_scale_choice = random\n")
        cfg = PipelineConfig.from_file(path)
        assert type(cfg.kappa) is float and cfg.kappa == 1.0
        assert cfg.refine_epsilon is None
        assert cfg.energy_bin == 0.1
        assert cfg.refine_scale_choice == "random"

    def test_negative_m0_cap_rejected(self, tmp_path):
        # m0_cap = -1 would drop every point at visit removal.
        with pytest.raises(InputError, match="m0_cap"):
            PipelineConfig(m0_cap=-1)
        PipelineConfig(m0_cap=0)
        path = tmp_path / "cfg.txt"
        path.write_text("m0_cap = -1\n")
        with pytest.raises(InputError, match="m0_cap"):
            PipelineConfig.from_file(path)

    @pytest.mark.parametrize("setting", [
        {"refine_scale_choice": "bogus"}, {"refine_c_factor": 0.0},
        {"refine_c_factor": float("nan")},
    ], ids=["scale_choice", "zero_c_factor", "nan_c_factor"])
    def test_bad_refinement_settings_rejected_at_construction(self, setting):
        # Refused when the config is built, not at the refine stage after
        # energy, both prunes, the theta0 table and the cover.
        with pytest.raises(InputError, match="scale_choice|c_factor"):
            PipelineConfig(**setting)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("warp_factor = 9\n")
        with pytest.raises(InputError):
            PipelineConfig.from_file(path)


class TestPlots:
    def test_emit_from_live_report(self, refine_report, tmp_path):
        written = emit_plots(refine_report, tmp_path)
        names = {Path(p).name for p in written}
        assert {"mass_ledger.csv", "visitation_before.csv",
                "visitation_after.csv", "energy_scatter.csv",
                "refine_ledger.csv", "cloud.svg"} <= names
        svg = (tmp_path / "cloud.svg").read_text()
        assert svg.count("<polyline") == 1
        ledger = (tmp_path / "refine_ledger.csv").read_text().strip().splitlines()
        rows = len(ledger) - 1
        iterations = sum(o.iterations for run in refine_report.schedule.runs
                         for o in run.outcomes)
        assert rows == iterations > 0
        stages = (tmp_path / "mass_ledger.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in stages] == [
            "stage", "e1", "e_prime", "e", "e2", "e3"]

    def test_empty_report_headers_only(self, tmp_path):
        written = emit_plots(PipelineReport.empty(), tmp_path)
        mass = (tmp_path / "mass_ledger.csv").read_text()
        assert mass == "stage,mass\n"
        assert not (tmp_path / "cloud.svg").exists()
        assert all(Path(p).exists() for p in written)

    def test_saved_ledger_holds_pass_objects(self, refine_report, tmp_path):
        refine_report.save(tmp_path)
        ledger = json.loads((tmp_path / "refine_ledger.json").read_text())
        passes = [p for run in ledger["directions"] for p in run["iterations"]]
        assert passes
        assert passes[0]["status"] in ("stopped_1", "stopped_2")
        assert passes[0]["iterations"][0]["k"] == 0

    def test_save_artifacts(self, graph_report, tmp_path):
        files = graph_report.save(tmp_path / "out")
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "cloud_e1.json").exists()
        assert (tmp_path / "out" / "cover.json").exists()
        assert files


class TestImportFootprint:
    def test_no_run_loads_scipy_stats(self):
        # A fresh interpreter, so modules the test session loaded do not count;
        # the full run also catches an import made lazily inside a stage.
        script = (
            "import sys, graphcarve, graphcarve.cli\n"
            "report = graphcarve.run_pipeline(graphcarve.lipschitz_graph(120, 0.2, seed=1))\n"
            "assert report.cover_summary['m'] > 0\n"
            "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n"
        )
        src = str(Path(graphcarve.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
