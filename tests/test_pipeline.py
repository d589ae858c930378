import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
)
from graphcarve.errors import STAGE_COLLAPSE_ERRORS
from graphcarve.pipeline import _resolution_dedup
from tests.dedup_reference import resolution_dedup_loop


@pytest.fixture(scope="module")
def graph_report():
    cloud = outlier_stacks(n_base=700, lip=0.3, n_stacks=6, points_per_stack=10,
                           max_height=0.6, mass_fraction=0.1, seed=21)
    return run_pipeline(cloud, PipelineConfig(seed=13))


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
    @given(d=st.sampled_from([2, 3]), stack=st.booleans(), data=st.data())
    def test_report_or_stage_collapse(self, d, stack, data):
        # One to eight points on a dyadic lattice, or stacked vertically with
        # dyadic gaps: one-point clouds, zero-span axes and exact distance
        # ties everywhere.  The run ends in a report or a documented stage
        # collapse, never in an invariant trap or another error.
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
        weights = data.draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 3.0]),
                                     min_size=k, max_size=k))
        cloud = WeightedCloud(coords, np.array(weights), n=1, delta_res=gap / 2)
        cfg = PipelineConfig(cover_net_samples=20_000, cover_check_samples=2_000)
        try:
            report = run_pipeline(cloud, cfg)
        except STAGE_COLLAPSE_ERRORS:
            return
        assert report.masses["e3"] <= report.masses["e1"]


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
        with_t = graph_report.payload(include_timings=True)
        assert "wall_times" in with_t


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

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("warp_factor = 9\n")
        with pytest.raises(InputError):
            PipelineConfig.from_file(path)


class TestPlots:
    def test_emit_from_live_report(self, graph_report, tmp_path):
        written = emit_plots(graph_report, tmp_path)
        names = {Path(p).name for p in written}
        assert {"mass_ledger.csv", "visitation_before.csv",
                "visitation_after.csv", "energy_scatter.csv",
                "refine_ledger.csv", "cloud.svg"} <= names
        svg = (tmp_path / "cloud.svg").read_text()
        assert svg.count("<polyline") == 1
        ledger = (tmp_path / "refine_ledger.csv").read_text().strip().splitlines()
        rows = len(ledger) - 1
        iterations = sum(
            len(o.state.records)
            for run in graph_report.schedule.runs for o in run.outcomes)
        assert rows == iterations

    def test_empty_report_headers_only(self, tmp_path):
        written = emit_plots(PipelineReport.empty(), tmp_path)
        mass = (tmp_path / "mass_ledger.csv").read_text()
        assert mass == "stage,mass\n"
        assert not (tmp_path / "cloud.svg").exists()
        assert all(Path(p).exists() for p in written)

    def test_save_artifacts(self, graph_report, tmp_path):
        files = graph_report.save(tmp_path / "out")
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "cloud_e1.json").exists()
        assert (tmp_path / "out" / "cover.json").exists()
        assert files
