import json
from pathlib import Path

import numpy as np
import pytest

from graphcarve import (
    InputError,
    PipelineConfig,
    PipelineReport,
    WeightedCloud,
    emit_plots,
    four_corner_cantor,
    lipschitz_graph,
    normalize_to_unit_ball,
    outlier_stacks,
    run_pipeline,
)


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
