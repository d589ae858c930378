"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and timings.
"""

import math
import time

import numpy as np
import pytest

from graphcarve import (
    PipelineConfig,
    ScaleRange,
    Subspace,
    WeightedCloud,
    alpha0_max,
    bad_set,
    build_cover,
    certify_graph,
    construct_v0,
    extend_mcshane,
    four_corner_cantor,
    grassmann_distance,
    hrycak_like,
    lipschitz_graph,
    measure_lower_bound_mc,
    outlier_stacks,
    refine_once,
    run_pipeline,
    union_of_graphs,
    visitation_counts,
)
from graphcarve.refine import RefineConfig
from graphcarve.shells import ShellTable
from tests.test_refine import verify_outcome_invariants
from tests.visit_rows import assert_rows_match_oracle


def _announce(number, name, start, detail):
    print(f"ACCEPTANCE {number} [{name}]: PASS ({time.perf_counter() - start:.1f}s) "
          f"- {detail}")


@pytest.fixture(scope="module")
def graph_instance():
    return outlier_stacks(n_base=2000, lip=0.3, n_stacks=10,
                          points_per_stack=20, max_height=0.6,
                          mass_fraction=0.1, seed=11)


@pytest.fixture(scope="module")
def graph_run(graph_instance):
    start = time.perf_counter()
    report = run_pipeline(graph_instance, PipelineConfig(seed=4))
    return report, time.perf_counter() - start


def _random_cloud(index):
    """Mixed desk-scale clouds with <= 500 points over d in {2,3}, n in {1,2}."""
    kind = index % 6
    if kind == 0:
        return lipschitz_graph(400, 0.3, d=2, n=1, seed=index)
    if kind == 1:
        return lipschitz_graph(350, 0.4, d=3, n=1, seed=index)
    if kind == 2:
        return lipschitz_graph(400, 0.5, d=3, n=2, seed=index)
    if kind == 3:
        return outlier_stacks(n_base=300, lip=0.2, n_stacks=4,
                              points_per_stack=6, max_height=0.7, seed=index)
    if kind == 4:
        return union_of_graphs(320, seed=index)
    return four_corner_cantor(4) if index % 2 else hrycak_like(2, seed=index)


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    checked = 0
    for index in range(50):
        cloud = _random_cloud(index)
        assert len(cloud) <= 500
        aperture = float(rng.uniform(0.05, 0.6))
        direction = None
        if index % 2:
            w = rng.standard_normal(cloud.d)
            direction = w / np.linalg.norm(w)
        fast = visitation_counts(cloud, cloud.all_indices(), aperture,
                                 direction=direction, oracle=False)
        slow = visitation_counts(cloud, cloud.all_indices(), aperture,
                                 direction=direction, oracle=True)
        assert np.array_equal(fast.counts, slow.counts)
        # Per-vertex visited scales and lowest witnesses, on every vertex.
        assert_rows_match_oracle(cloud, ShellTable(
            cloud, cloud.all_indices(), aperture, ScaleRange.default_for(cloud),
            direction))
        threshold = int(rng.integers(0, max(fast.max_count, 1) + 1))
        flavor = "at_least" if index % 3 else "exactly"
        assert np.array_equal(bad_set(fast, threshold, flavor),
                              bad_set(slow, threshold, flavor))
        for _ in range(5):
            center = cloud.coords[int(rng.integers(len(cloud)))] \
                + rng.uniform(-0.05, 0.05, cloud.d)
            radius = float(rng.uniform(0.01, 1.5))
            got = cloud.grid.ball(center, radius)
            dist = np.linalg.norm(cloud.coords - center, axis=1)
            assert np.array_equal(got, np.nonzero(dist <= radius)[0])
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _announce(1, "oracle equivalence", start, f"{checked} clouds, exact match")


def _refine_instance(seed):
    """Crafted clouds whose one-sided visit count is 1..3.

    Returns (cloud, levels, epsilon_override); most seeds are graph-plus-stack
    instances ending at the no-bad-points stop, while every seventh seed is a
    heavy tight cluster under a single stack, which drives the mass-accounting
    stop instead.
    """
    rng = np.random.default_rng(seed)
    if seed % 7 == 3:
        cl_t = rng.uniform(0.3, 0.7) + np.arange(5) * 2e-4
        cluster = np.column_stack([cl_t, np.zeros_like(cl_t)])
        stack = np.array([[cl_t[2], 1.43 * (1 + rng.uniform(-0.03, 0.03))]])
        tt = 1.2 + np.arange(300) * 0.005
        base = np.column_stack([tt, np.zeros_like(tt)])
        coords = np.vstack([cluster, stack, base])
        weights = np.concatenate([np.full(5, 100.0), [1.0], np.ones(300)])
        return (WeightedCloud(coords, weights, n=1, delta_res=0.005), 1, 10.0)
    levels = int(rng.integers(1, 4))
    n_base = int(rng.integers(150, 280))
    spacing = float(rng.uniform(0.004, 0.006))
    tt = np.arange(n_base) * spacing
    slope = float(rng.uniform(0.0, 0.05))
    base = np.column_stack([tt, slope * np.sin(5 * tt)])
    anchors = (0.71, 0.33, 0.16)
    stacks = []
    n_sites = int(rng.integers(1, 4))
    sites = rng.choice(n_base, size=n_sites, replace=False)
    for site in sites:
        for lvl in range(levels):
            height = anchors[lvl] * (1.0 + rng.uniform(-0.05, 0.05))
            stacks.append(base[site] + [0.0, height])
    coords = np.vstack([base, stacks])
    weights = np.full(len(coords), 1.0) if seed % 2 else \
        np.full(len(coords), 1.0 / len(coords))
    return WeightedCloud(coords, weights, n=1, delta_res=spacing), levels, None


def test_criterion_2_refinement_soundness():
    start = time.perf_counter()
    statuses = {"stopped_1": 0, "stopped_2": 0}
    total_iterations = 0
    for seed in range(100):
        cloud, levels, eps_override = _refine_instance(seed)
        rng = np.random.default_rng(1000 + seed)
        alpha = float(rng.choice([0.1, 0.07, 0.05]))
        w = np.array([0.0, 1.0])
        entry = visitation_counts(cloud, cloud.all_indices(), alpha, direction=w)
        big_m = entry.max_count
        assert 1 <= big_m <= 3, f"seed {seed}: measured M = {big_m}"
        cfg = RefineConfig(
            epsilon=eps_override if eps_override is not None
            else [None, 0.5, 2.0][seed % 3],
            scale_choice=["largest", "smallest", "random"][seed % 3],
            seed=seed)
        outcome = refine_once(cloud, entry, cfg)
        # independent certificate recomputation in oracle mode
        recheck = visitation_counts(cloud, outcome.kept, alpha / 2.0,
                                    direction=w, oracle=True)
        assert recheck.max_count <= big_m - 1
        verify_outcome_invariants(cloud, outcome)
        if outcome.iterations and outcome.saved_ratio > 0:
            bound = math.ceil(2.0 * cloud.mass()
                              / (outcome.saved_ratio * cloud.delta_res**cloud.n))
            assert outcome.iterations <= bound
        statuses[outcome.status] += 1
        total_iterations += outcome.iterations
    _announce(2, "refinement soundness", start,
              f"100 runs, {total_iterations} iterations, stops {statuses}")


def test_criterion_3_graph_recovery(graph_instance, graph_run):
    start = time.perf_counter()
    report, elapsed = graph_run
    assert elapsed < 20.0
    total = report.masses["e1"]
    assert report.masses["e3"] >= 0.5 * total
    theta0 = report.thresholds["theta0"]
    b_used = report.thresholds["b_used"]
    assert report.graph["lipschitz"] <= b_used / theta0
    assert report.graph["tolerance"] == pytest.approx(
        2.0 * report.cloud_e.delta_res)
    assert report.graph["containment_fraction_e3"] == 1.0
    _announce(3, "graph recovery", start,
              f"retained {report.masses['e3'] / total:.2f}, "
              f"L = {report.graph['lipschitz']:.3f}, {elapsed:.1f}s run")


def test_criterion_4_non_graph_contrast(graph_run):
    start = time.perf_counter()
    graph_report, _ = graph_run
    graph_fraction = graph_report.masses["e3"] / graph_report.masses["e1"]
    report = run_pipeline(four_corner_cantor(6), PipelineConfig(seed=4))
    fraction = report.masses["e3"] / report.masses["e1"]
    assert fraction <= 0.2
    assert fraction <= 0.4 * graph_fraction
    _announce(4, "non-graph contrast", start,
              f"cantor fraction {fraction:.3f} vs graph {graph_fraction:.3f}")


def test_criterion_5_grassmannian_measure():
    start = time.perf_counter()
    w_sub = Subspace(np.column_stack([[1.0, 0.0, 0.0]]))
    z = np.array([0.0, 0.0, 1.0])  # perpendicular to W
    upsilon = 0.5
    ts = (0.1, 0.05, 0.025)
    a_hats = []
    for i, t in enumerate(ts):
        est = measure_lower_bound_mc(w_sub, z, t, upsilon, samples=10**6,
                                     seed=100 + i, delta0=0.2)
        a_hats.append(est.a_hat)
    slope = float(np.polyfit(np.log(ts), np.log(a_hats), 1)[0])
    assert 0.8 <= slope <= 1.2

    a0 = alpha0_max(1, upsilon)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        w_t = Subspace(rng.standard_normal((3, 1)))
        perp = rng.standard_normal(3)
        perp -= (perp @ w_t.frame) @ w_t.frame.T
        perp /= np.linalg.norm(perp)
        tilt = rng.uniform(0, 0.9 * a0)
        z_t = perp * math.sqrt(1 - tilt**2) + w_t.frame[:, 0] * tilt
        z_t *= rng.uniform(0.5, 2.0)
        v0 = construct_v0(w_t, z_t, upsilon)
        assert np.linalg.norm(v0.coords(z_t)) <= 1e-10 * np.linalg.norm(z_t)
        assert grassmann_distance(v0, w_t) <= upsilon / 2
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _announce(5, "grassmannian measure", start,
              f"slope {slope:.3f}, 1000 frame constructions clean")


def test_criterion_6_cone_cover_certificates():
    start = time.perf_counter()
    rates = {2: [], 3: []}
    for d in (2, 3):
        axis = Subspace.vertical_axis(d, 1)
        for alpha in (0.1, 0.25, 0.5):
            for s in (1.0, 0.5, 0.25):
                cover = build_cover(axis, alpha, s, check_samples=100_000,
                                    net_samples=300_000, seed=d)
                assert cover.b_measured <= cover.b_used
                assert cover.b_used <= 4.0
                rates[d].append(cover.c_cover)
    for d, values in rates.items():
        assert max(values) / min(values) < 10.0, f"d={d}: {values}"
    _announce(6, "cone cover certificates", start,
              f"18 covers, rate spreads "
              f"{ {d: round(max(v) / min(v), 2) for d, v in rates.items()} }")


def test_criterion_7_extension_contract():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    for trial in range(20):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, d))
        lip = float(rng.uniform(0.0, 1.0))
        cloud = lipschitz_graph(int(rng.integers(50, 160)), lip, d=d, n=n,
                                seed=trial)
        model = certify_graph(cloud, theta=0.2)
        # samples reproduce exactly
        reproduced = extend_mcshane(model, model.sample_base)
        assert np.array_equal(reproduced, model.sample_values)
        # pairwise bound on 1e4 random pairs
        q = rng.uniform(-1, 2, (10_000, n))
        p = rng.uniform(-1, 2, (10_000, n))
        gaps = np.linalg.norm(extend_mcshane(model, q) - extend_mcshane(model, p),
                              axis=1)
        dists = np.linalg.norm(q - p, axis=1)
        assert np.all(gaps <= model.inflated_lipschitz * dists + 1e-9)
    _announce(7, "extension contract", start, "20 models, exact interpolation")


def test_criterion_8_determinism(graph_instance, graph_run):
    start = time.perf_counter()
    first, _ = graph_run
    second = run_pipeline(graph_instance, PipelineConfig(seed=4))
    text_a = first.to_json()
    text_b = second.to_json()
    assert text_a == text_b
    assert text_a.encode() == text_b.encode()
    _announce(8, "determinism", start,
              f"byte-identical reports ({len(text_a)} bytes)")


def test_criterion_9_refinement_end_to_end(tmp_path):
    # Unlike the graph instance of criteria 3 and 8 (m0 = 0), this union of
    # crossing graphs makes the direction schedule delete mass.
    start = time.perf_counter()
    cloud = union_of_graphs(300, seed=2)
    first, second = (run_pipeline(cloud, PipelineConfig(seed=4)) for _ in range(2))
    assert first.refinement["total_applications"] > 0
    e_cloud, e3 = first.cloud_e, first.e3_indices
    theta = first.thresholds["theta_certified"]
    assert first.schedule.final_certificate.max_count == 0
    assert visitation_counts(e_cloud, first.schedule.e3, theta,
                             oracle=True).max_count == 0
    for run in first.schedule.runs:
        for outcome in run.outcomes:
            recheck = visitation_counts(e_cloud, outcome.kept,
                                        outcome.alpha / 2.0,
                                        direction=run.direction, oracle=True)
            assert recheck.max_count <= outcome.max_count - 1
    assert len(e3) and first.graph["lipschitz"] <= first.graph["lipschitz_bound"]
    first.save(tmp_path / "a")
    second.save(tmp_path / "b")
    text = (tmp_path / "a" / "report.json").read_bytes()
    assert text == (tmp_path / "b" / "report.json").read_bytes()
    _announce(9, "refinement end to end", start,
              f"{first.refinement['total_applications']} refine applications, "
              f"byte-identical reports ({len(text)} bytes)")
