import gc
import json
import math
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from graphcarve import (
    AlgorithmInvariantViolation,
    InputError,
    RefinementCollapsedError,
    ResolutionExhaustedError,
    ScaleRange,
    Subspace,
    WeightedCloud,
    build_cover_for_theta,
    lipschitz_graph,
    prune_low_density,
    refine_once,
    refine_schedule,
    union_of_graphs,
    visitation_counts,
)
from graphcarve import audit
from graphcarve import refine as refine_module
from graphcarve import shells
from graphcarve.cloud import GridIndex
from graphcarve.measure import ball_masses
from graphcarve.pipeline import PipelineConfig, normalize_to_unit_ball, run_pipeline
from graphcarve.refine import (
    RefineConfig,
    _DenseRows,
    _in_closed_shadow,
    _near,
    _open_shadow,
)
from graphcarve.shells import ShellTable
from tests.bad_points_reference import dense_bad
from tests.refine_reference import refine_once_loop
from tests.schedule_reference import schedule_ledger_loop
from tests.shadow_reference import balls_loop, open_shadow_loop
from tests.visit_rows import assert_rows_match_oracle

UP = np.array([0.0, 1.0])


def flat_base_with_stack(n_base=400, spacing=0.005, stack=((0.0, 0.611),)):
    tt = np.arange(n_base) * spacing
    base = np.column_stack([tt, np.zeros_like(tt)])
    coords = np.vstack([base, np.asarray(stack, dtype=float)])
    return WeightedCloud(coords, np.ones(len(coords)), n=1, delta_res=spacing)


def entry_report(cloud, alpha=0.1, w=UP, subset=None, oracle=False):
    """One-sided counts of the subset (default: the whole cloud): refine_once's input.
    Under ``oracle`` its table, which the pass filters, takes every pair."""
    subset = cloud.all_indices() if subset is None else subset
    return visitation_counts(cloud, subset, alpha, direction=w, oracle=oracle)


def verify_outcome_invariants(cloud, outcome):
    """Re-check the ledger invariants independently of the implementation."""
    saved = [set(map(int, s)) for s in outcome.saved]
    deleted = [set(map(int, d)) for d in outcome.deleted]
    # saved sets pairwise disjoint, and disjoint from every deleted set
    for i in range(len(saved)):
        for j in range(i + 1, len(saved)):
            assert not (saved[i] & saved[j])
        for dset in deleted:
            assert not (saved[i] & dset)
    # union of saved sets survives into the final remaining set
    remaining = set(map(int, outcome.remaining))
    for s in saved:
        assert s <= remaining
    # deleted sets pairwise disjoint (each was removed from the live set)
    for i in range(len(deleted)):
        for j in range(i + 1, len(deleted)):
            assert not (deleted[i] & deleted[j])
    # direction coordinates of the chosen bad points never decrease
    heights = [rec.x_coord[-1] for rec in outcome.records]
    assert all(a <= b + 1e-12 for a, b in zip(heights, heights[1:]))
    # saved mass dominates deleted mass at the recorded ratio
    delta_n = cloud.delta_res**cloud.n
    for rec in outcome.records:
        assert rec.mass_saved >= outcome.saved_ratio * max(rec.mass_deleted,
                                                           delta_n) - 1e-9


class TestRefineOnce:
    def test_vacuous_refinement_stops_immediately(self):
        # A report with no visits (M = 0) has nothing to refine: the pass
        # refuses it instead of claiming an (alpha/2, -1) bound.
        cloud = lipschitz_graph(150, 0.2, seed=0)
        entry = entry_report(cloud)
        assert entry.max_count == 0
        with pytest.raises(InputError, match="nothing to refine"):
            refine_once(cloud, entry)

    def test_crafted_stack_instance(self):
        # 400 unit-weight base points plus one stacked outlier: the shadowed
        # base points are sparse enough that the no-bad-points rule fires and
        # the output drops the shadow, keeping >= 75% with zero visits left.
        cloud = flat_base_with_stack()
        out = refine_once(cloud, entry_report(cloud))
        assert out.max_count == 1
        assert out.certificate.max_count == 0
        assert out.mass_retained >= 0.75 * cloud.mass()
        verify_outcome_invariants(cloud, out)

    def test_deletion_path_removes_shadow(self):
        # A taller stack with a forced badness density exercises the
        # saved-ball / deleted-shadow loop; the stack is the shadow.
        cloud = flat_base_with_stack(stack=((1.0, 1.77),))
        out = refine_once(cloud, entry_report(cloud), RefineConfig(epsilon=1.0))
        assert out.iterations >= 1
        deleted = np.concatenate(out.deleted)
        assert 400 in deleted  # the stack point index
        assert out.certificate.max_count == 0
        verify_outcome_invariants(cloud, out)

    def test_tight_cluster_triggers_first_stop(self):
        # Half the mass sits in one tiny ball, so saving it satisfies the
        # mass-accounting stop at the first or second iteration.
        cl_t = np.arange(5) * 2e-4
        cluster = np.column_stack([cl_t, np.zeros_like(cl_t)])
        stack = np.array([[4e-4, 1.43]])
        tt = 0.2 + np.arange(400) * 0.005
        base = np.column_stack([tt, np.zeros_like(tt)])
        coords = np.vstack([cluster, stack, base])
        weights = np.concatenate([np.full(5, 100.0), [1.0], np.ones(400)])
        cloud = WeightedCloud(coords, weights, n=1, delta_res=0.005)
        out = refine_once(cloud, entry_report(cloud), RefineConfig(epsilon=10.0))
        assert out.status == "stopped_1"
        assert out.iterations <= 2
        assert out.mass_retained >= cloud.mass() / 2 - 1e-9
        verify_outcome_invariants(cloud, out)

    def test_iteration_bound(self):
        cloud = flat_base_with_stack(stack=((1.0, 1.77),))
        out = refine_once(cloud, entry_report(cloud), RefineConfig(epsilon=1.0))
        if out.iterations and out.saved_ratio > 0:
            bound = math.ceil(2 * cloud.mass()
                              / (out.saved_ratio * cloud.delta_res**cloud.n))
            assert out.iterations <= bound

    def test_parameter_validation(self):
        cloud = flat_base_with_stack(n_base=20)
        with pytest.raises(InputError, match="one-sided"):
            refine_once(cloud, visitation_counts(cloud, cloud.all_indices(), 0.1))
        with pytest.raises(InputError, match="aperture"):
            refine_once(cloud, entry_report(cloud, alpha=0.4))
        with pytest.raises(InputError, match="nothing to refine"):
            refine_once(cloud, entry_report(cloud, subset=np.empty(0, dtype=int)))

    def test_resolution_exhausted_when_retries_cannot_shed_neighbor(self, monkeypatch):
        # A companion point never sees the witness in its widened cone; with
        # the shrink budget too small to push it out of the enlarged ball,
        # no saved-ball radius can be committed.
        coords = np.array([[0.0, 0.0], [0.08, 0.0], [0.0, 0.7]])
        cloud = WeightedCloud(coords, np.ones(3), n=1, delta_res=0.01)
        monkeypatch.setattr(refine_module, "_MAX_C_RETRIES", 1)
        with pytest.raises(ResolutionExhaustedError):
            refine_once(cloud, entry_report(cloud), RefineConfig(epsilon=1e-9))

    def test_tiny_scale_visit_still_commits(self):
        # The first candidate radius starts far below the resolution; the
        # loop must shrink the enlarged ball down to the bad point and
        # commit rather than give up.
        coords = np.array([[0.0, 0.0], [0.009, 0.0], [0.0, 0.022]])
        cloud = WeightedCloud(coords, np.ones(3), n=1, delta_res=0.01)
        out = refine_once(cloud, entry_report(cloud), RefineConfig(epsilon=1e-9))
        assert out.certificate.max_count == 0
        verify_outcome_invariants(cloud, out)

    def test_open_shadow_is_interior_of_closed_shadow(self):
        # At j_k = 0 the closed shadow is the cone cut to [1/4, 2].  Its
        # interior holds the radii 1/2 and 1 that adjacent shells share, but
        # not the rims 1/4 and 2 or the points outside the cone, whether
        # j_k = 0 is inside the entry table's scales, at either end or alone.
        coords = np.array([[0.0, 0.0], [0.0, 0.25], [0.0, 0.5], [0.0, 1.0],
                           [0.0, 1.5], [0.0, 2.0], [0.0, -1.0], [0.5, 1.0]])
        cloud = WeightedCloud(coords, np.ones(len(coords)), n=1, delta_res=0.01)
        center, alive = np.array([0]), np.ones(len(cloud), dtype=bool)
        for j_min, j_max in ((-1, 1), (0, 3), (-3, 0), (0, 0)):
            table = ShellTable(cloud, cloud.all_indices(), 0.1, ScaleRange(j_min, j_max), UP)
            near, _ = _near(cloud, coords[0], 0, 0.1 / 64.0, alive, table.js)
            shadow = _open_shadow(cloud, table, cloud.all_indices(), center, near, alive, 0)
            assert list(shadow) == [2, 3, 4]
        holds = [_in_closed_shadow(cloud, center, UP, 0.1, 0, coords[z])[0] for z in range(8)]
        assert holds == [False] + [True] * 5 + [False, False]

    def test_shell_table_matches_visitation(self):
        cloud = flat_base_with_stack(n_base=120, stack=((0.3, 0.41), (0.31, 0.8)))
        sr = ScaleRange.default_for(cloud)
        table = ShellTable(cloud, cloud.all_indices(), 0.05, sr, UP)
        alive = np.ones(len(cloud), dtype=bool)
        report = visitation_counts(cloud, cloud.all_indices(), 0.05, sr,
                                   direction=UP)
        assert np.array_equal(table.counts(alive), report.counts)
        # masking a point out matches recounting on the reduced subset
        alive[-1] = False
        reduced = visitation_counts(cloud, cloud.all_indices()[:-1], 0.05, sr,
                                    direction=UP, oracle=True)
        assert np.array_equal(table.counts(alive)[:-1], reduced.counts)
        assert_rows_match_oracle(cloud, table, alive)

    @pytest.mark.parametrize("oracle", [False, True])
    def test_output_certificate_catches_a_planted_visit(self, monkeypatch, oracle):
        # The deletion loop's first recount is blinded to every visit, so the
        # loop stops at once and keeps the outlier above the base: the output
        # certificate, not the loop, must find the visit that survives.
        class BlindOnce(ShellTable):
            calls = 0

            def counts(self, alive):
                BlindOnce.calls += 1
                got = super().counts(alive)
                return np.zeros_like(got) if BlindOnce.calls == 1 else got

        cloud = flat_base_with_stack()
        entry = entry_report(cloud, oracle=oracle)
        monkeypatch.setattr(refine_module, "ShellTable", BlindOnce)
        with pytest.raises(AlgorithmInvariantViolation, match="output certificate"):
            refine_once(cloud, entry)


class TestOneNeighbourhoodQuery:
    """A step reads its saved ball and enlarged ball at a scale from one ball
    query around the bad point (``_near``), and its open shadow from the
    entry table's rows, with the query's points at the ends of the scales."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), d=st.sampled_from([2, 3]), offset=st.sampled_from([0.0, 1e3]),
           ends=st.sampled_from(["interior", "j_min", "j_max", "one_scale"]))
    def test_matches_the_per_center_ball_queries(self, data, d, offset, ends):
        # Points sit on the shell radii 2^(-j-2) .. 2^(-j+1), the saved radius
        # r_k and the enlarged radius 100 r_k around the bad point and around
        # centers on and inside the enlarged ball, along w, on the edge of the
        # alpha-cone and at random; the offset makes their distances round.
        # The entry table spans the whole cloud, the pass a subset of it.
        j_k = data.draw(st.integers(-1, 4), label="j_k")
        alpha = data.draw(st.sampled_from([0.1, 0.05, 0.0125]), label="alpha")
        c = alpha * data.draw(st.sampled_from([1.0 / 64.0, 0.25]), label="c_factor")
        below, above = (data.draw(st.integers(1, 3), label=side) for side in ("below", "above"))
        scale_range = {"interior": ScaleRange(j_k - below, j_k + above),
                       "j_min": ScaleRange(j_k, j_k + above),
                       "j_max": ScaleRange(j_k - below, j_k),
                       "one_scale": ScaleRange(j_k, j_k)}[ends]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        w = np.zeros(d)
        w[-1] = 1.0
        if data.draw(st.booleans(), label="tilted"):
            w = w + rng.normal(size=d) * 0.3
            w /= np.linalg.norm(w)

        def units():
            side = rng.normal(size=d)
            side -= (side @ w) * w
            side /= np.linalg.norm(side)
            edge = np.sqrt(1.0 - alpha * alpha) * w + alpha * side
            rand = rng.normal(size=d)
            return [w, edge, -w, rand / np.linalg.norm(rand)]

        scale, r_k = 2.0 ** -j_k, c * 2.0 ** -j_k
        radii = [scale / 4, scale / 2, scale, 2 * scale, r_k, 100 * r_k]
        bases = [np.zeros(d)] + [100 * r_k * f * u for f in (1.0, rng.uniform())
                                 for u in units()[1:]]
        coords = [b + r * u for b in bases for r in radii for u in units()]
        coords += list(rng.uniform(-2 * scale, 2 * scale, (20, d)))
        coords = offset + np.array(bases + coords)
        whole = WeightedCloud(coords, np.ones(len(coords)), n=d - 1, delta_res=1e-9,
                              check_separation=False)
        table = ShellTable(whole, whole.all_indices(), alpha, scale_range, w)
        members = np.flatnonzero((rng.random(len(whole)) < 0.9) | (np.arange(len(whole)) == 0))
        cloud = whole.subcloud(members)
        alive = rng.random(len(cloud)) < 0.8
        alive[0] = True
        exactly_m = alive & (rng.random(len(cloud)) < 0.6)
        x = cloud.coords[0]
        near, dist_sq = _near(cloud, x, j_k, c, alive, table.js)
        c_try = c
        for _ in range(4):
            r_k = c_try * 2.0 ** (-float(j_k))
            s_k = near[exactly_m[near] & (dist_sq <= r_k * r_k)]
            b_k = near[dist_sq <= (100.0 * r_k) * (100.0 * r_k)]
            want_s, want_b = balls_loop(cloud, x, r_k, exactly_m, alive)
            assert np.array_equal(s_k, want_s) and np.array_equal(b_k, want_b)
            want = open_shadow_loop(cloud, b_k, w, alpha, j_k, alive)
            with pytest.MonkeyPatch.context() as patch:
                for budget in (1, 7, shells._CHUNK):
                    patch.setattr(shells, "_CHUNK", budget)
                    got = _open_shadow(cloud, table, members, b_k, near, alive, j_k)
                    assert np.array_equal(got, want)
            c_try /= 2.0

    def test_one_ball_query_per_scale_tried(self, monkeypatch):
        # union_refine's default input: 115 scales tried over the run's passes,
        # each its witness lookup and its one ball query (810 queries when each
        # shrink try and each center made its own).
        calls = {"ball": 0, "witness": 0}

        def counted(name, method):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(GridIndex, "ball", counted("ball", GridIndex.ball))
        monkeypatch.setattr(ShellTable, "witness", counted("witness", ShellTable.witness))
        run_pipeline(union_of_graphs(n_points=800, seed=2), PipelineConfig(seed=4))
        assert calls == {"ball": 115, "witness": 115}

    def test_one_count_per_iteration(self, monkeypatch):
        # union_refine's default input: its 115-iteration pass counts once
        # before the loop, once per try that reaches the recount (whose
        # committed count the next iteration reads) and once for its output
        # certificate (232 when every iteration counted its set again).
        calls, outcomes, count, once = [0], [], ShellTable.counts, refine_module.refine_once

        def counted(self, alive):
            calls[0] += 1
            return count(self, alive)

        def spy(*args, **kwargs):
            before = calls[0]
            outcome = once(*args, **kwargs)
            outcomes.append((outcome.iterations, calls[0] - before))
            return outcome

        monkeypatch.setattr(ShellTable, "counts", counted)
        monkeypatch.setattr(refine_module, "refine_once", spy)
        run_pipeline(union_of_graphs(n_points=800, seed=2), PipelineConfig(seed=4))
        (iterations, counted_calls), = [o for o in outcomes if o[0]]
        assert iterations == 115 and counted_calls <= 117


class TestDenseRows:
    """The pass's bad-point test, kept across iterations, against the dense
    table of every iteration."""

    RADII = np.array([0.125, 0.25, 0.5, 1.0])

    @settings(max_examples=200)
    @given(data=st.data(), offset=st.sampled_from([0.0, 1e3]))
    def test_matches_the_dense_test_on_shrinking_carriers(self, data, offset):
        # Points of a dyadic lattice sit exactly at the radii from each other,
        # and weights 1, 1/2 and 2^-52..2^-54 make the sums round, so the
        # running masses and the dense ones differ in their last bits.
        # Epsilon puts one row of a later carrier exactly on the threshold at
        # its lowest density ratio: only the margin and the exact recount of
        # the rows within it decide that row as the dense table does.
        k = data.draw(st.integers(2, 40))
        cells = data.draw(st.lists(st.integers(0, 63), min_size=k, max_size=k, unique=True))
        coords = offset + np.array(np.unravel_index(cells, (8, 8)), dtype=float).T / 8.0
        weights = 2.0 ** -np.array(data.draw(st.lists(st.sampled_from([0, 1, 52, 53, 54]),
                                                       min_size=k, max_size=k)), dtype=float)
        sub = WeightedCloud(coords, weights, n=1, delta_res=0.125)
        masks = [np.ones(k, dtype=bool)]
        for _ in range(data.draw(st.integers(1, 8))):
            mask = masks[-1].copy()
            mask[data.draw(st.lists(st.integers(0, k - 1), max_size=4))] = False
            masks.append(mask)
        f_km = np.flatnonzero(masks[data.draw(st.integers(1, len(masks) - 1))])
        if len(f_km):
            row = f_km[data.draw(st.integers(0, len(f_km) - 1))]
            epsilon = (ball_masses(sub, self.RADII, [row], f_km)[0] / self.RADII).min()
        else:
            epsilon = data.draw(st.sampled_from([2.0 ** -60, 2.0 ** -3, 1.0]))
        rows = _DenseRows(sub, self.RADII, epsilon)
        for mask in masks:
            assert np.array_equal(rows.bad(mask), dense_bad(sub, self.RADII, epsilon, mask))

    def test_a_point_joining_the_carrier_is_a_bug(self):
        cloud = flat_base_with_stack(n_base=20)
        rows = _DenseRows(cloud, self.RADII, 1.0)
        first = np.arange(len(cloud)) % 2 == 0
        rows.bad(first)
        with pytest.raises(AlgorithmInvariantViolation, match="joined the exactly-M"):
            rows.bad(first | (np.arange(len(cloud)) == 1))

    def test_a_planted_exactly_m_row_stops_the_pass(self, monkeypatch):
        # From the second count on, base point 0 (count 0, far from the
        # stack over x = 1) reports M visits: it joins the exactly-M set after
        # the set was first tabled, which the pass refuses.  The second count
        # is the first committed try's recount, which the second iteration
        # reads as its own.
        class Planted(ShellTable):
            calls = 0

            def counts(self, alive):
                Planted.calls += 1
                got = super().counts(alive)
                if Planted.calls > 1:
                    got = got.copy()
                    got[0] = 1
                return got

        cloud = flat_base_with_stack(stack=((1.0, 1.77),))
        entry = entry_report(cloud)
        assert entry.max_count == 1 and entry.counts[0] == 0
        monkeypatch.setattr(refine_module, "ShellTable", Planted)
        with pytest.raises(AlgorithmInvariantViolation, match="joined the exactly-M"):
            refine_once(cloud, entry, RefineConfig(epsilon=1.0))
        assert Planted.calls == 2


    @pytest.mark.parametrize("scale_choice", ["largest", "smallest", "random"])
    def test_no_saved_point_rejoins_the_exactly_m_set(self, monkeypatch, scale_choice):
        # A try commits only once the recount puts every alive point of its
        # enlarged ball, saved ball included, below M, and counts only fall:
        # no exactly-M mask of a pass holds a point saved before it.
        passes = []
        bad = _DenseRows.bad

        def spy(self, exactly_m):
            if self.carrier is None:
                passes.append([])
            passes[-1].append(exactly_m.copy())
            return bad(self, exactly_m)

        monkeypatch.setattr(_DenseRows, "bad", spy)
        report = run_pipeline(union_of_graphs(300, seed=2),
                              PipelineConfig(seed=4, refine_scale_choice=scale_choice))
        outcomes = [o for run in report.schedule.runs for o in run.outcomes]
        assert len(passes) == len(outcomes)
        assert max(o.iterations for o in outcomes) >= 100
        for masks, outcome in zip(passes, outcomes):
            # A pass's set is what stayed alive and what it deleted.
            subset = np.sort(np.concatenate([outcome.remaining, *outcome.deleted]))
            assert len(masks) >= outcome.iterations
            for k, mask in enumerate(masks):
                for saved in outcome.saved[:k]:
                    assert not mask[np.searchsorted(subset, saved)].any()


class TestAutoEpsilonProbe:
    """``_auto_epsilon`` hands its dense table to the probe prune's first sweep
    when both scan the same radii."""

    @pytest.mark.parametrize("make, scale_range, handed", [
        (lambda: flat_base_with_stack(stack=((1.0, 1.77),)), None, True),
        (lambda: normalize_to_unit_ball(union_of_graphs(n_points=300, seed=2))[0],
         None, True),
        (lambda: lipschitz_graph(200, 0.3, seed=1), None, True),
        # No radius <= 1: the epsilon probe scans only the finest radius, the
        # prune every radius, so no table is handed over.
        (lambda: lipschitz_graph(200, 0.3, seed=1), ScaleRange(-3, -1), False),
    ], ids=["stack", "union", "graph", "no_unit_radius"])
    def test_same_prune_with_and_without_the_table(self, monkeypatch, make,
                                                   scale_range, handed):
        cloud = make()
        scale_range = scale_range or ScaleRange.default_for(cloud)
        probes = []

        def spy(cloud, epsilon, scale_range, table=None):
            got = prune_low_density(cloud, epsilon, scale_range, table)
            probes.append((table, got, prune_low_density(cloud, epsilon, scale_range)))
            return got

        monkeypatch.setattr(refine_module, "prune_low_density", spy)
        refine_module._auto_epsilon(cloud, scale_range)
        (table, got, want), = probes
        assert (table is not None) == handed
        assert np.array_equal(got.kept_indices, want.kept_indices)
        assert got.removed_mass == want.removed_mass
        assert got.sweeps == want.sweeps


def two_stacks_cloud():
    """A base line with two points stacked over x = 1: M = 2 at alpha = 0.1."""
    return flat_base_with_stack(stack=((1.0, 0.3), (1.0, 0.77)))


def tight_cluster_cloud():
    """Half the mass in one tiny cluster (indices 401-405): the first stop fires."""
    tt = 0.2 + np.arange(400) * 0.005
    base = np.column_stack([tt, np.zeros_like(tt)])
    cluster = np.column_stack([np.arange(5) * 2e-4, np.zeros(5)])
    coords = np.vstack([base, [[4e-4, 1.43]], cluster])
    weights = np.concatenate([np.ones(401), np.full(5, 100.0)])
    return WeightedCloud(coords, weights, n=1, delta_res=0.005)


class TestRefineOnceOnASubset:
    """A pass over a proper subset S of a cloud equals the pass over all of
    S's subcloud, with positions mapped to cloud indices through S."""

    @pytest.mark.parametrize("scale_choice", ["largest", "smallest", "random"])
    @pytest.mark.parametrize("oracle", [False, True])
    @pytest.mark.parametrize("make, epsilon, status", [
        (two_stacks_cloud, 1.0, "stopped_2"),
        (tight_cluster_cloud, 10.0, "stopped_1"),
    ], ids=["two_stacks", "tight_cluster"])
    def test_equals_the_pass_on_the_subcloud(self, make, epsilon, status, oracle,
                                             scale_choice):
        cloud = make()
        # Every third base point is left out, so cloud indices and positions
        # in S differ, and points outside S sit inside the balls and shadows.
        subset = np.array([i for i in range(len(cloud)) if i % 3 != 1 or i >= 400])
        sub = cloud.subcloud(subset)
        sr = ScaleRange.default_for(cloud)
        cfg = RefineConfig(epsilon=epsilon, scale_choice=scale_choice, seed=3)
        out = refine_once(cloud, visitation_counts(cloud, subset, 0.1, sr, direction=UP,
                                                   oracle=oracle), cfg)
        ref = refine_once(sub, visitation_counts(sub, sub.all_indices(), 0.1, sr,
                                                 direction=UP, oracle=oracle), cfg)
        assert out.iterations >= 1 and out.status == status
        assert np.array_equal(out.kept, subset[ref.kept])
        assert np.array_equal(out.remaining, subset[ref.remaining])
        for mine, theirs in ((out.saved, ref.saved), (out.deleted, ref.deleted)):
            assert len(mine) == len(theirs)
            assert all(np.array_equal(a, subset[b]) for a, b in zip(mine, theirs))
        assert [r.x_index for r in out.records] == [int(subset[r.x_index])
                                                    for r in ref.records]
        assert ([replace(r, x_index=0) for r in out.records]
                == [replace(r, x_index=0) for r in ref.records])
        assert np.array_equal(out.certificate.subset, subset[ref.certificate.subset])
        assert np.array_equal(out.certificate.counts, ref.certificate.counts)
        assert (out.epsilon, out.mass_retained, out.saved_ratio) == (
            ref.epsilon, ref.mass_retained, ref.saved_ratio)
        assert ({k: v for k, v in out.ledger().items() if k != "iterations"}
                == {k: v for k, v in ref.ledger().items() if k != "iterations"})
        verify_outcome_invariants(cloud, out)


def assert_same_pass(out, ref):
    """Two outcomes of one pass: equal ledgers and equal kept, remaining, saved
    and deleted arrays."""
    assert json.dumps(out.ledger()) == json.dumps(ref.ledger())
    for name in ("kept", "remaining"):
        assert np.array_equal(getattr(out, name), getattr(ref, name))
    for mine, theirs in ((out.saved, ref.saved), (out.deleted, ref.deleted)):
        assert len(mine) == len(theirs)
        assert all(np.array_equal(a, b) for a, b in zip(mine, theirs))
    assert out.records == ref.records
    assert np.array_equal(out.certificate.counts, ref.certificate.counts)


def _visited_js(cloud, alpha):
    """The scales of the default range that the upward alpha table visits, ascending."""
    table = entry_report(cloud, alpha).table
    word = np.bitwise_or.reduce(table.bits)
    return table.js[(word >> np.arange(len(table.js), dtype=np.uint64)) & 1 != 0]


class TestRefineOnceEqualsTheLoop:
    """A pass that reads its shadows from the entry table and counts once per
    iteration equals the step-by-step loop on dense neighbourhoods."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), source=st.sampled_from(["stack", "union"]),
           scale_choice=st.sampled_from(["largest", "smallest", "random"]),
           ends=st.sampled_from(["default", "j_min", "j_max", "one_scale"]))
    def test_equals_the_dense_loop(self, data, source, scale_choice, ends):
        # The scale range starts or ends at a visited scale, or holds only
        # one, so steps run at j_k = j_min and at j_k = j_max.
        if source == "stack":
            heights = 0.005 * np.array(data.draw(st.lists(st.integers(40, 380), min_size=1,
                                                          max_size=3, unique=True),
                                                 label="heights"))
            n_base = data.draw(st.integers(60, 300), label="n_base")
            site = 0.005 * data.draw(st.integers(0, n_base - 1), label="site")
            cloud = flat_base_with_stack(n_base, stack=tuple((site, h) for h in heights))
        else:
            cloud = union_of_graphs(n_points=data.draw(st.integers(60, 300), label="n_points"),
                                    seed=data.draw(st.integers(0, 20), label="seed"))
        alpha = data.draw(st.sampled_from([0.1, 0.05]), label="alpha")
        visited = _visited_js(cloud, alpha)
        assume(len(visited))
        default = ScaleRange.default_for(cloud)
        j = int(data.draw(st.sampled_from(visited), label="j"))
        scale_range = {"default": default, "j_min": ScaleRange(j, default.j_max),
                       "j_max": ScaleRange(default.j_min, j),
                       "one_scale": ScaleRange(j, j)}[ends]
        entry = visitation_counts(cloud, cloud.all_indices(), alpha, scale_range, direction=UP)
        assume(entry.max_count > 0)
        epsilon = data.draw(st.sampled_from([None, 1.0, 0.25]), label="epsilon")
        cfg = RefineConfig(epsilon=epsilon, scale_choice=scale_choice,
                           seed=data.draw(st.integers(0, 3), label="rng"))
        try:
            ref = refine_once_loop(cloud, entry, cfg)
        except ResolutionExhaustedError:
            with pytest.raises(ResolutionExhaustedError):
                refine_once(cloud, entry, cfg)
            return
        assert_same_pass(refine_once(cloud, entry, cfg), ref)
        steps = {r.j_k for r in ref.records}
        event(f"steps: {bool(steps)}, at j_min: {scale_range.j_min in steps}, "
              f"at j_max: {scale_range.j_max in steps}")

    @pytest.mark.parametrize("scale_choice", ["largest", "smallest", "random"])
    @pytest.mark.parametrize("j_min, j_max", [(0, 3), (-2, 0), (0, 0)],
                             ids=["j_min", "j_max", "one_scale"])
    def test_steps_at_the_ends_of_the_scales(self, j_min, j_max, scale_choice):
        # Both stacked points lie within [1/2, 1] of the base and of each
        # other's shells at scale 0 only: every step runs at j_k = 0.
        cloud = flat_base_with_stack(stack=((1.0, 0.611), (1.0, 0.77)))
        entry = visitation_counts(cloud, cloud.all_indices(), 0.1, ScaleRange(j_min, j_max),
                                  direction=UP)
        cfg = RefineConfig(epsilon=1.0, scale_choice=scale_choice, seed=1)
        out = refine_once(cloud, entry, cfg)
        assert out.iterations >= 1 and {r.j_k for r in out.records} == {0}
        assert_same_pass(out, refine_once_loop(cloud, entry, cfg))


def test_an_unsorted_entry_report_refines_its_sorted_set():
    # A pass's positions are the rows of its table, which sorts the subset: a
    # report that lists its vertices out of order must give the same pass.
    cloud = two_stacks_cloud()
    entry = entry_report(cloud)
    order = np.random.default_rng(1).permutation(len(entry.subset))
    shuffled = replace(entry, subset=entry.subset[order], counts=entry.counts[order])
    cfg = RefineConfig(epsilon=1.0)
    out, ref = refine_once(cloud, shuffled, cfg), refine_once(cloud, entry, cfg)
    assert ref.iterations >= 1
    for name in ("kept", "remaining"):
        assert np.array_equal(getattr(out, name), getattr(ref, name))
    for mine, theirs in ((out.saved, ref.saved), (out.deleted, ref.deleted)):
        assert len(mine) == len(theirs)
        assert all(np.array_equal(a, b) for a, b in zip(mine, theirs))
    assert out.records == ref.records
    assert np.array_equal(out.certificate.subset, ref.certificate.subset)
    assert np.array_equal(out.certificate.counts, ref.certificate.counts)


class TestRefineSchedule:
    def _cover(self, theta, m0, seed=0):
        return build_cover_for_theta(Subspace.vertical_axis(2, 1), theta,
                                     s=2.0 ** (-m0), check_samples=8_000,
                                     net_samples=60_000, seed=seed)

    def test_low_slope_graph_is_untouched(self):
        # 1/theta above the slope: every pair stays far from the cone, all
        # directions see zero visits, the set passes through unchanged.
        cloud = lipschitz_graph(250, 0.2, seed=2)
        theta = 0.5
        report = visitation_counts(cloud, cloud.all_indices(), theta)
        assert report.max_count == 0
        cover = self._cover(theta, 0)
        result = refine_schedule(cloud, cloud.all_indices(), cover)
        assert np.array_equal(result.e3, cloud.all_indices())
        assert result.final_certificate.max_count == 0

    def test_m0_zero_is_noop(self):
        cloud = lipschitz_graph(100, 0.1, seed=3)
        cover = self._cover(0.3, 0)
        result = refine_schedule(cloud, cloud.all_indices(), cover)
        assert np.array_equal(result.e3, cloud.all_indices())
        assert result.runs == []

    @staticmethod
    def _embedded_stack():
        rng = np.random.default_rng(8)
        tt = np.unique(np.sort(rng.uniform(0, 1, 350).round(4) * 0.99 + 0.005))
        base = np.column_stack([tt, 0.05 * np.sin(3 * tt)])
        site = base[len(base) // 2]
        stack = np.array([[site[0], site[1] + 0.53], [site[0], site[1] + 0.29]])
        coords = np.vstack([base, stack])
        return WeightedCloud(coords, np.full(len(coords), 1.0 / len(coords)),
                             n=1, delta_res=0.004)

    def test_embedded_stack_end_to_end(self):
        cloud = self._embedded_stack()
        theta = 0.04
        m0 = visitation_counts(cloud, cloud.all_indices(), theta).max_count
        assert m0 >= 1
        cover = self._cover(theta, m0)
        result = refine_schedule(cloud, cloud.all_indices(), cover,
                                 RefineConfig(epsilon=0.5))
        assert cloud.mass(result.e3) >= 0.5 * cloud.mass()
        assert result.final_certificate.max_count == 0
        assert result.theta_certified == pytest.approx(cover.alpha)
        assert any(run.applications for run in result.runs)
        for run in result.runs:
            assert run.reached_target_aperture
            assert run.applications == len(run.outcomes) <= run.initial_count
            assert run.final_aperture == cover.alpha / 2.0 ** run.applications
            # each pass refines, at half the aperture, the set the previous one kept
            for first, second in zip(run.outcomes, run.outcomes[1:]):
                assert second.alpha == first.alpha / 2.0
                assert second.max_count <= first.max_count - 1
                entered = np.concatenate([second.remaining, *second.deleted])
                assert np.array_equal(np.sort(entered), first.kept)

    def test_one_table_per_visited_direction_and_per_pass(self, monkeypatch):
        # Given a root table, the schedule counts at cover.alpha each direction
        # that the incidence pass names; every pass then builds only its alpha/2
        # table, filtering the table built just before it, with no recount of
        # the entry set.  The direction counts and the final two-sided check
        # filter the root's pairs: none runs a candidate search of its own.
        built = []

        class Counted(ShellTable):
            def __init__(self, cloud, subset, aperture, scale_range, direction=None,
                         oracle=False, parent=None):
                super().__init__(cloud, subset, aperture, scale_range, direction, oracle,
                                 parent)
                built.append((direction is None, aperture, parent, self))

        def no_search(*args):
            raise AssertionError("a table filtering the root searched for candidates")

        counted = []

        def counting(*args, **kwargs):
            counted.append(kwargs["direction"] is None)
            return visitation_counts(*args, **kwargs)

        cloud = self._embedded_stack()
        theta = 0.04
        root = ShellTable(cloud, cloud.all_indices(), theta, ScaleRange.default_for(cloud))
        cover = self._cover(theta, root.visits().max_count)
        visited = shells.visited_directions(root, cloud.all_indices(), cover.directions,
                                            cover.alpha)
        alone = refine_schedule(cloud, cloud.all_indices(), cover, RefineConfig(epsilon=0.5))
        for module in (refine_module, audit):
            monkeypatch.setattr(module, "ShellTable", Counted)
        monkeypatch.setattr(refine_module, "visitation_counts", counting)
        monkeypatch.setattr(shells, "_candidate_pairs", no_search)
        result = refine_schedule(cloud, cloud.all_indices(), cover,
                                 RefineConfig(epsilon=0.5), root)
        passes = sum(run.applications for run in result.runs)
        named = int(np.count_nonzero(visited))
        assert passes >= 1 and named >= 1
        assert all(visited[k] for k, run in enumerate(result.runs) if run.initial_count)
        assert len(built) == named + passes + 1
        assert [two_sided for two_sided, *_ in built] == [False] * (named + passes) + [True]
        assert built[-1][1] == cover.alpha
        assert sum(parent is root for *_, parent, _ in built) == named + 1
        for (*_, parent, _), (*_, before) in zip(built[1:], built):
            assert parent is root or parent is before
        # The direction counts and the final check go through visitation_counts.
        assert counted == [False] * named + [True]
        assert json.dumps(result.ledger()) == json.dumps(alone.ledger())
        assert np.array_equal(result.e3, alone.e3)

    @pytest.mark.parametrize("oracle", [False, True])
    def test_final_certificate_catches_a_planted_visit(self, oracle):
        # m0 = 0 refines along no direction, so the vertical pair 0.6 apart
        # (in the closed shell [0.5, 1] of a cone at cover.alpha) reaches the
        # final two-sided certificate unchanged.  Under ``oracle`` that check
        # filters an all-pairs root.
        cloud = flat_base_with_stack(n_base=100, spacing=0.01, stack=((0.0, 0.6),))
        cover = self._cover(0.3, 0)
        root = visitation_counts(cloud, cloud.all_indices(), cover.alpha, oracle=oracle)
        assert root.max_count > 0
        with pytest.raises(AlgorithmInvariantViolation, match="final two-sided"):
            refine_schedule(cloud, cloud.all_indices(), cover,
                            parent=root.table if oracle else None)

    def test_mass_floor_collapse(self):
        cloud = flat_base_with_stack(stack=((1.0, 1.77),))
        theta = 0.25
        m0 = visitation_counts(cloud, cloud.all_indices(), theta).max_count
        assert m0 >= 1
        cover = self._cover(theta, m0)
        cfg = RefineConfig(epsilon=1.0, min_mass_fraction=1.01)
        with pytest.raises(RefinementCollapsedError) as exc:
            refine_schedule(cloud, cloud.all_indices(), cover, cfg)
        assert exc.value.ledger and exc.value.ledger[0]["M"] >= 1

    def test_ledger_serializes(self):
        cloud = flat_base_with_stack(stack=((1.0, 1.77),))
        out = refine_once(cloud, entry_report(cloud), RefineConfig(epsilon=1.0))
        ledger = json.loads(json.dumps(out.ledger(), sort_keys=True))
        assert ledger["schema"] == "graphcarve/1"
        assert (ledger["alpha"], ledger["M"], ledger["direction"]) == (0.1, 1, [0.0, 1.0])
        assert len(ledger["iterations"]) == out.iterations >= 1


def _union3(k):
    """CI's d = 3 union at k points a graph: two Lipschitz graphs over a line in
    R^3, the second lifted by 0.5, with half the mass each (m0 = 1)."""
    parts, weights, h = [], [], 1.0
    for g, (lip, offset) in enumerate(((0.1, 0.0), (0.25, 0.5))):
        piece = lipschitz_graph(k, lip, d=3, n=1, seed=2 + 17 * g)
        coords = piece.coords.copy()
        coords[:, -1] += offset
        parts.append(coords)
        weights.append(piece.weights / 2.0)
        h = min(h, piece.delta_res)
    return WeightedCloud(np.concatenate(parts), np.concatenate(weights), n=1, delta_res=h)


def _tables_held(obj, seen=None) -> int:
    """ShellTables reachable from ``obj`` through containers and instance fields."""
    seen = set() if seen is None else seen
    if isinstance(obj, ShellTable):
        return 1
    if id(obj) in seen or isinstance(obj, (type, types.ModuleType, np.ndarray, str)):
        return 0
    seen.add(id(obj))
    return sum(_tables_held(ref, seen) for ref in gc.get_referents(obj))


class TestOneCostPerRun:
    """A schedule fits epsilon once, to e2, and builds tables only for the
    directions the incidence pass names; its ledger is that of a loop with a
    table for every direction and the same epsilon."""

    @staticmethod
    def _stack_schedule_input():
        cloud = TestRefineSchedule._embedded_stack()
        m0 = visitation_counts(cloud, cloud.all_indices(), 0.04).max_count
        return cloud, TestRefineSchedule()._cover(0.04, m0)

    def test_epsilon_is_fitted_once_per_schedule_and_per_pass(self, monkeypatch):
        fitted = []
        fit = refine_module._auto_epsilon

        def counted(cloud, scale_range):
            fitted.append(cloud.coords.copy())
            return fit(cloud, scale_range)

        monkeypatch.setattr(refine_module, "_auto_epsilon", counted)
        cloud, cover = self._stack_schedule_input()
        e2 = np.delete(cloud.all_indices(), np.arange(0, 40, 4))
        result = refine_schedule(cloud, e2, cover)
        passes = [o for run in result.runs for o in run.outcomes]
        assert len(passes) >= 2
        assert len(fitted) == 1 and np.array_equal(fitted[0], cloud.coords[e2])
        assert {o.epsilon for o in passes} == {fit(cloud.subcloud(e2),
                                                   ScaleRange.default_for(cloud))}
        fitted.clear()
        for stack in (two_stacks_cloud(), tight_cluster_cloud()):
            refine_once(stack, entry_report(stack))
        assert len(fitted) == 2

    def test_no_finished_outcome_holds_a_table(self):
        cloud, cover = self._stack_schedule_input()
        result = refine_schedule(cloud, cloud.all_indices(), cover)
        passes = [o for run in result.runs for o in run.outcomes]
        assert passes and all(_tables_held(o) == 0 for o in passes)
        # A standalone pass keeps its certificate and the table that counted it.
        alone = refine_once(cloud, visitation_counts(cloud, cloud.all_indices(), cover.alpha,
                                                     direction=result.runs[0].direction))
        assert _tables_held(alone) == 1

    @pytest.mark.parametrize("source", ["stack", "union", "union3"])
    def test_ledger_equals_the_per_direction_loop(self, source):
        if source == "stack":
            cloud, cover = self._stack_schedule_input()
            e2, result = cloud.all_indices(), None
        else:
            report = run_pipeline(union_of_graphs(300, seed=2) if source == "union"
                                  else _union3(60), PipelineConfig(seed=4))
            cloud, cover, e2 = report.cloud_e, report.cover, report.e2_indices
            result = report.schedule
        result = result or refine_schedule(cloud, e2, cover)
        assert sum(run.applications for run in result.runs) >= 1
        epsilon = refine_module._auto_epsilon(cloud.subcloud(e2), ScaleRange.default_for(cloud))
        want = schedule_ledger_loop(cloud, e2, cover, RefineConfig(epsilon=epsilon))
        assert json.dumps(result.ledger()) == json.dumps(want)
