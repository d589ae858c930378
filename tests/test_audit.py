import numpy as np
import pytest

from graphcarve import (
    InputError,
    ScaleRange,
    WeightedCloud,
    bad_set,
    lipschitz_graph,
    outlier_stacks,
    visitation_counts,
)
from graphcarve.shells import ShellTable
from tests.cones import ConeSpec, cone_contains
from tests.visit_rows import assert_rows_match_oracle


def stack3():
    coords = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
    return WeightedCloud(coords, np.ones(3), n=1, delta_res=0.1)


class TestVisitationCounts:
    def test_three_point_stack_two_sided(self):
        # Hand check: from (0,0), the shell [1/2, 1] holds (0,1) and the
        # shell [1, 2] holds (0,2); no other shells meet the set.
        cloud = stack3()
        report = visitation_counts(cloud, cloud.all_indices(), 0.5,
                                   ScaleRange(-1, 2))
        assert list(report.counts) == [2, 2, 2]
        table = ShellTable(cloud, cloud.all_indices(), 0.5, ScaleRange(-1, 2))
        assert list(table.scales(0, np.ones(3, dtype=bool))) == [-1, 0]

    def test_horizontal_cloud_never_visits(self):
        coords = np.column_stack([np.arange(6) * 0.3, np.zeros(6)])
        cloud = WeightedCloud(coords, np.ones(6), n=1, delta_res=0.1)
        report = visitation_counts(cloud, cloud.all_indices(), 0.9,
                                   ScaleRange(-1, 2))
        assert report.max_count == 0

    def test_one_sided_stack(self):
        cloud = stack3()
        up = np.array([0.0, 1.0])
        report = visitation_counts(cloud, cloud.all_indices(), 0.5,
                                   ScaleRange(-1, 2), direction=up)
        assert list(report.counts) == [2, 2, 0]

    def test_witnesses_satisfy_cone_membership(self):
        cloud = stack3()
        table = ShellTable(cloud, cloud.all_indices(), 0.5, ScaleRange(-1, 2),
                           np.array([0.0, 1.0]))
        alive = np.ones(3, dtype=bool)
        for pos, v in enumerate(table.subset):
            for j in table.scales(pos, alive):
                witness = table.witness(pos, int(j), alive)
                cone = ConeSpec.one_sided_cone(cloud.coords[v], [0.0, 1.0], 0.5,
                                               radii=(2.0 ** -j, 2.0 ** (-j - 1)))
                assert cone_contains(cone, cloud.coords[witness])

    def test_count_equals_scale_list_length(self):
        cloud = stack3()
        report = visitation_counts(cloud, cloud.all_indices(), 0.5, ScaleRange(-1, 2))
        table = ShellTable(cloud, cloud.all_indices(), 0.5, ScaleRange(-1, 2))
        alive = np.ones(3, dtype=bool)
        for row in range(len(report.subset)):
            assert report.counts[row] == len(table.scales(row, alive))
        assert_rows_match_oracle(cloud, table)

    def test_vertex_never_witnesses_itself(self):
        cloud = WeightedCloud(np.array([[0.0, 0.0], [5.0, 5.0]]), np.ones(2),
                              n=1, delta_res=0.1)
        report = visitation_counts(cloud, np.array([0]), 0.5, ScaleRange(0, 2))
        assert report.max_count == 0

    def test_grid_equals_oracle(self, rng):
        for trial in range(12):
            cloud = outlier_stacks(n_base=80, lip=0.2, n_stacks=3,
                                   points_per_stack=4, max_height=0.7,
                                   seed=trial)
            aperture = float(rng.uniform(0.05, 0.6))
            direction = None
            if trial % 2:
                w = rng.standard_normal(2)
                direction = w / np.linalg.norm(w)
            fast = visitation_counts(cloud, cloud.all_indices(), aperture,
                                     direction=direction, oracle=False)
            slow = visitation_counts(cloud, cloud.all_indices(), aperture,
                                     direction=direction, oracle=True)
            assert np.array_equal(fast.counts, slow.counts)
            assert_rows_match_oracle(cloud, ShellTable(
                cloud, cloud.all_indices(), aperture, ScaleRange.default_for(cloud),
                direction))

    def test_monotone_in_subset_and_aperture(self, rng):
        cloud = outlier_stacks(n_base=120, lip=0.3, n_stacks=4,
                               points_per_stack=5, seed=3)
        full = visitation_counts(cloud, cloud.all_indices(), 0.4)
        half_idx = cloud.all_indices()[::2]
        half = visitation_counts(cloud, half_idx, 0.4)
        pos = {int(v): i for i, v in enumerate(full.subset)}
        for i, v in enumerate(half.subset):
            assert half.counts[i] <= full.counts[pos[int(v)]]
        narrow = visitation_counts(cloud, cloud.all_indices(), 0.1)
        assert np.all(narrow.counts <= full.counts)

    def test_removing_witnesses_removes_scale(self):
        cloud = stack3()
        sr = ScaleRange(-1, 2)
        up = np.array([0.0, 1.0])
        table = ShellTable(cloud, cloud.all_indices(), 0.5, sr, up)
        assert 0 in table.scales(0, np.ones(3, dtype=bool))  # (0,1) witnesses scale 0
        without = ShellTable(cloud, np.array([0, 2]), 0.5, sr, up)
        assert 0 not in without.scales(0, np.ones(2, dtype=bool))

    def test_resolution_floor_validated(self):
        cloud = stack3()
        with pytest.raises(InputError):
            visitation_counts(cloud, cloud.all_indices(), 0.5, ScaleRange(4, 8))

    @pytest.mark.parametrize("direction", [[np.nan, 1.0], [np.inf, 1.0], [0.0, 2.0]])
    def test_direction_must_be_a_unit_vector(self, direction):
        cloud = stack3()
        with np.errstate(invalid="ignore"), pytest.raises(InputError, match="unit vector"):
            visitation_counts(cloud, cloud.all_indices(), 0.5, direction=np.array(direction))


class TestBadSet:
    def test_at_least_selects_stack_base(self):
        cloud = stack3()
        report = visitation_counts(cloud, cloud.all_indices(), 0.5, ScaleRange(-1, 2),
                                   direction=np.array([0.0, 1.0]))
        got = bad_set(report, 2, flavor="at_least")
        assert np.array_equal(got, [0, 1])

    def test_threshold_zero_is_everything(self):
        cloud = stack3()
        report = visitation_counts(cloud, cloud.all_indices(), 0.5, ScaleRange(-1, 2))
        got = bad_set(report, 0, flavor="at_least")
        assert np.array_equal(got, cloud.all_indices())

    def test_exactly_above_range_is_empty(self):
        cloud = stack3()
        sr = ScaleRange(-1, 2)
        report = visitation_counts(cloud, cloud.all_indices(), 0.5, sr)
        got = bad_set(report, len(sr.js) + 1, flavor="exactly")
        assert len(got) == 0

    def test_flavor_validation(self):
        cloud = stack3()
        report = visitation_counts(cloud, cloud.all_indices(), 0.5)
        with pytest.raises(InputError):
            bad_set(report, 1, flavor="roughly")
        with pytest.raises(InputError):
            bad_set(report, -1)

    def test_exactly_partition(self):
        cloud = outlier_stacks(n_base=100, lip=0.2, n_stacks=3,
                               points_per_stack=4, seed=9)
        sr = ScaleRange.default_for(cloud)
        report = visitation_counts(cloud, cloud.all_indices(), 0.3, sr)
        total = 0
        for m in range(report.max_count + 1):
            total += len(bad_set(report, m, flavor="exactly"))
        assert total == len(cloud)


class TestGraphSlopeInteraction:
    def test_low_slope_graph_has_zero_counts_at_small_aperture(self):
        # Slope arithmetic: pairs on a 0.2-graph keep >= 0.98 of their length
        # horizontal, so any aperture below that never fires.
        cloud = lipschitz_graph(300, 0.2, seed=1)
        report = visitation_counts(cloud, cloud.all_indices(), 0.5)
        assert report.max_count == 0
