import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphcarve import (
    InputError,
    ScaleRange,
    Subspace,
    WeightedCloud,
    adr_check,
    four_corner_cantor,
    lipschitz_graph,
    projection_energy,
    prune_low_density,
    pushforward_density,
)
from graphcarve.measure import _CELLS_PER_POINT, _mass_bounds, _unique_rows, ball_masses
from tests.conftest import line_cloud
from tests.prune_reference import prune_dense, prune_radii


def grid_cloud_2d(side):
    """Unit-weight-style lattice on [0,1]^2 discretizing area measure."""
    h = 1.0 / (side - 1)
    axes = np.linspace(0, 1, side)
    xx, yy = np.meshgrid(axes, axes)
    coords = np.column_stack([xx.ravel(), yy.ravel()])
    weights = np.full(len(coords), h * h)
    return WeightedCloud(coords, weights, n=2, delta_res=h), h


class TestDensityProfile:
    def test_single_point(self):
        cloud = WeightedCloud(np.array([[0.5, 0.5]]), np.array([0.7]), n=1,
                              delta_res=0.1)
        assert np.allclose(ball_masses(cloud, ScaleRange(0, 2).radii), 0.7)
        report = adr_check(cloud, ScaleRange(0, 2))  # radii 1, 1/2, 1/4 and n = 1
        assert report.c1_hat == pytest.approx(0.7)
        assert report.c2_hat == pytest.approx(2.8)

    def test_monotone_in_scale_and_floor(self):
        cloud = line_cloud(60, 0.02)
        table = ball_masses(cloud, ScaleRange(1, 5).radii)
        assert np.all(np.diff(table, axis=1) <= 1e-15)
        assert np.all(table >= cloud.weights[:, None] - 1e-15)

    def test_masses_match_brute_force(self, rng):
        cloud = line_cloud(40, 0.03, extra=[[0.2, 0.4], [0.9, -0.3]])
        radii = np.array([0.05, 0.21, 0.8])
        table = ball_masses(cloud, radii)
        for _ in range(15):
            i = int(rng.integers(len(cloud)))
            j = int(rng.integers(len(radii)))
            dist = np.linalg.norm(cloud.coords - cloud.coords[i], axis=1)
            want = cloud.weights[dist <= radii[j]].sum()
            assert table[i, j] == pytest.approx(want, abs=1e-12)

    def test_rows_do_not_depend_on_the_block(self, rng):
        # The exact fallback of the prune recomputes a few rows; each must
        # equal its value in the full pass, bit for bit.
        coords = rng.random((701, 2))
        cloud = WeightedCloud(coords, rng.uniform(0.1, 1.0, 701), n=1, delta_res=1e-4)
        radii = np.array([0.05, 0.2, 0.7])
        full = ball_masses(cloud, radii)
        rows = np.vstack([ball_masses(cloud, radii, [i]) for i in range(len(cloud))])
        assert np.array_equal(full, rows)


class TestAdrCheck:
    def test_planar_grid_constants(self):
        # Oracle: direct counting on the lattice; the area of a ball of
        # radius r clipped to the unit square keeps m(x,r)/r^2 within a
        # factor-few band once r covers >= 10 lattice steps.
        cloud, h = grid_cloud_2d(100)
        report = adr_check(cloud, ScaleRange(1, 3))  # radii 0.5, 0.25, 0.125 >= 10h
        assert 0.5 <= report.c1_hat <= report.c2_hat <= 4.0

    def test_empty_cloud_rejected(self):
        empty = WeightedCloud(np.empty((0, 2)), np.empty(0), n=1, delta_res=0.1)
        with pytest.raises(InputError):
            adr_check(empty)

    def test_doubling_weights_doubles_constants(self):
        cloud = line_cloud(50, 0.02)
        doubled = WeightedCloud(cloud.coords, 2 * cloud.weights, n=1,
                                delta_res=cloud.delta_res)
        sr = ScaleRange(2, 4)
        a = adr_check(cloud, sr)
        b = adr_check(doubled, sr)
        assert b.c1_hat == pytest.approx(2 * a.c1_hat)
        assert b.c2_hat == pytest.approx(2 * a.c2_hat)

    def test_band_violations_reported(self):
        cloud = line_cloud(50, 0.02)
        report = adr_check(cloud, ScaleRange(2, 4), band=(0.99, 1.01))
        assert len(report.violations) > 0
        idx, radius, ratio = report.violations[0]
        assert ratio < 0.99 or ratio > 1.01


class TestPrune:
    def test_dense_segment_untouched(self):
        cloud = line_cloud(100, 0.01)
        result = prune_low_density(cloud, 0.05)
        assert result.removed_mass == 0.0
        assert len(result.kept) == 100

    def test_isolated_outlier_removed(self):
        # Oracle construction: only the far point is epsilon-light; verified
        # by brute force below.
        cloud = line_cloud(100, 0.01, extra=[[0.5, 3.0]])
        eps = 0.05 * cloud.mass()
        radii = ScaleRange.default_for(cloud).radii
        radii = radii[radii <= 1.0]
        table = ball_masses(cloud, radii)
        light = (table <= eps * radii[None, :]).any(axis=1)
        assert np.array_equal(np.nonzero(light)[0], [100])

        result = prune_low_density(cloud, eps)
        assert np.array_equal(result.removed_indices, [100])
        assert result.removed_mass == pytest.approx(cloud.weights[100])

    def test_huge_epsilon_empties_cloud(self):
        cloud = line_cloud(30, 0.01)
        result = prune_low_density(cloud, 1e9)
        assert len(result.kept) == 0
        assert result.removed_mass == pytest.approx(cloud.mass())

    def test_epsilon_validation(self):
        with pytest.raises(InputError):
            prune_low_density(line_cloud(5, 0.1), 0.0)

    def test_removed_over_epsilon_stays_bounded(self):
        # The removal constant should not blow up across a decade of epsilon.
        cloud = line_cloud(200, 0.005, extra=[[0.3, 2.0], [0.8, 2.5]])
        ratios = []
        for eps in (0.02, 0.05, 0.1, 0.2):
            res = prune_low_density(cloud, eps)
            if res.removed_mass > 0:
                ratios.append(res.removed_mass / eps)
        assert ratios and max(ratios) / min(ratios) < 20


def prune_matches_dense(cloud, epsilon, scale_range=None):
    got = prune_low_density(cloud, epsilon, scale_range)
    kept, removed, sweeps = prune_dense(cloud, epsilon, scale_range)
    assert np.array_equal(got.kept_indices, kept)
    assert np.array_equal(got.removed_indices, removed)
    assert got.sweeps == sweeps


def grid_bounds(cloud, radius):
    """Summed-area bounds of every point at one radius, next to the dense masses."""
    radii = np.array([radius])
    lower, upper = _mass_bounds(cloud, np.ones(len(cloud), dtype=bool), radii,
                                np.zeros(1, dtype=bool), None)
    return lower[:, 0], upper[:, 0], ball_masses(cloud, radii)[:, 0]


class TestPruneBounds:
    """The bounds that let the prune skip the dense table, against that table."""

    @given(d=st.integers(1, 3), data=st.data(),
           offset=st.sampled_from([0.0, 1e3]),
           spacing=st.sampled_from([0.25, 0.125, 0.0625]),
           tie=st.booleans())
    def test_prune_matches_dense_reference(self, d, data, offset, spacing, tie):
        # Dyadic lattices with dyadic weights: many pairs sit exactly at a
        # scanned radius, on a grid cell face or on a circumscribed-cube
        # corner, and with a tied epsilon some mass equals epsilon * r^n.
        n = data.draw(st.integers(1, d))
        k = data.draw(st.integers(1, min(40, 6**d)))
        cells = data.draw(st.lists(st.integers(0, 6**d - 1), min_size=k, max_size=k,
                                   unique=True))
        coords = np.array(np.unravel_index(cells, (6,) * d), dtype=float).T * spacing
        coords += offset
        weights = np.array(data.draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 3.0]),
                                              min_size=k, max_size=k)))
        cloud = WeightedCloud(coords, weights, n=n, delta_res=spacing)
        radii = prune_radii(cloud)
        if tie:
            table = ball_masses(cloud, radii)
            i = data.draw(st.integers(0, k - 1))
            col = data.draw(st.integers(0, len(radii) - 1))
            epsilon = table[i, col] / radii[col] ** n
        else:
            epsilon = data.draw(st.sampled_from([0.05, 0.5, 2.0, 8.0])) * cloud.mass()
        prune_matches_dense(cloud, epsilon)

    def test_radii_choose_grid_and_pairs(self):
        # One prune that uses both kinds of bounds: the finer radii of a long
        # line would need more than _CELLS_PER_POINT grid cells per point.
        cloud = line_cloud(200, 0.005, extra=[[0.3, 0.7], [0.31, 0.7], [0.9, 0.05]])
        radii = prune_radii(cloud)
        span = cloud.coords.max(axis=0) - cloud.coords.min(axis=0)
        cells = np.prod(np.floor(span / (radii[:, None] / 4.0)) + 1.0, axis=1)
        assert (cells > _CELLS_PER_POINT * len(cloud)).any()
        assert (cells <= _CELLS_PER_POINT * len(cloud)).any()
        for factor in (0.2, 0.5, 1.0, 2.0):
            prune_matches_dense(cloud, factor * cloud.mass())

    @pytest.mark.parametrize("seed", range(4))
    def test_epsilon_at_a_non_dyadic_mass(self, seed):
        # Weights like 0.1 make the bounds' sums and the dense sums round
        # differently; with epsilon * r^n equal to a dense mass, only the
        # margin keeps the bounds from deciding that entry the wrong way.
        rng = np.random.default_rng(seed)
        coords = np.column_stack([np.arange(60) * 0.05, rng.uniform(0.0, 0.3, 60)])
        weights = rng.choice([0.1, 0.3, 0.7, 1.1], 60)
        cloud = WeightedCloud(coords, weights, n=1, delta_res=0.01)
        for j in (1, 3, 5):  # grid radii, then pair radii
            scales = ScaleRange(j, j)
            radius = scales.radii[0]
            for mass in np.unique(ball_masses(cloud, [radius])):
                prune_matches_dense(cloud, mass / radius, scales)

    def test_inscribed_cube_corner_is_outside(self):
        # In d = 3, r/sqrt(3) rounds up: a point at the corner of the
        # inscribed cube lies outside the closed ball.  It sits at the grid
        # origin, on a cell corner, so only the pad keeps its cell out of the
        # lower bound.
        for radius in (1.0, 0.5, 0.25):
            corner = radius / math.sqrt(3)
            coords = np.array([[0.0, 0.0, 0.0], [corner] * 3, [2 * corner] * 3])
            cloud = WeightedCloud(coords, np.array([4.0, 1.0, 2.0]), n=1, delta_res=0.01)
            lower, upper, dense = grid_bounds(cloud, radius)
            assert dense[1] == 1.0
            assert np.all(lower <= dense) and np.all(dense <= upper)

    def test_axis_neighbours_a_few_ulps_off(self):
        # Neighbours at distance r along an axis, moved by a few ulps: the
        # cell index and the squared distance round separately, and only the
        # pad keeps some of them inside the upper bound's cube.
        for seed in range(100):
            rng = np.random.default_rng(seed)
            d = 2 + seed % 2
            centre = rng.random(d) * 0.01
            coords = [centre]
            for axis in range(d):
                for sign in (-1.0, 1.0):
                    y = centre.copy()
                    y[axis] += sign * 0.5
                    coords.append(y + rng.integers(-2, 3, d) * np.spacing(y))
            cloud = WeightedCloud(np.array(coords), 2.0 ** np.arange(2 * d + 1),
                                  n=1, delta_res=1e-3)
            lower, upper, dense = grid_bounds(cloud, 0.5)
            assert np.all(lower <= dense) and np.all(dense <= upper)


class TestUniqueRows:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["random", "duplicates", "negative"])
    def test_matches_numpy_unique(self, n, kind, rng):
        for size in (1, 2, 17, 500):
            if kind == "random":
                cells = rng.integers(0, 1 << 40, (size, n))
            elif kind == "duplicates":
                cells = rng.integers(0, 3, (size, n))
            else:
                cells = rng.integers(-4, 4, (size, n))
            uniq, inverse = _unique_rows(cells)
            want, want_inverse = np.unique(cells, axis=0, return_inverse=True)
            assert np.array_equal(uniq, want) and uniq.dtype == want.dtype
            assert np.array_equal(inverse, want_inverse.reshape(-1))


class TestPushforward:
    def test_uniform_segment_density(self):
        cloud = line_cloud(1000, 0.001)
        pf = pushforward_density(cloud, Subspace.horizontal(2, 1), 0.1)
        assert abs(pf.l2_sq - 1.0) <= 0.1
        assert pf.total_mass == pytest.approx(1.0)

    def test_point_mass_formula(self):
        cloud = WeightedCloud(np.array([[0.31, 0.5]]), np.array([0.6]), n=1,
                              delta_res=0.01)
        pf = pushforward_density(cloud, Subspace.horizontal(2, 1), 0.2)
        assert len(pf.masses) == 1
        assert pf.l2_sq == pytest.approx(0.6**2 / 0.2)
        assert pf.linf == pytest.approx(0.6 / 0.2)

    def test_perpendicular_collapse(self):
        cloud = line_cloud(100, 0.01)
        onto_y = pushforward_density(cloud, Subspace.coordinate(2, [1]), 0.1)
        assert len(onto_y.masses) == 1
        assert onto_y.l2_sq == pytest.approx(cloud.mass() ** 2 / 0.1)

    def test_bin_below_resolution_rejected(self):
        cloud = line_cloud(10, 0.1)
        with pytest.raises(InputError):
            pushforward_density(cloud, Subspace.horizontal(2, 1), 0.05)

    @given(st.integers(0, 5_000))
    def test_mass_conservation_and_cauchy_schwarz(self, seed):
        rng = np.random.default_rng(seed)
        n_pts = int(rng.integers(3, 60))
        coords = np.column_stack([np.arange(n_pts) * 0.021,
                                  rng.uniform(-1, 1, n_pts)])
        weights = rng.uniform(0.1, 2.0, n_pts)
        cloud = WeightedCloud(coords, weights, n=1, delta_res=0.02)
        angle = rng.uniform(0, np.pi)
        v_sub = Subspace.spanning([np.cos(angle), np.sin(angle)])
        pf = pushforward_density(cloud, v_sub, float(rng.uniform(0.05, 0.4)))
        assert pf.total_mass == pytest.approx(cloud.mass(), abs=1e-9)
        # mass^2 <= (occupied bins * bin^n) * l2_sq
        occupied = len(pf.masses) * pf.bin_width**cloud.n
        assert cloud.mass() ** 2 <= occupied * pf.l2_sq + 1e-9


class TestProjectionEnergy:
    def test_flat_segment_near_one(self):
        cloud = lipschitz_graph(800, 0.0, seed=0)
        report = projection_energy(cloud, Subspace.horizontal(2, 1), 0.2,
                                   60, 0.1, seed=1)
        assert 0.5 <= report.mean_l2_sq <= 2.0

    def test_cantor_concentrates(self):
        # Oracle comparison: the same statistic on a set known to project
        # thinly must exceed the flat case by a wide margin; ratio pinned
        # from the first run of this implementation.
        flat = lipschitz_graph(800, 0.0, seed=0)
        cant = four_corner_cantor(5)
        e_flat = projection_energy(flat, Subspace.horizontal(2, 1), 0.2,
                                   50, 0.01, seed=2).mean_l2_sq
        e_cant = projection_energy(cant, Subspace.horizontal(2, 1), 0.2,
                                   50, 0.01, seed=2).mean_l2_sq
        assert e_cant / e_flat > 1.8

    def test_empty_subset_zero(self):
        cloud = line_cloud(10, 0.05)
        report = projection_energy(cloud, Subspace.horizontal(2, 1), 0.3,
                                   20, 0.1, seed=3, subset=np.empty(0, dtype=int))
        assert report.mean_l2_sq == 0.0
