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
)
from graphcarve import measure, shells
from graphcarve.grassmannian import sample_ball
from graphcarve.measure import (
    _CELLS_PER_POINT,
    _cell_masses,
    _mass_bounds,
    _unique_rows,
    ball_masses,
)
from tests.conftest import line_cloud
from tests.energy_reference import l2_sq_one, orthonormalize_one, projection_energy_loop
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

    @pytest.mark.parametrize("factor", [0.05, 0.2, 0.5, 1.0])
    def test_first_sweep_from_a_handed_table(self, factor):
        # The dense table of the whole cloud decides the first sweep; the
        # later sweeps bound the survivors as before.
        cloud = line_cloud(200, 0.005, extra=[[0.3, 0.7], [0.31, 0.7], [0.9, 0.05]])
        epsilon = factor * cloud.mass()
        got = prune_low_density(cloud, epsilon, None, ball_masses(cloud, prune_radii(cloud)))
        want = prune_low_density(cloud, epsilon)
        assert np.array_equal(got.kept_indices, want.kept_indices)
        assert np.array_equal(got.removed_indices, want.removed_indices)
        assert (got.removed_mass, got.sweeps) == (want.removed_mass, want.sweeps)

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


def pushforward(cloud, v_sub, bin_width):
    """The masses of one frame's occupied lattice cells, in lexicographic cell
    order, and the squared L2 norm of its projected density."""
    (masses,) = _cell_masses(cloud, v_sub.frame[None], bin_width)
    return masses, float(np.add.reduce(masses * masses) / bin_width**cloud.n)


class TestPushforward:
    def test_uniform_segment_density(self):
        cloud = line_cloud(1000, 0.001)
        masses, l2_sq = pushforward(cloud, Subspace.horizontal(2, 1), 0.1)
        assert abs(l2_sq - 1.0) <= 0.1
        assert masses.sum() == pytest.approx(1.0)

    def test_point_mass_formula(self):
        cloud = WeightedCloud(np.array([[0.31, 0.5]]), np.array([0.6]), n=1,
                              delta_res=0.01)
        masses, l2_sq = pushforward(cloud, Subspace.horizontal(2, 1), 0.2)
        assert len(masses) == 1
        assert l2_sq == pytest.approx(0.6**2 / 0.2)
        assert masses.max() / 0.2 == pytest.approx(0.6 / 0.2)

    def test_perpendicular_collapse(self):
        cloud = line_cloud(100, 0.01)
        masses, l2_sq = pushforward(cloud, Subspace.coordinate(2, [1]), 0.1)
        assert len(masses) == 1
        assert l2_sq == pytest.approx(cloud.mass() ** 2 / 0.1)

    def test_bin_below_resolution_rejected(self):
        cloud = line_cloud(10, 0.1)
        with pytest.raises(InputError, match="resolution"):
            projection_energy(cloud, Subspace.horizontal(2, 1), 0.2, 5, 0.05)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cells_and_masses_are_the_unique_rows(self, n, rng):
        # Coarse bins rank by the counting table, fine ones by _unique_rows:
        # both list the occupied cells' bincount masses in lexicographic cell
        # order, and the squared norm is the frame-by-frame sum.
        coords = rng.normal(size=(400, 4)) * 3.0
        cloud = WeightedCloud(coords, rng.uniform(0.1, 2.0, 400), n=n, delta_res=1e-6,
                              check_separation=False)
        v_sub = Subspace(rng.normal(size=(4, n)))
        for bin_width in (20.0, 1.0, 0.1, 1e-3):
            masses, l2_sq = pushforward(cloud, v_sub, bin_width)
            cells = np.floor(coords @ v_sub.frame / bin_width).astype(np.int64)
            _, inverse = np.unique(cells, axis=0, return_inverse=True)
            assert masses.tobytes() == np.bincount(
                inverse.reshape(-1), weights=cloud.weights).tobytes()
            assert l2_sq == l2_sq_one(cloud, v_sub.frame, bin_width)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_wide_boxes_equal_the_frame_by_frame_loop(self, n, monkeypatch):
        # Each frame may use a box of 32768 lattice points, the pair budget;
        # a frame whose cells fill a wider box takes one slot per occupied
        # cell from _unique_rows.  Tilting the frames mixes the wide vertical
        # spread into their boxes, so over dyadic bins from 8 down to 1/2048
        # each n meets a bin with frames on both sides of that threshold.
        # Each frame's energy equals its own np.unique histogram's bit for bit.
        calls = []
        monkeypatch.setattr(measure, "_unique_rows",
                            lambda cells: calls.append(1) or _unique_rows(cells))
        rng = np.random.default_rng(n)
        coords = rng.normal(size=(400, 4)) * np.r_[np.ones(n), np.full(4 - n, 16.0)]
        cloud = WeightedCloud(coords, rng.uniform(0.1, 2.0, 400), n=n, delta_res=1e-6,
                              check_separation=False)
        center = Subspace.horizontal(4, n)
        frames = [orthonormalize_one(f) for f in sample_ball(center, 0.5, 20, seed=n)[0]]
        wide, want_wide = [], []
        for bin_width in 2.0 ** -np.arange(-3, 12):
            calls.clear()
            got = projection_energy(cloud, center, 0.5, 20, bin_width, seed=n)
            want = projection_energy_loop(cloud, center, 0.5, 20, bin_width, seed=n)
            assert got.per_sample.tobytes() == want[1].tobytes()
            wide.append(len(calls))
            boxes = [np.ptp(np.floor(coords @ frame / bin_width), axis=0) + 1.0
                     for frame in frames]
            want_wide.append(sum(box.prod() > 32768 for box in boxes))
        assert wide == want_wide
        assert wide[0] == 0 and wide[-1] == 20 and any(0 < count < 20 for count in wide)

    def test_lattice_index_past_int64_rejected(self):
        # floor(1 / 1e-20) = 1e20 > 2^63: the cast wrapped both nonzero points
        # to INT64_MIN, one cell, and reported 5e20 where 3e20 is right.
        cloud = WeightedCloud(np.array([[0.0, 0.0], [0.5, 0.1], [1.0, 0.0]]), np.ones(3),
                              n=1, delta_res=1e-30)
        for call in (lambda: pushforward(cloud, Subspace.horizontal(2, 1), 1e-20),
                     lambda: projection_energy(cloud, Subspace.horizontal(2, 1), 0.2, 20,
                                               1e-20)):
            with pytest.raises(InputError, match="int64"):
                call()
        # Just inside the range the value is the exact one.
        assert pushforward(cloud, Subspace.horizontal(2, 1), 1e-18)[1] == pytest.approx(3e18)

    @given(st.integers(0, 5_000))
    def test_mass_conservation_and_cauchy_schwarz(self, seed):
        rng = np.random.default_rng(seed)
        n_pts = int(rng.integers(3, 60))
        coords = np.column_stack([np.arange(n_pts) * 0.021,
                                  rng.uniform(-1, 1, n_pts)])
        weights = rng.uniform(0.1, 2.0, n_pts)
        cloud = WeightedCloud(coords, weights, n=1, delta_res=0.02)
        angle = rng.uniform(0, np.pi)
        v_sub = Subspace(np.column_stack([[np.cos(angle), np.sin(angle)]]))
        bin_width = float(rng.uniform(0.05, 0.4))
        masses, l2_sq = pushforward(cloud, v_sub, bin_width)
        assert masses.sum() == pytest.approx(cloud.mass(), abs=1e-9)
        # mass^2 <= (occupied bins * bin^n) * l2_sq
        occupied = len(masses) * bin_width**cloud.n
        assert cloud.mass() ** 2 <= occupied * l2_sq + 1e-9


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

    def test_finite_on_a_surface_in_r3(self):
        # n = 2: the sampled planes and their distances take the QR and SVD
        # paths of the Grassmannian sampler.
        cloud = lipschitz_graph(200, 0.3, d=3, n=2)
        report = projection_energy(cloud, Subspace.horizontal(3, 2), 0.2, 40, 0.1, seed=1)
        assert np.isfinite(report.mean_l2_sq) and report.mean_l2_sq > 0.0
        assert np.isfinite(report.per_sample).all() and (report.distances <= 0.2 + 1e-12).all()

    def test_center_off_the_clouds_grassmannian_rejected(self):
        # The sampler takes d and n from the center: a plane in R^3 for a
        # curve, or a line in R^2 for a cloud in R^3, is refused up front.
        curve = lipschitz_graph(50, 0.2, d=3, n=1)
        for center in (Subspace.horizontal(3, 2), Subspace.horizontal(2, 1)):
            with pytest.raises(InputError, match="G\\(d, n\\)"):
                projection_energy(curve, center, 0.2, 10, 0.1)

    def test_empty_subset_zero(self):
        # No block is binned (the pair budget has no rows to divide by); the
        # frames still get their distances.
        cloud = line_cloud(10, 0.05).subcloud(np.empty(0, dtype=int))
        report = projection_energy(cloud, Subspace.horizontal(2, 1), 0.3,
                                   20, 0.1, seed=3)
        assert report.mean_l2_sq == 0.0
        assert report.per_sample.tobytes() == np.zeros(20).tobytes()
        want = projection_energy_loop(cloud, Subspace.horizontal(2, 1), 0.3, 20, 0.1, seed=3)
        assert report.distances.tobytes() == want[2].tobytes()

    @given(st.data())
    def test_blocks_equal_the_frame_by_frame_loop(self, data):
        # Clouds of up to 300 points in R^d, d <= 5, scaled by 2^k (|k| <=
        # 20), weights in [1e-6, 1e6], bins from the resolution up past the
        # extent, under several pair budgets: the counting table and
        # _unique_rows both rank, in blocks of one frame or many.  Every value
        # equals the loop's bit for bit.
        d = data.draw(st.integers(2, 5), label="d")
        n = data.draw(st.integers(1, d - 1), label="n")
        size = data.draw(st.integers(0, 300), label="size")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        scale = 2.0 ** data.draw(st.integers(-20, 20), label="k")
        coords = rng.normal(size=(size, d)) * scale
        if size > 1 and data.draw(st.booleans(), label="repeats"):
            coords[rng.integers(size, size=size // 2)] = coords[0]
        cloud = WeightedCloud(coords, 10.0 ** rng.uniform(-6.0, 6.0, size), n=n,
                              delta_res=scale * 2.0**-30, check_separation=False)
        bin_width = cloud.delta_res * 2.0 ** data.draw(st.floats(0.0, 36.0), label="bin")
        kappa = data.draw(st.sampled_from([0.5, 0.7, 1.0]), label="kappa")
        samples = data.draw(st.integers(1, 40), label="samples")
        center = Subspace.horizontal(d, n)
        want = projection_energy_loop(cloud, center, kappa, samples, bin_width, seed=5)
        with pytest.MonkeyPatch.context() as patch:
            for budget in (1, 7, 64, shells._CHUNK):
                patch.setattr(shells, "_CHUNK", budget)
                got = projection_energy(cloud, center, kappa, samples, bin_width, seed=5)
                assert (got.mean_l2_sq, got.per_sample.tobytes(), got.distances.tobytes(),
                        got.acceptance_rate) == (want[0], want[1].tobytes(),
                                                 want[2].tobytes(), want[3])

    def test_one_block_mixes_both_rankers(self, monkeypatch):
        # 200 frames of 50 points fit one block, and each frame may use a box
        # of 32768 cells; at 33,000 bins per unit the segment's frames fill
        # 31,486 to 33,001, so some rank by the table and some by _unique_rows.
        calls = []
        monkeypatch.setattr(measure, "_unique_rows",
                            lambda cells: calls.append(1) or _unique_rows(cells))
        cloud = line_cloud(50, 1.0 / 49.0, delta_res=1e-5)
        report = projection_energy(cloud, Subspace.horizontal(2, 1), 0.3, 200, 1 / 33000,
                                   seed=3)
        assert 0 < len(calls) < 200
        want = projection_energy_loop(cloud, Subspace.horizontal(2, 1), 0.3, 200, 1 / 33000,
                                      seed=3)
        assert report.per_sample.tobytes() == want[1].tobytes()
