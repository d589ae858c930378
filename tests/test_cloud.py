import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphcarve import InputError, ScaleRange, WeightedCloud
from graphcarve.cloud import row_dots
from graphcarve.cloud_io import estimate_delta_res
from tests.conftest import line_cloud
from tests.delta_res_reference import min_pair_distance
from tests.lane_sums import lane_dots


def brute_ball(coords, center, radius, strict=False):
    d = np.linalg.norm(coords - center, axis=1)
    keep = d < radius if strict else d <= radius
    return np.nonzero(keep)[0]


class TestWeightedCloud:
    def test_basic_fields(self):
        cloud = line_cloud(10, 0.1)
        assert cloud.d == 2 and cloud.n == 1 and len(cloud) == 10
        assert cloud.mass() == pytest.approx(1.0)
        assert cloud.extent() == pytest.approx(0.9)

    def test_immutable_arrays(self):
        cloud = line_cloud(5, 0.1)
        with pytest.raises(ValueError):
            cloud.coords[0, 0] = 7.0

    def test_weight_validation(self):
        with pytest.raises(InputError):
            WeightedCloud(np.zeros((1, 2)), np.array([-1.0]), n=1, delta_res=0.1)
        with pytest.raises(InputError):
            WeightedCloud(np.zeros((1, 2)), np.array([np.inf]), n=1, delta_res=0.1)

    @pytest.mark.parametrize("delta_res", [0.0, -1.0, np.nan, np.inf])
    def test_delta_res_validation(self, delta_res):
        with pytest.raises(InputError, match="delta_res must be positive and finite"):
            WeightedCloud(np.zeros((1, 2)), np.ones(1), n=1, delta_res=delta_res)

    def test_intrinsic_dimension_validation(self):
        with pytest.raises(InputError):
            WeightedCloud(np.zeros((1, 2)), np.ones(1), n=3, delta_res=0.1)
        full = WeightedCloud(np.zeros((1, 2)), np.ones(1), n=2, delta_res=0.1)
        assert full.n == 2

    def test_duplicate_guard(self):
        coords = np.array([[0.0, 0.0], [0.0, 5e-5]])
        with pytest.raises(InputError):
            WeightedCloud(coords, np.ones(2), n=1, delta_res=0.1)

    def test_duplicate_guard_names_a_pair_closer_than_the_guard(self):
        # Guard 1e-3; pairs (2, 5) and (4, 6) violate it, (0, 1) sits just above.
        coords = np.array([[0.0, 0.0], [0.0011, 0.0], [0.5, 0.5], [0.9, 0.1],
                           [0.2, 0.7], [0.5, 0.5004], [0.2003, 0.7]])
        with pytest.raises(InputError) as err:
            WeightedCloud(coords, np.ones(len(coords)), n=1, delta_res=0.1)
        a, b = map(int, re.search(r"points (\d+) and (\d+)", str(err.value)).groups())
        assert np.linalg.norm(coords[a] - coords[b]) < 1e-3

    def test_guard_boundary_is_exact(self):
        guard = 0.01 / 100.0
        WeightedCloud(np.array([[0.0, 0.0], [guard, 0.0]]), np.ones(2), n=1,
                      delta_res=0.01)
        with pytest.raises(InputError):
            WeightedCloud(np.array([[0.0, 0.0], [np.nextafter(guard, 0.0), 0.0]]),
                          np.ones(2), n=1, delta_res=0.01)

    def test_near_guard_distance_accepted(self):
        coords = np.array([[0.0, 0.0], [0.0, 2e-3]])
        cloud = WeightedCloud(coords, np.ones(2), n=1, delta_res=0.1)
        assert len(cloud) == 2

    def test_subcloud(self):
        cloud = line_cloud(10, 0.1)
        sub = cloud.subcloud([0, 3, 4])
        assert len(sub) == 3
        assert sub.delta_res == cloud.delta_res
        assert np.allclose(sub.coords[1], cloud.coords[3])

    def test_empty_cloud(self):
        cloud = WeightedCloud(np.empty((0, 2)), np.empty(0), n=1, delta_res=0.1)
        assert cloud.mass() == 0.0
        assert cloud.extent() == 0.0
        assert len(cloud.grid.ball(np.zeros(2), 1.0)) == 0


class TestGridIndex:
    @given(st.integers(0, 10_000))
    def test_ball_matches_brute_force_exactly(self, seed):
        rng = np.random.default_rng(seed)
        n_pts = int(rng.integers(2, 120))
        d = int(rng.integers(2, 4))
        coords = rng.uniform(-1, 1, (n_pts, d))
        cloud = None
        try:
            cloud = WeightedCloud(coords, np.ones(n_pts), n=1, delta_res=0.05)
        except InputError:
            return  # collision under the duplicate guard; not this test's topic
        center = rng.uniform(-1.2, 1.2, d)
        radius = float(rng.uniform(0.01, 2.5))
        for strict in (False, True):
            got = cloud.grid.ball(center, radius, strict=strict)
            want = brute_ball(coords, center, radius, strict=strict)
            assert np.array_equal(got, want)

    def test_small_radius_uses_cells(self):
        cloud = line_cloud(1000, 0.01)
        got = cloud.grid.ball(cloud.coords[500], 0.025)
        assert np.array_equal(got, np.array([498, 499, 500, 501, 502]))

    def test_negative_radius_empty(self):
        cloud = line_cloud(5, 0.1)
        assert len(cloud.grid.ball(np.zeros(2), -1.0)) == 0

    def test_strict_and_closed_balls_on_the_sphere(self):
        # Dyadic coordinates make every distance below exact: points 1-4 lie
        # on the sphere of radius 5h around point 0, point 5 inside, 6 outside.
        h = 2.0 ** -6
        coords = 1024.0 + h * np.array([[0, 0], [3, 4], [-4, 3], [5, 0], [0, -5], [1, 1],
                                        [6, 0]], dtype=float)
        cloud = WeightedCloud(coords, np.ones(len(coords)), n=1, delta_res=h)
        assert np.array_equal(cloud.grid.ball(coords[0], 5 * h), [0, 1, 2, 3, 4, 5])
        assert np.array_equal(cloud.grid.ball(coords[0], 5 * h, strict=True), [0, 5])

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_points_at_exactly_the_radius(self, offset):
        # Each radius is a point's own distance to the center, so that point
        # sits on the boundary of the ball in the arithmetic of the exact test.
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            coords = offset + rng.uniform(-1e-3, 1e-3, (60, d))
            cloud = WeightedCloud(coords, np.ones(60), n=1, delta_res=1e-6)
            center = coords[0] + rng.uniform(-1e-4, 1e-4, d)
            delta = coords - center
            dist_sq = lane_dots(delta)
            for radius in np.sqrt(dist_sq):
                r_sq = radius * radius
                assert np.array_equal(cloud.grid.ball(center, radius),
                                      np.nonzero(dist_sq <= r_sq)[0])
                assert np.array_equal(cloud.grid.ball(center, radius, strict=True),
                                      np.nonzero(dist_sq < r_sq)[0])

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_radius_that_spans_the_cloud_skips_the_tree(self, offset):
        # Seen from point 0, the far corner (3, 4)h of the bounding box is
        # point 1, at distance exactly 5h: at radius 5h the padded reach
        # covers the box, so no tree query is made, and the closed ball holds
        # the corner point while the strict one drops it.
        h = 2.0 ** -6
        coords = offset + h * np.array([[0, 0], [3, 4], [1, 1], [2, 3], [3, 0], [0, 4]],
                                       dtype=float)
        cloud = WeightedCloud(coords, np.ones(len(coords)), n=1, delta_res=h)

        class NoTree:
            def query_ball_point(self, *args, **kwargs):
                raise AssertionError("the tree was queried")

        cloud.grid._tree = NoTree()
        assert np.array_equal(cloud.grid.ball(coords[0], 5 * h), [0, 1, 2, 3, 4, 5])
        assert np.array_equal(cloud.grid.ball(coords[0], 5 * h, strict=True),
                              [0, 2, 3, 4, 5])
        assert np.array_equal(cloud.grid.ball(coords[2], 8 * h, strict=True),
                              np.arange(6))

    @given(st.integers(0, 10_000), st.sampled_from([0.0, 1e3]))
    def test_radii_around_the_cloud_span(self, seed, offset):
        # Radii from a point's own distance to well past the far corner of
        # the bounding box, so both the tree and the full candidate set are
        # used, with boundary points in both.
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 4))
        coords = offset + rng.uniform(-1, 1, (int(rng.integers(2, 80)), d))
        cloud = WeightedCloud(coords, np.ones(len(coords)), n=1, delta_res=1e-6)
        center = coords[int(rng.integers(len(coords)))]
        delta = coords - center
        dist_sq = lane_dots(delta)
        far = np.maximum(center - coords.min(axis=0), coords.max(axis=0) - center)
        for radius in [*np.sqrt(rng.choice(dist_sq, 3)), float(np.sqrt(far @ far)),
                       float(np.sqrt(dist_sq.max())), 3.0 * d]:
            r_sq = radius * radius
            assert np.array_equal(cloud.grid.ball(center, radius),
                                  np.nonzero(dist_sq <= r_sq)[0])
            assert np.array_equal(cloud.grid.ball(center, radius, strict=True),
                                  np.nonzero(dist_sq < r_sq)[0])

    @given(st.integers(0, 10_000), st.sampled_from([0.0, 1e3]))
    def test_close_pairs_match_brute_force(self, seed, offset):
        rng = np.random.default_rng(seed)
        n_pts = int(rng.integers(2, 80))
        d = int(rng.integers(2, 4))
        coords = offset + rng.uniform(-1, 1, (n_pts, d))
        cloud = WeightedCloud(coords, np.ones(n_pts), n=1, delta_res=1e-6)
        first, second = np.triu_indices(n_pts, 1)
        delta = coords[second] - coords[first]
        dist_sq = lane_dots(delta)
        # A pair's own distance puts it on the boundary of the strict test.
        for radius in [float(rng.uniform(0, 1.5)), *np.sqrt(rng.choice(dist_sq, 3))]:
            close = dist_sq < radius * radius
            got_i, got_j = cloud.grid.close_pairs(radius)
            assert np.array_equal(got_i, first[close])
            assert np.array_equal(got_j, second[close])


class TestScaleRange:
    def test_cloud_narrower_than_its_resolution(self):
        # Two points on the separation guard: the one default shell sits at
        # the resolution, not at the (smaller) extent.
        cloud = WeightedCloud(np.array([[0.0, 0.0], [0.0, 1e-3]]), np.ones(2), n=1,
                              delta_res=0.1)
        sr = ScaleRange.default_for(cloud)
        assert sr.j_min == sr.j_max
        assert 2.0 ** (-sr.j_max) >= cloud.delta_res > 2.0 ** (-sr.j_max - 1)

    def test_ordering_validation(self):
        with pytest.raises(InputError):
            ScaleRange(3, 1)

    def test_annulus(self):
        sr = ScaleRange(0, 3)
        assert (sr.radii[1], sr.radii[2]) == (0.5, 0.25)  # the shell of scale 1
        assert len(sr) == 4
        assert np.allclose(sr.radii, [1.0, 0.5, 0.25, 0.125])

    def test_default_covers_extent_and_respects_resolution(self):
        cloud = line_cloud(100, 0.01)  # extent 0.99, delta_res 0.01
        sr = ScaleRange.default_for(cloud)
        assert 2.0 ** (-sr.j_min) >= cloud.extent()
        assert 2.0 ** (-sr.j_max) >= cloud.delta_res
        # finest shell sits one octave above the resolution
        assert 2.0 ** (-sr.j_max - 1) <= 2 * cloud.delta_res


@st.composite
def resolution_cases(draw):
    """Lattice clouds (exact ties, repeated rows for duplicates), optionally
    jittered, scaled and shifted far from the origin, in dimensions 1-4."""
    d = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * d), min_size=2, max_size=60))
    coords = np.array(rows, dtype=float)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        coords += rng.uniform(-0.5, 0.5, coords.shape)
    step = draw(st.sampled_from([1.0, 0.1, 2.0 ** -7, 3e-5]))
    offset = draw(st.sampled_from([0.0, 1e3, -37.25]))
    return coords * step + offset


class TestEstimateDeltaRes:
    @settings(max_examples=300, deadline=None)
    @given(resolution_cases())
    def test_equals_the_dense_scan(self, coords):
        assert estimate_delta_res(coords) == min_pair_distance(coords)

    def test_duplicates_and_ties(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert estimate_delta_res(coords) == 1.0
        assert estimate_delta_res(np.vstack([coords, coords[2]])) == 0.0

    def test_needs_two_points(self):
        with pytest.raises(InputError):
            estimate_delta_res(np.zeros((1, 2)))


def _coordinates(rng, shape, decades=300.0):
    """Signed floats of magnitude 10^-decades to 10^decades, with subnormals and
    signed zeros sprinkled in.  At 300 decades products overflow to inf and
    underflow to 0; at 1 they are alike, so the order of the sum shows."""
    values = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-decades, decades, shape)
    special = rng.choice([0.0, -0.0, 5e-324, -5e-324, 3e-310, -2.5e-320], shape)
    return np.where(rng.random(shape) < 0.15, special, values)


def _same_bits(got, want):
    """Equal bit for bit, except that every NaN (an inf - inf) equals every other."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == want[~nan].tobytes())


class TestRowDots:
    @settings(max_examples=200)
    @given(d=st.integers(1, 6), grid=st.booleans(),
           layout=st.sampled_from(["contiguous", "columns", "planes"]),
           other=st.sampled_from(["none", "array", "vector"]),
           decades=st.sampled_from([1.0, 300.0]), data=st.data())
    def test_equals_the_lane_sums_bit_for_bit(self, d, grid, layout, other, decades, data):
        # (K, d) rows and (R, C, d) grids, laid out contiguously, as a column
        # slice of a wider array, or as coordinate planes (pair_differences'
        # layout); squares, dots of two arrays and dots with one vector, against
        # the oracles' column sums in the lane order.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        lead = ((data.draw(st.integers(0, 6), label="R"), data.draw(st.integers(0, 9), label="C"))
                if grid else (data.draw(st.integers(0, 40), label="K"),))

        def laid_out():
            if layout == "columns":
                wide = _coordinates(rng, lead + (d + 3,), decades)
                return wide[..., 2:2 + d]
            values = _coordinates(rng, lead + (d,), decades)
            if layout == "planes":
                return np.moveaxis(np.ascontiguousarray(np.moveaxis(values, -1, 0)), 0, -1)
            return values

        a = laid_out()
        b = {"none": None, "array": laid_out(), "vector": _coordinates(rng, (d,), decades)}[other]
        with np.errstate(all="ignore"):
            got = row_dots(a, b)
            want = lane_dots(a, b)
        assert _same_bits(got, want)

    def test_lane_order_and_signed_zeros(self):
        # Products for which the lane order and the plain left-to-right sum
        # round apart: d = 3 adds (p0 + p2) + p1 and d = 4 (p0 + p2) + (p1 + p3).
        # A sum of -0.0 products is +0.0.
        a = np.array([[1.0, 2.0 ** -53, -1.0, 2.0 ** -53]])
        ones = np.ones((1, 4))
        assert row_dots(a[:, :3], ones[:, :3])[0] == 2.0 ** -53
        assert row_dots(a, ones)[0] == 2.0 ** -52
        for d in range(1, 7):
            assert not np.signbit(row_dots(np.full((1, d), -0.0), np.ones(d))[0])
