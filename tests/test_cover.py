import json
import tracemalloc

import numpy as np
import pytest

from graphcarve import (
    DirectionCover,
    InputError,
    Subspace,
    build_cover,
    build_cover_for_theta,
)
from graphcarve.cover import _greedy_net, _region_samples
from tests.cones import ConeSpec, cone_mask


def vertical_axis(d):
    return Subspace.vertical_axis(d, 1)


class TestBuildCover:
    def test_planar_wide_cone(self):
        cover = build_cover(vertical_axis(2), 0.5, 1.0, check_samples=50_000,
                            net_samples=100_000, seed=0)
        assert cover.m <= 8
        assert cover.b_used <= 3.0
        assert cover.certificate.inclusion_a_ok
        assert cover.certificate.inclusion_b_ok
        assert cover.certificate.inclusion_c_ok

    def test_directions_in_region_and_separated(self):
        cover = build_cover(vertical_axis(3), 0.3, 0.5, check_samples=20_000,
                            net_samples=100_000, seed=1)
        perp = cover.directions - cover.directions @ cover.axis.projector().T
        assert np.all(np.linalg.norm(perp, axis=1) <= 0.3 + 1e-12)
        assert np.all(np.abs(np.linalg.norm(cover.directions, axis=1) - 1) < 1e-9)
        # angular separation above half the net parameter
        assert cover.certificate.min_net_separation > 0.3 * 0.5 / 2

    def test_min_net_separation_matches_brute_force(self):
        cover = build_cover(vertical_axis(3), 0.3, 0.5, check_samples=2_000,
                            net_samples=20_000, seed=4)
        dirs = cover.directions
        assert cover.m > 10
        dist = np.linalg.norm(dirs[:, None, :] - dirs[None, :, :], axis=2)
        np.fill_diagonal(dist, np.inf)
        assert cover.certificate.min_net_separation == pytest.approx(dist.min(), rel=1e-12)

    def test_axis_directions_covered(self):
        # A vector on the cone axis lies in the region for every aperture and
        # must land inside some small one-sided cone.
        cover = build_cover(vertical_axis(3), 0.2, 0.5, check_samples=10_000,
                            net_samples=80_000, seed=2)
        small = cover.alpha * cover.s
        for sign in (1.0, -1.0):
            axis_dir = sign * cover.axis.frame[:, 0]
            cos = cover.directions @ axis_dir
            assert (cos >= np.sqrt(1 - small**2)).any()

    def test_s_one_makes_small_and_large_cones_coincide(self):
        cover = build_cover(vertical_axis(2), 0.4, 1.0, check_samples=20_000,
                            net_samples=60_000, seed=3)
        assert cover.certificate.inclusion_b_ok
        assert cover.s == 1.0

    def test_translation_covariance(self, rng):
        # The cover certifies inclusions at the origin; restricted cones at a
        # random vertex inherit them by translation.
        cover = build_cover(vertical_axis(2), 0.3, 0.5, check_samples=20_000,
                            net_samples=80_000, seed=4)
        vertex = rng.standard_normal(2)
        big = ConeSpec.two_sided(vertex, cover.axis, cover.alpha, radii=(1.0, 0.5))
        pts = vertex + rng.standard_normal((4000, 2))
        in_big = cone_mask(big, pts)
        in_union = np.zeros(len(pts), dtype=bool)
        for w in cover.directions:
            small = ConeSpec.one_sided_cone(vertex, w, cover.alpha * cover.s,
                                            radii=(1.0, 0.5))
            in_union |= cone_mask(small, pts)
        assert not np.any(in_big & ~in_union)

    def test_cardinality_rate_stable(self):
        # m * (alpha s)^(d-1) within a factor 10 across apertures at fixed s.
        rates = []
        for alpha in (0.1, 0.2, 0.4):
            cover = build_cover(vertical_axis(3), alpha, 0.5,
                                check_samples=5_000, net_samples=120_000,
                                seed=5)
            rates.append(cover.c_cover)
        assert max(rates) / min(rates) < 10

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            build_cover(vertical_axis(2), 1.2, 0.5)
        with pytest.raises(InputError):
            build_cover(vertical_axis(2), 0.3, 0.0)

    def test_json_round_trip(self):
        cover = build_cover(vertical_axis(2), 0.25, 0.5, check_samples=5_000,
                            net_samples=40_000, seed=6)
        text = cover.to_json()
        parsed = json.loads(text)
        assert parsed["schema"] == "graphcarve/1"
        back = DirectionCover.from_json(text)
        assert back.m == cover.m
        assert back.alpha == cover.alpha
        assert np.allclose(back.directions, cover.directions)


class TestCoverForTheta:
    def test_alpha_times_b_is_theta(self):
        cover = build_cover_for_theta(vertical_axis(2), 0.05, 0.25,
                                      check_samples=10_000, net_samples=60_000,
                                      seed=0)
        assert cover.alpha * cover.b_used == pytest.approx(0.05, rel=1e-9)
        assert cover.certificate.b_measured <= cover.b_used

    def test_region_sampler_stays_in_region(self, rng):
        axis = vertical_axis(3)
        pts = _region_samples(axis, 0.2, 5000, rng=rng)
        perp = pts - pts @ axis.projector().T
        assert np.all(np.linalg.norm(perp, axis=1) <= 0.2 + 1e-12)
        dets = _region_samples(axis, 0.2, 5000)
        assert np.array_equal(dets, _region_samples(axis, 0.2, 5000))


class TestGreedyNet:
    def test_net_points_do_not_pin_filtered_copies(self):
        # Each round filters the remaining samples into a new array; a net
        # point kept as a view of one would hold that whole array alive.
        pts = np.random.default_rng(0).random((4000, 2))
        tracemalloc.start()
        try:
            net = _greedy_net(pts, 0.03)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(net) > 500
        assert peak < 8 * pts.nbytes
