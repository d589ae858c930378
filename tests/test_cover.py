import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphcarve import (
    CoverInvalidError,
    DirectionCover,
    InputError,
    Subspace,
    build_cover,
    build_cover_for_theta,
)
from graphcarve import cover as cover_module
from graphcarve.cover import (
    _BLOCK,
    _NET_MARGIN,
    _greedy_net,
    _region_samples,
)
from graphcarve.grassmannian import alpha0_max
from tests.cones import ConeSpec, cone_mask
from tests.net_reference import greedy_net_loop
from tests.sampler_reference import region_samples_reference


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

    @pytest.mark.parametrize("d, alpha", [(2, 0.3), (3, 0.2), (3, 0.05), (4, 0.5)])
    def test_region_sampler_matches_reference(self, d, alpha):
        axis = vertical_axis(d)
        assert np.array_equal(_region_samples(axis, alpha, 30_000),
                              region_samples_reference(axis, alpha, 30_000))
        got = _region_samples(axis, alpha, 3000, rng=np.random.default_rng(5))
        want = region_samples_reference(axis, alpha, 3000, rng=np.random.default_rng(5))
        assert np.array_equal(got, want)

    def test_region_sampler_memory(self):
        # 200,000 samples draw one batch of 2^19 proposals, 12.6 MB per
        # (batch, 3) array; the samples are formed in place, so at most about
        # three such arrays are alive at once.
        batch_bytes = 2**19 * 3 * 8
        tracemalloc.start()
        try:
            _region_samples(vertical_axis(3), 0.2, 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * batch_bytes


class TestGreedyNet:
    def test_net_points_do_not_pin_filtered_copies(self):
        # Each block's survivors are filtered into new arrays round by round;
        # the net is gathered from the input by index, so it holds none of
        # them alive.  The input spans several blocks.
        pts = np.random.default_rng(0).random((3 * _BLOCK + 100, 2))
        tracemalloc.start()
        try:
            net = _greedy_net(pts, 0.03)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(net) > 500
        assert peak < 8 * pts.nbytes

    @given(d=st.sampled_from([2, 3, 4]),
           kind=st.sampled_from(["random", "lattice", "duplicates"]),
           count=st.one_of(st.integers(1, 600),
                           st.integers(2 * _BLOCK + 1, 3 * _BLOCK)),
           offset=st.sampled_from([0.0, 1e3]),
           steps=st.sampled_from([1, 2]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_reference(self, d, kind, count, offset, steps, seed):
        rng = np.random.default_rng(seed)
        if kind == "lattice":
            # Dyadic lattice points, shuffled: neighbours sit at exactly the
            # spacing, so the closed test's ties decide membership.
            spacing = steps * 0.125
            pts = offset + 0.125 * rng.integers(0, 8, (count, d)).astype(float)
        else:
            spacing = steps * 0.2
            pts = offset + rng.random((count, d))
            if kind == "duplicates":
                pts = pts[rng.integers(0, max(count // 4, 1), count)]
        net = _greedy_net(pts, spacing)
        assert net.tobytes() == greedy_net_loop(pts, spacing).tobytes()

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_pairs_on_the_spacing_across_blocks(self, offset):
        # The first block repeats 33 centres c_k, a unit apart, so the second
        # block meets a kd-tree over them.  It holds
        # q_k = c_k + v for one short v, and the spacing is one pair's own
        # distance: each q_k sits within a few ulps of its c_k's boundary in
        # the arithmetic of the exact test, and only the tree's padded radius
        # keeps those pairs for that test to settle.
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            cs = (offset + np.arange(33.0)[:, None]
                  + rng.uniform(-1e-3, 1e-3, (33, d)))
            qs = cs + rng.uniform(-1e-3, 1e-3, d)
            pts = np.vstack([np.resize(cs, (_BLOCK, d)), qs])
            diff = qs - cs
            spacing = float(np.sqrt(rng.choice(np.einsum("ij,ij->i", diff, diff))))
            assert (_greedy_net(pts, spacing).tobytes()
                    == greedy_net_loop(pts, spacing).tobytes())

    @pytest.mark.parametrize("n_axis, d, s", [(1, 2, 1.0), (1, 2, 0.5), (1, 3, 1.0)],
                             ids=["graph_large", "union_refine", "codim2_cover"])
    def test_matches_dense_reference_on_workload_inputs(self, n_axis, d, s):
        # The benchmark workloads' cover inputs: default kappa, theta0 from the
        # tilt bound, alpha = theta0 / b_init, and s = 2^-m0.
        alpha = alpha0_max(n_axis, 0.2) / 2.0 / 2.5
        axis = Subspace.vertical_axis(d, n_axis)
        region = _region_samples(axis, alpha, 200_000)
        pts = np.concatenate([axis.frame.T, -axis.frame.T, region], axis=0)
        spacing = alpha * s * (1.0 - _NET_MARGIN)
        net = _greedy_net(pts, spacing)
        assert net.tobytes() == greedy_net_loop(pts, spacing).tobytes()


class TestCertificateChunks:
    @pytest.mark.parametrize("alpha, s", [(0.3, 0.5), (0.05, 0.25)],
                             ids=["cover", "escapes"])
    def test_chunk_size_keeps_the_verdict(self, monkeypatch, alpha, s):
        # One check row per product against the default chunks (a single
        # product for the 173-direction cover, 18 for the 3,630-direction
        # net): the same certificate, or the same escape count and witness.
        def outcome():
            try:
                return build_cover(vertical_axis(3), alpha, s, check_samples=20_000,
                                   net_samples=100_000, seed=0).certificate
            except CoverInvalidError as exc:
                return str(exc), exc.witness.tobytes()

        default = outcome()
        monkeypatch.setattr(cover_module, "_CHUNK_ELEMS", 1)
        assert outcome() == default

    def test_products_are_chunked(self, monkeypatch):
        # 2,527 directions x 20,000 check samples would be a 386 MB dense
        # product; the chunked one stays far under 256 MB.  The net size is
        # read before the certificate, so the premise is checked whether the
        # call returns a cover or raises.
        sizes = []

        def net(points, spacing):
            out = _greedy_net(points, spacing)
            sizes.append(len(out))
            return out

        monkeypatch.setattr(cover_module, "_greedy_net", net)
        tracemalloc.start()
        try:
            try:
                build_cover(vertical_axis(3), 0.02, 0.5, check_samples=20_000,
                            net_samples=200_000, seed=0)
            except CoverInvalidError:
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sizes) == 1 and sizes[0] * 20_000 * 8 > 256 * 2**20
        assert peak < 128 * 2**20
