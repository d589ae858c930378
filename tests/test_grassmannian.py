import numpy as np
import pytest

from graphcarve import (
    ConstructionInfeasibleError,
    GrassmannSampler,
    InfeasibleBallError,
    InputError,
    Subspace,
    alpha0_max,
    construct_v0,
    grassmann_distance,
    measure_lower_bound_mc,
)
from graphcarve.grassmannian import child_seed


def perpendicular_vector(rng, w_sub):
    z = rng.standard_normal(w_sub.d)
    z -= (z @ w_sub.frame) @ w_sub.frame.T
    return z / np.linalg.norm(z)


class TestSampler:
    def test_deterministic_bit_for_bit(self):
        a = GrassmannSampler(3, 1, seed=99).sample_frames(50)
        b = GrassmannSampler(3, 1, seed=99).sample_frames(50)
        assert np.array_equal(a, b)

    def test_line_angle_fraction_matches_quadrature(self):
        # Oracle: lines in the plane have angle uniform on [0, pi/2] after
        # folding, so the mass within distance sin(pi/8) of a fixed line is
        # (pi/8) / (pi/2) = 1/4.
        frames = GrassmannSampler(2, 1, seed=5).sample_frames(100_000)
        target = Subspace.spanning([1.0, 0.0])
        cos = frames[:, :, 0] @ target.frame[:, 0]
        dist = np.sqrt(np.maximum(1.0 - cos**2, 0.0))
        frac = float((dist <= np.sin(np.pi / 8)).mean())
        assert abs(frac - 0.25) < 0.02

    def test_ball_mode_respects_radius(self):
        center = Subspace.spanning([0.0, 0.0, 1.0])
        sampler = GrassmannSampler(3, 1, seed=2, center=center, radius=0.4)
        for frame in sampler.sample_frames(40):
            assert grassmann_distance(Subspace(frame), center) <= 0.4 + 1e-12
        assert 0 < sampler.acceptance_rate < 1

    def test_planes_in_r4_are_orthonormal_and_in_the_ball(self):
        # n = 2: the frames come from a batched QR factorisation and their
        # distances from the singular values of the projector differences.
        center = Subspace.horizontal(4, 2)
        frames = GrassmannSampler(4, 2, seed=0, center=center, radius=0.5).sample_frames(200)
        assert frames.shape == (200, 4, 2)
        assert np.abs(np.swapaxes(frames, 1, 2) @ frames - np.eye(2)).max() <= 1e-12
        for frame in frames:
            assert grassmann_distance(Subspace(frame), center) <= 0.5 + 1e-12

    def test_degenerate_ball_raises(self):
        center = Subspace.spanning([1.0, 0.0])
        sampler = GrassmannSampler(2, 1, seed=0, center=center, radius=0.0)
        with pytest.raises(InfeasibleBallError):
            sampler.sample_frames(1)

    def test_count_validation(self):
        with pytest.raises(InputError):
            GrassmannSampler(2, 1, seed=0).sample_frames(0)

    def test_child_seeds_differ_and_are_stable(self):
        assert child_seed(1, 0) != child_seed(1, 1)
        assert child_seed(1, 0) == child_seed(1, 0)

    def test_rotation_covariance(self, rng):
        # Rotating every sample must reproduce the statistics of fresh
        # samples around the rotated center (rotation invariance of the
        # sampling measure).
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        center = Subspace.spanning([1.0, 0.0])
        rotated_center = Subspace(rot @ center.frame)
        frames = GrassmannSampler(2, 1, seed=3).sample_frames(60_000)
        rotated = np.einsum("ij,bjk->bik", rot, frames)
        fresh = GrassmannSampler(2, 1, seed=4).sample_frames(60_000)

        def mean_dist(block, target):
            cos = block[:, :, 0] @ target.frame[:, 0]
            return float(np.sqrt(np.maximum(1 - cos**2, 0)).mean())

        assert abs(mean_dist(rotated, rotated_center)
                   - mean_dist(fresh, rotated_center)) < 0.01


class TestConstructV0:
    def test_perpendicular_z_returns_w(self):
        w_sub = Subspace.spanning([1.0, 0.0])
        v0 = construct_v0(w_sub, np.array([0.0, 1.0]), upsilon=0.5)
        assert grassmann_distance(v0, w_sub) == pytest.approx(0.0, abs=1e-10)

    def test_small_tilt_example(self):
        w_sub = Subspace.spanning([1.0, 0.0, 0.0])
        z = np.array([0.01, 0.0, 1.0])
        z /= np.linalg.norm(z)
        v0 = construct_v0(w_sub, z, upsilon=0.5)
        assert np.linalg.norm(v0.coords(z)) <= 1e-10
        assert grassmann_distance(v0, w_sub) <= 0.02

    def test_zero_z_rejected(self):
        w_sub = Subspace.spanning([1.0, 0.0])
        with pytest.raises(InputError):
            construct_v0(w_sub, np.zeros(2), upsilon=0.5)

    def test_excessive_tilt_rejected(self):
        w_sub = Subspace.spanning([1.0, 0.0])
        with pytest.raises(ConstructionInfeasibleError):
            construct_v0(w_sub, np.array([1.0, 0.2]), upsilon=0.3)

    def test_postconditions_on_random_admissible_inputs(self, rng):
        for trial in range(100):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(1, d))
            upsilon = float(rng.uniform(0.2, 1.0))
            w_sub = Subspace(rng.standard_normal((d, n)))
            a0 = alpha0_max(n, upsilon)
            perp = perpendicular_vector(rng, w_sub)
            tilt = rng.uniform(0, 0.9 * a0)
            inside = w_sub.frame @ rng.standard_normal(n)
            nrm = np.linalg.norm(inside)
            z = perp * np.sqrt(max(1 - tilt**2, 0.0))
            if nrm > 1e-9:
                z = z + (inside / nrm) * tilt
            scale = float(rng.uniform(0.5, 3.0))
            v0 = construct_v0(w_sub, z * scale, upsilon)
            assert np.linalg.norm(v0.coords(z * scale)) <= 1e-10 * scale
            assert grassmann_distance(v0, w_sub) <= upsilon / 2 + 1e-12

    def test_alpha0_monotone_in_upsilon(self):
        assert alpha0_max(1, 0.1) < alpha0_max(1, 0.4)
        assert alpha0_max(3, 0.4) < alpha0_max(1, 0.4)


class TestMeasureEstimate:
    def test_planar_value_matches_quadrature_oracle(self):
        # Oracle: quadrature of the folded angle measure; lines with
        # |cos(angle to z)| <= t occupy 2 * arcsin(t) / pi of the mass.
        t = 0.1
        angles = np.linspace(0.0, np.pi / 2, 200_001)
        inside = np.abs(np.cos(angles)) <= t
        oracle = float(np.trapezoid(inside.astype(float), angles) / (np.pi / 2))
        exact = 2.0 * np.arcsin(t) / np.pi
        assert oracle == pytest.approx(exact, abs=1e-3)

        w_sub = Subspace.spanning([1.0, 0.0])
        z = np.array([0.0, 2.0])
        est = measure_lower_bound_mc(w_sub, z, delta=0.2, upsilon=1.0,
                                     samples=200_000, seed=7, delta0=0.15)
        assert abs(est.a_hat - exact) <= 3.0 * est.std_error + 1e-4

    def test_halving_delta_roughly_halves(self):
        w_sub = Subspace.spanning([1.0, 0.0])
        z = np.array([0.0, 2.0])
        big = measure_lower_bound_mc(w_sub, z, 0.16, 1.0, 150_000, seed=1)
        small = measure_lower_bound_mc(w_sub, z, 0.08, 1.0, 150_000, seed=2)
        assert abs(big.a_hat / small.a_hat - 2.0) < 0.3  # n = 1 scaling, 15%

    def test_vacuous_ball_equals_unrestricted(self):
        w_sub = Subspace.spanning([1.0, 0.0, 0.0])
        z = np.array([0.0, 0.0, 3.0])
        wide = measure_lower_bound_mc(w_sub, z, 0.15, 2.0, 100_000, seed=3)
        # For d=3 lines the unrestricted mass is exactly delta/|z|.
        assert wide.a_hat == pytest.approx(0.05, abs=3 * wide.std_error + 1e-4)

    def test_sample_floor(self):
        w_sub = Subspace.spanning([1.0, 0.0])
        with pytest.raises(InputError):
            measure_lower_bound_mc(w_sub, np.array([0.0, 1.0]), 0.01, 0.5, 999)

    def test_regime_validation(self):
        w_sub = Subspace.spanning([1.0, 0.0])
        with pytest.raises(InputError):
            measure_lower_bound_mc(w_sub, np.array([0.0, 1.0]), 0.3, 0.5, 2000)

    def test_loglog_slope_near_intrinsic_dimension(self):
        w_sub = Subspace.spanning([1.0, 0.0, 0.0])
        z = np.array([0.0, 0.0, 1.0])
        ts = (0.1, 0.05, 0.025)
        a_hats = [measure_lower_bound_mc(w_sub, z, t, 0.5, 200_000,
                                         seed=11 + i, delta0=0.2).a_hat
                  for i, t in enumerate(ts)]
        slope = np.polyfit(np.log(ts), np.log(a_hats), 1)[0]
        assert 0.8 <= slope <= 1.2
