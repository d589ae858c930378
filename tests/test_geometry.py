import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphcarve import (
    DegenerateFrameError,
    InputError,
    Subspace,
    grassmann_distance,
)
from graphcarve.geometry import _orthonormalize
from tests.cones import ConeSpec, cone_contains, cone_mask
from tests.energy_reference import orthonormalize_one


def random_subspace(rng, d, k):
    return Subspace(rng.standard_normal((d, k)))


class TestSubspace:
    def test_frame_orthonormal(self, rng):
        for _ in range(20):
            v = random_subspace(rng, 5, 3)
            gram = v.frame.T @ v.frame
            assert np.max(np.abs(gram - np.eye(3))) < 1e-10

    def test_projector_idempotent_and_trace(self, rng):
        v = random_subspace(rng, 6, 2)
        p = v.projector()
        assert np.max(np.abs(p @ p - p)) <= 1e-9
        assert abs(np.trace(p) - 2) <= 1e-9
        assert np.max(np.abs(p - p.T)) <= 1e-12

    def test_full_dimension_rejected(self):
        with pytest.raises(InputError):
            Subspace(np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vectors_rejected(self, bad):
        # A NaN frame passed the orthonormality check (NaN compares false).
        with pytest.raises(InputError, match="finite"):
            Subspace(np.array([[bad], [1.0]]))

    def test_rank_deficient_rejected(self):
        with pytest.raises(DegenerateFrameError):
            Subspace(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))

    def test_canonical_frames_agree(self, rng):
        base = rng.standard_normal((4, 2))
        mix = base @ np.array([[2.0, 1.0], [-1.0, 3.0]])
        p1 = Subspace(base).projector()
        p2 = Subspace(mix).projector()
        assert np.max(np.abs(p1 - p2)) < 1e-9


def _outcome(orthonormalize, vectors):
    """The frame's bits, or the message of the frame error."""
    try:
        return orthonormalize(vectors).tobytes()
    except DegenerateFrameError as exc:
        return str(exc)


def _deficient(rng, d, k, kind):
    """A d x k spanning set of rank below k."""
    v = rng.standard_normal((d, k)) * 2.0 ** rng.integers(-20, 21)
    if kind == "zero_set":
        return np.zeros((d, k))
    if kind == "zero_column":
        v[:, rng.integers(k)] = 0.0
    elif kind == "repeated":
        a, b = rng.choice(k, 2, replace=False)
        v[:, b] = v[:, a]
    else:  # the last column a combination of the others
        v[:, -1] = v[:, :-1] @ rng.standard_normal(k - 1)
    return v


class TestStackedOrthonormalize:
    @given(st.data())
    def test_each_set_gets_the_single_set_bits(self, data):
        # Stacks of spanning sets in R^d, d <= 5, each scaled by 2^k,
        # |k| <= 20: every frame equals the one the single-set code makes of
        # it alone, bit for bit.
        d = data.draw(st.integers(2, 5), label="d")
        k = data.draw(st.integers(1, d - 1), label="k")
        count = data.draw(st.integers(1, 12), label="count")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        sets = rng.standard_normal((count, d, k)) * 2.0 ** rng.integers(-20, 21, (count, 1, 1))
        got = _orthonormalize(sets)
        assert got.shape == (count, d, k)
        for one, frame in zip(sets, got):
            assert frame.tobytes() == orthonormalize_one(one).tobytes()
        assert Subspace(sets[0]).frame.tobytes() == got[0].tobytes()

    @pytest.mark.parametrize("kind", ["zero_set", "zero_column", "repeated", "combination"])
    def test_rank_deficient_sets_raise_the_single_set_error(self, kind):
        # Alone, each deficient set raises the error the single-set code
        # raises; in a stack with valid sets, the first failing set's.
        rng = np.random.default_rng(7)
        for d in range(2, 6):
            for k in range(1 if kind in ("zero_set", "zero_column") else 2, d):
                bad = _deficient(rng, d, k, kind)
                want = _outcome(orthonormalize_one, bad)
                assert isinstance(want, str)
                assert _outcome(lambda v: _orthonormalize(v[None])[0], bad) == want
                stack = rng.standard_normal((5, d, k))
                stack[2] = bad
                stack[4] = _deficient(rng, d, k, "zero_set")
                assert _outcome(_orthonormalize, stack) == want


class TestGrassmannDistance:
    def test_identical(self, rng):
        v = random_subspace(rng, 4, 2)
        assert grassmann_distance(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_lines(self):
        v = Subspace.coordinate(2, [0])
        w = Subspace.coordinate(2, [1])
        assert grassmann_distance(v, w) == pytest.approx(1.0, abs=1e-12)

    def test_angle_pi_over_6_vs_sampled_oracle(self, rng):
        # Oracle: sup over unit vectors of |P_V u - P_W u|, approximated on
        # 1e5 samples; the exact value for lines at angle phi is sin(phi).
        v = Subspace(np.column_stack([[1.0, 0.0]]))
        w = Subspace(np.column_stack([[np.cos(np.pi / 6), np.sin(np.pi / 6)]]))
        u = rng.standard_normal((100_000, 2))
        u /= np.linalg.norm(u, axis=1)[:, None]
        diff = v.projector() - w.projector()
        oracle = np.linalg.norm(u @ diff.T, axis=1).max()
        got = grassmann_distance(v, w)
        assert got == pytest.approx(0.5, abs=1e-12)
        assert oracle == pytest.approx(got, abs=1e-3)

    def test_shape_mismatch(self, rng):
        with pytest.raises(InputError):
            grassmann_distance(random_subspace(rng, 3, 1), random_subspace(rng, 3, 2))

    @given(st.integers(0, 10_000))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_subspace(rng, 4, 2) for _ in range(3))
        ab = grassmann_distance(a, b)
        bc = grassmann_distance(b, c)
        ac = grassmann_distance(a, c)
        assert ac <= ab + bc + 1e-9


class TestConeMembership:
    def test_vertical_cone_axis_point(self):
        cone = ConeSpec.vertical([0.0, 0.0], n=1, aperture=0.3)
        assert cone_contains(cone, [0.0, 5.0])

    def test_vertical_cone_rejects_diagonal(self):
        cone = ConeSpec.vertical([0.0, 0.0], n=1, aperture=0.5)
        assert not cone_contains(cone, [1.0, 1.0])  # 1 > 0.5 * sqrt(2)

    def test_one_sided_halfspace_and_radii(self):
        cone = ConeSpec.one_sided_cone([0.0, 0.0], [0.0, 1.0], 0.3, radii=(1.0, 0.5))
        assert cone_contains(cone, [0.0, 0.75])
        assert not cone_contains(cone, [0.0, -0.75])
        assert not cone_contains(cone, [0.0, 0.25])   # inside the inner ball
        assert not cone_contains(cone, [0.0, 0.0])    # vertex excluded with radii

    def test_vertex_membership(self):
        closed = ConeSpec.vertical([1.0, 2.0], n=1, aperture=0.4)
        assert cone_contains(closed, [1.0, 2.0])
        interior = ConeSpec.vertical([1.0, 2.0], n=1, aperture=0.4, interior=True)
        assert not cone_contains(interior, [1.0, 2.0])

    def test_validation(self):
        with pytest.raises(InputError):
            ConeSpec.vertical([0.0, 0.0], n=1, aperture=1.5)
        with pytest.raises(InputError):
            ConeSpec.one_sided_cone([0.0, 0.0], [0.0, 2.0], 0.3)
        with pytest.raises(InputError):
            ConeSpec.vertical([0.0, 0.0], n=1, aperture=0.3, radii=(0.5, 1.0))

    @given(st.integers(0, 10_000))
    def test_interior_implies_closed(self, seed):
        rng = np.random.default_rng(seed)
        vertex = rng.standard_normal(3)
        w = rng.standard_normal(3)
        w /= np.linalg.norm(w)
        radii = (2.0, 0.5) if seed % 2 else None
        closed = ConeSpec.one_sided_cone(vertex, w, 0.4, radii=radii)
        open_ = ConeSpec.one_sided_cone(vertex, w, 0.4, radii=radii, interior=True)
        pts = vertex + rng.standard_normal((50, 3))
        inside_open = cone_mask(open_, pts)
        inside_closed = cone_mask(closed, pts)
        assert not np.any(inside_open & ~inside_closed)

    @given(st.integers(0, 10_000))
    def test_translation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        vertex = rng.standard_normal(2)
        shift = rng.standard_normal(2)
        cone = ConeSpec.vertical(vertex, n=1, aperture=0.3, radii=(1.5, 0.25))
        moved = ConeSpec.vertical(vertex + shift, n=1, aperture=0.3, radii=(1.5, 0.25))
        pts = vertex + rng.standard_normal((40, 2))
        assert np.array_equal(cone_mask(cone, pts), cone_mask(moved, pts + shift))

    def test_one_sided_inside_two_sided(self, rng):
        # One-sided cones are halves of the double cone around span(w).
        w = rng.standard_normal(3)
        w /= np.linalg.norm(w)
        one = ConeSpec.one_sided_cone(np.zeros(3), w, 0.35)
        two = ConeSpec.two_sided(np.zeros(3), Subspace(w[:, None]), 0.35)
        pts = rng.standard_normal((10_000, 3))
        m_one = cone_mask(one, pts)
        m_two = cone_mask(two, pts)
        assert not np.any(m_one & ~m_two)
        assert m_one.sum() > 0
