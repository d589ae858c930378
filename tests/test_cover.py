import json
import math
import tracemalloc
from itertools import chain, islice

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st
from scipy.spatial import cKDTree
from scipy.stats import qmc

from graphcarve import (
    CoverInvalidError,
    InputError,
    Subspace,
    build_cover,
    build_cover_for_theta,
)
from graphcarve import cover as cover_module
from graphcarve.cover import (
    _ARC_FLOOR,
    _NET_MARGIN,
    _SOBOL_MAX_D,
    _SUB_BLOCK,
    _Guesses,
    _arcs_covered,
    _covered,
    _greedy_net,
    _region_pieces,
    _region_samples,
    _row_sums,
    _sobol,
    _tree,
)
from graphcarve.cloud import row_dots
from graphcarve.grassmannian import alpha0_max, child_seed
from tests.cones import ConeSpec, cone_mask
from tests.cover_reference import covered_chunked
from tests.lane_sums import lane_dots
from tests.net_reference import greedy_net_loop
from tests.sampler_reference import region_samples_reference


def vertical_axis(d):
    return Subspace.vertical_axis(d, 1)


# Rows in the first piece, then in each later one, of the greedy-net tests'
# inputs: a short first piece, as the cover's sampler yields, then longer ones.
FIRST_PIECE, PIECE = 512, 4096


def pieces(points):
    """The rows of ``points`` as the greedy net's pieces: ``FIRST_PIECE``
    rows, then ``PIECE`` rows at a time."""
    return np.split(points, range(FIRST_PIECE, len(points), PIECE))


class TestBuildCover:
    def test_planar_wide_cone(self):
        cover = build_cover(vertical_axis(2), 0.5, 1.0, check_samples=50_000,
                            net_samples=100_000, seed=0)
        assert cover.m <= 8
        assert cover.b_used <= 3.0

    def test_directions_in_region_and_separated(self):
        cover = build_cover(vertical_axis(3), 0.3, 0.5, check_samples=20_000,
                            net_samples=100_000, seed=1)
        perp = cover.directions - cover.directions @ cover.axis.projector().T
        assert np.all(np.linalg.norm(perp, axis=1) <= 0.3 + 1e-12)
        assert np.all(np.abs(np.linalg.norm(cover.directions, axis=1) - 1) < 1e-9)
        # The greedy net's guarantee: every pair of directions is more than
        # the spacing alpha*s*(1 - margin) apart.
        dirs = cover.directions
        assert cover.m > 10
        dist = np.linalg.norm(dirs[:, None, :] - dirs[None, :, :], axis=2)
        np.fill_diagonal(dist, np.inf)
        assert dist.min() > 0.3 * 0.5 * (1.0 - _NET_MARGIN)

    def test_min_net_separation_matches_brute_force(self):
        # The closest pair of directions, found by brute force over all
        # pairs, equals the kd-tree nearest-neighbour minimum and clears the
        # greedy net's spacing alpha*s*(1 - margin).
        cover = build_cover(vertical_axis(3), 0.3, 0.5, check_samples=2_000,
                            net_samples=20_000, seed=4)
        dirs = cover.directions
        assert cover.m > 10
        dist = np.linalg.norm(dirs[:, None, :] - dirs[None, :, :], axis=2)
        np.fill_diagonal(dist, np.inf)
        nearest, _ = cKDTree(dirs).query(dirs, k=2)
        assert nearest[:, 1].min() == pytest.approx(dist.min(), rel=1e-12)
        assert dist.min() > 0.3 * 0.5 * (1.0 - _NET_MARGIN)

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
        for kwargs in ({"check_samples": 0}, {"net_samples": 0}, {"net_samples": -5}):
            with pytest.raises(InputError, match=next(iter(kwargs))):
                build_cover(vertical_axis(2), 0.3, 0.5, **kwargs)

    def test_spacing_with_a_subnormal_square_is_refused(self):
        # At alpha = 1e-200 the squared cap widths underflowed and b_measured
        # read 0; the net spacing's square must be a normal float, the rule
        # certify_graph applies to theta.
        with pytest.raises(InputError, match="normal float square"):
            build_cover(vertical_axis(2), 1e-200, 1.0)
        cover = build_cover(vertical_axis(2), 1e-150, 1.0)
        assert 1.9 < cover.b_measured <= 2.0

    @pytest.mark.parametrize("d", [22, 40])
    def test_dimension_above_the_sobol_table_fails_at_once(self, d, monkeypatch):
        def no_samples(*args, **kwargs):
            raise AssertionError("no sample may be drawn")

        monkeypatch.setattr(cover_module, "_region_pieces", no_samples)
        with pytest.raises(CoverInvalidError, match="d <= 21"):
            build_cover(vertical_axis(d), 0.1, 1.0)
        with pytest.raises(CoverInvalidError, match="d <= 21"):
            build_cover_for_theta(vertical_axis(d), 0.3, 1.0)

    @pytest.mark.parametrize("where, d", [
        ("sampler", 3), ("net", 3), ("check", 3),
        ("sampler", 2), ("net", 2), ("check", 2),
    ], ids=["sampler", "net", "check", "planar_sampler", "planar_net", "planar_check"])
    def test_an_error_on_either_thread_reaches_the_caller(self, monkeypatch, where, d):
        # The cover now runs on the calling thread alone; the name is kept
        # from when the check and the sampler ran on a worker.  An error
        # raised mid-stream by the net's sampler (from its second piece on;
        # the planar net stops inside its first piece, so there the first
        # piece fails), by the check or by the net is the one the caller
        # sees, and a later build is unaffected.
        error = ArithmeticError(where)
        region_pieces = cover_module._region_pieces

        def failing_pieces(axis, alpha, count, rng=None):
            stream = region_pieces(axis, alpha, count, rng)
            if rng is None and where == "sampler":
                yield from islice(stream, d - 2)
                raise error
            if rng is not None and where == "check":
                raise error
            yield from stream

        def failing_net(stream, spacing, guesses, done=None):
            stream = iter(stream)
            next(stream), next(stream), next(stream)
            raise error

        monkeypatch.setattr(cover_module, "_region_pieces", failing_pieces)
        if where == "net":
            monkeypatch.setattr(cover_module, "_greedy_net", failing_net)
        with pytest.raises(ArithmeticError) as caught:
            build_cover(vertical_axis(d), 0.3, 0.5, net_samples=100_000)
        assert caught.value is error
        monkeypatch.undo()
        build_cover(vertical_axis(d), 0.3, 0.5, net_samples=100_000)

    def test_json_round_trip(self):
        cover = build_cover(vertical_axis(2), 0.25, 0.5, check_samples=5_000,
                            net_samples=40_000, seed=6)
        text = cover.to_json()
        parsed = json.loads(text)
        assert parsed["schema"] == "graphcarve/1"
        assert len(parsed["directions"]) == cover.m
        assert parsed["alpha"] == cover.alpha
        assert np.array_equal(parsed["directions"], cover.directions)


class TestCoverForTheta:
    def test_alpha_times_b_is_theta(self):
        cover = build_cover_for_theta(vertical_axis(2), 0.05, 0.25,
                                      check_samples=10_000, net_samples=60_000,
                                      seed=0)
        assert cover.alpha * cover.b_used == pytest.approx(0.05, rel=1e-9)
        assert cover.b_measured <= cover.b_used

    @pytest.mark.parametrize("s, m, b_measured", [
        (0.5, 10, 1.9991361911888608),
        (1.0, 6, 1.999517219157465),
    ], ids=["union_refine", "graph_large"])
    def test_planar_workload_covers_are_pinned(self, s, m, b_measured):
        # The planar pipeline's cover at the default kappa and seed 4: theta0 =
        # alpha0_max(1, 0.2) / 2 and the cover seed child_seed(4, 2).  The
        # check samples and then the caps that measure b draw from one
        # generator: one extra draw before either moves graph_large's b.
        theta = 0.024375743162901312
        assert theta == alpha0_max(1, 0.2) / 2.0
        cover = build_cover_for_theta(Subspace.vertical_axis(2, 1), theta, s,
                                      seed=child_seed(4, 2))
        assert cover.m == m
        assert cover.b_measured == b_measured

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(2, 4), data=st.data(),
           alpha=st.floats(0.05, 0.45), s=st.sampled_from([0.5, 1.0]),
           seed=st.integers(0, 2**16))
    def test_widening_is_at_most_two(self, d, data, alpha, s, seed):
        # A cap vector cos u + sin p around a net direction u with
        # |pi_perp u| <= alpha and sin <= alpha has |pi_perp| <= 2 alpha.
        n = data.draw(st.integers(1, d - 1))
        try:
            cover = build_cover(Subspace.vertical_axis(d, n), alpha, s,
                                check_samples=500, net_samples=4_000, seed=seed)
        except CoverInvalidError as exc:
            # Too few region samples to cover the cone: no cover to measure.
            assert "escape" in str(exc)
            assume(False)
        assert cover.b_measured <= 2.0 + 1e-12

    def test_built_once_and_too_wide_caps_rejected(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return build_cover(*args)

        caps = cover_module._one_sided_caps

        def wide_caps(directions, aperture, per_dir, rng):
            return caps(directions, 2.0 * aperture, per_dir, rng)

        monkeypatch.setattr(cover_module, "build_cover", counted)
        cover = build_cover_for_theta(vertical_axis(2), 0.05, 0.5, check_samples=2_000,
                                      net_samples=20_000)
        assert len(calls) == 1 and cover.b_used == 2.5
        monkeypatch.setattr(cover_module, "_one_sided_caps", wide_caps)
        with pytest.raises(CoverInvalidError, match="exceeds 2.5"):
            build_cover_for_theta(vertical_axis(2), 0.05, 0.5, check_samples=2_000,
                                  net_samples=20_000)
        assert len(calls) == 2

    def test_region_sampler_stays_in_region(self, rng):
        axis = vertical_axis(3)
        pts = _region_samples(axis, 0.2, 5000, rng=rng)
        perp = pts - pts @ axis.projector().T
        assert np.all(np.linalg.norm(perp, axis=1) <= 0.2 + 1e-12)
        dets = _region_samples(axis, 0.2, 5000)
        assert np.array_equal(dets, _region_samples(axis, 0.2, 5000))

    @pytest.mark.parametrize("d", range(1, _SOBOL_MAX_D + 1))
    def test_row_sums_equal_numpy_reduce(self, d):
        # Magnitudes 16 decades apart make every order of the additions round
        # differently; the fold must keep numpy's, pairwise from 8 columns on.
        rng = np.random.default_rng(d)
        a = rng.random((5000, d)) * 10.0 ** rng.integers(-8, 9, (5000, d))
        assert np.array_equal(_row_sums(a), np.add.reduce(a, axis=1))

    @pytest.mark.parametrize("d, alpha", [(2, 0.3), (3, 0.2), (3, 0.05), (4, 0.5),
                                          (7, 0.3), (8, 0.3)])
    def test_region_sampler_matches_reference(self, d, alpha):
        axis = vertical_axis(d)
        assert np.array_equal(_region_samples(axis, alpha, 30_000),
                              region_samples_reference(axis, alpha, 30_000))
        # The check samples continue one generator into the cone caps, so the
        # sampler must leave it where the reference does: whole batches drawn.
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = _region_samples(axis, alpha, 3000, rng=rng)
        want = region_samples_reference(axis, alpha, 3000, rng=ref_rng)
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_region_sampler_stops_at_count(self, monkeypatch):
        # The codim2_cover net: about 283k proposals hold 200,000 region
        # points, so fourteen blocks (294,912 proposals) are drawn.
        drawn = []

        def spy(dim, start, size):
            drawn.append(size)
            return _sobol(dim, start, size)

        monkeypatch.setattr(cover_module, "_sobol", spy)
        axis = vertical_axis(3)
        alpha = alpha0_max(1, 0.2) / 5.0
        got = _region_samples(axis, alpha, 200_000)
        assert sum(drawn) < 2**19
        assert np.array_equal(got, region_samples_reference(axis, alpha, 200_000))

    @pytest.mark.parametrize("d, alpha, s", [(3, 0.3, 0.5), (3, 0.05, 0.25), (4, 0.2, 0.5)])
    def test_cover_matches_the_reference_sampler(self, monkeypatch, d, alpha, s):
        # The whole cover over the plain-expression sampler: the same net and
        # widening, or the same escape count and witness, which also needs the
        # check generator left in the same state for the cone caps.
        def outcome():
            try:
                cover = build_cover(vertical_axis(d), alpha, s, check_samples=20_000,
                                    net_samples=100_000, seed=0)
                return cover.directions.tobytes(), cover.b_measured
            except CoverInvalidError as exc:
                return str(exc), exc.witness.tobytes()

        def reference_pieces(axis, alpha, count, rng=None):
            yield from pieces(region_samples_reference(axis, alpha, count, rng))

        # The net reads the streamed pieces, each as one block, and the check
        # their concatenation, so one patch replaces both samplers.
        got = outcome()
        monkeypatch.setattr(cover_module, "_region_pieces", reference_pieces)
        assert got == outcome()

    @pytest.mark.parametrize("d, n, alpha", [(4, 3, 0.05), (5, 4, 0.3)])
    def test_region_sampler_matches_reference_across_batches(self, d, n, alpha,
                                                             monkeypatch):
        # A one-dimensional axis keeps few proposals, so the sampler reads
        # far along the stream, whose growing blocks each continue the
        # sequence; three sizes mean it read past its first two blocks.
        sizes = []

        def spy(dim, start, size):
            sizes.append(size)
            return _sobol(dim, start, size)

        monkeypatch.setattr(cover_module, "_sobol", spy)
        axis = Subspace.vertical_axis(d, n)
        assert np.array_equal(_region_samples(axis, alpha, 30_000),
                              region_samples_reference(axis, alpha, 30_000))
        assert len(set(sizes)) >= 3

    @pytest.mark.parametrize("d", range(1, _SOBOL_MAX_D + 1))
    def test_sobol_matches_scipy(self, d):
        # Successive blocks of falling power-of-two size continue the sequence
        # from their start index alone.
        reference = qmc.Sobol(d=d, scramble=False)
        start = 0
        for n in (2**12, 2**10, 2**10, 2**7):
            got = _sobol(d, start, n)
            assert got.dtype == np.float64
            assert np.array_equal(got, reference.random(n))
            start += n

    def test_region_sampler_memory(self):
        # The stream is transformed one block of at most _SUB_BLOCK
        # proposals at a time, in place.  The peak is the kept samples twice
        # (the pieces and their concatenation) and a few (_SUB_BLOCK, 3)
        # arrays, 0.8 MB each.
        out_bytes = 200_000 * 3 * 8
        sub_bytes = _SUB_BLOCK * 3 * 8
        tracemalloc.start()
        try:
            _region_samples(vertical_axis(3), 0.2, 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * out_bytes + 4 * sub_bytes


class TestGreedyNet:
    def test_net_points_do_not_pin_filtered_copies(self):
        # Each block's survivors are copied out of it, and the net keeps only
        # the kept rows, so it holds none of those copies alive.  The input
        # spans several pieces.
        pts = np.random.default_rng(0).random((3 * PIECE + 100, 2))
        tracemalloc.start()
        try:
            net = _greedy_net(pieces(pts), 0.03, _Guesses(0.03))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(net) > 500
        assert peak < 8 * pts.nbytes

    def test_a_long_piece_is_scanned_in_sub_blocks(self, monkeypatch):
        # One 100,000-row piece: its survivors meet each other at most
        # _SUB_BLOCK rows at a time (the whole piece at once asked for about
        # 1.4 GiB at d = 3), and the net is that of 2^10-row pieces and of the
        # dense scan.
        seen = []

        class Counted(cKDTree):
            def query_pairs(self, *args, **kwargs):
                seen.append(self.n)
                return super().query_pairs(*args, **kwargs)

        pts = np.random.default_rng(5).random((100_000, 2))
        spacing = 0.03
        with monkeypatch.context() as patch:
            patch.setattr(cover_module, "cKDTree", Counted)
            net = _greedy_net([pts], spacing, _Guesses(spacing))
        assert seen[0] == max(seen) == _SUB_BLOCK and len(seen) > 1
        short = _greedy_net(np.split(pts, range(2 ** 10, len(pts), 2 ** 10)), spacing,
                            _Guesses(spacing))
        assert net.tobytes() == short.tobytes() == greedy_net_loop(pts, spacing).tobytes()

    @given(d=st.sampled_from([2, 3, 4]),
           kind=st.sampled_from(["random", "lattice", "duplicates"]),
           count=st.one_of(st.integers(1, 600),
                           st.integers(2 * PIECE + 1, 3 * PIECE)),
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
        net = _greedy_net(pieces(pts), spacing, _Guesses(spacing))
        assert net.tobytes() == greedy_net_loop(pts, spacing).tobytes()

    @pytest.mark.parametrize("kind", ["random", "lattice"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_later_blocks_open_new_ground(self, d, kind):
        # Sorted by their first coordinate, the points of each block reach
        # past every centre chosen before it, so a later block's survivors
        # conflict with each other and the scan through their neighbour lists
        # decides the net.  Lattice points repeat and sit at exactly the
        # spacing from their neighbours, so ties and duplicates meet there.
        rng = np.random.default_rng(d)
        count = 2 * PIECE + FIRST_PIECE
        if kind == "lattice":
            spacing = 0.125
            pts = 0.125 * rng.integers(0, 16, (count, d)).astype(float)
        else:
            spacing = 0.08
            pts = rng.random((count, d))
        pts = pts[np.argsort(pts[:, 0], kind="stable")]
        assert (_greedy_net(pieces(pts), spacing, _Guesses(spacing)).tobytes()
                == greedy_net_loop(pts, spacing).tobytes())
        # The premise: every later block holds two survivors within the
        # spacing of each other.  A greedy net's points in a prefix are the
        # prefix's own greedy net.
        sq = spacing * spacing
        for start in range(FIRST_PIECE, count, PIECE):
            before = greedy_net_loop(pts[:start], spacing)
            block = pts[start:start + PIECE]
            diff = block[:, None, :] - before[None, :, :]
            rest = block[(lane_dots(diff) > sq).all(axis=1)]
            diff = rest[:, None, :] - rest[None, :, :]
            near = lane_dots(diff) <= sq
            assert np.triu(near, 1).any()

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
            pts = np.vstack([np.resize(cs, (PIECE, d)), qs])
            diff = qs - cs
            spacing = float(np.sqrt(rng.choice(lane_dots(diff))))
            assert (_greedy_net(pieces(pts), spacing, _Guesses(spacing)).tobytes()
                    == greedy_net_loop(pts, spacing).tobytes())

    def test_a_nearest_centre_that_fails_the_test_is_not_the_last_word(self):
        # The centres c1, c2 lie at one distance from a later point p: the
        # coordinates of c1 - p, permuted and one negated, make c2 - p.  That
        # distance rounds differently for the two, and the tree's sum adds
        # in another order than the exact test.  Here the tree names c1
        # nearest, c1 fails the test at a spacing that c2 passes, and p stays
        # out of the net.  Every slot names c1, so p asks the tree.
        rng = np.random.default_rng(4)
        found = 0
        for _ in range(1000):
            p = rng.uniform(-1.0, 1.0, 3)
            v = rng.uniform(-1.0, 1.0, 3)
            centres = np.array([p + v, p + v[[1, 2, 0]] * [1.0, -1.0, 1.0]])
            nearest = _tree(centres).query(p)[1]
            sq = row_dots(p - centres)
            spacing = math.sqrt(sq[1 - nearest])
            if not (sq[nearest] > sq[1 - nearest] == spacing * spacing):
                continue
            found += 1
            pts = np.vstack([np.resize(centres, (FIRST_PIECE, 3)), p])
            guesses = _Guesses(spacing)
            guesses.table[:] = nearest
            net = _greedy_net(pieces(pts), spacing, guesses)
            assert net.tobytes() == centres.tobytes()
            assert net.tobytes() == greedy_net_loop(pts, spacing).tobytes()
        assert found > 10

    @pytest.mark.parametrize("n_axis, d, s", [(1, 2, 1.0), (1, 2, 0.5), (1, 3, 1.0)],
                             ids=["graph_large", "union_refine", "codim2_cover"])
    def test_matches_dense_reference_on_workload_inputs(self, n_axis, d, s):
        # The benchmark workloads' cover inputs: default kappa, theta0 from the
        # tilt bound, alpha = theta0 / b_used, and s = 2^-m0.
        alpha = alpha0_max(n_axis, 0.2) / 2.0 / 2.5
        axis = Subspace.vertical_axis(d, n_axis)
        seeds = np.concatenate([axis.frame.T, -axis.frame.T], axis=0)
        pts = np.concatenate([seeds, _region_samples(axis, alpha, 200_000)], axis=0)
        spacing = alpha * s * (1.0 - _NET_MARGIN)
        net = _greedy_net(chain([seeds], _region_pieces(axis, alpha, 200_000)), spacing,
                          _Guesses(spacing))
        assert net.tobytes() == greedy_net_loop(pts, spacing).tobytes()


def rim_samples(rng, d, aperture, count=600):
    """Eight directions a few apertures apart, and samples at angle
    aperture * (1 + t) from one of them, |t| <= 1e-6, 1e-2 or 0.5: on the rim,
    just inside and just past it.  cos_small is the dot of the first sample
    with its direction, so that sample sits on the rim exactly."""
    dirs = rng.standard_normal(d) + 5.0 * aperture * rng.standard_normal((8, d))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    owner = dirs[rng.integers(0, 8, count)]
    g = rng.standard_normal((count, d))
    g -= lane_dots(g, owner)[:, None] * owner
    g /= np.linalg.norm(g, axis=1)[:, None]
    angle = aperture * (1.0 + rng.choice([1e-6, 1e-2, 0.5], count)
                        * rng.uniform(-1.0, 1.0, count))
    check = np.cos(angle)[:, None] * owner + np.sin(angle)[:, None] * g
    cos_small = float(lane_dots(check[:1], owner[:1])[0])
    return check, dirs, cos_small


def covered_all_pairs(check, dirs, cos_small):
    """The dot of ``_covered`` on every (sample, direction) pair."""
    i, j = np.divmod(np.arange(len(check) * len(dirs)), len(dirs))
    dots = lane_dots(check[i], dirs[j]).reshape(len(check), len(dirs))
    return (dots >= cos_small).any(axis=1)


class TestCovered:
    @given(d=st.sampled_from([2, 3, 4]),
           aperture=st.sampled_from([0.3, 1e-2, 1e-4, 1e-7]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_all_pairs_reference(self, d, aperture, seed):
        check, dirs, cos_small = rim_samples(np.random.default_rng(seed), d, aperture)
        got = _covered(check, dirs, cos_small, _Guesses(aperture))
        assert got[0]
        assert np.array_equal(got, covered_all_pairs(check, dirs, cos_small))

    def test_a_nearest_direction_that_fails_the_dot_is_not_the_last_word(self):
        # Off the sphere the nearest direction need not have the largest dot:
        # 0.9 e1 is nearest to e1 and fails the dot, a unit direction 0.2 rad
        # away passes it; 0.9 e2 alone leaves e2 uncovered.
        check = np.eye(3)[:2]
        dirs = np.array([[0.9, 0.0, 0.0], [math.cos(0.2), 0.0, math.sin(0.2)],
                         [0.0, 0.9, 0.0]])
        got = _covered(check, dirs, math.cos(0.3), _Guesses(0.3))
        assert got.tolist() == [True, False]
        assert np.array_equal(got, covered_all_pairs(check, dirs, math.cos(0.3)))

    def test_the_plain_chord_drops_rim_pairs(self, monkeypatch):
        # Without the sqrt(r^2 + 64 eps) pad the tree's radius is the chord r
        # itself, and at aperture 1e-7 it misses samples that the exact dot
        # counts as covered.
        check, dirs, cos_small = rim_samples(np.random.default_rng(0), 4, 1e-7)
        monkeypatch.setattr(cover_module, "_EPS", 0.0)
        assert not np.array_equal(_covered(check, dirs, cos_small, _Guesses(1e-7)),
                                  covered_all_pairs(check, dirs, cos_small))


def cache(spacing, one_slot):
    """A fresh guess cache for the net spacing; with ``one_slot`` built while
    ``_SLOTS`` is 1, so that every cell shares its one slot."""
    with pytest.MonkeyPatch.context() as patch:
        if one_slot:
            patch.setattr(cover_module, "_SLOTS", 1)
        guesses = _Guesses(spacing)
    assert len(guesses.table) == (1 if one_slot else cover_module._SLOTS)
    return guesses


def region_input(data, d, alpha, s):
    """An axis of random dimension n < d, its seeds and the net spacing."""
    axis = Subspace.vertical_axis(d, data.draw(st.integers(1, d - 1), label="n"))
    seeds = np.concatenate([axis.frame.T, -axis.frame.T], axis=0)
    return axis, seeds, alpha * s * (1.0 - _NET_MARGIN)


class TestGuessCache:
    # The cache only nominates a centre and the exact test decides, so the
    # net and the coverage mask are those of the dense references whatever
    # its slots name: a fresh cache names centre 0 everywhere, a random one
    # any valid centre, and a one-slot cache gives every cell the same slot.
    @given(d=st.integers(2, 5), data=st.data(), alpha=st.floats(0.05, 0.45),
           s=st.sampled_from([0.25, 0.5, 1.0]), count=st.integers(1, 10_000),
           prime=st.sampled_from(["fresh", "random"]), one_slot=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_net_equals_the_dense_scan(self, d, data, alpha, s, count, prime,
                                       one_slot, seed):
        rng = np.random.default_rng(seed)
        axis, seeds, spacing = region_input(data, d, alpha, s)
        pts = np.concatenate([seeds, _region_samples(axis, alpha, count, rng)], axis=0)
        guesses = cache(spacing, one_slot)
        if prime == "random":
            # The seeds are the first block and its whole net, so every
            # index below their count names a centre from then on.
            guesses.table[:] = rng.integers(0, len(seeds), len(guesses.table))
        net = _greedy_net(chain([seeds], pieces(pts[len(seeds):])), spacing, guesses)
        assert net.tobytes() == greedy_net_loop(pts, spacing).tobytes()

    @given(d=st.integers(2, 5), data=st.data(), alpha=st.floats(0.05, 0.45),
           s=st.sampled_from([0.25, 0.5, 1.0]), count=st.integers(1, 10_000),
           widen=st.sampled_from([1.0, 1.5]),
           prime=st.sampled_from(["net", "zero", "random"]), one_slot=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_covered_equals_the_chunked_product(self, d, data, alpha, s, count, widen,
                                                prime, one_slot, seed):
        # The net of ``count`` region samples, and check samples from the
        # region or from one 1.5 times as wide: a sparse net or a wide
        # region leaves escapes, whose first one is the cover's witness.
        rng = np.random.default_rng(seed)
        axis, seeds, spacing = region_input(data, d, alpha, s)
        guesses = cache(spacing, one_slot)
        net = _greedy_net(chain([seeds], pieces(_region_samples(axis, alpha, count, rng))),
                          spacing, guesses)
        if prime == "zero":
            guesses.table[:] = 0
        elif prime == "random":
            guesses.table[:] = rng.integers(0, len(net), len(guesses.table))
        check = _region_samples(axis, min(alpha * widen, 0.9), 2000, rng)
        cos_small = math.sqrt(1.0 - (alpha * s) ** 2)
        got = _covered(check, net, cos_small, guesses)
        want = covered_chunked(check, net, cos_small)
        assert np.array_equal(got, want)
        event("escapes" if not got.all() else "covered")
        assert np.argmax(~got) == np.argmax(~want)

    def test_few_points_ask_the_tree(self, monkeypatch):
        # The codim2_cover workload's cover: of the 200,000 net samples and
        # 20,000 check samples, most pass on their guess, and at most 55,000
        # ask the kd-tree for their nearest centre.
        asked = []

        class Counted(cKDTree):
            def query(self, x, *args, **kwargs):
                asked.append(len(x))
                return super().query(x, *args, **kwargs)

        monkeypatch.setattr(cover_module, "cKDTree", Counted)
        cover = build_cover(vertical_axis(3), 0.009750297265160525, 1.0)
        assert cover.m == 1471
        assert 0 < sum(asked) <= 55_000


class TestCertificateChunks:
    @pytest.mark.parametrize("alpha, s", [(0.3, 0.5), (0.05, 0.25)],
                             ids=["cover", "escapes"])
    def test_matches_the_chunked_loop(self, monkeypatch, alpha, s):
        # The kd-tree check against the dense chunked product it replaced (a
        # single product for the 173-direction cover, 18 for the
        # 3,630-direction net): the same cover, or the same escape count and
        # witness.
        def outcome():
            try:
                cover = build_cover(vertical_axis(3), alpha, s, check_samples=20_000,
                                    net_samples=100_000, seed=0)
                return cover.directions.tobytes(), cover.b_measured
            except CoverInvalidError as exc:
                return str(exc), exc.witness.tobytes()

        got = outcome()
        monkeypatch.setattr(cover_module, "_covered",
                            lambda check, dirs, cos_small, guesses:
                            covered_chunked(check, dirs, cos_small))
        assert got == outcome()

    def test_products_are_chunked(self, monkeypatch):
        # 2,527 directions x 20,000 check samples would be a 386 MB dense
        # product; the coverage check stays far under 256 MB.  The net size
        # is read before the check, so the premise is checked whether the
        # call returns a cover or raises.
        sizes = []

        def net(stream, spacing, guesses, done=None):
            out = _greedy_net(stream, spacing, guesses, done)
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


# The planar workloads' cover aperture: theta0 at the default kappa over b_used.
PLANAR_ALPHA = alpha0_max(1, 0.2) / 5.0


def planar_axis(angle):
    return Subspace(np.array([[math.cos(angle)], [math.sin(angle)]]))


def arc_centres(axis, angles, radius=1.0):
    u = axis.frame[:, 0]
    v = np.array([-u[1], u[0]])
    angles = np.asarray(angles, dtype=float)
    return radius * (np.cos(angles)[:, None] * u + np.sin(angles)[:, None] * v)


def evenly_covering(axis, alpha, spacing, step, end_gap=None):
    """Centres ``step`` half-widths apart along both arcs: their
    2 asin(spacing / 2) caps overlap for step < 2.  The outer caps end
    ``end_gap`` inside each arc's ends (outside if negative); by default the
    outer centres sit on the ends."""
    half = 2.0 * math.asin(0.5 * spacing)
    width = math.asin(alpha)
    first = -width if end_gap is None else half - width + end_gap
    count = max(math.ceil((-2.0 * first) / (step * half)), 1)
    offsets = np.append(first + step * half * np.arange(count), -first)
    return arc_centres(axis, np.concatenate([offsets, math.pi + offsets]))


def passes_the_net_test(points, centres, spacing):
    """Per point, whether some centre lies within the net's exact test."""
    sq = spacing * spacing
    hit = np.zeros(len(points), dtype=bool)
    for start in range(0, len(points), 2048):
        diff = points[start:start + 2048, None, :] - centres[None, :, :]
        hit[start:start + 2048] = (lane_dots(diff) <= sq).any(axis=1)
    return hit


class TestPlanarStop:
    @pytest.mark.parametrize("angle, alpha, s", [
        (0.5 * math.pi, PLANAR_ALPHA, 1.0),
        (0.5 * math.pi, PLANAR_ALPHA, 0.5),
        (0.5 * math.pi, 0.3, 0.25),
        (2.2146, 0.2, 0.5),
    ], ids=["graph_large", "union_refine", "many_blocks", "random_axis"])
    def test_cover_equals_the_full_scan(self, monkeypatch, angle, alpha, s):
        # The net stops once its caps cover both arcs, and equals the dense
        # greedy scan over the seeds and every one of the 200,000 samples.
        drawn = []

        def spy(dim, start, size):
            drawn.append(size)
            return _sobol(dim, start, size)

        monkeypatch.setattr(cover_module, "_sobol", spy)
        axis = planar_axis(angle)
        cover = build_cover(axis, alpha, s, net_samples=200_000)
        assert sum(drawn) < 2**19
        seeds = np.concatenate([axis.frame.T, -axis.frame.T], axis=0)
        region = region_samples_reference(axis, alpha, 200_000)
        want = greedy_net_loop(np.concatenate([seeds, region], axis=0),
                               alpha * s * (1.0 - _NET_MARGIN))
        assert cover.directions.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d, n, s, proposals", [
        (2, 1, 1.0, 2 ** 10), (2, 1, 0.5, 2 ** 10), (3, 1, 1.0, 9 * _SUB_BLOCK),
        (3, 2, 1.0, 21 * _SUB_BLOCK),
    ], ids=["graph_large", "union_refine", "codim2_cover", "surface"])
    def test_proposals_drawn_on_workload_inputs(self, monkeypatch, d, n, s, proposals):
        # The planar nets stop in their first block, so the sampler transforms
        # only its first block of 2^10 proposals; at d = 3 the net reads all
        # 200,000 samples, which take fourteen blocks (294,912 proposals) on
        # the line axis and twenty-six (688,128) on the plane axis.  The
        # stream's blocks are 2^10 twice, then doubling up to _SUB_BLOCK, then
        # _SUB_BLOCK each, past 2^19 too.  The d = 3 net's sampler makes the
        # calls of the plain _region_samples, none past its last sample.
        drawn = []

        def spy(dim, start, size):
            drawn.append((start, size))
            return _sobol(dim, start, size)

        monkeypatch.setattr(cover_module, "_sobol", spy)
        axis = Subspace.vertical_axis(d, n)
        cover = build_cover(axis, PLANAR_ALPHA, s, net_samples=200_000)
        stream, start = [], 0
        while len(stream) < len(drawn):
            stream.append((start, min(max(start, 2 ** 10), _SUB_BLOCK)))
            start += stream[-1][1]
        assert drawn == stream
        assert [size for _, size in drawn[:7]] == [
            2 ** 10, 2 ** 10, 2 ** 11, 2 ** 12, 2 ** 13, 2 ** 14, _SUB_BLOCK][:len(drawn)]
        assert sum(size for _, size in drawn) == proposals
        assert all(size == _SUB_BLOCK for start, size in drawn if start >= 2 ** 19)
        assert cover.m == {(2, 1, 1.0): 6, (2, 1, 0.5): 10, (3, 1, 1.0): 1471,
                           (3, 2, 1.0): 13}[d, n, s]
        if d == 3:
            by_net = drawn[:]
            drawn.clear()
            _region_samples(axis, PLANAR_ALPHA, 200_000)
            assert by_net == drawn

    @settings(max_examples=100)
    @given(angle=st.floats(0.0, 2.0 * math.pi),
           alpha=st.one_of(st.just(PLANAR_ALPHA), st.floats(1e-4, 0.95)),
           s=st.one_of(st.sampled_from([1.0, 0.5, 0.25]), st.floats(0.02, 1.0)),
           step=st.one_of(st.sampled_from([2.0 * (1.0 - 2e-9), 2.0 * (1.0 - 1e-9),
                                           2.0 * (1.0 - 1e-12), 2.0, 2.0 * (1.0 + 1e-7)]),
                          st.floats(0.5, 2.2)),
           end=st.one_of(st.none(), st.sampled_from([-100.0, -10.0, -1.0, 0.0, 10.0, 1e3])),
           jitter=st.sampled_from([0.0, 1e-15, 1e-12, 1e-3]),
           radius=st.sampled_from([1.0, 1.0 - 2e-16, 1.0 + 4e-16]),
           drop=st.one_of(st.just(-1), st.integers(0, 400)),
           seed=st.integers(0, 2**32 - 1))
    def test_true_only_when_every_arc_point_passes(self, angle, alpha, s, step, end,
                                                   jitter, radius, drop, seed):
        # Whenever the sweep says the arcs are covered, every point of a dense
        # angular grid over both arcs passes the exact test against some
        # centre: the arc ends and their 1-ulp neighbours, each centre's cap
        # ends at 2 asin(spacing / 2) and theirs, at radii 1 and 1 +- 2 eps.
        # The outer caps end on, or a few multiples of alpha * 1e-9 (the arcs'
        # margin) inside or outside, the arc ends.
        axis = planar_axis(angle)
        spacing = alpha * s * (1.0 - _NET_MARGIN)
        rng = np.random.default_rng(seed)
        centres = evenly_covering(axis, alpha, spacing, step,
                                  None if end is None else end * alpha * 1e-9)
        u = axis.frame[:, 0]
        theta = np.arctan2(centres @ np.array([-u[1], u[0]]), centres @ u)
        theta += jitter * rng.uniform(-1.0, 1.0, len(theta))
        if 0 <= drop < len(theta):
            theta = np.delete(theta, drop)
        centres = arc_centres(axis, rng.permutation(theta), radius)
        covered = _arcs_covered(centres, axis, alpha, spacing)
        event(f"covered: {covered}")
        if not covered:
            return
        width = math.asin(alpha)
        half = 2.0 * math.asin(0.5 * spacing)
        angles = [np.linspace(mid - width, mid + width, 4001) for mid in (0.0, math.pi)]
        edges = np.concatenate([[-width, width, math.pi - width, math.pi + width],
                                theta - half, theta + half])
        angles += [edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)]
        angles = np.concatenate(angles)
        angles = angles[np.abs(np.sin(angles)) <= alpha]
        grid = arc_centres(axis, angles)
        grid = np.concatenate([grid * (1.0 - 2.0 * np.finfo(float).eps), grid,
                               grid * (1.0 + 2.0 * np.finfo(float).eps)])
        assert passes_the_net_test(grid, centres, spacing).all()

    def test_false_cases(self):
        axis = vertical_axis(2)
        spacing = PLANAR_ALPHA * 0.5 * (1.0 - _NET_MARGIN)
        centres = evenly_covering(axis, PLANAR_ALPHA, spacing, 1.5)
        assert _arcs_covered(centres, axis, PLANAR_ALPHA, spacing)
        # A missing centre leaves a gap in one arc.
        assert not _arcs_covered(np.delete(centres, 2, axis=0), axis, PLANAR_ALPHA,
                                 spacing)
        assert not _arcs_covered(centres[:len(centres) // 2], axis, PLANAR_ALPHA, spacing)
        # The margins: caps that overlap by 2e-9 of their width and pass the
        # arc ends by 1e-8 alpha cover, while caps 1e-9 of their width apart,
        # or ending 1e-7 alpha inside the ends, leave points out.
        def covered(step, end_gap):
            centres = evenly_covering(axis, PLANAR_ALPHA, spacing, step, end_gap)
            return _arcs_covered(centres, axis, PLANAR_ALPHA, spacing)

        assert covered(2.0 * (1.0 - 2e-9), -1e-8 * PLANAR_ALPHA)
        assert not covered(2.0 * (1.0 + 1e-9), -1e-8 * PLANAR_ALPHA)
        assert not covered(1.5, 1e-7 * PLANAR_ALPHA)
        # The region is the whole circle (or within 1e-9 of it): full scan.
        dense = evenly_covering(axis, 0.999, 0.1, 1.0)
        assert _arcs_covered(dense, axis, 0.99, 0.1)
        for alpha in (1.0, 1.0 - 1e-12, 1.5):
            assert not _arcs_covered(dense, axis, alpha, 0.1)
        # Spacing under the floor, where the rounding margins are too thin.
        small = 0.5 * _ARC_FLOOR
        dense = evenly_covering(axis, 0.01, small, 1.0)
        assert _arcs_covered(dense, axis, 0.01, 4.0 * _ARC_FLOOR)
        assert not _arcs_covered(dense, axis, 0.01, small)
