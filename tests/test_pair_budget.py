"""The pair budget ``shells._CHUNK`` sizes every dense pairwise pass.

``ball_masses``, ``certify_graph`` and ``extend_mcshane`` take
max(1, budget // width) rows per block, built by ``shells.pair_differences``:
their results do not depend on the budget and equal the broadcast loops of
the references bit for bit, and their working memory does not grow with the
number of rows.  ``projection_energy`` bins max(1, budget // points) frames
per block: its report does not depend on the budget either, and its memory
does not grow with the number of frames.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphcarve import (
    InputError,
    NotAGraphError,
    WeightedCloud,
    certify_graph,
    extend_mcshane,
    Subspace,
    lipschitz_graph,
    outlier_stacks,
    projection_energy,
    shells,
)
from graphcarve.measure import ball_masses
from graphcarve.pipeline import normalize_to_unit_ball
from tests.extract_reference import certify_graph_loop, extend_mcshane_loop
from tests.lane_sums import lane_dots
from tests.measure_reference import ball_masses_loop


def _curve(size, planted=()):
    """A gentle graph over a line in R^3, in the order of its horizontal
    coordinate, with steep pairs (a, a + gap) planted."""
    rng = np.random.default_rng(3)
    t = np.sort(rng.uniform(0.0, 10.0, size))
    coords = np.column_stack([t, 0.3 * np.sin(t), 0.2 * np.cos(2.0 * t)])
    for a, gap in planted:
        coords[a + gap] = coords[a] + [1e-4, 0.05, -0.02]
    return WeightedCloud(coords, rng.uniform(0.5, 1.5, size), n=1, delta_res=1e-3,
                         check_separation=False)


def _certified(certify, cloud, subset, theta=0.3):
    """The slope's bits, or the witness and message of the steep pair."""
    try:
        return np.float64(certify(cloud, subset, theta)).tobytes()
    except NotAGraphError as exc:
        return exc.witness, str(exc)


def _lipschitz(cloud, subset, theta):
    return certify_graph(cloud, subset, theta).lipschitz


@pytest.mark.parametrize("planted", [(), ((40, 1),), ((5, 250), (200, 7), (40, 1))],
                         ids=["graph", "adjacent", "three"])
@pytest.mark.parametrize("subset", [None, np.random.default_rng(5).permutation(300)[:260]],
                         ids=["all", "subset"])
def test_block_size_leaves_every_pass_unchanged(monkeypatch, planted, subset):
    # Budget 1 makes every block one row; 7 also packs the last rows of the
    # certificate, whose widths fall below 7, several to a block; the default
    # takes about a hundred rows of 300.
    cloud = _curve(300, planted)
    model = certify_graph(_curve(300), theta=0.3)
    queries = np.concatenate([model.sample_base[::7],
                              np.random.default_rng(1).uniform(-1.0, 11.0, (400, 1))])
    outcomes = []
    for budget in (1, 7, shells._CHUNK):
        monkeypatch.setattr(shells, "_CHUNK", budget)
        outcomes.append((
            ball_masses(cloud, [4.0, 0.3, 0.05], subset, np.arange(0, 300, 2)).tobytes(),
            _certified(_lipschitz, cloud, subset),
            extend_mcshane(model, queries).tobytes()))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert outcomes[0][1] == _certified(certify_graph_loop, cloud, subset)
    assert outcomes[0][2] == extend_mcshane_loop(model, queries).tobytes()
    assert isinstance(outcomes[0][1], tuple) == bool(planted)


def test_pair_differences_are_the_broadcast_in_coordinate_planes():
    rng = np.random.default_rng(2)
    rows, cols = rng.normal(size=(5, 3)) * 1e3, rng.normal(size=(7, 3))
    diff = shells.pair_differences(rows, cols)
    assert diff.shape == (5, 7, 3)
    assert (np.ascontiguousarray(diff).tobytes()
            == (rows[:, None, :] - cols[None, :, :]).tobytes())
    assert all(diff[..., k].flags.c_contiguous for k in range(3))


def test_dense_passes_stay_within_the_pair_budget():
    # At 8,000 points certificate blocks of 256 rows trace 134 MB, and 64 query
    # rows in one block 21 MB; blocks of 2^15 pairs trace about 2 MB.
    cloud = lipschitz_graph(8000, 0.3, seed=1)
    tracemalloc.start()
    try:
        certify_graph(cloud, theta=0.5)
        certify_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        ball_masses(cloud, [0.5, 0.1], np.arange(64))
        ball_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert certify_peak < 8e6
    assert ball_peak < 4e6


def _energy_bits(cloud, samples):
    report = projection_energy(cloud, Subspace.horizontal(2, 1), 0.2, samples, 1 / 32, seed=1)
    return (report.mean_l2_sq, report.per_sample.tobytes(), report.distances.tobytes(),
            report.acceptance_rate)


def test_projection_energy_is_the_same_under_every_budget(monkeypatch):
    # A pipeline's e1 of 2,200 points: budget 1 bins one frame per block and
    # ranks every frame by _unique_rows, 7 the same, the default 14 frames per
    # block by the counting table.
    cloud, _ = normalize_to_unit_ball(outlier_stacks(n_base=2000, seed=11))
    outcomes = []
    for budget in (1, 7, shells._CHUNK):
        monkeypatch.setattr(shells, "_CHUNK", budget)
        outcomes.append(_energy_bits(cloud, 200))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_projection_energy_memory_is_flat_in_the_sample_count():
    # Blocks of 14 frames of 2,200 points trace about 1.6 MB at 200 frames
    # and at 2,000; one block of all the frames would hold ten times more.
    cloud, _ = normalize_to_unit_ball(outlier_stacks(n_base=2000, seed=11))
    peaks = []
    tracemalloc.start()
    try:
        for samples in (200, 2000):
            tracemalloc.reset_peak()
            projection_energy(cloud, Subspace.horizontal(2, 1), 0.2, samples, 1 / 32, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[0] < 3e6
    assert peaks[1] < 1.25 * peaks[0]


@given(st.data())
def test_dense_passes_equal_the_broadcast_loops(data):
    # Graphs over n of d <= 5 coordinates, shifted by up to 1e6 per
    # coordinate, some with steep pairs planted; under every budget each pass
    # equals its reference bit for bit.
    d = data.draw(st.integers(2, 5), label="d")
    n = data.draw(st.integers(1, d - 1), label="n")
    size = data.draw(st.integers(1, 40), label="size")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    shift = rng.uniform(-1.0, 1.0, d) * 10.0 ** data.draw(st.integers(0, 6), label="shift")
    base = rng.uniform(0.0, 10.0, (size, n))
    heights = 0.2 * np.sin(base @ rng.normal(size=(n, d - n)) / np.sqrt(n))
    coords = np.concatenate([base, heights], axis=1)
    for _ in range(data.draw(st.integers(0, 3), label="planted") if size > 1 else 0):
        a, b = rng.choice(size, 2, replace=False)
        coords[b] = coords[a] + rng.normal(size=d) * np.r_[np.full(n, 1e-3), np.ones(d - n)]
    cloud = WeightedCloud(coords + shift, rng.uniform(0.5, 1.5, size), n=n,
                          delta_res=1e-3, check_separation=False)
    theta = data.draw(st.sampled_from([0.05, 0.3, 0.7]), label="theta")
    subset = rng.permutation(size)[:rng.integers(1, size + 1)]
    carrier = rng.permutation(size)[:rng.integers(0, size + 1)]
    radii = [0.0, 0.5, 3.0, 50.0]
    try:
        model = certify_graph(cloud, theta=theta)
    except NotAGraphError:
        model = None
    if model is not None:
        queries = np.concatenate([model.sample_base[::3],
                                  rng.uniform(-1.0, 11.0, (15, n)) + shift[:n]])
    expected = (ball_masses_loop(cloud, radii, subset, carrier).tobytes(),
                _certified(certify_graph_loop, cloud, subset, theta),
                model and extend_mcshane_loop(model, queries).tobytes())
    with pytest.MonkeyPatch.context() as patch:
        for budget in (1, 7, shells._CHUNK):
            patch.setattr(shells, "_CHUNK", budget)
            assert (ball_masses(cloud, radii, subset, carrier).tobytes(),
                    _certified(_lipschitz, cloud, subset, theta),
                    model and extend_mcshane(model, queries).tobytes()) == expected


def _planted_pair(delta):
    """The pair (0, delta), then a horizontal row of points far off to its right."""
    row = np.zeros((6, len(delta)))
    row[:, 0] = 100.0 + np.arange(6.0)
    coords = np.concatenate([np.zeros((1, len(delta))), [delta], row])
    return WeightedCloud(coords, np.ones(len(coords)), n=1, delta_res=1e-6,
                         check_separation=False)


def _same_as_loop(cloud, theta):
    got = _certified(_lipschitz, cloud, None, theta)
    assert got == _certified(certify_graph_loop, cloud, None, theta)
    return got


@pytest.mark.parametrize("theta", [1e-6, 0.1, 0.3, 0.5, 1.0 - 1e-7])
def test_pairs_at_the_cone_boundary_reach_the_cone_test(theta):
    # Pairs whose slope ratio lies within 1e-12 (relative) of (1 - theta^2) /
    # theta^2, on both sides.  The hard ones are steep yet round to a ratio
    # below fl((1 - t) / t), t = fl(theta^2): a test of the slope would pass
    # them, the cone test on the squares does not (nine of them at theta = 0.3).
    rng = np.random.default_rng(11)
    size, sq = 20000, theta * theta
    bound = (1.0 - sq) / sq
    along = rng.uniform(0.5, 2.0, size) * rng.choice([-1.0, 1.0], size)
    up = rng.normal(size=(size, 2))
    up /= np.linalg.norm(up, axis=1)[:, None]
    scale = 1.0 + rng.uniform(-1e-12, 1e-12, size) * 10.0 ** -rng.integers(0, 5, size)
    delta = np.column_stack([along, up * (np.sqrt(bound * scale) * np.abs(along))[:, None]])
    horiz_sq, dist_sq = delta[:, 0] * delta[:, 0], lane_dots(delta)
    steep = shells.in_cone(horiz_sq, dist_sq, theta, strict=True)
    ratio = np.maximum(dist_sq - horiz_sq, 0.0) / horiz_sq
    hard = np.flatnonzero(steep & (ratio < bound))
    picks = np.concatenate([hard, rng.choice(np.flatnonzero(steep), 20),
                            rng.choice(np.flatnonzero(~steep), 20)])
    outcomes = [_same_as_loop(_planted_pair(delta[k]), theta) for k in picks]
    assert sum(isinstance(got, tuple) for got in outcomes) == len(picks) - 20
    assert len(hard) or theta != 0.3


@pytest.mark.parametrize("theta", [1e-170, 1e-6, 0.1, 0.3, 0.5, 1.0 - 1e-7])
def test_vertical_and_duplicate_pairs_reach_the_cone_test(theta):
    # A pair with horizontal difference exactly 0 has no slope ratio; it is
    # steep whenever fl(theta^2 |delta|^2) > 0.  At theta = 1e-170 theta^2
    # underflows to 0, which would pass the vertical pair, so the certificate
    # refuses that aperture.
    gentle = np.array([[0.0, 0.0, 0.0], [1.0, 1e-9, 0.0], [2.0, 0.0, 0.0], [3.0, 1e-9, 0.0],
                       [4.0, 2e-150, 1e-150], [5.0, 1e-4, 1e-4]])
    duplicates = np.concatenate([gentle, gentle[[1, 3]]])
    for extra, steep in (((), False), (([2.0, 0.0, 1e-3],), True),
                         (([1e-100, 1.0, 0.0],), True)):
        coords = np.concatenate([duplicates, np.reshape(extra, (-1, 3))])
        cloud = WeightedCloud(coords, np.ones(len(coords)), n=1, delta_res=1e-6,
                              check_separation=False)
        if theta == 1e-170:
            with pytest.raises(InputError, match="normal float square"):
                certify_graph(cloud, theta=theta)
            continue
        assert isinstance(_same_as_loop(cloud, theta), tuple) == steep


@pytest.mark.parametrize("theta", [1e-170, 0.1, 0.5])
@pytest.mark.parametrize("extra, steep", [
    ((), False),
    (([2.0, 30.0],), True),
    (([0.0, 1e200],), True),
    (([0.0, 1e200], [0.0, -1e200]), True),
    (([2.0, 1e200],), True),
    (([-1e199, 1e199],), False),
], ids=["far", "steep_beside_far", "vertical_overflow", "vertical_stack", "long_overflow",
        "far_and_high"])
def test_pairs_whose_squares_overflow_match_the_loop(monkeypatch, theta, extra, steep):
    # A gentle graph and a point 1e200 to its right: the horizontal square of
    # every pair with that point overflows, so its slope ratio is inf / inf.
    # Such ratios are left out of the slope, in whichever block they fall;
    # a pair whose full square overflows and whose horizontal one does not
    # is steep, whether it is vertical or not.  The slope bits, or the
    # witness and message, equal the loop's under every block size.  At
    # theta = 1e-170, whose square underflows to 0, the certificate refuses the
    # aperture.
    t = np.linspace(0.5, 10.0, 40)
    coords = np.concatenate([np.column_stack([t, 0.05 * np.sin(t)]), [[1e200, 0.0]],
                             np.reshape(extra, (-1, 2))])
    cloud = WeightedCloud(coords, np.ones(len(coords)), n=1, delta_res=1e-6,
                          check_separation=False)
    if theta == 1e-170:
        with pytest.raises(InputError, match="normal float square"):
            certify_graph(cloud, theta=theta)
        return
    outcomes = set()
    for budget in (1, 7, shells._CHUNK):
        monkeypatch.setattr(shells, "_CHUNK", budget)
        outcomes.add(_certified(_lipschitz, cloud, None, theta))
    with np.errstate(over="ignore", invalid="ignore"):
        loop = _certified(certify_graph_loop, cloud, None, theta)
    assert len(outcomes) == 1
    got = outcomes.pop()
    assert got == loop
    assert isinstance(got, tuple) == steep
    if not steep:
        slope = np.abs(np.diff(coords[:40, 1]) / np.diff(t)).max()
        assert np.frombuffer(got)[0] == pytest.approx(slope, rel=0.1)


@pytest.mark.parametrize("theta", [1e-155, 1e-160, 1e-170])
@pytest.mark.parametrize("far", [[1e-150, 1e5], [1e-160, 1e-5]])
def test_slopes_past_the_aperture_bound_are_not_a_graph(theta, far):
    # The slope is 1e155, with a horizontal square of 1e-300 or 1e-320.  Below
    # theta ~ 1e-154, theta^2 leaves the normal range and the slope's square
    # overflows: the certificate named the pair even where the slope lay under
    # the aperture bound 1 / theta, as at theta = 1e-160.  It refuses such an
    # aperture; at the least one whose square is normal, the slope is past the
    # bound, and the certificate names the pair.
    cloud = WeightedCloud(np.array([[0.0, 0.0], far]), np.ones(2), n=1, delta_res=1e-6,
                          check_separation=False)
    with pytest.raises(InputError, match="normal float square"):
        certify_graph(cloud, theta=theta)
    with pytest.raises(NotAGraphError) as caught:
        certify_graph(cloud, theta=2e-154)
    assert caught.value.witness == (0, 1)
