"""The pair budget ``shells._CHUNK`` sizes every dense pairwise pass.

``ball_masses``, ``certify_graph`` and ``extend_mcshane`` take
max(1, budget // width) rows per block: their results do not depend on the
budget, and their working memory does not grow with the number of rows.
"""

import tracemalloc

import numpy as np
import pytest

from graphcarve import (
    NotAGraphError,
    WeightedCloud,
    certify_graph,
    extend_mcshane,
    lipschitz_graph,
    shells,
)
from graphcarve.measure import ball_masses
from tests.extract_reference import certify_graph_loop, extend_mcshane_loop


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


def _certified(certify, cloud, subset):
    """The slope's bits, or the witness and message of the steep pair."""
    try:
        return np.float64(certify(cloud, subset, 0.3)).tobytes()
    except NotAGraphError as exc:
        return exc.witness, str(exc)


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
            _certified(lambda *args: certify_graph(*args).lipschitz, cloud, subset),
            extend_mcshane(model, queries).tobytes()))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert outcomes[0][1] == _certified(certify_graph_loop, cloud, subset)
    assert outcomes[0][2] == extend_mcshane_loop(model, queries).tobytes()
    assert isinstance(outcomes[0][1], tuple) == bool(planted)


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
