"""The row-by-row visit oracle and its comparison with a ``ShellTable``.

Reports carry counts only: the visited scales and lowest witnesses of a row
come from ``ShellTable.scales`` and ``ShellTable.witness``.
``oracle_visits`` builds them from all pairs, one vertex at a time, with the
same predicate ``cone_shells``; ``assert_rows_match_oracle`` compares a
table with it, row by row.
"""

import numpy as np

from graphcarve.shells import cone_shells


def oracle_visits(cloud, subset, aperture, scale_range, w):
    """Brute-force counts, scales and lowest witnesses: every pair, vertex by vertex."""
    js = scale_range.js
    outer = 2.0 ** (-js.astype(float))
    counts = np.zeros(len(subset), dtype=np.int64)
    visited_scales = []
    witnesses = []
    for row, v in enumerate(subset):
        cand = subset[subset != v]
        if len(cand) == 0:
            visited_scales.append(np.empty(0, dtype=np.int64))
            witnesses.append(np.empty(0, dtype=np.intp))
            continue
        hits = cone_shells(cloud.coords[cand] - cloud.coords[v], aperture, cloud.n,
                           w, outer / 2.0, outer)
        seen = hits.any(axis=0)
        counts[row] = int(seen.sum())
        visited_scales.append(js[seen])
        witnesses.append(cand[np.argmax(hits, axis=0)[seen]])
    return counts, visited_scales, witnesses


def assert_rows_match_oracle(cloud, table, alive=None):
    """Counts, scales and witnesses of the alive rows of ``table`` (visited by
    alive columns only) equal the oracle's on the alive subset."""
    if alive is None:
        alive = np.ones(len(table.subset), dtype=bool)
    rows = np.nonzero(alive)[0]
    counts, scales, witnesses = oracle_visits(cloud, table.subset[rows], table.aperture,
                                              table.scale_range, table.direction)
    assert np.array_equal(table.counts(alive)[rows], counts)
    for pos, js, wits in zip(rows, scales, witnesses):
        assert np.array_equal(table.scales(pos, alive), js)
        assert [table.witness(pos, int(j), alive) for j in js] == list(wits)
