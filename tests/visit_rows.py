"""Per-row visits of a ``ShellTable`` against the brute-force oracle.

Reports carry counts only: the visited scales and lowest witnesses of a row
come from ``ShellTable.scales`` and ``ShellTable.witness``.  The assertion
below compares them, row by row, with the lists that ``audit._oracle_visits``
builds from all pairs.
"""

import numpy as np

from graphcarve.audit import _oracle_visits


def assert_rows_match_oracle(cloud, table, alive=None):
    """Counts, scales and witnesses of the alive rows of ``table`` (visited by
    alive columns only) equal the oracle's on the alive subset."""
    if alive is None:
        alive = np.ones(len(table.subset), dtype=bool)
    rows = np.nonzero(alive)[0]
    counts, scales, witnesses = _oracle_visits(cloud, table.subset[rows], table.aperture,
                                               table.scale_range, table.direction)
    assert np.array_equal(table.counts(alive)[rows], counts)
    for pos, js, wits in zip(rows, scales, witnesses):
        assert np.array_equal(table.scales(pos, alive), js)
        assert [table.witness(pos, int(j), alive) for j in js] == list(wits)
