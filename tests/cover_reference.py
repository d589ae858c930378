"""Chunked dense coverage check, the test-side reference for ``cover._covered``.

Forms the dot products of the check samples with every net direction in
chunks of check rows (at most ``_CHUNK_ELEMS`` products each) and marks a
sample covered when some dot reaches ``cos_small``.
"""

import numpy as np

_CHUNK_ELEMS = 1 << 22


def covered_chunked(check, directions, cos_small):
    covered = np.empty(len(check), dtype=bool)
    rows = max(_CHUNK_ELEMS // len(directions), 1)
    for start in range(0, len(check), rows):
        cos = check[start:start + rows] @ directions.T
        covered[start:start + rows] = (cos >= cos_small).any(axis=1)
    return covered
