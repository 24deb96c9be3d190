"""Vectorized batch admission kernel.

The paper's run-time admission test is a pure per-server capacity
compare, so a whole batch of requests can be decided with NumPy
reductions instead of a Python loop per flow.  The only subtlety is
**intra-batch contention**: processing the batch sequentially, an
earlier admitted request consumes slots that later requests must see.
:func:`batch_slot_decisions` reproduces those sequential decisions
exactly without materializing the loop.

Routes enter as a **padded server-index matrix** (requests x max route
length); padding cells point at one virtual slot whose free count is
effectively infinite, so they can never cause a violation.

The contract of :func:`batch_slot_decisions` ``(matrix, free)``:
``matrix`` is the ``int64[b, L]`` padded server-index matrix, every cell
indexing into ``free`` and padding cells pointing at an entry that holds
:data:`PADDING_FREE`; ``free`` is the free slots per (possibly virtual)
server **before** the batch, ``capacity - used``, and may be negative
(degraded operation).  It returns ``bool[b]`` where ``admitted[i]`` is
exactly what a sequential loop (test every server, then commit on
success) would have decided for request ``i``.  The function *is* the
vectorized numpy kernel of :mod:`repro.admission.kernels`, which the
kernel differential suite pins bit-identical to the plain sequential
loop kept beside it.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .kernels import batch_slot_decisions_numpy as batch_slot_decisions

__all__ = [
    "PADDING_FREE",
    "pad_server_matrix",
    "batch_slot_decisions",
    "flat_committed_servers",
]

#: Free-slot count of the virtual padding server: larger than any
#: possible intra-batch occurrence count, far below int64 overflow.
PADDING_FREE = np.int64(2) ** 62


def pad_server_matrix(
    rows: Sequence[np.ndarray], pad: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Stack variable-length server-index rows into a padded matrix.

    Returns ``(matrix, lengths)`` where ``matrix`` is ``int64[n, Lmax]``
    with unused cells set to ``pad`` and ``lengths[i]`` is the true
    length of row ``i``.
    """
    n = len(rows)
    lengths = np.fromiter(
        (r.size for r in rows), dtype=np.int64, count=n
    )
    width = int(lengths.max()) if n else 0
    matrix = np.full((n, width), pad, dtype=np.int64)
    if width and lengths.sum():
        mask = np.arange(width) < lengths[:, None]
        matrix[mask] = np.concatenate(
            [r for r in rows if r.size]
        )
    return matrix, lengths


def flat_committed_servers(
    matrix: np.ndarray, admitted: np.ndarray, pad: int
) -> np.ndarray:
    """All (non-padding) server occurrences of the admitted rows."""
    selected = matrix[admitted]
    return selected[selected != pad]
