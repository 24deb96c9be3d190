"""The batch slot kernel and its differential reference.

Two implementations of the sequential-equivalent slot decision (see
:mod:`repro.admission.batch` for the contract):

``batch_slot_decisions_numpy``
    The one kernel production runs
    (:func:`repro.admission.batch.batch_slot_decisions` *is* this
    function): a bincount exit for a batch that fits whole, and the
    test-then-commit loop over Python lists for any other.
``batch_slot_decisions_sequential``
    The plain test-then-commit loop over numpy arrays.  Slow, but it
    *is* the semantics — the differential suite and :mod:`repro.verify`
    pin the kernel to it bit for bit.

There is nothing to select: a second production kernel has to arrive
with a benchmark cell that shows what it buys.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "batch_slot_decisions_sequential",
    "batch_slot_decisions_numpy",
    "active_slot_kernel",
]


def batch_slot_decisions_sequential(
    matrix: np.ndarray, free: np.ndarray
) -> np.ndarray:
    """The plain test-then-commit loop: the semantics, spelled out.

    For each request in batch order: test every server on its route
    against the remaining free count (duplicates on one route test the
    same value — commits happen only after the whole route passes),
    then commit one slot per occurrence on success.
    """
    b, width = matrix.shape
    admitted = np.zeros(b, dtype=bool)
    used = np.zeros(free.shape[0], dtype=np.int64)
    for i in range(b):
        ok = True
        for j in range(width):
            s = matrix[i, j]
            if used[s] >= free[s]:
                ok = False
                break
        if ok:
            admitted[i] = True
            for j in range(width):
                used[matrix[i, j]] += 1
    return admitted


def batch_slot_decisions_numpy(
    matrix: np.ndarray, free: np.ndarray
) -> np.ndarray:
    """The production kernel: a bincount exit, then the sequential loop.

    A batch in which every server fits its *total* demand is admitted
    whole: even the last request crossing a server sees fewer than
    ``free`` earlier commits.  That is the steady state of a controller
    running inside its utilization budget, and it costs one
    ``np.bincount``.  Any other batch is decided by the test-then-commit
    loop itself, over Python lists: a request whose route crosses a
    server with no slot ``left`` is rejected, otherwise it takes one
    slot per occurrence.  All servers are tested before any commit, so
    a route that visits one server twice tests the same pre-commit
    count for both visits; negative free counts reject, and the padding
    slot (:data:`~repro.admission.batch.PADDING_FREE`) never runs out.
    """
    b, width = matrix.shape
    admitted = np.zeros(b, dtype=bool)
    if b == 0 or width == 0:
        admitted[:] = True
        return admitted
    totals = np.bincount(matrix.ravel(), minlength=free.size)
    if (totals <= free).all():
        admitted[:] = True
        return admitted
    left = free.tolist()
    for i, row in enumerate(matrix.tolist()):
        for server in row:
            if left[server] <= 0:
                break
        else:
            admitted[i] = True
            for server in row:
                left[server] -= 1
    return admitted


def active_slot_kernel() -> str:
    """Name of the one production kernel (bench fingerprints record it)."""
    return "numpy"
