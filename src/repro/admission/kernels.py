"""The batch slot kernel and its differential reference.

Two implementations of the sequential-equivalent slot decision (see
:mod:`repro.admission.batch` for the contract):

``batch_slot_decisions_numpy``
    The vectorized interval iteration — the one kernel production runs
    (:func:`repro.admission.batch.batch_slot_decisions` *is* this
    function).
``batch_slot_decisions_sequential``
    The plain-Python test-then-commit loop.  Slow, but it *is* the
    semantics — the differential suite and :mod:`repro.verify` pin the
    kernel to it bit for bit.

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
    """The vectorized interval-iteration reference (always available).

    For request ``i`` and server
    ``s`` let ``before(i, s)`` be the number of *admitted* requests ``j < i``
    whose route crosses ``s``; the sequential rule admits ``i`` iff
    ``before(i, s) < free[s]`` for every ``s`` on its route.  Each round
    computes two vectorized bounds per request:

    * **optimistic** — counting every earlier request not yet rejected.  If
      even that count fits everywhere, the request is admitted no matter how
      the undecided ones resolve.
    * **definite** — counting only earlier requests already known admitted.
      If that count already overflows some server, the request is rejected
      no matter what.

    Requests settled by either bound leave the undecided set and the bounds
    tighten.  The first undecided request always has all its predecessors
    decided, making both bounds equal for it, so every round settles at
    least one request and the loop terminates in at most ``batch`` rounds
    (one or two in practice).  The fixpoint is exactly the sequential
    outcome, which the differential property suite asserts bit-for-bit.
    """
    b, width = matrix.shape
    admitted = np.zeros(b, dtype=bool)
    if b == 0:
        return admitted
    if width == 0:
        # No queueing servers anywhere: everything fits.
        admitted[:] = True
        return admitted

    flat = matrix.ravel()
    # Uncontended fast path: if every server fits its *total* batch
    # demand, even the last crossing request sees fewer than ``free``
    # earlier commits, so the sequential loop admits everything — no
    # iteration needed.  This is the steady state of an admission
    # controller running inside its utilization budget.
    totals = np.bincount(flat, minlength=free.size)
    if (totals <= free).all():
        admitted[:] = True
        return admitted

    # Stable server-major order: within one server's group, occurrences
    # appear in batch order, so a group-wise exclusive prefix sum of a
    # 0/1 request mask yields "crossings by earlier masked requests".
    # Server indices fit u16/u32 in practice, where the stable radix
    # sort is several times faster than on int64 keys.
    if free.size <= 0xFFFF:
        order = np.argsort(flat.astype(np.uint16), kind="stable")
    elif free.size <= 0xFFFFFFFF:
        order = np.argsort(flat.astype(np.uint32), kind="stable")
    else:  # pragma: no cover - billions of servers
        order = np.argsort(flat, kind="stable")
    sorted_servers = flat[order]
    start_idx = np.flatnonzero(
        np.r_[True, sorted_servers[1:] != sorted_servers[:-1]]
    )
    sizes = np.diff(np.r_[start_idx, flat.size])
    # Per occurrence (in server-major order): index of its group head,
    # so the per-server prefix restart is a gather instead of a repeat
    # inside the round loop.
    heads = np.repeat(start_idx, sizes)
    rows_sorted = order // width
    # A row that visits one server twice must not count its own earlier
    # occurrences as crossings: the sequential loop tests *then*
    # commits, so a request never sees its own demand.  In server-major
    # order same-(server, row) occurrences are adjacent; their rank
    # within the run is exactly the self-crossing overcount whenever
    # the row itself is in the counted mask.  Real routes never repeat
    # a server, so the common case skips the correction entirely.
    dup_breaks = np.r_[
        True,
        (sorted_servers[1:] != sorted_servers[:-1])
        | (rows_sorted[1:] != rows_sorted[:-1]),
    ]
    if dup_breaks.all():
        self_rank = None
    else:
        run_starts = np.flatnonzero(dup_breaks)
        pos = np.arange(flat.size, dtype=np.int32)
        self_rank = pos - np.repeat(
            pos[run_starts], np.diff(np.r_[run_starts, flat.size])
        )
    # Crossing counts are bounded by the batch's occurrence count, so
    # the compare runs in int32 against a clipped copy of the free
    # view (PADDING_FREE and degraded negative counts both survive the
    # clip with their comparisons intact).
    bound = flat.size + 1
    base_free = np.clip(free[matrix], -bound, bound).astype(np.int32)

    scatter = np.empty(flat.size, dtype=np.int32)

    def crossings_before(mask_rows: np.ndarray) -> np.ndarray:
        """Per occurrence (i, s): masked requests j < i crossing s."""
        contrib = mask_rows[rows_sorted]
        cum = np.cumsum(contrib, dtype=np.int32)
        cum -= contrib  # exclusive
        cum -= cum[heads]  # restart per server
        if self_rank is not None:
            cum -= self_rank * contrib  # drop same-row occurrences
        scatter[order] = cum
        return scatter.reshape(b, width)

    undecided = np.ones(b, dtype=bool)
    # The optimistic mask ``admitted | undecided`` only changes when a
    # request is rejected, and the definite mask ``admitted`` only when
    # one is admitted — each round recomputes just the bound(s) its
    # previous round invalidated.  Round one's definite crossings are
    # identically zero (nothing is admitted yet), so it starts from the
    # free view alone.
    optimistic_bad = (crossings_before(undecided) >= base_free).any(
        axis=1
    )
    definite_bad = (base_free <= 0).any(axis=1)
    # Interval rounds settle the bulk of a contended batch quickly but
    # can take O(batch) rounds to squeeze out the last stragglers;
    # once few enough remain, an exact scalar sweep over just those
    # rows is cheaper than more full-width rounds.
    cutoff = max(64, b >> 2)
    while True:
        newly_admitted = undecided & ~optimistic_bad
        newly_rejected = undecided & definite_bad
        settled = newly_admitted | newly_rejected
        if not settled.any():  # pragma: no cover - proven impossible
            raise AssertionError(
                "batch admission made no progress (kernel bug)"
            )
        admitted |= newly_admitted
        undecided &= ~settled
        remaining = int(undecided.sum())
        if remaining == 0:
            return admitted
        if remaining <= cutoff:
            break
        if newly_rejected.any():
            optimistic_bad = (
                crossings_before(admitted | undecided) >= base_free
            ).any(axis=1)
        if newly_admitted.any():
            definite_bad = (
                crossings_before(admitted) >= base_free
            ).any(axis=1)

    # Scalar tail: the undecided rows in batch order, each tested
    # against its *effective* free counts — the base free view minus
    # commits from already-admitted earlier rows (position-exact via
    # the crossings sum) — plus the commits this sweep makes itself.
    # Test-then-commit per row, exactly the sequential reference.
    rem = np.flatnonzero(undecided)
    eff_rows = (base_free - crossings_before(admitted))[rem].tolist()
    route_rows = matrix[rem].tolist()
    rem_list = rem.tolist()
    delta = [0] * free.size
    for pos, row in enumerate(route_rows):
        eff = eff_rows[pos]
        ok = True
        for k, server in enumerate(row):
            if delta[server] >= eff[k]:
                ok = False
                break
        if ok:
            admitted[rem_list[pos]] = True
            for server in row:
                delta[server] += 1
    return admitted


def active_slot_kernel() -> str:
    """Name of the one production kernel (bench fingerprints record it)."""
    return "numpy"
