"""The batch slot kernel and its differential reference.

Two implementations of the sequential-equivalent slot decision (see
:mod:`repro.admission.batch` for the contract):

``batch_slot_decisions_lists``
    The one kernel production runs, over Python lists: a whole-fit exit
    for a batch every server of which fits its total demand, and the
    test-then-commit loop for any other.  The controller calls it on
    the server rows of a batch and the free slots of its ledger.
    (:func:`repro.admission.batch.batch_slot_decisions` is its ndarray
    adapter, kept for the frozen waterfall.)
``batch_slot_decisions_sequential``
    The plain test-then-commit loop, written as the semantics and
    nothing else.  The differential suite and :mod:`repro.verify` pin
    the kernel to it bit for bit.

Both take any rows of server indices (lists, tuples, or the rows of a
padded matrix) and a free count per server, and return a list of
bools.  There is nothing to select: a second production kernel has to
arrive with a benchmark cell that shows what it buys.
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = [
    "PADDING_FREE",
    "batch_slot_decisions_lists",
    "batch_slot_decisions_sequential",
    "active_slot_kernel",
]

#: Free-slot count of a virtual padding server: larger than any
#: possible intra-batch occurrence count, far below int64 overflow.
PADDING_FREE = 2 ** 62


def batch_slot_decisions_sequential(
    rows: Sequence[Sequence[int]], free: Sequence[int]
) -> List[bool]:
    """The plain test-then-commit loop: the semantics, spelled out.

    For each request in batch order: test every server on its route
    against the remaining free count (duplicates on one route test the
    same value — commits happen only after the whole route passes),
    then commit one slot per occurrence on success.
    """
    used = [0] * len(free)
    admitted = []
    for row in rows:
        ok = True
        for s in row:
            if used[s] >= free[s]:
                ok = False
                break
        if ok:
            for s in row:
                used[s] += 1
        admitted.append(ok)
    return admitted


def batch_slot_decisions_lists(
    rows: Sequence[Sequence[int]], free: List[int]
) -> List[bool]:
    """The production kernel: a whole-fit exit, then the sequential loop.

    A batch in which every server fits its *total* demand is admitted
    whole: even the last request crossing a server sees fewer than
    ``free`` earlier commits.  That is the steady state of a controller
    running inside its utilization budget; counting the demand costs
    about half of what the loop costs on such a batch (0.48x at 1 024
    MCI rows, 0.64x at 64).  Any other batch pays the count on top
    (1.5-2.7x the loop alone) and is decided by the loop over ``free``,
    in place: a request whose route crosses a server with no slot
    ``left`` is rejected, otherwise it takes one slot per occurrence.
    All servers are tested before any commit, so a route that visits
    one server twice tests the same pre-commit count for both visits;
    negative free counts reject, and a padding slot
    (:data:`PADDING_FREE`) never runs out.  ``free`` is consumed: the
    loop leaves in it what the admitted requests left.
    """
    left = free
    totals = [0] * len(left)
    for row in rows:
        for server in row:
            totals[server] += 1
    if all(map(int.__le__, totals, left)):
        return [True] * len(rows)
    admitted = []
    append = admitted.append
    for row in rows:
        for server in row:
            if left[server] <= 0:
                append(False)
                break
        else:
            append(True)
            for server in row:
                left[server] -= 1
    return admitted


def active_slot_kernel() -> str:
    """Name of the one production kernel (bench fingerprints record it)."""
    return "lists"
