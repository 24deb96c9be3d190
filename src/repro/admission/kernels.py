"""Runtime-selectable backends for the batch slot kernel.

Three interchangeable implementations of the sequential-equivalent
slot decision (see :mod:`repro.admission.batch` for the contract):

``numpy``
    The vectorized interval iteration — the bit-identical *reference*
    implementation, always available.
``numba``
    A ``@njit``-compiled test-then-commit loop.  Fastest once warm;
    only registered when :mod:`numba` imports cleanly.
``sequential``
    The plain-Python test-then-commit loop.  Slow, but it *is* the
    semantics — the differential suite pins both fast paths to it.

Selection is process-global: the default backend is ``numba`` when
available, else ``numpy``; override with the ``REPRO_SLOT_KERNEL``
environment variable or :func:`set_slot_kernel`.  The compiled path
falls back cleanly — asking for ``numba`` without numba installed
raises an explicit error rather than silently degrading, while the
*default* simply never offers it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

__all__ = [
    "HAVE_NUMBA",
    "NUMBA_PIN",
    "SlotKernel",
    "batch_slot_decisions_sequential",
    "batch_slot_decisions_numpy",
    "available_slot_kernels",
    "default_slot_kernel",
    "active_slot_kernel",
    "get_slot_kernel",
    "set_slot_kernel",
    "use_slot_kernel",
    "warm_slot_kernel",
]

#: ``(matrix, free) -> admitted`` — the batch slot decision signature.
SlotKernel = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: Environment variable naming the default backend for this process.
ENV_VAR = "REPRO_SLOT_KERNEL"

#: The numba version CI compiles the kernel against (the ``jit``
#: extra).  Pinned for the same reason as the z3 solver: JIT codegen
#: drifts across releases, and the differential suite's bit-identical
#: claim must be reproducible.
NUMBA_PIN = "0.60.0"

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    HAVE_NUMBA = True
except Exception:  # pragma: no cover - ImportError or broken install
    numba = None  # type: ignore[assignment]
    HAVE_NUMBA = False


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


_numba_kernel: Optional[SlotKernel] = None


def _compile_numba_kernel() -> SlotKernel:
    """JIT-compile the test-then-commit loop (cached per process)."""
    global _numba_kernel
    if _numba_kernel is not None:
        return _numba_kernel
    if not HAVE_NUMBA:  # pragma: no cover - guarded by callers
        raise RuntimeError(
            "numba is not installed; install the 'jit' extra or use "
            "the 'numpy' kernel"
        )

    @numba.njit(cache=False)  # pragma: no cover - compiled, not traced
    def _jit_slot_decisions(
        matrix: np.ndarray, free: np.ndarray
    ) -> np.ndarray:
        b, width = matrix.shape
        admitted = np.zeros(b, dtype=np.bool_)
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

    _numba_kernel = _jit_slot_decisions
    return _numba_kernel


def _numba_dispatch(matrix: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Compile on first call, then delegate to the jitted kernel."""
    kernel = _compile_numba_kernel()
    return np.asarray(kernel(matrix, free), dtype=bool)


_KERNELS: Dict[str, SlotKernel] = {
    "numpy": batch_slot_decisions_numpy,
    "sequential": batch_slot_decisions_sequential,
}
if HAVE_NUMBA:  # pragma: no cover - exercised only with numba
    _KERNELS["numba"] = _numba_dispatch


def available_slot_kernels() -> Tuple[str, ...]:
    """Backend names usable in this process (numba only if importable)."""
    return tuple(sorted(_KERNELS))


def default_slot_kernel() -> str:
    """Backend picked at startup: env override, else numba-if-present."""
    env = os.environ.get(ENV_VAR, "").strip().lower()
    if env:
        if env not in _KERNELS:
            raise ValueError(
                f"{ENV_VAR}={env!r} is not an available slot kernel "
                f"(have: {', '.join(available_slot_kernels())})"
            )
        return env
    return "numba" if HAVE_NUMBA else "numpy"


_active: Optional[str] = None


def active_slot_kernel() -> str:
    """Name of the backend :func:`get_slot_kernel` would return."""
    global _active
    if _active is None:
        _active = default_slot_kernel()
    return _active


def get_slot_kernel() -> SlotKernel:
    """The callable behind the active backend."""
    return _KERNELS[active_slot_kernel()]


def set_slot_kernel(name: str) -> str:
    """Select a backend process-wide; returns the previous name."""
    global _active
    if name not in _KERNELS:
        raise ValueError(
            f"unknown slot kernel {name!r} "
            f"(have: {', '.join(available_slot_kernels())})"
        )
    previous = active_slot_kernel()
    _active = name
    return previous


@contextmanager
def use_slot_kernel(name: str) -> Iterator[str]:
    """Temporarily select a backend (restores the previous on exit)."""
    previous = set_slot_kernel(name)
    try:
        yield name
    finally:
        set_slot_kernel(previous)


def warm_slot_kernel(name: Optional[str] = None) -> str:
    """Force any one-time compilation for a backend (e.g. numba JIT).

    Runs the backend once on a tiny instance so the first production
    batch doesn't pay the compile.  Returns the warmed backend name.
    """
    target = name or active_slot_kernel()
    kernel = _KERNELS.get(target)
    if kernel is None:
        raise ValueError(
            f"unknown slot kernel {target!r} "
            f"(have: {', '.join(available_slot_kernels())})"
        )
    matrix = np.array([[0, 1], [1, 1]], dtype=np.int64)
    free = np.array([1, 1], dtype=np.int64)
    kernel(matrix, free)
    return target
