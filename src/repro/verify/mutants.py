"""Deliberately broken admission kernels (and one broken eviction
planner), for falsifiability.

A verifier that can only say "yes" is worthless: CI must also prove
the machinery *would* catch a real bug.  The kernel mutants here are
drop-in replacements for :func:`~repro.admission.batch.\
batch_slot_decisions` with one classic defect planted; the bounded
checkers must decode a replayable counterexample against every one of
them, at the default bound, or the run fails.  The rows of
:data:`repro.verify.bounded.CHECKS` say which check must catch which
mutant, under which name.

The kernel mutants mirror the real kernel's calling convention — a
padded server-index matrix plus a free-slot vector whose last entry is
the virtual padding slot.  Two are written from scratch so the planted
bug is the *only* difference from the sequential reference; the other
two are the shipped kernel itself with one token changed, one in its
bincount exit and one in its loop.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import replace
from typing import Any, Callable

import numpy as np

from ..errors import VerificationError

__all__ = [
    "mutant_admit_on_full",
    "mutant_bincount_exit_any",
    "mutant_ignore_contention",
    "mutant_loop_admit_on_full",
    "mutant_planner_ignores_protect",
]


def mutant_admit_on_full(
    matrix: np.ndarray, free: np.ndarray
) -> np.ndarray:
    """Admits when a server is exactly full (``<=`` where ``<`` belongs).

    The slot test must be strict — ``used < capacity`` — or one extra
    flow slips onto a saturated server and the deadline certificate is
    void.  This is the admission-control analogue of an off-by-one
    boundary bug.
    """
    n_requests = matrix.shape[0]
    admitted = np.zeros(n_requests, dtype=bool)
    crossings = np.zeros(free.size, dtype=np.int64)
    for i in range(n_requests):
        row = matrix[i]
        if np.all(crossings[row] <= free[row]):  # planted: <= not <
            admitted[i] = True
            np.add.at(crossings, row, 1)
    return admitted


def mutant_ignore_contention(
    matrix: np.ndarray, free: np.ndarray
) -> np.ndarray:
    """Decides every request against the pre-batch free counts.

    Forgets that earlier requests in the same batch already claimed
    slots — the bug batching introduces when intra-batch contention is
    not threaded through, and exactly what the kernel's prefix-sum
    crossing counts exist to prevent.
    """
    return np.asarray((free[matrix] > 0).all(axis=1))


@functools.lru_cache(maxsize=None)
def _one_token_kernel(line: str, planted: str) -> Callable[..., np.ndarray]:
    """The shipped numpy slot kernel, recompiled with its one source
    line ``line`` replaced by ``planted``.  A kernel that no longer has
    exactly one such line is a :class:`VerificationError`: the mutant
    must follow the code it breaks, not silently stop planting."""
    from ..admission.kernels import batch_slot_decisions_numpy as kernel

    source = inspect.getsource(kernel)
    if source.count(line) != 1:
        raise VerificationError(
            f"the slot kernel no longer has one line {line!r}: move the "
            "mutant with it"
        )
    namespace = dict(kernel.__globals__)
    code = compile(
        source.replace(line, planted), kernel.__code__.co_filename, "exec"
    )
    exec(code, namespace)
    return namespace[kernel.__name__]


def mutant_loop_admit_on_full(
    matrix: np.ndarray, free: np.ndarray
) -> np.ndarray:
    """The kernel with its loop's slot test lax (``< 0`` where ``<= 0``
    belongs).

    A contended batch's request that reaches a server with no slot
    ``left`` passes it anyway and takes the slot it does not have: an
    overcommit, the admit-on-full bug inside the shipped loop.
    """
    return _one_token_kernel(
        "left[server] <= 0", "left[server] < 0"
    )(matrix, free)


def mutant_bincount_exit_any(
    matrix: np.ndarray, free: np.ndarray
) -> np.ndarray:
    """The kernel with its bincount exit taken when *any* server fits
    its total demand (``.any()`` where ``.all()`` belongs).

    The padding slot always fits, so every batch leaves through the
    exit admitted whole, contended or not.
    """
    return _one_token_kernel(
        "(totals <= free).all()", "(totals <= free).any()"
    )(matrix, free)


def mutant_planner_ignores_protect(controller: Any, policy: Any) -> Any:
    """A :class:`~repro.control.preempt.Preemptor` whose planner never
    consults ``policy.protect``.

    Everything else is the shipped preemptor — same scan, same greedy
    cover, same tie-break — so the only way to tell it from the real
    one is an instance where the cheapest cover runs through a
    protected flow.  Not a kernel:
    :func:`~repro.verify.bounded.exhaustive_preemption_safety` takes it
    as its ``preemptor`` and must come back ``"violated"``.
    """
    from ..control.preempt import Preemptor

    return Preemptor(controller, replace(policy, protect=()))
