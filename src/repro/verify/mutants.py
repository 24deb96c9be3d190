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
the virtual padding slot — but are written as plain loops so the
planted bug is the *only* difference from the sequential reference.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

import numpy as np

__all__ = [
    "mutant_admit_on_full",
    "mutant_ignore_contention",
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
