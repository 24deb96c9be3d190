"""Kernel differential suite: the slot kernel is bit-identical to its
reference.

The batch slot decision has one semantics — the sequential
test-then-commit loop in :mod:`repro.admission.kernels` — and one fast
implementation (the vectorized numpy interval iteration).  This suite
pins the kernel to the sequential reference on:

* chain instances shaped like the ``repro.verify`` bounded models
  (interval routes over a line network),
* adversarial random traces (negative free counts, duplicate servers
  on one route, saturated and uncontended extremes, the padding slot),
* and edge cases that exercise each numpy fast path (uncontended
  bincount exit, scalar tail, zero-width, empty batch).

It also proves the differential harness *can* fail: each planted
mutant from :mod:`repro.verify.mutants` must diverge from the
reference on at least one instance while the real kernel agrees.
"""

from __future__ import annotations

import numpy as np

from repro.admission.batch import (
    PADDING_FREE,
    batch_slot_decisions,
    pad_server_matrix,
)
from repro.admission.kernels import (
    active_slot_kernel,
    batch_slot_decisions_numpy,
    batch_slot_decisions_sequential,
)
from repro.verify.mutants import MUTANTS

# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------


def chain_instance(servers, routes, free_per_server):
    """Interval routes over a chain, like the repro.verify instances.

    ``routes`` is a list of ``(start, stop)`` half-open server
    intervals; the returned matrix is padded with a virtual slot.
    """
    rows = [
        np.arange(a, b, dtype=np.int64) for a, b in routes
    ]
    matrix, _ = pad_server_matrix(rows, pad=servers)
    free = np.empty(servers + 1, dtype=np.int64)
    free[:servers] = free_per_server
    free[servers] = PADDING_FREE
    return matrix, free


def random_instance(rng, *, allow_duplicates=True, allow_negative=True):
    """An adversarial random (matrix, free) pair."""
    servers = int(rng.integers(1, 9))
    b = int(rng.integers(1, 33))
    width = int(rng.integers(1, 5))
    if allow_duplicates:
        matrix = rng.integers(0, servers + 1, size=(b, width))
    else:
        width = min(width, servers)
        matrix = np.stack(
            [
                rng.choice(servers, size=width, replace=False)
                for _ in range(b)
            ]
        )
    matrix = matrix.astype(np.int64)
    low = -3 if allow_negative else 0
    free = rng.integers(low, b * width + 2, size=servers + 1).astype(
        np.int64
    )
    free[servers] = PADDING_FREE
    return matrix, free


def assert_all_backends_agree(matrix, free):
    reference = batch_slot_decisions_sequential(matrix, free.copy())
    assert reference.dtype == np.bool_
    got = batch_slot_decisions_numpy(matrix, free.copy())
    assert got.dtype == np.bool_
    assert (got == reference).all(), (
        f"the numpy kernel diverged from sequential\n"
        f"matrix={matrix.tolist()} free={free.tolist()}\n"
        f"sequential={reference.tolist()} numpy={got.tolist()}"
    )
    return reference


# ---------------------------------------------------------------------------
# Differential: chain instances (verify-shaped)
# ---------------------------------------------------------------------------


def test_differential_chain_instances():
    rng = np.random.default_rng(0xC0FFEE)
    for trial in range(120):
        servers = int(rng.integers(2, 8))
        n = int(rng.integers(1, 40))
        routes = []
        for _ in range(n):
            a = int(rng.integers(0, servers))
            b = int(rng.integers(a + 1, servers + 1))
            routes.append((a, b))
        # Tight capacities force mixed admit/reject verdicts.
        matrix, free = chain_instance(
            servers, routes, free_per_server=int(rng.integers(0, 4))
        )
        assert_all_backends_agree(matrix, free)


def test_differential_chain_saturating_prefix():
    # All flows share server 0: exactly ``free[0]`` are admitted, in
    # batch order — the canonical intra-batch contention case.
    matrix, free = chain_instance(
        4, [(0, 4)] * 10, free_per_server=3
    )
    verdict = assert_all_backends_agree(matrix, free)
    assert verdict.tolist() == [True] * 3 + [False] * 7


# ---------------------------------------------------------------------------
# Differential: adversarial random traces
# ---------------------------------------------------------------------------


def test_differential_random_traces():
    rng = np.random.default_rng(2026)
    for trial in range(400):
        matrix, free = random_instance(rng)
        assert_all_backends_agree(matrix, free)


def test_differential_random_traces_realistic_routes():
    # No duplicate servers on a route, no negative free — the shape
    # production controllers actually feed the kernel.
    rng = np.random.default_rng(8_0_8)
    for trial in range(200):
        matrix, free = random_instance(
            rng, allow_duplicates=False, allow_negative=False
        )
        assert_all_backends_agree(matrix, free)


def test_duplicate_server_on_route_tests_precommit_value():
    # A route visiting one server twice must test the same pre-commit
    # free count for both occurrences (test-then-commit), yet commit
    # one slot per occurrence once admitted.
    matrix = np.array([[0, 0, 1], [1, 1, 2], [0, 2, 2]], dtype=np.int64)
    free = np.array([1, 2, 1], dtype=np.int64)
    verdict = assert_all_backends_agree(matrix, free)
    assert verdict.tolist() == [True, True, False]


def test_negative_free_rejects_but_only_on_crossed_servers():
    matrix = np.array([[0], [1], [1]], dtype=np.int64)
    free = np.array([-2, 1], dtype=np.int64)
    verdict = assert_all_backends_agree(matrix, free)
    assert verdict.tolist() == [False, True, False]


# ---------------------------------------------------------------------------
# Numpy fast-path edges
# ---------------------------------------------------------------------------


def test_empty_batch_and_zero_width():
    for matrix in (
        np.zeros((0, 3), dtype=np.int64),
        np.zeros((4, 0), dtype=np.int64),
    ):
        free = np.array([1, 1, 1], dtype=np.int64)
        verdict = assert_all_backends_agree(matrix, free)
        assert verdict.shape == (matrix.shape[0],)
        assert verdict.all()


def test_uncontended_bincount_boundary():
    # totals == free exactly: still all-admit (the fast path's edge).
    matrix = np.array([[0], [0], [1]], dtype=np.int64)
    free = np.array([2, 1], dtype=np.int64)
    verdict = assert_all_backends_agree(matrix, free)
    assert verdict.all()
    # One more occurrence than free tips the last request over.
    free_tight = np.array([1, 1], dtype=np.int64)
    verdict = assert_all_backends_agree(matrix, free_tight)
    assert verdict.tolist() == [True, False, True]


def test_scalar_tail_on_contended_batch():
    # A large batch at 3/4 capacity drives the interval iteration into
    # its scalar-tail finish; the verdict must still be bit-identical.
    rng = np.random.default_rng(7)
    servers, width, b = 32, 4, 1024
    rows = np.stack(
        [rng.choice(servers, size=width, replace=False) for _ in range(b)]
    ).astype(np.int64)
    matrix, _ = pad_server_matrix(list(rows), pad=servers)
    free = np.empty(servers + 1, dtype=np.int64)
    free[:servers] = (3 * b * width) // (4 * servers)
    free[servers] = PADDING_FREE
    verdict = assert_all_backends_agree(matrix, free)
    # The workload is genuinely contended: both verdicts occur.
    assert verdict.any() and not verdict.all()


# ---------------------------------------------------------------------------
# Planted mutants: the differential must be falsifiable
# ---------------------------------------------------------------------------


def test_planted_mutants_diverge_where_backends_agree():
    rng = np.random.default_rng(31337)
    caught = {name: False for name in MUTANTS}
    for trial in range(200):
        matrix, free = random_instance(
            rng, allow_duplicates=False, allow_negative=False
        )
        reference = assert_all_backends_agree(matrix, free)
        for name, mutant in MUTANTS.items():
            got = mutant(matrix, free.copy())
            if (got != reference).any():
                caught[name] = True
        if all(caught.values()):
            break
    missed = [name for name, hit in caught.items() if not hit]
    assert not missed, (
        f"mutants never diverged from the reference: {missed} — "
        "the differential suite could not catch these bugs"
    )


# ---------------------------------------------------------------------------
# One kernel: nothing selects
# ---------------------------------------------------------------------------


def test_batch_slot_decisions_is_the_numpy_kernel():
    # No dispatcher sits between the controller and the kernel; a
    # future one has to show up as a diff of this identity.
    assert batch_slot_decisions is batch_slot_decisions_numpy
    assert active_slot_kernel() == "numpy"
