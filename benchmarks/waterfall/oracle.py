"""Decision oracle: is what the server answered what it had to answer?

One connection carries the frames in order and one frame is in flight,
so the coalescer's contract — batching never changes a decision —
makes the server's answers a pure function of the ops sent.  The
planner recorded that function's value beside every op, warm-up and
timed region alike, by replaying the ops through the package's
sequential ``admit()`` / ``release()`` (:class:`loadgen.Reference`,
:class:`loadgen.Frame.expected`); :func:`check` compares, and then
cross-checks the server's own counters and its audit log.  An empty
result means every check held.
"""

from __future__ import annotations

import hashlib
from typing import List

from loadgen import ADMITTED, FAILED, RELEASED, Served

from repro.control.governor import GovernorConfig
from repro.service import iter_audit, verify_audit


def digest(run: Served, outcomes) -> str:
    """Digest of ``(flow_id, outcome)`` over every op of the run."""
    h = hashlib.blake2b(digest_size=16)
    ids = run.trace.flow_ids
    for frame, codes in zip(run.frames, outcomes):
        for op, code in zip(frame.ops, codes):
            flow_id = ids[op if op >= 0 else ~op]
            h.update(f"{flow_id}:{code};".encode())
    return h.hexdigest()


def _first_difference(run: Served) -> str:
    ids = run.trace.flow_ids
    for k, (frame, codes) in enumerate(zip(run.frames, run.answers)):
        if len(codes) != len(frame.expected):
            return (
                f"frame {k}: {len(codes)} answers for "
                f"{len(frame.expected)} ops"
            )
        for j, (op, want, got) in enumerate(
            zip(frame.ops, frame.expected, codes)
        ):
            if want != got:
                kind = "admit" if op >= 0 else "release"
                flow_id = ids[op if op >= 0 else ~op]
                return (
                    f"frame {k} op {j}: {kind} {flow_id!r} must answer "
                    f"{want}, server answered {got} (0 admitted, "
                    f"1 rejected, 2 released, 3 error)"
                )
    return "digests differ but no op does"


def check(run: Served) -> List[str]:
    """Every violated check of one served run, as readable lines."""
    problems: List[str] = []

    expected = digest(run, [frame.expected for frame in run.frames])
    answered = digest(run, run.answers)
    if answered != expected:
        problems.append(
            f"decision digest {answered} != reference {expected}: "
            + _first_difference(run)
        )

    admitted = released = failed = 0
    for codes in run.answers:
        for code in codes:
            admitted += code == ADMITTED
            released += code == RELEASED
            failed += code == FAILED
    evicted = sum(frame.evicted for frame in run.frames)
    established = admitted - released - evicted
    if run.stats.get("established") != established:
        problems.append(
            f"stats.established {run.stats.get('established')} != "
            f"{established} (admitted {admitted} - released {released} "
            f"- preempted {evicted})"
        )
    if run.stats.get("shed") or failed:
        problems.append(
            f"{failed} ops failed, server shed {run.stats.get('shed')}"
        )

    if run.workload.preempt:
        preemption = run.stats.get("preemption") or {}
        if preemption.get("preempted_flows") != evicted:
            problems.append(
                f"stats.preemption.preempted_flows "
                f"{preemption.get('preempted_flows')} != {evicted}"
            )
        problems.extend(_governor_problems(run))

    if run.audit_path is not None:
        report = verify_audit(iter_audit(run.audit_path))
        problems.extend(f"audit: {p}" for p in report["problems"][:5])
        for key, want in (("admitted", admitted), ("released", released)):
            if report[key] != want:
                problems.append(
                    f"audit log holds {report[key]} {key}, "
                    f"server answered {want}"
                )
    return problems


def _governor_problems(run: Served) -> List[str]:
    """The governor must tick and never move.

    A rung move changes the slot capacities, and when it lands between
    two frames is timing; but in this closed loop neither of the
    governor's signals can reach its threshold, whatever the timing.
    The queue-delay proxy is ``pending / max_batch * max_delay`` with
    at most one frame pending, and headroom is a function of the ledger
    alone, whose minimum over the run the reference recorded.  Both
    premises are checked, so a move reported here is a change in the
    server, not noise.
    """
    problems: List[str] = []
    limits = GovernorConfig()
    queue_delay = (
        run.workload.frame_ops / run.stats["max_batch"] * run.stats["max_delay"]
    )
    if queue_delay > limits.delay_threshold:
        problems.append(
            f"a pending frame reads as {queue_delay * 1e3:.2f} ms of queue "
            "delay, above the governor's threshold: its moves would "
            "depend on timing"
        )
    if run.min_headroom < limits.headroom_low:
        problems.append(
            f"ledger headroom fell to {run.min_headroom:.3f}, below the "
            "governor's threshold: its moves would depend on timing"
        )
    governor = run.stats.get("governor") or {}
    if governor.get("inc") or governor.get("dec") or not governor.get("hold"):
        problems.append(
            f"governor: {governor.get('inc')} inc, {governor.get('dec')} "
            f"dec, {governor.get('hold')} hold; it must tick and stay on "
            "the top rung"
        )
    return problems
