"""Transition reports: what happened while faults were injected.

Everything in the report is *deterministic*: simulated timestamps,
event/flow accounting, packet counts — never wall-clock readings (those
go to :mod:`repro.obs` instead).  The same configuration, flow schedule
and fault schedule therefore produce a bit-identical
:meth:`TransitionReport.to_json` across runs, which is the contract the
chaos tests pin.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

__all__ = ["FlowAccount", "TransitionRecord", "TransitionReport"]

@dataclass
class FlowAccount:
    """Per-flow ledger line of a chaos run."""

    flow_id: Hashable
    class_name: str
    pair: Tuple[Hashable, Hashable]
    outcome: str = "rejected"
    admitted_at: Optional[float] = None
    ended_at: Optional[float] = None
    reroutes: int = 0
    retries: int = 0
    packets_dropped: int = 0
    deadline_misses: int = 0
    #: True when the flow's route crossed a failed element at some point.
    casualty: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "flow_id": str(self.flow_id),
            "class_name": self.class_name,
            "pair": [str(self.pair[0]), str(self.pair[1])],
            "outcome": self.outcome,
            "admitted_at": self.admitted_at,
            "ended_at": self.ended_at,
            "reroutes": self.reroutes,
            "retries": self.retries,
            "packets_dropped": self.packets_dropped,
            "deadline_misses": self.deadline_misses,
            "casualty": self.casualty,
        }


@dataclass
class TransitionRecord:
    """One fault event's transition, as observed by the harness."""

    time: float
    kind: str
    target: object
    #: Established flows whose committed route crossed the failed element.
    casualties: List[str] = field(default_factory=list)
    #: Casualties re-admitted immediately (at repair time).
    rerouted: List[str] = field(default_factory=list)
    #: Casualties shed for good during this transition.
    shed: List[str] = field(default_factory=list)
    repair_attempted: bool = False
    repair_success: bool = False
    repair_reason: str = ""
    degraded_mode_entered: bool = False
    #: Simulated seconds from the fault until the last casualty was
    #: re-admitted or finally shed; None while retries are still pending
    #: at the end of the run.
    time_to_resolve: Optional[float] = None
    retries: int = 0

    def to_dict(self) -> Dict[str, object]:
        target: object = self.target
        if isinstance(target, tuple):
            target = [str(t) for t in target]
        elif target is not None:
            target = str(target)
        return {
            "time": self.time,
            "kind": self.kind,
            "target": target,
            "casualties": sorted(self.casualties),
            "rerouted": sorted(self.rerouted),
            "shed": sorted(self.shed),
            "repair_attempted": self.repair_attempted,
            "repair_success": self.repair_success,
            "repair_reason": self.repair_reason,
            "degraded_mode_entered": self.degraded_mode_entered,
            "time_to_resolve": self.time_to_resolve,
            "retries": self.retries,
        }


@dataclass
class TransitionReport:
    """Full deterministic record of a chaos run."""

    alpha: float
    controller: str
    horizon: float
    seed: int
    transitions: List[TransitionRecord] = field(default_factory=list)
    flows: Dict[Hashable, FlowAccount] = field(default_factory=dict)
    #: Per-class delivered-packet deadline misses, split by whether the
    #: flow was ever a casualty.
    survivor_deadline_misses: int = 0
    casualty_deadline_misses: int = 0
    packets_injected: int = 0
    packets_delivered: int = 0
    packets_dropped: int = 0
    simulated: bool = False
    #: Rung changes the alpha governor made during the run (0 without
    #: a governor).
    governor_moves: int = 0
    #: Arrivals admitted by evicting lower-priority flows (0 without
    #: preemption).
    preempted_admits: int = 0

    # ------------------------------------------------------------------ #

    @property
    def outcomes(self) -> Dict[str, int]:
        """Histogram of final flow outcomes."""
        out: Dict[str, int] = {}
        for account in self.flows.values():
            out[account.outcome] = out.get(account.outcome, 0) + 1
        return out

    def survivors_held(self) -> bool:
        """Zero deadline misses and zero drops for never-casualty flows."""
        return self.survivor_deadline_misses == 0 and all(
            a.packets_dropped == 0
            for a in self.flows.values()
            if not a.casualty
        )

    # ------------------------------------------------------------------ #
    # serialization / rendering
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": "repro-transition-report/v1",
            "alpha": self.alpha,
            "controller": self.controller,
            "horizon": self.horizon,
            "seed": self.seed,
            "transitions": [t.to_dict() for t in self.transitions],
            "flows": [
                self.flows[fid].to_dict()
                for fid in sorted(self.flows, key=str)
            ],
            "outcomes": self.outcomes,
            "survivor_deadline_misses": self.survivor_deadline_misses,
            "casualty_deadline_misses": self.casualty_deadline_misses,
            "packets_injected": self.packets_injected,
            "packets_delivered": self.packets_delivered,
            "packets_dropped": self.packets_dropped,
            "simulated": self.simulated,
            "governor_moves": self.governor_moves,
            "preempted_admits": self.preempted_admits,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    def render(self) -> str:
        """Terse human-readable summary (CLI output)."""
        lines = [
            f"chaos run: alpha={self.alpha:g} controller={self.controller} "
            f"horizon={self.horizon:g}s seed={self.seed}",
            f"flows: {len(self.flows)} "
            + " ".join(
                f"{k}={v}" for k, v in sorted(self.outcomes.items())
            ),
            f"deadline misses: survivors={self.survivor_deadline_misses} "
            f"casualties={self.casualty_deadline_misses}"
            + (
                f"  packets: injected={self.packets_injected} "
                f"delivered={self.packets_delivered} "
                f"dropped={self.packets_dropped}"
                if self.simulated
                else "  (packet phase skipped)"
            ),
        ]
        for t in self.transitions:
            resolve = (
                "pending" if t.time_to_resolve is None
                else f"{t.time_to_resolve:.3f}s"
            )
            lines.append(
                f"  t={t.time:.3f} {t.kind} {t.target!r}: "
                f"{len(t.casualties)} casualties, "
                f"{len(t.rerouted)} rerouted, {len(t.shed)} shed, "
                f"{t.retries} retries, resolved in {resolve}"
                + (
                    ""
                    if not t.repair_attempted
                    else (
                        " [repair ok]"
                        if t.repair_success
                        else f" [repair failed: {t.repair_reason}; "
                        "degraded mode]"
                    )
                )
            )
        return "\n".join(lines)
