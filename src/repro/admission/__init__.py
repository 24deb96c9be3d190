"""Run-time admission control: the paper's utilization-based controller
and the flow-aware (IntServ-style) baseline."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .base import AdmissionController, AdmissionDecision
    from .batch import (
        batch_slot_decisions,
        pad_server_matrix,
    )
    from .flowaware import FlowAwareAdmissionController
    from .kernels import (
        PADDING_FREE,
        active_slot_kernel,
        batch_slot_decisions_lists,
        batch_slot_decisions_sequential,
    )
    from .flowtable import FlowTable
    from .ledger import UtilizationLedger
    from .sharded import SlotShardController, plan_slot_shards
    from .statistics import Lifetime, ReplayStats, replay_schedule
    from .utilization import UtilizationAdmissionController

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".base": ("AdmissionController", "AdmissionDecision"),
    ".batch": (
        "batch_slot_decisions", "pad_server_matrix",
    ),
    ".flowaware": ("FlowAwareAdmissionController",),
    ".kernels": (
        "PADDING_FREE", "active_slot_kernel", "batch_slot_decisions_lists",
        "batch_slot_decisions_sequential",
    ),
    ".flowtable": ("FlowTable",),
    ".ledger": ("UtilizationLedger",),
    ".sharded": ("SlotShardController", "plan_slot_shards"),
    ".statistics": ("Lifetime", "ReplayStats", "replay_schedule"),
    ".utilization": ("UtilizationAdmissionController",),
})
