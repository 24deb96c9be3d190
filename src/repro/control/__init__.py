"""Adaptive overload control plane.

The paper certifies one utilization bound ``alpha`` at configuration
time, so the running service has no overload response of its own:
excess load waits in the socket.  This package closes the loop at
runtime while keeping every operating point provably safe:

* :mod:`repro.control.ladder` — a pre-certified ladder of alphas.
  Every rung is re-verified through the existing Figure 2 fixed-point
  procedure at construction time; an alpha that fails verification
  never enters the ladder, so no uncertified bound can ever be applied.
* :mod:`repro.control.governor` — an increase/hold/decrease controller
  modeled on the GCC ``RemoteRateController``/``OveruseDetector`` state
  machine, keyed on measured queue-delay gradients and occupancy
  headroom.  It only ever moves the *effective* alpha between ladder
  rungs.
* :mod:`repro.control.preempt` — a sacrifice policy: under sustained
  pressure the lowest-priority established flows are evicted (through
  the ordinary release path, so every controller invariant holds at
  every step) to admit hard real-time arrivals.

Flow priorities (``hard_rt`` / ``soft_rt`` / ``elastic``) live on
:class:`~repro.traffic.flows.FlowSpec` and ride the wire protocol as
the optional ``pri`` field; they are re-exported here for convenience.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from ..traffic.flows import PRIORITIES, PRIORITY_CODES, priority_rank
    from .governor import (
        AlphaGovernor,
        GovernorConfig,
        GovernorSample,
    )
    from .ladder import AlphaLadder, certify_ladder
    from .preempt import PreemptionOutcome, PreemptionPolicy, Preemptor

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "..traffic.flows": ("PRIORITIES", "PRIORITY_CODES", "priority_rank"),
    ".governor": ("AlphaGovernor", "GovernorConfig", "GovernorSample"),
    ".ladder": ("AlphaLadder", "certify_ladder"),
    ".preempt": ("PreemptionOutcome", "PreemptionPolicy", "Preemptor"),
})
