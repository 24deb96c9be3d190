"""Packet-level discrete-event simulator (class-based static priority)."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .cosim import CoSimulationResult, co_simulate, simulate_lifetimes
    from .events import EventQueue
    from .metrics import DelayRecorder, SimulationReport
    from .packets import Packet
    from .servers import StaticPriorityServer
    from .simulator import Simulator
    from .sources import PacketPattern, TokenBucketPolicer, emission_times

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".cosim": ("CoSimulationResult", "co_simulate", "simulate_lifetimes"),
    ".events": ("EventQueue",),
    ".metrics": ("DelayRecorder", "SimulationReport"),
    ".packets": ("Packet",),
    ".servers": ("StaticPriorityServer",),
    ".simulator": ("Simulator",),
    ".sources": ("PacketPattern", "TokenBucketPolicer", "emission_times"),
})
