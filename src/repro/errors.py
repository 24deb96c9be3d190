"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch the whole family with a single ``except`` clause.  Exceptions carry the
offending values in attributes (not only in the message) so programmatic
handlers can inspect them.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "ReproError",
    "TopologyError",
    "UnknownNodeError",
    "UnknownLinkError",
    "TrafficError",
    "EnvelopeError",
    "ClassRegistryError",
    "AnalysisError",
    "RoutingError",
    "NoRouteError",
    "ConfigurationError",
    "InfeasibleUtilization",
    "AdmissionError",
    "SimulationError",
    "FaultInjectionError",
    "ServiceError",
    "ProtocolError",
    "ServiceOverloadedError",
    "VerificationError",
]


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class TopologyError(ReproError):
    """Invalid topology construction or query."""


class UnknownNodeError(TopologyError):
    """A router name was not found in the network."""

    def __init__(self, node: Any):
        self.node = node
        super().__init__(f"unknown router: {node!r}")


class UnknownLinkError(TopologyError):
    """A directed link (u, v) was not found in the network."""

    def __init__(self, tail: Any, head: Any):
        self.tail = tail
        self.head = head
        super().__init__(f"unknown link: {tail!r} -> {head!r}")


class TrafficError(ReproError):
    """Invalid traffic specification."""


class EnvelopeError(TrafficError):
    """Invalid traffic-envelope construction or operation."""


class ClassRegistryError(TrafficError):
    """Invalid traffic-class registry operation."""


class AnalysisError(ReproError):
    """Delay-analysis failure."""


class RoutingError(ReproError):
    """Route construction or selection failure."""


class NoRouteError(RoutingError):
    """No path exists between a source and destination."""

    def __init__(self, source: Any, destination: Any):
        self.source = source
        self.destination = destination
        super().__init__(f"no route from {source!r} to {destination!r}")


class ConfigurationError(ReproError):
    """Invalid configuration-procedure input."""


class InfeasibleUtilization(ConfigurationError):
    """No safe utilization exists in the requested search interval."""

    def __init__(self, low: float, high: float):
        self.low = low
        self.high = high
        super().__init__(
            f"no safe utilization found in [{low:.4f}, {high:.4f}]"
        )


class AdmissionError(ReproError):
    """Run-time admission control misuse (e.g. releasing an unknown flow)."""


class SimulationError(ReproError):
    """Packet-level simulator misuse or internal inconsistency."""


class FaultInjectionError(ReproError):
    """Invalid fault schedule or chaos-harness misuse."""


class ServiceError(ReproError):
    """Admission-service failure (transport, configuration, or server side)."""


class ProtocolError(ServiceError):
    """Malformed or illegal ``repro-admission-rpc`` frame.

    Attributes
    ----------
    code:
        Machine-readable error code carried in the wire response
        (``bad_request``, ``unknown_op``, ``duplicate_id``,
        ``frame_too_large``, ...).
    """

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)


class ServiceOverloadedError(ServiceError):
    """The request was refused for load (a cluster router's worker link
    at its in-flight bound); retry after a backoff."""


class VerificationError(ReproError):
    """A bounded-model-check request was malformed, or a verification
    artifact (bound, counterexample, report) failed validation."""
