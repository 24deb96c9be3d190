"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch the whole family with a single ``except`` clause.  Exceptions carry the
offending values in attributes (not only in the message) so programmatic
handlers can inspect them.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = [
    "ReproError",
    "TopologyError",
    "UnknownNodeError",
    "UnknownLinkError",
    "TrafficError",
    "EnvelopeError",
    "ClassRegistryError",
    "AnalysisError",
    "FixedPointDivergence",
    "RoutingError",
    "NoRouteError",
    "RouteSelectionFailure",
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


class FixedPointDivergence(AnalysisError):
    """The delay fixed-point iteration failed to converge.

    A diverging iteration means the utilization assignment is *not safe* for
    the given route set: the worst-case delays grow without bound.

    Attributes
    ----------
    iterations:
        Number of iterations performed before giving up.
    last_residual:
        Largest per-server delay change observed at the final iteration.
    """

    def __init__(self, iterations: int, last_residual: float,
                 message: Optional[str] = None):
        self.iterations = iterations
        self.last_residual = last_residual
        super().__init__(
            message
            or f"delay fixed point did not converge after {iterations} "
               f"iterations (last residual {last_residual:.3e})"
        )


class RoutingError(ReproError):
    """Route construction or selection failure."""


class NoRouteError(RoutingError):
    """No path exists between a source and destination."""

    def __init__(self, source: Any, destination: Any):
        self.source = source
        self.destination = destination
        super().__init__(f"no route from {source!r} to {destination!r}")


class RouteSelectionFailure(RoutingError):
    """The safe route selection algorithm could not route every pair.

    Raised (or recorded, depending on API) when no candidate route for some
    source/destination pair keeps all deadlines satisfiable.
    """

    def __init__(self, pair: Any, routed: int, total: int):
        self.pair = pair
        self.routed = routed
        self.total = total
        super().__init__(
            f"safe route selection failed at pair {pair!r} "
            f"after routing {routed}/{total} pairs"
        )


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
