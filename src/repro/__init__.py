"""repro — Utilization-Based Admission Control for Real-Time Applications.

A full reproduction of Xuan, Li, Bettati, Chen & Zhao (ICPP 2000):
configuration-time delay verification for DiffServ networks, safe route
selection, Theorem 4 utilization bounds, O(path) run-time admission
control, and the substrates they need (topology model, network-calculus
envelopes, a static-priority packet simulator, a flow-aware IntServ-style
baseline).

Quick start
-----------
>>> from repro import paper_scenario, utilization_bounds
>>> sc = paper_scenario()
>>> b = utilization_bounds(sc.fan_in, sc.diameter, sc.voice.burst,
...                        sc.voice.rate, sc.voice.deadline)
>>> round(b.lower, 2), round(b.upper, 2)
(0.3, 0.61)

See ``examples/`` for end-to-end walkthroughs and ``DESIGN.md`` for the
module map.
"""

import logging as _logging
from typing import TYPE_CHECKING

# Library convention: the package logger hierarchy is silent unless the
# application configures handlers (PEP 282 / logging HOWTO).
_logging.getLogger("repro").addHandler(_logging.NullHandler())

from . import obs
from ._lazy import lazy_exports
from ._version import __version__

if TYPE_CHECKING:
    from .admission import (
        AdmissionController,
        AdmissionDecision,
        FlowAwareAdmissionController,
        ReplayStats,
        UtilizationAdmissionController,
        UtilizationLedger,
        replay_schedule,
    )
    from .analysis import (
        FixedPointResult,
        critical_alpha,
        sensitivity_report,
        FlowAwareResult,
        MultiClassResult,
        RouteSystem,
        SingleClassResult,
        VerificationResult,
        beta_coefficient,
        flow_aware_delays,
        multi_class_delays,
        single_class_delays,
        theorem3_delay,
        uniform_worst_delay,
        verify_assignment,
    )
    from .config import (
        ConfiguredNetwork,
        MaximizationResult,
        RepairResult,
        MulticlassScaleResult,
        UtilizationBounds,
        configure,
        max_utilization_heuristic,
        max_utilization_shortest_path,
        maximize_multiclass_scale,
        maximize_utilization,
        repair_after_link_failure,
        select_safe_routes,
        theorem4_lower_bound,
        theorem4_upper_bound,
        utilization_bounds,
        verify_safe_assignment,
    )
    from .errors import (
        AdmissionError,
        AnalysisError,
        ConfigurationError,
        EnvelopeError,
        FixedPointDivergence,
        InfeasibleUtilization,
        NoRouteError,
        ReproError,
        RouteSelectionFailure,
        RoutingError,
        SimulationError,
        TopologyError,
        TrafficError,
    )
    from .experiments import (
        PAPER_TABLE1,
        PaperScenario,
        Table1Result,
        paper_scenario,
        run_table1,
        sweep_burst,
        sweep_deadline,
    )
    from .routing import (
        HeuristicOptions,
        MultiClassRouteSelector,
        SafeRouteSelector,
        SelectionOutcome,
        candidate_routes,
        shortest_path_routes,
    )
    from .simulation import PacketPattern, SimulationReport, Simulator
    from .statistical import (
        DelayDistribution,
        OverbookedAdmissionController,
        calibrate_overbooking,
        estimate_delay_distribution,
    )
    from .topology import (
        LinkServerGraph,
        Network,
        mci_backbone,
        nsfnet_backbone,
    )
    from .traffic import (
        ClassRegistry,
        Envelope,
        FlowSet,
        FlowSpec,
        TrafficClass,
        all_ordered_pairs,
        leaky_bucket_envelope,
        voice_class,
    )

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".admission": (
        "AdmissionController", "AdmissionDecision",
        "FlowAwareAdmissionController", "ReplayStats",
        "UtilizationAdmissionController", "UtilizationLedger",
        "replay_schedule",
    ),
    ".analysis": (
        "FixedPointResult", "critical_alpha", "sensitivity_report",
        "FlowAwareResult", "MultiClassResult", "RouteSystem",
        "SingleClassResult", "VerificationResult", "beta_coefficient",
        "flow_aware_delays", "multi_class_delays", "single_class_delays",
        "theorem3_delay", "uniform_worst_delay", "verify_assignment",
    ),
    ".config": (
        "ConfiguredNetwork", "MaximizationResult", "RepairResult",
        "MulticlassScaleResult", "UtilizationBounds", "configure",
        "max_utilization_heuristic", "max_utilization_shortest_path",
        "maximize_multiclass_scale", "maximize_utilization",
        "repair_after_link_failure", "select_safe_routes",
        "theorem4_lower_bound", "theorem4_upper_bound", "utilization_bounds",
        "verify_safe_assignment",
    ),
    ".errors": (
        "AdmissionError", "AnalysisError", "ConfigurationError",
        "EnvelopeError", "FixedPointDivergence", "InfeasibleUtilization",
        "NoRouteError", "ReproError", "RouteSelectionFailure", "RoutingError",
        "SimulationError", "TopologyError", "TrafficError",
    ),
    ".experiments": (
        "PAPER_TABLE1", "PaperScenario", "Table1Result", "paper_scenario",
        "run_table1", "sweep_burst", "sweep_deadline",
    ),
    ".routing": (
        "HeuristicOptions", "MultiClassRouteSelector", "SafeRouteSelector",
        "SelectionOutcome", "candidate_routes", "shortest_path_routes",
    ),
    ".simulation": ("PacketPattern", "SimulationReport", "Simulator"),
    ".statistical": (
        "DelayDistribution", "OverbookedAdmissionController",
        "calibrate_overbooking", "estimate_delay_distribution",
    ),
    ".topology": ("LinkServerGraph", "Network", "mci_backbone", "nsfnet_backbone"),
    ".traffic": (
        "ClassRegistry", "Envelope", "FlowSet", "FlowSpec", "TrafficClass",
        "all_ordered_pairs", "leaky_bucket_envelope", "voice_class",
    ),
})
__all__ += ["obs", "__version__"]
