"""Delay analysis: the paper's configuration-time bounds and baselines.

* :mod:`~repro.analysis.beta` — Theorem 3 closed forms.
* :mod:`~repro.analysis.routesystem` — vectorized route compilation.
* :mod:`~repro.analysis.fixedpoint` — the eq. (14) monotone fixed point.
* :mod:`~repro.analysis.delays` — two-class (single real-time class) API.
* :mod:`~repro.analysis.multiclass` — Theorem 5 multi-class bounds.
* :mod:`~repro.analysis.netcalc` — flow-aware general delay formula.
* :mod:`~repro.analysis.verification` — the Figure 2 procedure.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .acyclic import dependency_topological_order, solve_acyclic
    from .beta import (
        beta_coefficient,
        max_stable_alpha_uniform,
        theorem3_delay,
        uniform_worst_delay,
    )
    from .delays import (
        SingleClassResult,
        resolve_fan_in,
        single_class_delays,
        theorem3_update,
    )
    from .distribution import (
        aggregate_envelope_delay,
        busy_period_terms,
        even_split,
        lemma2_delay,
        theorem2_worst_delay,
    )
    from .fixedpoint import (
        DEFAULT_TOLERANCE,
        FixedPointResult,
        solve_fixed_point,
    )
    from .multiclass import ClassDelays, MultiClassResult, multi_class_delays
    from .netcalc import FlowAwareResult, flow_aware_delays, static_priority_delay
    from .reshaped import reshaped_delay_bound, reshaped_max_alpha
    from .routesystem import GrowableRouteSystem, RouteSystem
    from .scratch import FixedPointWorkspace, Theorem3Map
    from .sensitivity import (
        RouteSlack,
        SensitivityReport,
        ServerLoad,
        critical_alpha,
        sensitivity_report,
    )
    from .verification import VerificationResult, verify_assignment

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".acyclic": ("dependency_topological_order", "solve_acyclic"),
    ".beta": (
        "beta_coefficient", "max_stable_alpha_uniform", "theorem3_delay",
        "uniform_worst_delay",
    ),
    ".delays": (
        "SingleClassResult", "resolve_fan_in", "single_class_delays",
        "theorem3_update",
    ),
    ".distribution": (
        "aggregate_envelope_delay", "busy_period_terms", "even_split",
        "lemma2_delay", "theorem2_worst_delay",
    ),
    ".fixedpoint": ("DEFAULT_TOLERANCE", "FixedPointResult", "solve_fixed_point"),
    ".multiclass": ("ClassDelays", "MultiClassResult", "multi_class_delays"),
    ".netcalc": ("FlowAwareResult", "flow_aware_delays", "static_priority_delay"),
    ".reshaped": ("reshaped_delay_bound", "reshaped_max_alpha"),
    ".routesystem": ("GrowableRouteSystem", "RouteSystem"),
    ".scratch": ("FixedPointWorkspace", "Theorem3Map"),
    ".sensitivity": (
        "RouteSlack", "SensitivityReport", "ServerLoad", "critical_alpha",
        "sensitivity_report",
    ),
    ".verification": ("VerificationResult", "verify_assignment"),
})
