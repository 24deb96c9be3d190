"""Machine-checked verification of the admission safety argument.

:mod:`repro.verify.bounded` enumerates one bounded universe
(:class:`VerifyBound` — every capacity up to a bound, contiguous
interval routes on a chain, ordered arrivals with release points) and
drives the **real** controller, batch kernel and preemptor through
every instance of it (tier-1, no dependencies).  Violations decode into
:class:`Counterexample` objects whose
:meth:`~Counterexample.to_trace_events` form is a concrete
``repro-workload-trace/v1`` stream — replayable through the loadgen,
the service, and the adversarial regression suite.  Deliberately
broken kernels and a broken eviction planner
(:mod:`repro.verify.mutants`) keep the verifier honest: every mutant
must be caught and decoded, or the run fails.

:data:`CHECKS` is the one table of checks (``no_overcommit``,
``batch_equivalence``, ``preemption_safety``): each row names its
function, the mutants it must catch and its replay through the real
code.  ``repro-ubac verify`` runs its rows.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .bounded import (
        CHECKS,
        Check,
        exhaustive_batch_equivalence,
        exhaustive_no_overcommit,
        exhaustive_preemption_safety,
        iter_release_patterns,
        select_checks,
    )
    from .instances import (
        INSTANCE_CLASS,
        CheckResult,
        Counterexample,
        VerifyBound,
        build_chain_controller,
        replay_batch_equivalence,
        replay_no_overcommit,
        replay_preemption_safety,
        simulate_sequential,
    )
    from .mutants import (
        mutant_admit_on_full,
        mutant_bincount_exit_any,
        mutant_ignore_contention,
        mutant_loop_admit_on_full,
        mutant_planner_ignores_protect,
    )

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".bounded": (
        "CHECKS", "Check", "exhaustive_batch_equivalence",
        "exhaustive_no_overcommit", "exhaustive_preemption_safety",
        "iter_release_patterns", "select_checks",
    ),
    ".instances": (
        "INSTANCE_CLASS", "CheckResult", "Counterexample", "VerifyBound",
        "build_chain_controller", "replay_batch_equivalence",
        "replay_no_overcommit", "replay_preemption_safety",
        "simulate_sequential",
    ),
    ".mutants": (
        "mutant_admit_on_full", "mutant_bincount_exit_any",
        "mutant_ignore_contention", "mutant_loop_admit_on_full",
        "mutant_planner_ignores_protect",
    ),
})
