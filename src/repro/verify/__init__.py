"""Machine-checked verification of the admission safety argument.

Two complementary backends over one bounded universe
(:class:`VerifyBound` — symbolic capacities, contiguous interval
routes on a chain, ordered arrivals with release points):

* :mod:`repro.verify.bounded` — exhaustive enumeration driving the
  **real** controller and batch kernel (tier-1, no dependencies);
* :mod:`repro.verify.smt` — z3 symbolic proof in the CCAC
  constraint-encoding style (optional ``smt`` extra, CI ``verify-smt``
  job).

Both decode violations into :class:`Counterexample` objects whose
:meth:`~Counterexample.to_trace_events` form is a concrete
``repro-workload-trace/v1`` stream — replayable through the loadgen,
the service, and the adversarial regression suite.  Deliberately
broken kernels (:mod:`repro.verify.mutants`) keep the verifier honest:
every mutant must be caught and decoded, or the run fails.

``repro-ubac verify --bound N`` is the CLI front end; runs emit
schema-validated ``repro-verify-report/v1`` documents
(:mod:`repro.verify.report`).
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .bounded import (
        exhaustive_batch_equivalence,
        exhaustive_no_overcommit,
        exhaustive_preemption_safety,
        iter_release_patterns,
    )
    from .instances import (
        INSTANCE_CLASS,
        CheckResult,
        Counterexample,
        VerifyBound,
        build_chain_controller,
        replay_batch_equivalence,
        replay_no_overcommit,
        sequential_slot_decisions,
        simulate_sequential,
    )
    from .mutants import (
        MUTANTS,
        mutant_admit_on_full,
        mutant_ignore_contention,
        mutant_planner_ignores_protect,
    )
    from .report import (
        VERIFY_REPORT_SCHEMA,
        build_verify_report,
        load_verify_report,
        validate_verify_report,
        write_verify_report,
    )
    from .runner import ALL_CHECKS, run_verify
    from .smt import (
        HAVE_Z3,
        Z3_PIN,
        require_z3,
        smt_batch_equivalence,
        smt_no_overcommit,
    )

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".bounded": (
        "exhaustive_batch_equivalence", "exhaustive_no_overcommit",
        "exhaustive_preemption_safety", "iter_release_patterns",
    ),
    ".instances": (
        "INSTANCE_CLASS", "CheckResult", "Counterexample", "VerifyBound",
        "build_chain_controller", "replay_batch_equivalence",
        "replay_no_overcommit", "sequential_slot_decisions",
        "simulate_sequential",
    ),
    ".mutants": (
        "MUTANTS", "mutant_admit_on_full", "mutant_ignore_contention",
        "mutant_planner_ignores_protect",
    ),
    ".report": (
        "VERIFY_REPORT_SCHEMA", "build_verify_report", "load_verify_report",
        "validate_verify_report", "write_verify_report",
    ),
    ".runner": ("ALL_CHECKS", "run_verify"),
    ".smt": (
        "HAVE_Z3", "Z3_PIN", "require_z3", "smt_batch_equivalence",
        "smt_no_overcommit",
    ),
})
