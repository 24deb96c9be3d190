"""One-call verification runs shared by the CLI and CI.

:func:`run_verify` runs the requested checks on the exhaustive backend
(pure Python, runs the *real* kernel and controller) and returns the
results plus an assembled, already-validated ``repro-verify-report/v1``
document.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import VerificationError
from .bounded import (
    exhaustive_batch_equivalence,
    exhaustive_no_overcommit,
)
from .instances import CheckResult, VerifyBound
from .mutants import MUTANTS
from .report import build_verify_report, validate_verify_report

__all__ = ["ALL_CHECKS", "run_verify"]

ALL_CHECKS = ("no_overcommit", "batch_equivalence")


def run_verify(
    bound: VerifyBound,
    *,
    checks: Sequence[str] = ALL_CHECKS,
    mutant: Optional[str] = None,
) -> Tuple[Dict[str, Any], List[CheckResult]]:
    """Run the bounded checks; returns ``(report, results)``.

    With ``mutant`` set, each check runs against the matching broken
    variant and must come back ``"violated"`` with a decoded
    counterexample (checks that have no variant of that mutant are
    skipped).  The returned report has already passed
    :func:`~repro.verify.report.validate_verify_report`.
    """
    unknown = [c for c in checks if c not in ALL_CHECKS]
    if unknown:
        raise VerificationError(
            f"unknown checks {unknown!r}; choose from {ALL_CHECKS}"
        )
    if not checks:
        raise VerificationError("no checks requested")
    if mutant is not None and mutant not in MUTANTS:
        raise VerificationError(
            f"unknown mutant {mutant!r}; "
            f"choose from {tuple(MUTANTS)}"
        )
    start = time.perf_counter()
    results: List[CheckResult] = []
    for check in checks:
        if check == "no_overcommit":
            # Only the admission-rule mutant makes sense here;
            # ignore_contention is a batching bug.
            if mutant is not None and mutant != "admit_on_full":
                continue
            results.append(
                exhaustive_no_overcommit(
                    bound, admit_on_full=mutant == "admit_on_full"
                )
            )
        else:
            results.append(
                exhaustive_batch_equivalence(
                    bound,
                    kernel=None if mutant is None else MUTANTS[mutant],
                )
            )
    if not results:
        raise VerificationError(
            f"mutant {mutant!r} applies to none of the requested "
            f"checks {tuple(checks)}"
        )
    report = build_verify_report(
        bound,
        results,
        mutant=mutant,
        elapsed_seconds=time.perf_counter() - start,
    )
    validate_verify_report(report)
    return report, results
