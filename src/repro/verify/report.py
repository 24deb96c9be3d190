"""``repro-verify-report/v1`` — the verification run artifact.

CI consumes verification runs the same way it consumes benchmarks: a
schema-tagged JSON document that a later ``--validate`` step can audit
without re-running anything.  :func:`build_verify_report` assembles
the document and :func:`validate_verify_report` rejects malformed or
internally inconsistent reports (wrong schema, unknown statuses, a
"violated" check with no decodable counterexample, an ``ok`` flag that
contradicts the checks...).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Sequence

from .. import __version__
from ..errors import VerificationError
from .instances import CheckResult, Counterexample, VerifyBound

__all__ = [
    "VERIFY_REPORT_SCHEMA",
    "build_verify_report",
    "load_verify_report",
    "validate_verify_report",
    "write_verify_report",
]

VERIFY_REPORT_SCHEMA = "repro-verify-report/v1"

_CHECK_NAMES = ("no_overcommit", "batch_equivalence")
_BACKENDS = ("exhaustive",)
_STATUSES = ("passed", "violated")


def build_verify_report(
    bound: VerifyBound,
    results: Sequence[CheckResult],
    *,
    mutant: Optional[str] = None,
    elapsed_seconds: float = 0.0,
) -> Dict[str, Any]:
    """Assemble a schema-tagged report for one verification run.

    ``ok`` means the run did what it set out to do: without a mutant,
    every check passed; with one, every check found (and
    decoded) a counterexample — a mutant surviving verification is a
    failure of the verifier.
    """
    if not results:
        raise VerificationError("a verify report needs at least one check")
    checks = [r.to_dict() for r in results]
    if mutant is None:
        ok = all(r.status == "passed" for r in results)
    else:
        ok = all(
            r.status == "violated" and r.counterexample is not None
            for r in results
        )
    return {
        "schema": VERIFY_REPORT_SCHEMA,
        "version": __version__,
        "backend": "exhaustive",
        "mutant": mutant,
        "bound": bound.to_dict(),
        "checks": checks,
        "ok": ok,
        "elapsed_seconds": float(elapsed_seconds),
    }


def validate_verify_report(report: Dict[str, Any]) -> None:
    """Audit a report document; raises :class:`VerificationError`.

    The bench-smoke ``--validate`` contract: structural checks plus
    internal consistency, so a truncated or hand-edited report can
    never pass CI.
    """
    if not isinstance(report, dict):
        raise VerificationError("verify report must be a JSON object")
    if report.get("schema") != VERIFY_REPORT_SCHEMA:
        raise VerificationError(
            f"unsupported verify-report schema "
            f"{report.get('schema')!r} (expected "
            f"{VERIFY_REPORT_SCHEMA!r})"
        )
    if report.get("backend") not in _BACKENDS:
        raise VerificationError(
            f"unknown backend {report.get('backend')!r}"
        )
    bound = report.get("bound")
    if not isinstance(bound, dict):
        raise VerificationError("report is missing the bound object")
    # Re-constructing the bound re-runs its range validation.
    VerifyBound(
        flows=int(bound.get("flows", 0)),
        servers=int(bound.get("servers", 0)),
        max_capacity=int(bound.get("max_capacity", -1)),
    )
    checks = report.get("checks")
    if not isinstance(checks, list) or not checks:
        raise VerificationError("report carries no checks")
    mutant = report.get("mutant")
    for check in checks:
        if not isinstance(check, dict):
            raise VerificationError("each check must be an object")
        if check.get("name") not in _CHECK_NAMES:
            raise VerificationError(
                f"unknown check name {check.get('name')!r}"
            )
        if check.get("backend") not in _BACKENDS:
            raise VerificationError(
                f"unknown check backend {check.get('backend')!r}"
            )
        status = check.get("status")
        if status not in _STATUSES:
            raise VerificationError(
                f"unknown check status {status!r}"
            )
        elapsed = check.get("elapsed_seconds")
        if not isinstance(elapsed, (int, float)) or elapsed < 0:
            raise VerificationError(
                "check elapsed_seconds must be a non-negative number"
            )
        cx = check.get("counterexample")
        if status == "violated":
            if cx is None:
                raise VerificationError(
                    f"violated check {check['name']!r} carries no "
                    "counterexample"
                )
            Counterexample.from_dict(cx)  # raises when undecodable
        elif cx is not None:
            raise VerificationError(
                f"non-violated check {check['name']!r} carries a "
                "counterexample"
            )
    ok = report.get("ok")
    if not isinstance(ok, bool):
        raise VerificationError("report ok flag must be a boolean")
    if mutant is None:
        expected_ok = all(c["status"] == "passed" for c in checks)
    else:
        expected_ok = all(c["status"] == "violated" for c in checks)
    if ok != expected_ok:
        raise VerificationError(
            f"report ok flag is {ok} but the checks imply "
            f"{expected_ok}"
        )
    elapsed = report.get("elapsed_seconds")
    if not isinstance(elapsed, (int, float)) or elapsed < 0:
        raise VerificationError(
            "report elapsed_seconds must be a non-negative number"
        )


def write_verify_report(path: str, report: Dict[str, Any]) -> None:
    """Write a report as canonical (sorted-key) JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_verify_report(path: str) -> Dict[str, Any]:
    """Load a report document (no validation — pair with
    :func:`validate_verify_report`)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise VerificationError(
                f"malformed verify report {path}: {exc}"
            ) from None
