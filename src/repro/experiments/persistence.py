"""Experiment result persistence and report generation.

Reproduction hygiene: every headline experiment can dump its numbers to a
JSON record (with the library version and the paper's reference values),
and a Markdown report in the style of ``EXPERIMENTS.md`` can be
regenerated from such records — so the shipped comparison tables are
artifacts of code, not hand-maintained prose.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from .._version import __version__
from ..errors import ConfigurationError
from .sweeps import SweepResult
from .table1 import PAPER_TABLE1, Table1Result

__all__ = [
    "ExperimentRecord",
    "table1_record",
    "sweep_record",
    "render_markdown_report",
    "save_records",
]

_SCHEMA_VERSION = 1


@dataclass
class ExperimentRecord:
    """One experiment's regenerated numbers plus references.

    Attributes
    ----------
    experiment_id:
        Stable identifier (e.g. ``"table1"``, ``"sweep-deadline"``).
    measured:
        The regenerated values (JSON-compatible).
    reference:
        The paper's values where the paper reports them (may be empty
        for extension experiments).
    notes:
        Free-form caveats (e.g. topology-reconstruction sensitivity).
    """

    experiment_id: str
    title: str
    measured: Dict[str, Any]
    reference: Dict[str, Any] = field(default_factory=dict)
    notes: str = ""
    library_version: str = __version__

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": _SCHEMA_VERSION,
            "experiment_id": self.experiment_id,
            "title": self.title,
            "measured": self.measured,
            "reference": self.reference,
            "notes": self.notes,
            "library_version": self.library_version,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentRecord":
        if data.get("schema_version") != _SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported record schema {data.get('schema_version')!r}"
            )
        return cls(
            experiment_id=str(data["experiment_id"]),
            title=str(data["title"]),
            measured=dict(data["measured"]),
            reference=dict(data.get("reference", {})),
            notes=str(data.get("notes", "")),
            library_version=str(data.get("library_version", "?")),
        )


def table1_record(result: Table1Result) -> ExperimentRecord:
    """Record the Table 1 reproduction (with the paper's reference row)."""
    return ExperimentRecord(
        experiment_id="table1",
        title="Table 1: Maximum Utilization",
        measured={k: round(v, 4) for k, v in result.values.items()},
        reference=dict(PAPER_TABLE1),
        notes=(
            "Analytic endpoints match exactly; SP/heuristic columns are "
            "topology-list dependent (the paper's Figure 4 is a picture). "
            f"Ordering holds: {result.ordering_holds}; "
            f"improvement {result.improvement:.2f}x."
        ),
    )


def sweep_record(sweep: SweepResult, experiment_id: str) -> ExperimentRecord:
    """Record a sensitivity sweep."""
    measured = {
        "parameter": sweep.name,
        "unit": sweep.unit,
        "points": [
            {
                "value": p.parameter,
                "lower_bound": round(p.lower_bound, 4),
                "upper_bound": round(p.upper_bound, 4),
                "shortest_path": (
                    None if p.shortest_path is None
                    else round(p.shortest_path, 4)
                ),
                "heuristic": (
                    None if p.heuristic is None else round(p.heuristic, 4)
                ),
            }
            for p in sweep.points
        ],
    }
    return ExperimentRecord(
        experiment_id=experiment_id,
        title=f"Sweep: max utilization vs {sweep.name}",
        measured=measured,
    )


def render_markdown_report(records: Sequence[ExperimentRecord]) -> str:
    """A Markdown report comparing measured vs reference per record."""
    lines: List[str] = ["# Reproduction report", ""]
    for record in records:
        lines.append(f"## {record.title}")
        lines.append("")
        lines.append(f"*experiment id:* `{record.experiment_id}` · "
                     f"*library:* {record.library_version}")
        lines.append("")
        if record.reference:
            keys = [k for k in record.measured if k in record.reference]
            extra = [k for k in record.measured if k not in record.reference]
            lines.append("| quantity | paper | measured |")
            lines.append("|---|---|---|")
            for key in keys:
                lines.append(
                    f"| {key} | {record.reference[key]} | "
                    f"{record.measured[key]} |"
                )
            for key in extra:
                lines.append(f"| {key} | — | {record.measured[key]} |")
        elif "points" in record.measured:
            lines.append(
                f"| {record.measured['parameter']} "
                f"({record.measured['unit']}) | LB | SP | heuristic | UB |"
            )
            lines.append("|---|---|---|---|---|")
            for point in record.measured["points"]:
                sp = point["shortest_path"]
                heur = point["heuristic"]
                lines.append(
                    f"| {point['value']} | {point['lower_bound']} | "
                    f"{'—' if sp is None else sp} | "
                    f"{'—' if heur is None else heur} | "
                    f"{point['upper_bound']} |"
                )
        else:
            lines.append("| quantity | measured |")
            lines.append("|---|---|")
            for key, value in record.measured.items():
                lines.append(f"| {key} | {value} |")
        if record.notes:
            lines.append("")
            lines.append(f"> {record.notes}")
        lines.append("")
    return "\n".join(lines)


def save_records(records: Sequence[ExperimentRecord], path: str) -> None:
    """Write records to a JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            [r.to_dict() for r in records], fh, indent=2, sort_keys=True
        )

