"""Experiment pipelines: the paper's evaluation plus extension sweeps."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .reporting import format_percent, format_table
    from .scenarios import PaperScenario, paper_scenario
    from .sweeps import (
        CrossTopologyRow,
        SweepPoint,
        SweepResult,
        cross_topology_table,
        sweep_burst,
        sweep_deadline,
    )
    from .table1 import PAPER_TABLE1, Table1Result, run_table1

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".reporting": ("format_percent", "format_table"),
    ".scenarios": ("PaperScenario", "paper_scenario"),
    ".sweeps": (
        "CrossTopologyRow", "SweepPoint", "SweepResult", "cross_topology_table", "sweep_burst", "sweep_deadline",
    ),
    ".table1": ("PAPER_TABLE1", "Table1Result", "run_table1"),
})
