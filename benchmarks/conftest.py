"""Shared fixtures for the paper benches.

Tier-1 runs every bench module listed in ``tests/test_paper_benches.py``
(``PAPER_BENCHES``) with timing off; ``pytest <module> --benchmark-only``
times one.  Each bench regenerates one table/figure of the paper (or an
extension experiment from DESIGN.md), prints the regenerated rows
alongside the paper's values, and asserts the numbers EXPERIMENTS.md
prints.
"""

from __future__ import annotations

import pytest

from repro.experiments import paper_scenario
from repro.routing import shortest_path_routes


@pytest.fixture(scope="session")
def scenario():
    """The Section 6 evaluation setup (MCI + VoIP class)."""
    return paper_scenario()


@pytest.fixture(scope="session")
def sp_routes(scenario):
    return shortest_path_routes(scenario.network, scenario.pairs)
