"""Ext-Q: resilience — link-failure repair under the live certificate.

Fail links of the configured MCI network one at a time (and in a
sequential cascade) and measure how often the Section 5.2 repair finds
safe replacement routes *without lowering the utilization assignment*,
plus the cost of a repair.
"""

import pytest

from repro.config import configure
from repro.config.repair import repair_after_link_failure
from repro.errors import TopologyError
from repro.experiments import format_table

ALPHA = 0.30


@pytest.fixture(scope="module")
def full_cfg(scenario):
    return configure(
        scenario.network,
        scenario.registry,
        {"voice": ALPHA},
        routing="shortest-path",
    )


def test_bench_single_failure_sweep(benchmark, full_cfg, scenario, capsys):
    """Try every single-link failure once; report the survival rate."""
    links = []
    seen = set()
    for link in scenario.network.directed_links():
        if frozenset(link.key) not in seen:
            seen.add(frozenset(link.key))
            links.append(link.key)

    def sweep():
        outcomes = []
        for key in links:
            try:
                result = repair_after_link_failure(full_cfg, key)
            except TopologyError:
                outcomes.append((key, "bridge", 0))
                continue
            outcomes.append(
                (
                    key,
                    "repaired" if result.success else "FAILED",
                    len(result.affected_pairs),
                )
            )
        return outcomes

    outcomes = benchmark.pedantic(sweep, rounds=1, iterations=1)
    repaired = sum(1 for _, verdict, _ in outcomes if verdict == "repaired")
    failed = sum(1 for _, verdict, _ in outcomes if verdict == "FAILED")
    bridges = sum(1 for _, verdict, _ in outcomes if verdict == "bridge")
    worst = max(outcomes, key=lambda o: o[2])
    with capsys.disabled():
        print()
        print(
            format_table(
                ["metric", "value"],
                [
                    ["links tried", len(outcomes)],
                    ["repaired at same alpha", repaired],
                    ["unrepairable", failed],
                    ["bridges (would disconnect)", bridges],
                    ["most routes broken by one link",
                     f"{worst[2]} ({worst[0][0]}–{worst[0][1]})"],
                ],
                title=f"Ext-Q: single-link failures at alpha = {ALPHA}",
            )
        )
    # The MCI mesh at the Theorem-4-ish level absorbs every single
    # failure without touching the utilization assignment.
    assert failed == 0
    assert repaired == len(outcomes) - bridges
    # What EXPERIMENTS.md prints.
    assert len(full_cfg.routes) == 306
    assert (len(outcomes), repaired) == (35, 35)
    assert (worst[2], set(worst[0])) == (59, {"Chicago", "NewYork"})


def test_bench_cascade(benchmark, scenario, capsys):
    """Sequential failures: repair after each, until repair fails."""
    cascade = [
        ("Chicago", "NewYork"),
        ("Atlanta", "WashingtonDC"),
        ("Denver", "KansasCity"),
    ]

    def run():
        cfg = configure(
            scenario.network,
            scenario.registry,
            {"voice": ALPHA},
            routing="shortest-path",
        )
        survived = 0
        for link in cascade:
            result = repair_after_link_failure(cfg, link)
            if not result.success:
                break
            cfg = result.repaired
            survived += 1
        return survived, cfg

    survived, cfg = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(
            f"Ext-Q cascade: survived {survived}/{len(cascade)} sequential "
            f"failures at alpha = {ALPHA}; final verification: "
            f"{'OK' if cfg.verification.success else 'FAIL'}"
        )
    assert survived == len(cascade)
    assert cfg.verification.success
