"""Slot counts are exact floors of the alpha a certificate covers.

`granted_slots` is the one function that sizes a slot vector: the
ledger's verified slots, a governor rung's limit, the fault fallback's
and `ConfiguredNetwork.slots_per_link`.  The reference here is written
with `fractions.Fraction`, independent of its integer-ratio code, over
the 0.001 alpha grid at voice's C/rho = 3 125 (MCI and NSFNET alike).
A float64 floor exceeds it on 54 of those alphas, and a rung applied as
`floor(floor(base*C/rho) * rung/base)` exceeds the rung's own exact
floor on 2 363 of the 499 500 (base, rung < base) pairs: the planted
float floor below must fail both checks.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.admission import ledger
from repro.admission.ledger import UtilizationLedger
from repro.control import AlphaLadder
from repro.topology import (
    LinkServerGraph,
    line_network,
    mci_backbone,
    nsfnet_backbone,
)
from repro.traffic import ClassRegistry, voice_class

GRID = [round(0.001 * k, 3) for k in range(1, 1001)]
VOICE = voice_class()
REGISTRY = ClassRegistry([VOICE])
#: One server per grid alpha, so one ledger holds every base.
WIDE = LinkServerGraph(line_network(len(GRID) // 2 + 1))


def exact_floor(alpha, capacity):
    return math.floor(Fraction(alpha) * Fraction(capacity) / Fraction(VOICE.rate))


def float_floor(alpha, capacities, rate):
    """The float64 floor `granted_slots` replaced."""
    return np.floor(alpha * np.asarray(capacities) / rate).astype(np.int64)


def alphas_off_the_exact_floor(graph):
    """Grid alphas whose verified ledger slots are not the exact floor."""
    capacity = graph.uniform_capacity()
    return [
        alpha for alpha in GRID
        if (UtilizationLedger(graph, REGISTRY, {"voice": alpha}).verified_slots("voice")
            != exact_floor(alpha, capacity)).any()
    ]


def pairs_above_the_rung():
    """(base, rung < base) pairs whose effective slots under the rung
    exceed the rung's own exact floor."""
    capacity = WIDE.uniform_capacity()
    exact = [exact_floor(alpha, capacity) for alpha in GRID]
    # Server k of WIDE holds the verified slots of base GRID[k]; each
    # rung then limits every server, as a one-class ladder applies it
    # whatever its base.
    at_bases = UtilizationLedger(WIDE, REGISTRY, {"voice": GRID[-1]})
    at_bases.set_capacity("voice", np.array([
        ledger.granted_slots(base, capacity, VOICE.rate) for base in GRID
    ]))
    ladder = AlphaLadder(tuple(GRID), {"voice": GRID[-1]})
    over = 0
    for k in range(len(GRID)):
        rung = ladder.class_alphas(k)["voice"]
        slots = ledger.granted_slots(rung, capacity, VOICE.rate)
        at_bases.limit({"voice": np.full(WIDE.num_servers, slots)})
        over += int(np.count_nonzero(np.array(at_bases.slots("voice")[k + 1:]) > exact[k]))
    return over


@pytest.mark.parametrize("topology", [mci_backbone, nsfnet_backbone])
def test_granted_slots_are_the_exact_floor_over_the_grid(topology):
    assert alphas_off_the_exact_floor(LinkServerGraph(topology())) == []


def test_a_rung_never_grants_more_than_its_own_exact_floor():
    assert pairs_above_the_rung() == 0


def test_a_one_class_rung_is_its_own_alpha():
    # What `certify_ladder` verified and what the limit sizes are the
    # same floats: the rung itself, whatever the base.
    for base in (GRID[-1], 0.3, 0.7):
        rungs = tuple(a for a in GRID if a < base) + (base,)
        ladder = AlphaLadder(rungs, {"voice": base})
        assert [ladder.class_alphas(k)["voice"] for k in range(len(rungs))] == list(rungs)


def test_a_planted_float_floor_fails_both_checks(monkeypatch):
    monkeypatch.setattr(ledger, "granted_slots", float_floor)
    for topology in (mci_backbone, nsfnet_backbone):
        assert len(alphas_off_the_exact_floor(LinkServerGraph(topology()))) == 54
    assert pairs_above_the_rung() > 0


def test_the_float_rung_it_replaced_exceeds_on_2363_pairs():
    # `floor(floor(base*C/rho) * rung/base)`, the rung as a float factor
    # over the float-floored base: the count docs/verification.md gives.
    capacity = WIDE.uniform_capacity()
    grid = np.array(GRID)
    exact = np.array([exact_floor(alpha, capacity) for alpha in GRID])
    full = float_floor(grid, capacity, VOICE.rate)
    over = sum(
        int(np.count_nonzero(np.floor(full[i] * (grid[:i] / base)) > exact[:i]))
        for i, base in enumerate(GRID)
    )
    assert over == 2363
