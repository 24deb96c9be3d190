"""Work counts are a ratchet: the decision path's Python calls per op,
bare and audited with observability on, the metrics-registry lookups
the audited path makes, the controller and kernel entries per frame
shape, the calls per op of a cluster front door, its shard workers and
a plain serve on the same frames, and the heap one served frame costs
(``tests/work_counts.py`` counts them).

The pins in ``tests/data/work_counts.json`` are exact and filed per
interpreter and numpy minor version.  A count above its pin is a
regression; a count below it is a gain that must be written down, so it
fails too until the pin is lowered.  On an interpreter with no pins
only the ratio of audited to bare calls and the cluster's ceiling are
checked.
"""

import json
from pathlib import Path

from repro.service import protocol
from repro.service import router as router_module

from work_counts import (
    MIN_CEILING_X,
    ceiling_x,
    count_cluster,
    count_work,
    interpreter_key,
    per_op,
)

PINS = Path(__file__).resolve().parent / "data" / "work_counts.json"

#: Audited-with-observability calls per op over bare ones, at most.
MAX_AUDITED_RATIO = 1.5


def test_work_counts_match_their_pins():
    counts = count_work()
    rates = per_op(counts)
    assert rates["bulk_audited_calls"] <= MAX_AUDITED_RATIO * rates["bulk_calls"], rates
    # The router is one process: below this the cluster cannot beat one
    # process on any number of cores (ROADMAP 3(c)).
    assert ceiling_x(counts) >= MIN_CEILING_X, rates
    pins = json.loads(PINS.read_text(encoding="utf-8")).get(interpreter_key())
    if pins is None:
        return
    assert counts.keys() == pins.keys()
    over = {k: (counts[k], pin) for k, pin in pins.items() if counts[k] > pin}
    under = {k: (counts[k], pin) for k, pin in pins.items() if counts[k] < pin}
    assert not over, f"more work than pinned, (count, pin): {over}; per op now {rates}"
    assert not under, (
        f"less work than pinned, (count, pin): {under}; lower the pin "
        f"under {interpreter_key()!r} in {PINS.name} (per op now {rates})"
    )


def _decoded_flow_ids(subops):
    ids = []
    for sub in subops:
        kind, arg = protocol.decode_bulk_subop(sub)
        ids.append(arg.flow_id if kind == protocol.BULK_ADMIT else arg)
    return ids


def test_a_router_that_decodes_each_subop_is_caught(monkeypatch):
    """Planted: a front door that decodes every packed sub-op through
    ``decode_bulk_subop`` to find its owner, as a worker does.  It
    costs at least 2 more calls per op, which the exact pin refuses,
    and takes the ceiling down by more than a quarter."""
    shipped = count_cluster()
    monkeypatch.setattr(router_module, "_packed_flow_ids", _decoded_flow_ids)
    planted = count_cluster()
    assert planted["worker_calls"] == shipped["worker_calls"]
    extra = planted["router_calls"] - shipped["router_calls"]
    assert extra >= 2 * shipped["cluster_ops"], extra
    assert ceiling_x(planted) < 0.75 * ceiling_x(shipped)
    pins = json.loads(PINS.read_text(encoding="utf-8")).get(interpreter_key())
    if pins is not None:
        assert planted["router_calls"] > pins["router_calls"]
