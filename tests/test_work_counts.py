"""Work counts are a ratchet: the decision path's Python calls per op,
bare and audited with observability on, the metrics-registry lookups
the audited path makes, the controller and kernel entries per frame
shape, the calls per op of a cluster front door, its shard workers and
a plain serve on the same frames, the calls of a lone admit and release
over each protocol, the heap one served frame costs, the heap an
established flow keeps, the most the flow table's id index
holds at once beyond that, the fixed-point solves, iterations and
server evaluations of ``serve --governor``'s start-up certification,
the numpy solves, iterations and route-system builds of three
configuration-time searches, and the calls of one churn frame and of
one preemption against 500, 2 000 and 6 000 established flows
(``tests/work_counts.py`` counts them).

The pins in ``tests/data/work_counts.json`` are exact and filed per
interpreter and numpy minor version.  A count above its pin is a
regression; a count below it is a gain that must be written down, so it
fails too until the pin is lowered.  On an interpreter with no pins
only the calls the audited path adds to the bare one, the cluster's
ceiling and the churn frame's growth with the flows are checked.
"""

import json
from pathlib import Path

import pytest

from repro.admission import flowtable
from repro.analysis.routesystem import RouteSystem
from repro.analysis.verification import verify_assignment
from repro.config import maximize, procedures
from repro.control import ladder as ladder_module
from repro.service import audit as audit_module
from repro.service import protocol
from repro.service import router as router_module
from repro.service.audit import AuditLog
from repro.service.server import AdmissionService

from work_counts import (
    MAX_SCALING_RATIO,
    MIN_CEILING_X,
    audited_extra_calls,
    ceiling_x,
    count_bulk,
    count_certify,
    count_cluster,
    count_index_peak,
    count_lone,
    count_scaling,
    count_search,
    count_work,
    interpreter_key,
    per_op,
    scaling_ratio,
)

PINS = Path(__file__).resolve().parent / "data" / "work_counts.json"

#: Calls per op the audited, obs-on path may make beyond the bare one:
#: a difference, not a ratio, so a bare path that gets cheaper does not
#: tighten it, and the audited path's growth is what it bounds.
MAX_AUDITED_EXTRA_CALLS = 6.5


def test_work_counts_match_their_pins():
    counts = count_work()
    rates = per_op(counts)
    assert audited_extra_calls(counts) <= MAX_AUDITED_EXTRA_CALLS, rates
    # The router is one process: below this the cluster cannot beat one
    # process on any number of cores (ROADMAP 3(c)).
    assert ceiling_x(counts) >= MIN_CEILING_X, rates
    # Run-time admission is O(route length), not O(established flows).
    assert scaling_ratio(counts) <= MAX_SCALING_RATIO, counts
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


def _one_call_more(entry):
    """``entry`` behind one more Python call."""

    def planted(*args, **kwargs):
        return entry(*args, **kwargs)

    return staticmethod(planted)


def test_an_audit_entry_one_call_dearer_is_caught(monkeypatch):
    """Planted: every audit entry costs one more call.  The bare path
    does not move, the audited one grows by a call an op, and that is
    past ``MAX_AUDITED_EXTRA_CALLS``."""
    shipped = count_bulk()
    for name in ("admit_entry", "release_entry"):
        monkeypatch.setattr(
            AuditLog, name, _one_call_more(getattr(audit_module, name))
        )
    planted = count_bulk()
    assert planted["bulk_calls"] == shipped["bulk_calls"]
    grown = audited_extra_calls(planted) - audited_extra_calls(shipped)
    assert grown == pytest.approx(1.0, abs=0.01)
    assert audited_extra_calls(shipped) <= MAX_AUDITED_EXTRA_CALLS
    assert audited_extra_calls(planted) > MAX_AUDITED_EXTRA_CALLS


def test_an_id_index_of_one_dict_is_caught():
    """Planted: the flow table's id index as one dict (a segment no
    population fills).  Churn at a stationary 8 000 flows rebuilds it
    whole, into a table of twice the size and then again at that size,
    and each rebuild holds the old table beside the new one: more than
    twice what the segmented index ever holds at once."""
    shipped = count_index_peak()["index_peak_bytes"]
    planted = count_index_peak(segment_inserts=1 << 62)["index_peak_bytes"]
    assert planted >= 2 * shipped, (planted, shipped)
    pins = json.loads(PINS.read_text(encoding="utf-8")).get(interpreter_key())
    if pins is not None:
        assert planted >= 2 * pins["index_peak_bytes"]


def test_a_lone_request_one_call_dearer_is_caught(monkeypatch):
    """Planted: every request costs one more Python call on its way in.
    A lone admit and its release are two requests, so each protocol's
    pinned count grows by two, and the exact pin refuses it."""
    shipped = count_lone()
    entry = AdmissionService.begin_request

    def planted(self, *args):
        return entry(self, *args)

    monkeypatch.setattr(AdmissionService, "begin_request", planted)
    grown = count_lone()
    for proto in ("v1", "v2"):
        key = f"lone_{proto}_calls"
        assert grown[key] == shipped[key] + 2, (key, grown, shipped)
    pins = json.loads(PINS.read_text(encoding="utf-8")).get(interpreter_key())
    if pins is not None:
        assert grown["lone_v1_calls"] > pins["lone_v1_calls"]
        assert grown["lone_v2_calls"] > pins["lone_v2_calls"]


def test_a_ladder_that_also_solves_its_lowest_candidate_is_caught(monkeypatch):
    """Planted: a ladder that verifies its lowest candidate as well as
    its base, as one that did not trust the base's fixed point would.
    The solve it adds is one more than the pin allows, and its
    iterations and server evaluations come with it."""
    shipped = count_certify()
    certify_ladder = ladder_module.certify_ladder

    def planted(network, routes, registry, base_alphas, candidates):
        lowest = min(candidates)
        verify_assignment(
            network, [list(r) for r in routes], registry,
            {name: lowest for name in base_alphas},
        )
        return certify_ladder(network, routes, registry, base_alphas, candidates)

    monkeypatch.setattr(ladder_module, "certify_ladder", planted)
    grown = count_certify()
    assert grown["certify_solves"] == shipped["certify_solves"] + 1
    assert grown["certify_iterations"] > shipped["certify_iterations"]
    assert grown["certify_servers"] > shipped["certify_servers"]
    pins = json.loads(PINS.read_text(encoding="utf-8")).get(interpreter_key())
    if pins is not None:
        assert grown["certify_solves"] > pins["certify_solves"]


def test_a_cold_started_bisection_is_caught(monkeypatch):
    """Planted: a bisection that hands every probe ``warm=None``, so
    each solve starts from zero jitter.  The three searches probe the
    same alphas, so their solves do not move, but each one iterates
    more than its pin allows."""
    shipped = count_search()
    bisect_alpha = maximize.bisect_alpha

    def cold(feasible, lo, hi, **kwargs):
        return bisect_alpha(
            lambda alpha, warm: feasible(alpha, None), lo, hi, **kwargs
        )

    monkeypatch.setattr(maximize, "bisect_alpha", cold)
    monkeypatch.setattr(procedures, "bisect_alpha", cold)
    planted = count_search()
    pins = json.loads(PINS.read_text(encoding="utf-8")).get(interpreter_key())
    for name in ("critical", "sp", "scale"):
        solves, iterations = f"search_{name}_solves", f"search_{name}_iterations"
        assert planted[solves] == shipped[solves], name
        assert planted[iterations] > shipped[iterations], name
        if pins is not None:
            assert planted[iterations] > pins[iterations], name


def test_a_search_that_recompiles_its_routes_per_probe_is_caught(monkeypatch):
    """Planted: fixed-route searches that compile their route system
    again at every probe, as each probe of ``critical_alpha`` and
    ``max_utilization_shortest_path`` did through
    ``single_class_delays``.  They probe and solve as before, but build
    once per solve beside the one build a search makes, past the pin of
    one build per search."""
    shipped = count_search()
    solve = maximize.solve_single_class

    def recompiled(graph, system, *args, **kwargs):
        starts = system.route_start.tolist()
        routes = [system.occ_server[a:b] for a, b in zip(starts, starts[1:])]
        return solve(graph, RouteSystem(routes, system.num_servers), *args, **kwargs)

    monkeypatch.setattr(maximize, "solve_single_class", recompiled)
    planted = count_search()
    pins = json.loads(PINS.read_text(encoding="utf-8")).get(interpreter_key())
    for name in ("critical", "sp"):
        solves, builds = f"search_{name}_solves", f"search_{name}_builds"
        assert shipped[builds] == 1, name
        assert planted[solves] == shipped[solves], name
        assert planted[builds] == 1 + planted[solves], name
        if pins is not None:
            assert planted[builds] > pins[builds], name


def test_an_id_lookup_that_walks_the_flows_is_caught(monkeypatch):
    """Planted: an established-id lookup that walks every flow in
    Python, as a list of flow records would.  The churn frame's calls
    per op then grow with the flows, past ``MAX_SCALING_RATIO`` from
    500 to 6 000, and so do the preemption's."""
    shipped = count_scaling()

    def walked(self, flow_id):
        return any(fid == flow_id for fid in self)

    monkeypatch.setattr(flowtable.FlowTable, "__contains__", walked)
    planted = count_scaling()
    assert scaling_ratio(shipped) <= MAX_SCALING_RATIO
    assert scaling_ratio(planted) > MAX_SCALING_RATIO
    assert planted["preempt_6000_calls"] > planted["preempt_500_calls"]
    pins = json.loads(PINS.read_text(encoding="utf-8")).get(interpreter_key())
    if pins is not None:
        for flows in (500, 2_000, 6_000):
            assert planted[f"scaling_{flows}_calls"] > pins[f"scaling_{flows}_calls"]
