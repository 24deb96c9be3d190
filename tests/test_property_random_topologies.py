"""Paper-level properties over randomized topologies.

Theorem 4's guarantees are *topology-independent* (given N and L); these
tests exercise that claim over random connected networks rather than the
two curated backbones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import single_class_delays
from repro.config import theorem4_lower_bound, theorem4_upper_bound
from repro.routing import shortest_path_routes
from repro.topology import LinkServerGraph, analyze, random_network
from repro.traffic import all_ordered_pairs, voice_class


def _setup(n, p, seed):
    net = random_network(n, p, seed=seed)
    report = analyze(net)
    graph = LinkServerGraph(net)
    pairs = all_ordered_pairs(net)
    paths = list(shortest_path_routes(net, pairs).values())
    return net, report, graph, paths


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=12),
    p=st.floats(min_value=0.25, max_value=0.6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_prop_lower_bound_certifies_sp_routing(n, p, seed):
    """The heart of Theorem 4: on ANY topology, shortest-path routes
    verify at (just under) the lower bound computed from that topology's
    N and L."""
    net, report, graph, paths = _setup(n, p, seed)
    if report.max_degree < 2:
        return
    voice = voice_class()
    lb = theorem4_lower_bound(
        report.max_degree, report.diameter, voice.burst, voice.rate,
        voice.deadline,
    )
    result = single_class_delays(
        graph, paths, voice, min(lb, 1.0) * (1 - 1e-9)
    )
    assert result.safe, (
        f"LB {lb:.4f} failed on G({n},{p}) seed={seed} "
        f"(N={report.max_degree}, L={report.diameter})"
    )


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=10),
    p=st.floats(min_value=0.3, max_value=0.6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_prop_verification_monotone_in_alpha_random(n, p, seed):
    """Safety is monotone in alpha on random route systems."""
    net, report, graph, paths = _setup(n, p, seed)
    if report.max_degree < 2:
        return
    voice = voice_class()
    verdicts = [
        single_class_delays(graph, paths, voice, a).safe
        for a in (0.15, 0.3, 0.45, 0.6, 0.75, 0.9)
    ]
    # Once False, never True again.
    first_false = verdicts.index(False) if False in verdicts else len(verdicts)
    assert all(verdicts[:first_false])
    assert not any(verdicts[first_false:])


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=10),
    p=st.floats(min_value=0.3, max_value=0.6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_prop_bounds_bracket_sp_critical_alpha(n, p, seed):
    """LB <= (critical alpha of SP routes); UB is a global ceiling so the
    SP critical alpha also respects it."""
    from repro.config import critical_alpha

    net, report, graph, paths = _setup(n, p, seed)
    if report.max_degree < 2:
        return
    voice = voice_class()
    lb = theorem4_lower_bound(
        report.max_degree, report.diameter, voice.burst, voice.rate,
        voice.deadline,
    )
    ub = theorem4_upper_bound(
        report.max_degree, report.diameter, voice.burst, voice.rate,
        voice.deadline,
    )
    a_star = critical_alpha(graph, paths, voice, resolution=5e-3)
    # The bisection returns the last verified midpoint, which can sit up
    # to one resolution step below the true threshold.
    assert a_star >= lb - 5e-3 - 1e-9
    # NOTE: UB bounds selections whose paths realize diameter-length
    # worst cases; SP routes on a dense random graph can exceed it only
    # when their diameter is smaller than the graph bound used -- it is
    # not, since L comes from the same graph.  Allow solver resolution.
    if a_star < 1.0:  # 1.0 means "everything verified" (tiny networks)
        assert a_star <= min(1.0, ub) + 5e-3 or report.diameter <= 2
