"""Fast paths are result-identical to the reference paths.

Three performance paths serve the configuration-time pipeline:

* :meth:`RouteSystem.push`/:meth:`~RouteSystem.pop` — incremental
  append/undo instead of full :class:`RouteSystem` rebuilds,
* the fused loop of :func:`solve_fixed_point`, which allocates its
  buffers once per solve and iterates in place — checked
  against :func:`_solve`, the allocating loop that iterates the map as a
  plain callable and serves here as the reference,
* warm-started probes in the Section 5.3 binary searches.

None of them is allowed to change a single bit of any result: the
properties below assert **exact** equality (``np.array_equal``, not
``allclose``) between fast and reference paths over random topologies,
route subsets, and utilizations.
"""

from typing import Callable, Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    FixedPointResult,
    RouteSystem,
    beta_coefficient,
    single_class_delays,
    solve_fixed_point,
    theorem3_update,
)
from repro.analysis.fixedpoint import (
    DEFAULT_CEILING,
    DEFAULT_TOLERANCE,
    Deadlines,
)
from repro.errors import AnalysisError
from repro.config import (
    bisect_alpha,
    max_utilization_heuristic,
    max_utilization_shortest_path,
)
from repro.routing import SafeRouteSelector, shortest_path_routes
from repro.topology import LinkServerGraph, analyze, random_network
from repro.traffic import all_ordered_pairs, voice_class


def _validate(tolerance: float, max_iterations: int) -> None:
    if tolerance <= 0:
        raise AnalysisError(f"tolerance must be positive, got {tolerance}")
    if max_iterations < 1:
        raise AnalysisError("max_iterations must be >= 1")


def _solve(
    system: RouteSystem,
    update: Callable[[np.ndarray], np.ndarray],
    *,
    initial: Optional[np.ndarray],
    deadlines: Deadlines,
    tolerance: float,
    max_iterations: int,
    ceiling: float,
) -> FixedPointResult:
    _validate(tolerance, max_iterations)

    if initial is None:
        d = np.zeros(system.num_servers, dtype=np.float64)
        d = update(d)  # zero-jitter starting point beta*T
    else:
        d = np.asarray(initial, dtype=np.float64).copy()
        if d.shape != (system.num_servers,):
            raise AnalysisError(
                f"initial vector has shape {d.shape}, "
                f"expected ({system.num_servers},)"
            )
        d_next = update(d)
        if np.any(d_next < d - tolerance):
            raise AnalysisError(
                "warm start is above the least fixed point "
                "(update decreased some delay); start from zero instead"
            )
        d = d_next

    residual = float("inf")
    for iteration in range(1, max_iterations + 1):
        route_d = system.route_delays(d)
        if deadlines is not None and np.any(route_d > deadlines):
            return FixedPointResult(
                delays=d,
                route_delays=route_d,
                converged=False,
                deadline_violated=True,
                diverged=False,
                iterations=iteration,
                residual=residual,
            )
        if float(d.max(initial=0.0)) > ceiling:
            return FixedPointResult(
                delays=d,
                route_delays=route_d,
                converged=False,
                deadline_violated=False,
                diverged=True,
                iterations=iteration,
                residual=residual,
            )
        d_next = update(d)
        residual = float(np.abs(d_next - d).max(initial=0.0))
        d = d_next
        if residual <= tolerance:
            route_d = system.route_delays(d)
            violated = deadlines is not None and bool(
                np.any(route_d > deadlines)
            )
            return FixedPointResult(
                delays=d,
                route_delays=route_d,
                converged=True,
                deadline_violated=violated,
                diverged=False,
                iterations=iteration,
                residual=residual,
            )

    return FixedPointResult(
        delays=d,
        route_delays=system.route_delays(d),
        converged=False,
        deadline_violated=False,
        diverged=False,
        iterations=max_iterations,
        residual=residual,
    )


def _server_routes(n, p, seed):
    """Random topology compiled to server-index routes."""
    net = random_network(n, p, seed=seed)
    graph = LinkServerGraph(net)
    pairs = all_ordered_pairs(net)
    paths = list(shortest_path_routes(net, pairs).values())
    return net, graph, graph.routes_servers(paths)


def _update(system, graph, alpha):
    voice = voice_class()
    beta = beta_coefficient(alpha, voice.rate, graph.uniform_fan_in())
    return theorem3_update(system, voice.burst, voice.rate, beta)


def _solve_reference(routes, graph, alpha, deadline):
    """Fresh bulk build + allocating solver (the reference path)."""
    system = RouteSystem(routes, graph.num_servers)
    return _solve(
        system,
        _update(system, graph, alpha),
        initial=None,
        deadlines=deadline,
        tolerance=DEFAULT_TOLERANCE,
        max_iterations=100_000,
        ceiling=DEFAULT_CEILING,
    )


def _solve_fast(grow, graph, alpha, deadline):
    """Pushed system + the solver's fused loop (the fast path)."""
    return solve_fixed_point(
        grow, _update(grow, graph, alpha), deadlines=deadline
    )


def _assert_identical(ref, fast):
    assert np.array_equal(ref.delays, fast.delays)
    assert np.array_equal(ref.route_delays, fast.route_delays)
    assert ref.converged == fast.converged
    assert ref.deadline_violated == fast.deadline_violated
    assert ref.diverged == fast.diverged
    assert ref.iterations == fast.iterations
    assert ref.residual == fast.residual


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=10),
    p=st.floats(min_value=0.3, max_value=0.6),
    seed=st.integers(min_value=0, max_value=10_000),
    alpha=st.floats(min_value=0.05, max_value=0.95),
    keep=st.integers(min_value=1, max_value=10**6),
)
def test_prop_incremental_scratch_bit_identical(n, p, seed, alpha, keep):
    """Incremental append + fused solve == fresh build + allocating solve,
    bit for bit, on a random prefix of the route set — including after
    push/pop churn."""
    net, graph, routes = _server_routes(n, p, seed)
    k = 1 + keep % len(routes)
    deadline = voice_class().deadline

    grow = RouteSystem([], graph.num_servers)
    for r in routes[:k]:
        grow.push(r)
    # Trial-style churn: push the next route (if any) and retract it.
    if k < len(routes):
        grow.push(routes[k])
        grow.pop()

    ref = _solve_reference(routes[:k], graph, alpha, deadline)
    _assert_identical(ref, _solve_fast(grow, graph, alpha, deadline))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=10),
    p=st.floats(min_value=0.3, max_value=0.6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_prop_with_route_matches_fresh_build(n, p, seed):
    """A bulk build with one route pushed, and routes pushed one by one
    onto an empty system with a push/pop of a spare route on the way,
    both equal a bulk build of the whole set."""
    net, graph, routes = _server_routes(n, p, seed)
    appended = RouteSystem(routes[:-1], graph.num_servers)
    appended.push(routes[-1])
    fresh = RouteSystem(routes, graph.num_servers)
    pushed = RouteSystem([], graph.num_servers)
    for r in routes:
        pushed.push(r)
        pushed.push(routes[0])
        pushed.pop()
    for fast in (appended, pushed):
        assert np.array_equal(fast.occ_server, fresh.occ_server)
        assert np.array_equal(fast.route_start, fresh.route_start)
        assert np.array_equal(fast.occ_start, fresh.occ_start)
        assert np.array_equal(fast.touched_servers, fresh.touched_servers)
        assert np.array_equal(fast._server_count, fresh._server_count)
    d = np.linspace(0.0, 1.0, graph.num_servers)
    for fast in (appended, pushed):
        assert np.array_equal(fast.route_delays(d), fresh.route_delays(d))
        assert np.array_equal(
            fast.upstream_delays(d), fresh.upstream_delays(d)
        )


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=8),
    p=st.floats(min_value=0.35, max_value=0.6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_prop_warm_search_equals_cold_search(n, p, seed):
    """Warm-started binary-search probes return the same alpha*, the same
    route set, and the same probe trace as a cold oracle, one that
    ignores the warm start it is handed."""
    net = random_network(n, p, seed=seed)
    if analyze(net).max_degree < 2:
        return
    pairs = all_ordered_pairs(net)
    voice = voice_class()
    graph = LinkServerGraph(net)
    sp = shortest_path_routes(net, pairs)
    paths = list(sp.values())

    def cold_sp(alpha, warm):
        if not single_class_delays(graph, paths, voice, alpha).safe:
            return None
        return dict(sp), None

    warm = max_utilization_shortest_path(net, pairs, voice, resolution=0.01)
    cold = bisect_alpha(
        cold_sp, warm.bounds.lower, warm.bounds.upper, resolution=0.01
    )
    assert (warm.alpha, warm.routes, warm.evaluations) == cold

    selector = SafeRouteSelector(net, voice)

    def cold_heuristic(alpha, warm):
        outcome = selector.select(pairs, alpha)
        if outcome.success:
            return outcome.routes, None
        return cold_sp(alpha, None)

    warm_h = max_utilization_heuristic(net, pairs, voice, resolution=0.02)
    cold_h = bisect_alpha(
        cold_heuristic, warm_h.bounds.lower, warm_h.bounds.upper,
        resolution=0.02,
    )
    assert (warm_h.alpha, warm_h.routes, warm_h.evaluations) == cold_h
