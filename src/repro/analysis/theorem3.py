"""The one-class Figure 2 fixed point in plain Python, and the stop
rules and result record every fixed-point solve shares.

:func:`theorem3_fixed_point` is what ``verify_assignment`` runs for a
registry with one real-time class — the paper's scenarios, and every
``serve`` start-up (``certify_ladder``, ``ConfiguredNetwork``).  It
solves the system of :func:`repro.analysis.delays.single_class_delays`
in dependency order.  ``Y_k`` reads only the servers upstream of ``k``,
so the servers are condensed into the strongly connected components of
their dependency graph (:func:`dependency_order`, Tarjan's algorithm)
and settled one component at a time, in topological order: a server on
no cycle is evaluated once from its final upstream delays, which is its
least fixed point exactly, and only a cyclic component is iterated,
with the stop rules below applied to it alone.  Section 5.2's heuristic
keeps the dependencies acyclic where it can, so its routes take no
iteration at all; MCI's shortest paths iterate one 12-server cycle of
70 servers.  The verdicts are the numpy solver's, and the delays agree
with it within a few nanoseconds, not to the bit (the differential
suite pins both, the delays to 1e-8 s).  A process that only certifies a configuration and
then serves it never imports numpy; the route searches, which push and
pop thousands of routes through one route system, keep the numpy
solver of :mod:`repro.analysis.fixedpoint`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain
from operator import add, sub
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, TypeVar

from ..errors import AnalysisError
from ..obs import DEFAULT_ITERATION_BUCKETS, OBS

__all__ = [
    "DEFAULT_CEILING",
    "DEFAULT_TOLERANCE",
    "FixedPointResult",
    "MAX_ITERATIONS",
    "dependency_order",
    "observed_solve",
    "theorem3_fixed_point",
]

logger = logging.getLogger("repro.analysis.fixedpoint")

#: Absolute convergence tolerance on per-server delays, in seconds.
#: 1 ns is far below any meaningful queueing-delay scale in the model.
DEFAULT_TOLERANCE = 1e-9

#: Delay ceiling (seconds) above which the iteration is declared divergent.
DEFAULT_CEILING = 1e6

#: Iteration budget of one solve.
MAX_ITERATIONS = 100_000

R = TypeVar("R", bound="FixedPointResult")


@dataclass
class FixedPointResult:
    """Outcome of a delay fixed-point computation.

    Attributes
    ----------
    delays:
        Per-server delay bounds at the final iterate (``float64[S]``
        from the numpy solver, a list of floats from
        :func:`theorem3_fixed_point`).
    route_delays:
        End-to-end bounds per route at the final iterate.
    converged:
        True if the iteration reached the fixed point within tolerance.
    deadline_violated:
        True if the computation stopped early because some route's
        end-to-end delay exceeded its deadline (sound: delays only grow).
    diverged:
        True if the iterates crossed the divergence ceiling.
    iterations:
        Number of iterations performed.
    residual:
        Largest per-server delay change at the final iteration.
    """

    delays: Any
    route_delays: Any
    converged: bool
    deadline_violated: bool
    diverged: bool
    iterations: int
    residual: float

    @property
    def safe(self) -> bool:
        """Converged with no deadline violation."""
        return self.converged and not self.deadline_violated


def _outcome(result: FixedPointResult) -> str:
    if result.converged:
        return "converged"
    if result.deadline_violated:
        return "deadline_violated"
    if result.diverged:
        return "diverged"
    return "budget_exhausted"


def observed_solve(
    solve: Callable[[], R], *, routes: int, servers: int, warm: bool
) -> R:
    """``solve()``, recorded as one fixed-point solve when
    observability is on: a ``fixedpoint.solve`` span and the
    ``repro_fixedpoint_*`` series, whichever solver ran."""
    if not OBS.enabled:
        return solve()
    with OBS.span(
        "fixedpoint.solve", routes=routes, servers=servers, warm_start=warm
    ) as sp:
        result = solve()
        outcome = _outcome(result)
        sp.set(iterations=result.iterations, outcome=outcome)
    reg = OBS.registry
    reg.counter("repro_fixedpoint_solves_total", outcome=outcome).inc()
    reg.counter("repro_fixedpoint_iterations_total").inc(result.iterations)
    reg.histogram(
        "repro_fixedpoint_iterations", buckets=DEFAULT_ITERATION_BUCKETS
    ).observe(result.iterations)
    reg.gauge("repro_fixedpoint_last_residual").set(result.residual)
    if warm:
        reg.counter("repro_fixedpoint_warm_starts_total").inc()
    if result.deadline_violated and not result.converged:
        reg.counter("repro_fixedpoint_early_failures_total").inc()
    if result.diverged:
        logger.debug(
            "fixed point diverged after %d iterations "
            "(%d routes, ceiling crossed)",
            result.iterations,
            routes,
        )
    return result


def _occurrences(routes: Sequence[Sequence[int]]) -> List[int]:
    """The servers of ``routes`` end to end, each route behind a -1: the
    occurrence ahead of occurrence ``i`` on its route is ``i - 1``, and
    a -1 is ahead of each route's head."""
    occ = [-1]
    for i, servers in enumerate(routes):
        if not servers:
            raise AnalysisError(f"route {i} must be a non-empty 1-D array")
        occ += servers
        occ.append(-1)
    return occ


def _components(occ: List[int]) -> List[List[int]]:
    """:func:`dependency_order` of the routes ``occ`` lays end to end."""
    succ: Dict[int, List[int]] = {k: [] for k in dict.fromkeys(occ)}
    del succ[-1]
    for head, tail in set(zip(occ, occ[1:])):
        if head >= 0 <= tail:
            succ[head].append(tail)
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    stack: List[int] = []
    emitted: List[List[int]] = []
    # The index of a server already in a component: it lowers no ``low``.
    done = len(succ)
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    at = stack.index(v)
                    emitted.append(stack[at:])
                    del stack[at:]
                    for w in emitted[-1]:
                        index[w] = done
    emitted.reverse()
    return emitted


def dependency_order(routes: Sequence[Sequence[int]]) -> List[List[int]]:
    """The servers ``routes`` cross, as the strongly connected components
    of their dependency graph, in topological order.

    The graph has an edge from each server to the next one on any
    route: a server's ``Y_k`` reads every server before it on each
    route that crosses it.  No route of a network crosses a server twice
    in a row (a network has no self-loop link), so a component of one
    server is on no cycle.  Tarjan's algorithm, kept iterative so that
    no graph reaches the recursion limit, emits a component only after
    every component downstream of it; the order returned is the
    reverse, so each component comes after everything upstream of it.
    """
    return _components(_occurrences(routes))


def theorem3_fixed_point(
    graph,
    router_paths: Sequence[Sequence[Hashable]],
    traffic_class,
    alpha: float,
    *,
    warm_start: Optional[Sequence[float]] = None,
) -> FixedPointResult:
    """The least fixed point of Theorem 3's ``Z``, in dependency order.

    Same inputs (``warm_start`` as ``solve_single_class`` takes it),
    checks (raised in the same order, with the same messages) and
    result record as ``single_class_delays(...).fixed_point``;
    ``delays`` and ``route_delays`` are lists.  The
    servers are settled one strongly connected component at a time
    (:func:`dependency_order`), each from the final delays upstream of
    it: a server on no cycle is evaluated once, exactly, and only a
    cyclic component is iterated, under the numpy loop's stop rules
    applied to it alone.  ``iterations`` sums those iterations.
    ``warm_start`` is any sequence of per-server delays known to lie
    below the least fixed point; only a cycle's iteration reads it.
    """
    if not traffic_class.is_realtime:
        raise AnalysisError(
            f"class {traffic_class.name!r} has no finite deadline"
        )
    routes = graph.routes_servers(router_paths)
    S = graph.num_servers
    if S <= 0:
        raise AnalysisError("route system needs at least one server")
    occ = _occurrences(routes)
    burst, rate = float(traffic_class.burst), float(traffic_class.rate)
    if burst < 0 or rate <= 0:
        raise AnalysisError("need burst >= 0 and rate > 0")
    alpha = float(alpha)
    if not (0.0 < alpha <= 1.0):
        raise AnalysisError(
            f"class utilization must be in (0, 1], got {alpha}"
        )
    n = float(graph.uniform_fan_in())
    if n < 1:
        raise AnalysisError("server fan-in must be >= 1")
    # Theorem 3's beta, on the servers some route crosses; the rest
    # carry no real-time traffic and keep zero delay.
    coefficient = alpha * (n - 1.0) / (rate * (n - alpha))

    def delay(y: float) -> float:
        return (y * rate + burst) * coefficient

    # Per server, the positions just ahead of its occurrences; those
    # ahead of the -1s behind the routes are the routes' last servers.
    ahead: Dict[int, List[int]] = {k: [] for k in dict.fromkeys(occ)}
    for b, k in enumerate(occ[1:]):
        ahead[k].append(b)
    ends = ahead.pop(-1)
    deadline = float(traffic_class.deadline)
    late = deadline.__lt__

    def solve() -> FixedPointResult:
        start = [0.0] * S if warm_start is None else list(map(float, warm_start))
        if len(start) != S:
            raise AnalysisError(
                f"initial vector has shape ({len(start)},), expected ({S},)"
            )
        d = [0.0] * S
        get = d.__getitem__
        # ``through[i]``: occurrence i's route summed up to and including
        # i, once i's server is settled; 0.0 at each -1.
        through = [0.0] * len(occ)
        iterations = 0
        residual = step = 0.0

        def result(converged, violated, diverged):
            if converged:
                route_d = list(map(through.__getitem__, ends))
                violated = any(map(late, route_d))
            else:
                route_d = [sum(map(get, servers)) for servers in routes]
            return FixedPointResult(
                d, route_d, converged, violated, diverged, iterations,
                max(residual, step),
            )

        for component in _components(occ):
            if len(component) == 1:
                # Everything upstream is settled: one evaluation is the
                # least fixed point here.
                k = component[0]
                y = max(0.0, *map(through.__getitem__, ahead[k]))
                d[k] = dk = delay(y)
                for b in ahead[k]:
                    through[b + 1] = through[b] + dk
                if late(y + dk):
                    return result(False, True, False)
                if dk > DEFAULT_CEILING:
                    return result(False, False, True)
                continue
            # A cycle.  Each member's ``Y_k`` is a max, over its route
            # occurrences, of a settled sum ahead of the component plus
            # the run of members between that sum and the occurrence:
            # one term per distinct run, at its largest settled sum.
            members = set(component)
            terms = []
            for k in component:
                d[k] = start[k]
                const, runs = 0.0, {}
                for b in ahead[k]:
                    run = []
                    while occ[b] in members:
                        run.append(occ[b])
                        b -= 1
                    if run:
                        key = tuple(run)
                        runs[key] = max(runs.get(key, 0.0), through[b])
                    else:
                        const = max(const, through[b])
                terms.append((const, list(runs.items())))

            def upstream() -> List[float]:
                return [
                    max(const, *[c + sum(map(get, run)) for run, c in runs])
                    for const, runs in terms
                ]

            new = list(map(delay, upstream()))
            # A warm start below the least fixed point is never above
            # its first update (a cold start never is).
            if any(a < start[k] - DEFAULT_TOLERANCE for a, k in zip(new, component)):
                raise AnalysisError(
                    "warm start is above the least fixed point "
                    "(update decreased some delay); start from zero instead"
                )
            step = float("inf")
            for iteration in range(1, MAX_ITERATIONS + 1):
                for k, dk in zip(component, new):
                    d[k] = dk
                old, y = new, upstream()
                if any(map(late, map(add, y, old))):
                    iterations += iteration
                    return result(False, True, False)
                if max(old) > DEFAULT_CEILING:
                    iterations += iteration
                    return result(False, False, True)
                new = list(map(delay, y))
                step = max(map(abs, map(sub, new, old)))
                if step <= DEFAULT_TOLERANCE:
                    break
            else:
                iterations += MAX_ITERATIONS
                return result(False, False, False)
            iterations += iteration
            residual = max(residual, step)
            reach = 0.0
            for k, dk in zip(component, new):
                d[k] = dk
            for b in sorted(chain.from_iterable(map(ahead.__getitem__, component))):
                through[b + 1] = total = through[b] + d[occ[b + 1]]
                reach = max(reach, total)
            if late(reach):
                return result(False, True, False)
            if max(new) > DEFAULT_CEILING:
                return result(False, False, True)
        return result(True, False, False)

    return observed_solve(
        solve, routes=len(routes), servers=S, warm=warm_start is not None
    )
