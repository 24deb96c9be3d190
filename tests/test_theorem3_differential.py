"""The dependency-order Figure 2 reaches the numpy solver's verdicts.

``verify_assignment`` runs :func:`repro.analysis.theorem3.\
theorem3_fixed_point` for one real-time class (every ``serve``
start-up), and the route searches run
:func:`repro.analysis.delays.solve_single_class`.  Both must reach the
same verdict on the same configuration, or a served alpha could be one
the searches would refuse.  The two no longer compute alike: the
searches iterate every server at once, while ``theorem3_fixed_point``
settles the servers one strongly connected component at a time,
evaluating each server on no cycle once.  So this suite compares
verdicts exactly, and delays and route delays to ``AGREE`` seconds
wherever both solves converged, on MCI and NSFNET shortest-path routes
over an alpha grid that spans safe, deadline-violating and diverging
assignments, and along warm-started chains.  On a route set with no
cycle the answer is exact: ``Z(d) == d`` to the bit, after no iteration
at all.  Two planted mutants must fail the comparison: a Theorem 3 beta
that drops its ``(N - alpha)`` denominator, and a solve that walks the
components in Tarjan's emission order (downstream first) instead of
its reverse.
"""

from __future__ import annotations

import inspect
from operator import sub

import pytest

from repro.analysis import theorem3
from repro.analysis.delays import route_system, single_class_delays, solve_single_class
from repro.analysis.verification import verify_assignment
from repro.routing.shortest import shortest_path_routes
from repro.topology import LinkServerGraph, mci_backbone, nsfnet_backbone
from repro.traffic import (
    ClassRegistry,
    TrafficClass,
    all_ordered_pairs,
    voice_class,
)

#: 93 alphas from 0.05 to 0.694: safe at the low end, deadline
#: violations above the critical alpha.
GRID = [round(0.05 + 0.007 * k, 3) for k in range(93)]
VOICE = voice_class()
#: Voice with a deadline past the divergence ceiling: the top of the
#: grid diverges instead of stopping at the deadline.
PATIENT = TrafficClass(
    "voice", burst=VOICE.burst, rate=VOICE.rate,
    deadline=10 * theorem3.DEFAULT_CEILING, priority=VOICE.priority,
)
#: Seconds two converged solves may differ by, per server and per route:
#: each stops within the 1e-9 s tolerance of its own iterates.
AGREE = 1e-8


def _setup(topology):
    network = topology()
    routes = shortest_path_routes(network, all_ordered_pairs(network))
    return LinkServerGraph(network), list(routes.values())


@pytest.fixture(scope="module", params=[mci_backbone, nsfnet_backbone],
                ids=["mci", "nsfnet"])
def configured(request):
    return _setup(request.param)


def _outcome(fp):
    return "safe" if fp.safe else "diverged" if fp.diverged else (
        "violated" if fp.deadline_violated else "budget")


def _apart(got, ref) -> float:
    return max(map(abs, map(sub, got, ref)))


def mismatches(solve, graph, paths, alpha, warm=None, cls=VOICE):
    """What ``solve`` (a ``theorem3_fixed_point``) reports otherwise
    than the numpy solver: its verdict, and where both converged, its
    delays and route delays past ``AGREE``."""
    ref = solve_single_class(
        graph, route_system(graph, paths), cls, alpha, warm_start=warm
    ).fixed_point
    got = solve(graph, paths, cls, alpha, warm_start=warm)
    if _outcome(got) != _outcome(ref):
        return ["verdict"], got
    if not (got.converged and ref.converged):
        return [], got
    fields = {
        "delays": (got.delays, ref.delays.tolist()),
        "route_delays": (got.route_delays, ref.route_delays.tolist()),
    }
    return [name for name, (a, b) in fields.items() if _apart(a, b) > AGREE], got


def test_the_grid_reaches_the_numpy_verdicts(configured):
    graph, paths = configured
    outcomes = set()
    for cls in (VOICE, PATIENT):
        for alpha in GRID:
            wrong, got = mismatches(
                theorem3.theorem3_fixed_point, graph, paths, alpha, cls=cls
            )
            assert wrong == [], (cls.deadline, alpha, wrong)
            outcomes.add(_outcome(got))
    # The grid reaches every way a solve can end short of its budget.
    assert outcomes == {"safe", "violated", "diverged"}


def test_warm_started_chains_reach_the_numpy_verdicts(configured):
    """Each alpha warm-starts from the last safe one's delays, on both
    solvers alike: a lower alpha's least fixed point lies below."""
    graph, paths = configured
    for base in (0.2, 0.3, 0.4):
        warm = None
        for alpha in [base * f for f in (0.5, 0.625, 0.75, 0.875, 1.0)]:
            wrong, got = mismatches(
                theorem3.theorem3_fixed_point, graph, paths, alpha, warm
            )
            assert wrong == [], (base, alpha, wrong)
            if got.safe:
                warm = got.delays


def test_verify_assignment_reports_the_numpy_verdict(configured):
    graph, paths = configured
    registry = ClassRegistry.two_class(VOICE)
    for alpha in GRID[::7]:
        result = verify_assignment(graph, paths, registry, {"voice": alpha})
        ref = single_class_delays(graph, paths, VOICE, alpha)
        assert result.success == ref.safe
        if ref.safe:
            assert result.worst_route_delay["voice"] == pytest.approx(
                ref.worst_route_delay, abs=AGREE
            )
            assert result.slack["voice"] == pytest.approx(ref.slack, abs=AGREE)


def test_mci_shortest_paths_have_one_cycle_of_twelve_servers():
    graph, paths = _setup(mci_backbone)
    components = theorem3.dependency_order(graph.routes_servers(paths))
    assert sum(map(len, components)) == graph.num_servers == 70
    assert [len(c) for c in components if len(c) > 1] == [12]


def _z(graph, paths, cls, alpha, d):
    """Theorem 3's ``Z(d)``, each upstream delay summed along its route
    from the route's head."""
    n = float(graph.uniform_fan_in())
    coefficient = alpha * (n - 1.0) / (cls.rate * (n - alpha))
    y = {}
    for servers in graph.routes_servers(paths):
        for at, k in enumerate(servers):
            y[k] = max(y.get(k, 0.0), sum(d[j] for j in servers[:at]))
    return [
        (y[k] * cls.rate + cls.burst) * coefficient if k in y else 0.0
        for k in range(graph.num_servers)
    ]


def test_an_acyclic_route_set_is_solved_exactly_without_iterating():
    """MCI's shortest paths without the routes that cross its one cycle
    leave a dependency graph with no cycle: one pass in topological
    order is the least fixed point itself."""
    graph, paths = _setup(mci_backbone)
    routes = graph.routes_servers(paths)
    cycle = set(max(theorem3.dependency_order(routes), key=len))
    acyclic = [p for p, r in zip(paths, routes) if not cycle & set(r)]
    components = theorem3.dependency_order(graph.routes_servers(acyclic))
    assert len(acyclic) > len(paths) // 2
    assert max(map(len, components)) == 1
    for alpha in (0.2, 0.3, 0.4):
        got = theorem3.theorem3_fixed_point(graph, acyclic, VOICE, alpha)
        assert got.safe and got.iterations == 0 and got.residual == 0.0
        assert _z(graph, acyclic, VOICE, alpha, got.delays) == got.delays
        assert mismatches(
            theorem3.theorem3_fixed_point, graph, acyclic, alpha
        )[0] == []


def _planted(**lines):
    """``theorem3_fixed_point``, with each function named in ``lines``
    recompiled with its ``(line, planted)`` replacement."""
    namespace = dict(vars(theorem3))
    for name, (line, planted) in lines.items():
        fn = getattr(theorem3, name)
        source = inspect.getsource(fn)
        assert source.count(line) == 1, line
        code = compile(source.replace(line, planted), fn.__code__.co_filename, "exec")
        exec(code, namespace)
    if "theorem3_fixed_point" not in lines:
        # Recompiled into the namespace, so it calls the mutants.
        source = inspect.getsource(theorem3.theorem3_fixed_point)
        exec(compile(source, theorem3.__file__, "exec"), namespace)
    return namespace["theorem3_fixed_point"]


def _uncaught(mutant, graph, paths):
    """The alphas of a sample of the grid that the numpy solver finds
    safe and ``mutant`` answers alike (a sample none of which is safe
    would prove nothing)."""
    safe = [
        alpha for alpha in GRID[::9]
        if single_class_delays(graph, paths, VOICE, alpha).safe
    ]
    assert len(safe) >= 3
    return [
        alpha for alpha in safe
        if not mismatches(mutant, graph, paths, alpha)[0]
    ]


def test_a_beta_without_its_denominator_is_caught():
    graph, paths = _setup(mci_backbone)
    mutant = _planted(theorem3_fixed_point=(
        "coefficient = alpha * (n - 1.0) / (rate * (n - alpha))",
        "coefficient = alpha * (n - 1.0) / rate",
    ))
    assert _uncaught(mutant, graph, paths) == []


def test_components_walked_in_emission_order_are_caught(configured):
    """Tarjan emits a component after everything downstream of it.
    Walked in that order, a server is settled before the servers ahead
    of it, from delays that are not final yet."""
    graph, paths = configured
    mutant = _planted(_components=("emitted.reverse()", "pass"))
    assert _uncaught(mutant, graph, paths) == []
