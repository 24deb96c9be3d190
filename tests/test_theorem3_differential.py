"""The plain-Python Figure 2 is the numpy solver, bit for bit.

``verify_assignment`` runs :func:`repro.analysis.theorem3.\
theorem3_fixed_point` for one real-time class (every ``serve``
start-up), and the route searches run
:func:`repro.analysis.delays.single_class_delays`.  Both must reach the
same verdict on the same configuration, or a served alpha could be one
the searches would refuse.  This suite compares the two exactly —
delays, route delays, iteration count, residual and verdict — on MCI
and NSFNET shortest-path routes over an alpha grid that spans safe,
deadline-violating and diverging assignments, and along warm-started
ladder chains as ``certify_ladder`` runs them.  A planted mutant (a
Theorem 3 beta that drops its ``(N - alpha)`` denominator) must fail
the same comparison.
"""

from __future__ import annotations

import inspect

import pytest

from repro.analysis import theorem3
from repro.analysis.delays import single_class_delays
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


def mismatches(solve, graph, paths, alpha, warm=None, cls=VOICE):
    """What ``solve`` (a ``theorem3_fixed_point``) reports otherwise
    than the numpy solver, field by field."""
    ref = single_class_delays(
        graph, paths, cls, alpha, warm_start=warm
    ).fixed_point
    got = solve(graph, paths, cls, alpha, warm_start=warm)
    fields = {
        "delays": (got.delays, ref.delays.tolist()),
        "route_delays": (got.route_delays, ref.route_delays.tolist()),
        "iterations": (got.iterations, ref.iterations),
        "residual": (got.residual, ref.residual),
        "verdict": (_outcome(got), _outcome(ref)),
    }
    return [name for name, (a, b) in fields.items() if a != b], got


def test_the_grid_is_bit_identical(configured):
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


def test_warm_started_ladder_chains_are_bit_identical(configured):
    """Each rung warm-starts from the last certified one, as
    ``certify_ladder`` does, on both solvers alike."""
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
        assert result.iterations == ref.fixed_point.iterations
        assert result.worst_route_delay["voice"] == ref.worst_route_delay
        assert result.slack["voice"] == ref.slack


def _planted(line: str, planted: str):
    """``theorem3_fixed_point`` recompiled with ``line`` replaced."""
    fn = theorem3.theorem3_fixed_point
    source = inspect.getsource(fn)
    assert source.count(line) == 1, line
    namespace = dict(fn.__globals__)
    exec(compile(source.replace(line, planted), fn.__code__.co_filename, "exec"), namespace)
    return namespace[fn.__name__]


def test_a_beta_without_its_denominator_is_caught():
    graph, paths = _setup(mci_backbone)
    mutant = _planted(
        "coefficient = alpha * (n - 1.0) / (rate * (n - alpha))",
        "coefficient = alpha * (n - 1.0) / rate",
    )
    caught = [
        alpha for alpha in GRID[::9]
        if mismatches(mutant, graph, paths, alpha)[0]
    ]
    assert caught == GRID[::9]
