"""The one configuration-time alpha search.

:func:`repro.config.maximize.bisect_alpha` warm-starts each probe from
the converged delays of the highest feasible one, and
:func:`repro.control.certify_ladder` each rung from the last certified
one.  Both are sound only if the least delay fixed point never
decreases as a common alpha scale grows — the lemma the first
properties here pin for Theorem 3 and Theorem 5.  The differentials
then run each search against a cold oracle built here, one that ignores
``warm``: the results must be equal (``==``), and on MCI's
shortest-path routes the warm run must spend strictly fewer fixed-point
iterations.
"""

import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis import (
    multi_class_delays,
    single_class_delays,
    verify_assignment,
)
from repro.analysis import fixedpoint
from repro.analysis.fixedpoint import DEFAULT_TOLERANCE
from repro.config import (
    bisect_alpha,
    critical_alpha,
    max_utilization_heuristic,
    max_utilization_shortest_path,
    maximize_multiclass_scale,
)
from repro.control import certify_ladder
from repro.errors import AnalysisError, ConfigurationError
from repro.obs import OBS
from repro.routing import shortest_path_routes
from repro.topology import LinkServerGraph, random_network
from repro.traffic import (
    ClassRegistry,
    TrafficClass,
    all_ordered_pairs,
    video_class,
    voice_class,
)

#: Iteration budget of the monotonicity sweeps: points near the
#: stability boundary that need more are left out of the comparison.
SWEEP_ITERATIONS = 5_000

#: A deadline no converging sweep point reaches (a diverging one crosses
#: the ceiling first), so the deadline early exit never cuts a sweep
#: short of its fixed point.
NO_DEADLINE = 10 * fixedpoint.DEFAULT_CEILING


def _converged_sweep(solve, scales):
    """``[(scale, delays)]`` of the scales whose fixed point converged."""
    out = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fixedpoint, "MAX_ITERATIONS", SWEEP_ITERATIONS)
        for scale in sorted(scales):
            delays, converged = solve(scale)
            if converged:
                out.append((scale, delays))
    return out


def _assert_nondecreasing(sweep):
    # Each solve stops within DEFAULT_TOLERANCE of its least fixed
    # point, so two nearly equal scales may round either way by that.
    for (s1, d1), (s2, d2) in zip(sweep, sweep[1:]):
        drop = float(np.max(d1 - d2, initial=0.0))
        assert drop <= DEFAULT_TOLERANCE, (
            f"delays fell by {drop:.3e} s from scale {s1} to {s2}"
        )


def _topology(n, p, seed):
    net = random_network(n, p, seed=seed)
    graph = LinkServerGraph(net)
    routes = shortest_path_routes(net, all_ordered_pairs(net))
    return net, graph, list(routes.values())


_scales = st.lists(
    st.floats(min_value=0.005, max_value=0.95),
    min_size=2, max_size=10, unique=True,
)
_classes = st.builds(
    lambda burst, rate: (burst, rate),
    st.floats(min_value=160.0, max_value=16_000.0),
    st.floats(min_value=16_000.0, max_value=2_000_000.0),
)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=9),
    p=st.floats(min_value=0.3, max_value=0.7),
    seed=st.integers(min_value=0, max_value=10_000),
    shape=_classes,
    scales=_scales,
    data=st.data(),
)
def test_prop_theorem3_delays_never_decrease_in_alpha(
    n, p, seed, shape, scales, data
):
    net, graph, paths = _topology(n, p, seed)
    keep = data.draw(
        st.lists(st.booleans(), min_size=len(paths), max_size=len(paths))
    )
    paths = [r for r, k in zip(paths, keep) if k] or paths
    burst, rate = shape
    cls = TrafficClass(
        "rt", burst=burst, rate=rate, deadline=NO_DEADLINE, priority=1
    )

    def solve(alpha):
        fp = single_class_delays(graph, paths, cls, alpha).fixed_point
        return fp.delays, fp.converged

    _assert_nondecreasing(_converged_sweep(solve, scales))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=9),
    p=st.floats(min_value=0.4, max_value=0.8),
    seed=st.integers(min_value=0, max_value=10_000),
    shapes=st.lists(_classes, min_size=2, max_size=3),
    scales=_scales,
    data=st.data(),
)
def test_prop_theorem5_delays_never_decrease_in_a_common_scale(
    n, p, seed, shapes, scales, data
):
    net, graph, paths = _topology(n, p, seed)
    # Theorem 5 needs fan-in >= 2 at every server.
    if graph.uniform_fan_in() < 2:
        return
    classes = [
        TrafficClass(
            f"c{i}", burst=b, rate=r, deadline=NO_DEADLINE, priority=i + 1
        )
        for i, (b, r) in enumerate(shapes)
    ]
    registry = ClassRegistry(classes)
    routes = {}
    for cls in classes:
        keep = data.draw(
            st.lists(st.booleans(), min_size=len(paths), max_size=len(paths))
        )
        routes[cls.name] = [r for r, k in zip(paths, keep) if k]
    weights = data.draw(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0),
            min_size=len(classes), max_size=len(classes),
        )
    )
    # Scale 1 puts the total at 1: the largest the analysis accepts.
    weights = [w / sum(weights) for w in weights]

    def solve(scale):
        alphas = {c.name: scale * w for c, w in zip(classes, weights)}
        mc = multi_class_delays(graph, routes, registry, alphas)
        delays = [c.server_delays for c in mc.per_class.values()]
        return np.stack(delays), mc.converged

    _assert_nondecreasing(_converged_sweep(solve, scales))


# --------------------------------------------------------------------- #
# warm versus cold, on the inputs the iteration counts are recorded for
# --------------------------------------------------------------------- #


def _cold(oracle):
    """``oracle`` as :func:`bisect_alpha` calls it, ignoring ``warm``."""
    return lambda alpha, warm: oracle(alpha)


@contextmanager
def _iterations():
    """Count the fixed-point iterations spent inside the block."""
    obs.enable(fresh=True)
    spent = []
    try:
        yield spent
    finally:
        counter = OBS.registry.get("repro_fixedpoint_iterations_total")
        spent.append(0 if counter is None else counter.value)
        obs.disable()


@pytest.fixture(scope="module")
def sp_paths(mci, mci_pairs):
    return list(shortest_path_routes(mci, mci_pairs).values())


def test_critical_alpha_warm_equals_cold_in_fewer_iterations(
    mci_graph, sp_paths, voice
):
    def safe(alpha):
        result = single_class_delays(mci_graph, sp_paths, voice, alpha)
        return (result, None) if result.safe else None

    with _iterations() as cold_spent:
        assert safe(1.0) is None
        cold, _, _ = bisect_alpha(_cold(safe), 1e-3, 1.0, resolution=1e-3)
    with _iterations() as warm_spent:
        warm = critical_alpha(mci_graph, sp_paths, voice)
    assert warm == cold == 0.4039169921875
    assert warm_spent[0] < cold_spent[0]


def test_multiclass_scale_warm_equals_cold_in_fewer_iterations(
    mci, sp_paths
):
    registry = ClassRegistry([voice_class(), video_class()])
    routes = {"voice": sp_paths, "video": sp_paths}
    weights = {"voice": 1.0, "video": 2.0}
    high = 1.0 / 3.0

    def check(t):
        alphas = {name: t * w for name, w in weights.items()}
        result = verify_assignment(mci, routes, registry, alphas)
        return (result, None) if result.success else None

    with _iterations() as cold_spent:
        assert check(high) is None
        scale, _, evaluations = bisect_alpha(
            _cold(check), 0.0, high, resolution=1e-3
        )
    with _iterations() as warm_spent:
        warm = maximize_multiclass_scale(mci, routes, registry, weights)
    assert warm.scale == scale == 0.17643229166666666
    assert warm.evaluations == [(high, False)] + evaluations
    assert warm_spent[0] < cold_spent[0]


def test_ladder_warm_equals_cold_in_fewer_iterations(
    mci_graph, sp_paths, voice_registry
):
    base = 0.3
    candidates = [base * f for f in (0.5, 0.625, 0.75, 0.875)]

    def certified(alpha):
        return verify_assignment(
            mci_graph, sp_paths, voice_registry, {"voice": alpha}
        ).success

    with _iterations() as cold_spent:
        assert certified(base)
        cold = [a for a in candidates if certified(a)]
    with _iterations() as warm_spent:
        ladder = certify_ladder(
            mci_graph, sp_paths, voice_registry, {"voice": base}, candidates
        )
    assert ladder.rungs == (*cold, base)
    assert ladder.rejected == ()
    assert warm_spent[0] < cold_spent[0]


# --------------------------------------------------------------------- #
# a non-positive resolution is refused, not looped on
# --------------------------------------------------------------------- #


@contextmanager
def _within(seconds):
    """Fail instead of hanging if the block outlives ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still searching after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("resolution", [0.0, -1e-3, float("nan")])
def test_bisect_alpha_refuses_a_non_positive_resolution(resolution):
    with _within(5), pytest.raises(ConfigurationError, match="resolution"):
        bisect_alpha(lambda a, warm: ({}, None), 0.1, 0.9,
                     resolution=resolution)


def test_critical_alpha_refuses_a_non_positive_resolution(
    mci_graph, sp_paths, voice
):
    with _within(5), pytest.raises(AnalysisError, match="resolution"):
        critical_alpha(mci_graph, sp_paths, voice, resolution=-1e-3)


def test_multiclass_scale_refuses_a_non_positive_resolution(mci, sp_paths):
    registry = ClassRegistry([voice_class(), video_class()])
    routes = {"voice": sp_paths, "video": sp_paths}
    with _within(5), pytest.raises(ConfigurationError, match="resolution"):
        maximize_multiclass_scale(
            mci, routes, registry, {"voice": 1.0, "video": 2.0},
            resolution=0.0,
        )


@pytest.mark.parametrize(
    "search", [max_utilization_shortest_path, max_utilization_heuristic]
)
def test_section_5_3_searches_refuse_a_non_positive_resolution(
    search, mci, voice
):
    pairs = [("Seattle", "Miami"), ("Boston", "Phoenix")]
    with _within(5), pytest.raises(ConfigurationError, match="resolution"):
        search(mci, pairs, voice, resolution=0.0)
