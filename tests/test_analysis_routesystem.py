"""Compiled route systems: vectorized kernels vs a naive reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import RouteSystem
from repro.errors import AnalysisError


def naive_upstream(routes, d, num_servers):
    """Reference implementation of eq. (6), plain Python."""
    y = np.zeros(num_servers)
    for route in routes:
        acc = 0.0
        for s in route:
            y[s] = max(y[s], acc)
            acc += d[s]
    return y


def naive_route_delays(routes, d):
    return np.asarray([sum(d[s] for s in route) for route in routes])


class TestConstruction:
    def test_basic_shapes(self):
        rs = RouteSystem([[0, 1, 2], [2, 3]], num_servers=5)
        assert rs.num_routes == 2
        assert rs.num_occurrences == 5
        np.testing.assert_array_equal(rs.route(0), [0, 1, 2])
        np.testing.assert_array_equal(rs.route(1), [2, 3])
        np.testing.assert_array_equal(np.diff(rs.route_start), [3, 2])

    def test_empty_route_rejected(self):
        with pytest.raises(AnalysisError):
            RouteSystem([[]], num_servers=3)

    def test_out_of_range_rejected(self):
        with pytest.raises(AnalysisError):
            RouteSystem([[0, 5]], num_servers=3)
        with pytest.raises(AnalysisError):
            RouteSystem([[-1]], num_servers=3)

    def test_no_routes(self):
        rs = RouteSystem([], num_servers=4)
        d = np.ones(4)
        assert rs.route_delays(d).size == 0
        np.testing.assert_array_equal(rs.upstream_delays(d), np.zeros(4))

    def test_touched_servers(self):
        rs = RouteSystem([[1, 2]], num_servers=4)
        np.testing.assert_array_equal(
            rs.touched_servers, [False, True, True, False]
        )

    def test_with_route_appends(self):
        rs = RouteSystem([[0, 1]], num_servers=4)
        assert rs.push([2, 3]) == 1
        assert rs.num_routes == 2
        np.testing.assert_array_equal(rs.route(0), [0, 1])
        np.testing.assert_array_equal(rs.route(1), [2, 3])

    def test_route_index_out_of_range(self):
        rs = RouteSystem([[0, 1, 2], [2, 3]], num_servers=5)
        with pytest.raises(AnalysisError):
            rs.route(-1)
        with pytest.raises(AnalysisError):
            rs.route(2)

    def test_server_route_count(self):
        rs = RouteSystem([[0, 1], [1, 2], [1, 3]], num_servers=4)
        np.testing.assert_array_equal(
            rs._server_count, [1, 3, 1, 1]
        )


class TestKernels:
    def test_upstream_hand_case(self):
        # Route A: 0 -> 1 -> 2, route B: 2 -> 0.
        rs = RouteSystem([[0, 1, 2], [2, 0]], num_servers=3)
        d = np.array([1.0, 2.0, 4.0])
        y = rs.upstream_delays(d)
        # server 0: first hop of A (0) vs second hop of B (4) -> 4
        # server 1: after 0 on A -> 1
        # server 2: after 0,1 on A (3) vs first hop of B (0) -> 3
        np.testing.assert_allclose(y, [4.0, 1.0, 3.0])

    def test_route_delays_hand_case(self):
        rs = RouteSystem([[0, 1, 2], [2, 0]], num_servers=3)
        d = np.array([1.0, 2.0, 4.0])
        np.testing.assert_allclose(rs.route_delays(d), [7.0, 5.0])

    def test_repeated_server_across_routes(self):
        rs = RouteSystem([[0, 1], [2, 1]], num_servers=3)
        d = np.array([5.0, 1.0, 3.0])
        y = rs.upstream_delays(d)
        assert y[1] == 5.0  # worst upstream over both routes


@st.composite
def random_system(draw):
    num_servers = draw(st.integers(min_value=2, max_value=12))
    n_routes = draw(st.integers(min_value=1, max_value=8))
    routes = [
        draw(
            st.lists(
                st.integers(min_value=0, max_value=num_servers - 1),
                min_size=1,
                max_size=6,
            )
        )
        for _ in range(n_routes)
    ]
    delays = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=num_servers,
            max_size=num_servers,
        )
    )
    return routes, np.asarray(delays), num_servers


@settings(max_examples=100, deadline=None)
@given(random_system())
def test_prop_upstream_matches_naive(case):
    routes, d, num_servers = case
    rs = RouteSystem(routes, num_servers)
    np.testing.assert_allclose(
        rs.upstream_delays(d),
        naive_upstream(routes, d, num_servers),
        rtol=1e-12,
        atol=1e-12,
    )


@settings(max_examples=100, deadline=None)
@given(random_system())
def test_prop_route_delays_match_naive(case):
    routes, d, num_servers = case
    rs = RouteSystem(routes, num_servers)
    np.testing.assert_allclose(
        rs.route_delays(d),
        naive_route_delays(routes, d),
        rtol=1e-9,
        atol=1e-9,
    )


@settings(max_examples=50, deadline=None)
@given(random_system())
def test_prop_upstream_monotone_in_delays(case):
    """Y is a monotone function of d — the basis of fixed-point soundness."""
    routes, d, num_servers = case
    rs = RouteSystem(routes, num_servers)
    bigger = d + 1.0
    assert np.all(
        rs.upstream_delays(bigger) >= rs.upstream_delays(d) - 1e-12
    )


class TestGrowableRouteSystem:
    """``RouteSystem.push``/``pop`` on the growable buffers."""

    def test_push_pop_roundtrip(self):
        grow = RouteSystem([], 5)
        assert grow.num_routes == 0 and grow.num_occurrences == 0
        grow.push([0, 1, 2])
        grow.push([2, 3])
        assert grow.num_routes == 2
        assert grow.num_occurrences == 5
        assert list(grow.occ_server) == [0, 1, 2, 2, 3]
        assert list(grow.route_start) == [0, 3, 5]
        assert list(grow.occ_start) == [0, 0, 0, 3, 3]
        assert list(grow.route(1)) == [2, 3]
        grow.pop()
        assert grow.num_routes == 1
        assert list(grow.occ_server) == [0, 1, 2]
        assert grow.pushes == 2 and grow.pops == 1
        with pytest.raises(AnalysisError):
            grow.route(1)

    def test_regrowth_past_initial_capacity(self):
        # A bulk build holds exactly its routes, and an empty system
        # starts small: both regrow, more than once, on these pushes.
        routes = [[k % 5, (k + 1) % 5, (k + 2) % 5] for k in range(40)]
        bulk = RouteSystem(routes[:3], 5)
        empty = RouteSystem([], 5)
        for r in routes[3:]:
            bulk.push(r)
        for r in routes:
            empty.push(r)
        rs = RouteSystem(routes, 5)
        for grown in (bulk, empty):
            assert np.array_equal(grown.occ_server, rs.occ_server)
            assert np.array_equal(grown.occ_start, rs.occ_start)
            assert np.array_equal(grown.route_start, rs.route_start)
            assert list(grown.route(39)) == routes[39]

    def test_touched_and_counts_track_pops(self):
        grow = RouteSystem([[0, 1], [1, 2]], 4)
        assert list(grow._server_count) == [1, 2, 1, 0]
        assert list(grow.touched_servers) == [True, True, True, False]
        grow.pop()
        assert list(grow._server_count) == [1, 1, 0, 0]
        assert list(grow.touched_servers) == [True, True, False, False]

    def test_matches_immutable_system(self):
        routes = [[0, 1, 2], [2, 3], [3, 0, 1]]
        rs = RouteSystem(routes, num_servers=4)
        grow = RouteSystem([], 4)
        for r in routes:
            grow.push(r)
        d = np.asarray([0.5, 1.0, 0.25, 2.0])
        assert np.array_equal(grow.route_delays(d), rs.route_delays(d))
        assert np.array_equal(grow.upstream_delays(d), rs.upstream_delays(d))
        assert np.array_equal(grow.occ_server, rs.occ_server)
        assert np.array_equal(grow.route_start, rs.route_start)

    def test_validation_errors(self):
        grow = RouteSystem([], 3)
        with pytest.raises(AnalysisError):
            grow.push([])
        with pytest.raises(AnalysisError):
            grow.push([0, 3])
        with pytest.raises(AnalysisError):
            grow.push([-1])
        with pytest.raises(AnalysisError):
            grow.pop()
        with pytest.raises(AnalysisError):
            RouteSystem([], 0)
        # failed pushes must leave no partial state behind
        assert grow.num_routes == 0 and grow.num_occurrences == 0
        assert not grow.touched_servers.any()
