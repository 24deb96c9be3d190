"""Compiled route systems.

The delay fixed point of Section 5.1.1 repeatedly needs, for every link
server ``k``,

* ``Y_k`` — the maximum over all routes through ``k`` of the sum of
  *upstream* per-server delays (eq. 6), and
* per-route end-to-end delay sums (Step 2 of Figure 2).

:class:`RouteSystem` flattens a set of routes (arrays of server indices)
into occurrence arrays so both quantities are computed with vectorized
NumPy segmented prefix sums — no Python-level loop over routes in the hot
path.  The occurrence buffers grow geometrically, so the route-selection
heuristic trials a candidate with an amortized O(route-length)
``push``/``pop`` instead of an O(total occurrences) rebuild.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import AnalysisError

__all__ = ["RouteSystem"]


def _grown(size: int, current: int) -> int:
    """Geometric growth target covering ``size`` (amortized O(1) pushes)."""
    cap = max(current, 16)
    while cap < size:
        cap *= 2
    return cap


class RouteSystem:
    """An index-compiled set of routes over ``num_servers`` servers.

    Parameters
    ----------
    routes:
        Sequence of ``int`` arrays; each array lists the link-server indices
        a route traverses, in order.  Empty routes are rejected.
    num_servers:
        Total number of link servers in the graph (array sizes).

    ``occ_server``, ``occ_start`` and ``route_start`` are zero-copy views
    of the live prefix of the buffers; :meth:`push` and :meth:`pop` change
    them, so callers must not hold them across a mutation.

    Attributes
    ----------
    occ_server:
        ``int64[M]`` server index of every (route, position) occurrence,
        routes concatenated in order.
    occ_start:
        ``int64[M]`` start offset of the owning route, per occurrence.
    route_start:
        ``int64[R+1]`` offsets of each route in the occurrence arrays.
    """

    __slots__ = (
        "num_servers",
        "_occ_server",
        "_occ_start",
        "_route_start",
        "_server_count",
        "_touched",
        "_touched_valid",
        "_num_routes",
        "_num_occ",
        "pushes",
        "pops",
    )

    def __init__(self, routes: Sequence[Sequence[int]], num_servers: int):
        if num_servers <= 0:
            raise AnalysisError("route system needs at least one server")
        arrays: List[np.ndarray] = []
        for i, r in enumerate(routes):
            arr = np.asarray(r, dtype=np.int64)
            if arr.ndim != 1 or arr.size == 0:
                raise AnalysisError(f"route {i} must be a non-empty 1-D array")
            arrays.append(arr)

        self.num_servers = int(num_servers)
        lengths = np.asarray([a.size for a in arrays], dtype=np.int64)
        route_start = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        if arrays:
            occ_server = np.concatenate(arrays)
            # One range check over the concatenation instead of two
            # reductions per route — construction is a measured hot spot.
            bad = (occ_server < 0) | (occ_server >= num_servers)
            if bad.any():
                route = np.searchsorted(route_start, np.argmax(bad), "right")
                raise AnalysisError(
                    f"route {int(route) - 1} references servers outside "
                    f"[0, {num_servers})"
                )
        else:
            occ_server = np.empty(0, dtype=np.int64)
        self._occ_server = occ_server
        self._occ_start = np.repeat(route_start[:-1], lengths)
        self._route_start = route_start
        self._server_count = np.bincount(occ_server, minlength=num_servers)
        self._touched = self._server_count > 0
        self._touched_valid = True
        self._num_routes = len(arrays)
        self._num_occ = int(occ_server.size)
        self.pushes = 0
        self.pops = 0

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def push(self, route: Sequence[int]) -> int:
        """Append ``route``; returns its index.  Amortized O(len(route))."""
        arr = np.asarray(route, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise AnalysisError(
                f"route {self._num_routes} must be a non-empty 1-D array"
            )
        if arr.min() < 0 or arr.max() >= self.num_servers:
            raise AnalysisError(
                f"route {self._num_routes} references servers outside "
                f"[0, {self.num_servers})"
            )
        m, n = self._num_occ, int(arr.size)
        if m + n > self._occ_server.size:
            spare = np.empty(_grown(m + n, self._occ_server.size) - m, np.int64)
            self._occ_server = np.concatenate([self._occ_server[:m], spare])
            self._occ_start = np.concatenate([self._occ_start[:m], spare])
        if self._num_routes + 1 >= self._route_start.size:
            grown = np.empty(
                _grown(self._num_routes + 2, self._route_start.size),
                dtype=np.int64,
            )
            grown[: self._num_routes + 1] = self.route_start
            self._route_start = grown
        self._occ_server[m : m + n] = arr
        self._occ_start[m : m + n] = m
        np.add.at(self._server_count, arr, 1)
        self._num_occ = m + n
        self._num_routes += 1
        self._route_start[self._num_routes] = self._num_occ
        self._touched_valid = False
        self.pushes += 1
        return self._num_routes - 1

    def pop(self) -> None:
        """Remove the most recently pushed route.  O(len(route))."""
        if self._num_routes == 0:
            raise AnalysisError("pop from an empty route system")
        lo = int(self._route_start[self._num_routes - 1])
        np.subtract.at(
            self._server_count, self._occ_server[lo : self._num_occ], 1
        )
        self._num_occ = lo
        self._num_routes -= 1
        self._touched_valid = False
        self.pops += 1

    # ------------------------------------------------------------------ #
    # basic queries (views of the live prefix)
    # ------------------------------------------------------------------ #

    @property
    def num_routes(self) -> int:
        return self._num_routes

    @property
    def num_occurrences(self) -> int:
        return self._num_occ

    @property
    def occ_server(self) -> np.ndarray:
        return self._occ_server[: self._num_occ]

    @property
    def occ_start(self) -> np.ndarray:
        return self._occ_start[: self._num_occ]

    @property
    def route_start(self) -> np.ndarray:
        return self._route_start[: self._num_routes + 1]

    @property
    def touched_servers(self) -> np.ndarray:
        """Boolean mask of servers used by at least one route."""
        if not self._touched_valid:
            np.greater(self._server_count, 0, out=self._touched)
            self._touched_valid = True
        return self._touched

    def route(self, index: int) -> np.ndarray:
        """Server indices of route ``index`` (a view, do not mutate)."""
        if not 0 <= index < self._num_routes:
            raise AnalysisError(f"route index {index} out of range")
        lo, hi = self._route_start[index], self._route_start[index + 1]
        return self._occ_server[lo:hi]

    # ------------------------------------------------------------------ #
    # vectorized kernels
    # ------------------------------------------------------------------ #

    def upstream_delays(self, d: np.ndarray) -> np.ndarray:
        """The paper's ``Y`` vector (eq. 6) for per-server delays ``d``.

        ``Y[k]`` is the maximum over occurrences of server ``k`` of the sum
        of delays at the servers preceding it on the same route; 0 for
        servers no route traverses (and for first-hop occurrences).
        """
        y = np.zeros(self.num_servers, dtype=np.float64)
        if self._num_occ == 0:
            return y
        occ = self.occ_server
        csum = np.concatenate([[0.0], np.cumsum(d[occ])])
        # exclusive prefix within the whole concatenation, minus the
        # running total at each route's start
        prefix = csum[:-1] - csum[self.occ_start]
        np.maximum.at(y, occ, prefix)
        return y

    def route_delays(self, d: np.ndarray) -> np.ndarray:
        """End-to-end delay of every route: segment sums of ``d``."""
        if self._num_routes == 0:
            return np.empty(0, dtype=np.float64)
        csum = np.concatenate([[0.0], np.cumsum(d[self.occ_server])])
        starts = self.route_start
        return csum[starts[1:]] - csum[starts[:-1]]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RouteSystem(routes={self._num_routes}, "
            f"occurrences={self._num_occ}, servers={self.num_servers})"
        )
