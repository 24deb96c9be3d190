"""Index-based link-server view of a network.

The delay analysis (Section 5.1.1 of the paper) works on **link servers** —
the output queues of directed links — not on routers.  This module flattens a
:class:`~repro.topology.network.Network` into integer-indexed arrays so the
numeric kernels in :mod:`repro.analysis` can be fully vectorized:

* every directed link ``u -> v`` gets a dense index ``0 .. S-1``;
* per-server capacity and fan-in live in NumPy arrays;
* router-level paths translate to arrays of server indices.

Fan-in is the paper's ``N`` — the number of input links a packet can arrive
on at the server's router.  The paper assumes a uniform ``N`` (the maximum
router degree); we record per-server fan-in too so the analysis can use
either convention.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np

from ..errors import TopologyError, UnknownLinkError
from .network import Network

__all__ = ["LinkServerGraph"]


class LinkServerGraph:
    """Dense integer indexing of a network's directed link servers.

    Parameters
    ----------
    network:
        Source topology.  The expansion snapshots the network; later mutation
        of the network is not reflected.

    Attributes
    ----------
    capacities:
        ``float64[S]`` — per-server link capacity (bits/second).
    fan_in:
        ``int64[S]`` — per-server number of input links (paper's ``N_k``).
    """

    def __init__(self, network: Network):
        if network.num_routers == 0:
            raise TopologyError("cannot expand an empty network")
        self.network = network

        keys: List[Tuple[Hashable, Hashable]] = []
        caps: List[float] = []
        fan_in: List[int] = []
        for link in network.directed_links():
            keys.append(link.key)
            caps.append(link.capacity)
            fan_in.append(network.degree(link.tail))

        self._keys: Tuple[Tuple[Hashable, Hashable], ...] = tuple(keys)
        self._index: Dict[Tuple[Hashable, Hashable], int] = {
            key: i for i, key in enumerate(keys)
        }
        self.capacities = np.asarray(caps, dtype=np.float64)
        self.fan_in = np.asarray(fan_in, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # size / lookup
    # ------------------------------------------------------------------ #

    @property
    def num_servers(self) -> int:
        return len(self._keys)

    def __len__(self) -> int:
        return self.num_servers

    def server_index(self, tail: Hashable, head: Hashable) -> int:
        """Dense index of the directed link server ``tail -> head``."""
        try:
            return self._index[(tail, head)]
        except KeyError:
            raise UnknownLinkError(tail, head) from None

    # ------------------------------------------------------------------ #
    # uniform parameters (paper convention)
    # ------------------------------------------------------------------ #

    def uniform_capacity(self) -> float:
        """The common capacity ``C``; raises if capacities differ."""
        c0 = float(self.capacities[0])
        if not np.all(self.capacities == c0):
            raise TopologyError(
                "network has heterogeneous link capacities; "
                "no uniform C exists"
            )
        return c0

    def uniform_fan_in(self) -> int:
        """The paper's uniform ``N``: the maximum fan-in over all servers."""
        return int(self.fan_in.max())

    # ------------------------------------------------------------------ #
    # route translation
    # ------------------------------------------------------------------ #

    def route_servers(self, router_path: Sequence[Hashable]) -> np.ndarray:
        """Translate a router-level path into server indices.

        ``[v0, v1, ..., vm]`` becomes the ``int64[m]`` array of the servers
        ``v0->v1, v1->v2, ..., v(m-1)->vm``.  A single-node path yields an
        empty array (source == destination: no queueing).
        """
        if len(router_path) < 1:
            raise TopologyError("route must contain at least one router")
        out = np.empty(len(router_path) - 1, dtype=np.int64)
        for i in range(len(router_path) - 1):
            out[i] = self.server_index(router_path[i], router_path[i + 1])
        return out

    def routes_servers(
        self, router_paths: Sequence[Sequence[Hashable]]
    ) -> List[np.ndarray]:
        """Vector form of :meth:`route_servers` for many paths."""
        return [self.route_servers(p) for p in router_paths]

    def servers_to_route(self, servers: Sequence[int]) -> List[Hashable]:
        """Inverse of :meth:`route_servers`: indices back to a router path.

        Raises :class:`TopologyError` if consecutive servers do not chain
        (head of one must be tail of the next).
        """
        if len(servers) == 0:
            raise TopologyError("cannot invert an empty server list")
        path: List[Hashable] = []
        prev_head: Hashable = None
        for pos, idx in enumerate(servers):
            tail, head = self._keys[int(idx)]
            if pos == 0:
                path.append(tail)
            elif tail != prev_head:
                raise TopologyError(
                    f"servers do not chain at position {pos}: "
                    f"{prev_head!r} != {tail!r}"
                )
            path.append(head)
            prev_head = head
        return path

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LinkServerGraph(servers={self.num_servers}, "
            f"N={self.uniform_fan_in()})"
        )
