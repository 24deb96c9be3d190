"""Index-based link-server view of a network.

The delay analysis (Section 5.1.1 of the paper) works on **link servers** —
the output queues of directed links — not on routers.  This module flattens a
:class:`~repro.topology.network.Network` into integer indices, which the
run-time ledger counts slots over and the analysis kernels vectorize
over:

* every directed link ``u -> v`` gets a dense index ``0 .. S-1``;
* per-server capacity and fan-in are tuples indexed by it;
* router-level paths translate to tuples of server indices.

The graph holds no array: a served process builds one and never loads
numpy.

Fan-in is the paper's ``N`` — the number of input links a packet can arrive
on at the server's router.  The paper assumes a uniform ``N``, the maximum
router degree, and the analysis uses only that one ``N``
(:meth:`LinkServerGraph.uniform_fan_in`); the per-server fan-in it is the
maximum of is kept beside it.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

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
        ``S`` floats — per-server link capacity (bits/second).
    fan_in:
        ``S`` ints — per-server number of input links (paper's ``N_k``).
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
        self.capacities: Tuple[float, ...] = tuple(map(float, caps))
        self.fan_in: Tuple[int, ...] = tuple(fan_in)

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
        c0 = self.capacities[0]
        if any(c != c0 for c in self.capacities):
            raise TopologyError(
                "network has heterogeneous link capacities; "
                "no uniform C exists"
            )
        return c0

    def uniform_fan_in(self) -> int:
        """The paper's uniform ``N``: the maximum fan-in over all servers."""
        return max(self.fan_in)

    # ------------------------------------------------------------------ #
    # route translation
    # ------------------------------------------------------------------ #

    def route_servers(self, router_path: Sequence[Hashable]) -> Tuple[int, ...]:
        """Translate a router-level path into server indices.

        ``[v0, v1, ..., vm]`` becomes the tuple of the ``m`` servers
        ``v0->v1, v1->v2, ..., v(m-1)->vm``.  A single-node path yields an
        empty tuple (source == destination: no queueing).
        """
        if len(router_path) < 1:
            raise TopologyError("route must contain at least one router")
        index = self._index
        out = []
        tail = router_path[0]
        for head in router_path[1:]:
            server = index.get((tail, head))
            if server is None:
                raise UnknownLinkError(tail, head)
            out.append(server)
            tail = head
        return tuple(out)

    def routes_servers(
        self, router_paths: Sequence[Sequence[Hashable]]
    ) -> List[Tuple[int, ...]]:
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
