"""Router-level network container.

:class:`Network` stores routers and full-duplex physical links in its own
insertion-ordered adjacency and answers the questions the serve path asks
(shortest paths, connectivity, diameter, degree) with a breadth-first
search over it.  Modules that need real graph algorithms take the derived
:class:`networkx.Graph` from :attr:`Network.graph`; the heavier, index-based
view used by the numeric delay kernels is
:class:`repro.topology.servergraph.LinkServerGraph`.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from ..errors import TopologyError, UnknownLinkError, UnknownNodeError
from .router import DEFAULT_CAPACITY, DirectedLink, Router

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Network"]


class Network:
    """A network of routers joined by full-duplex links.

    Links are *physical* (undirected) at this level; each direction becomes
    an independent link server in the expanded
    :class:`~repro.topology.servergraph.LinkServerGraph`.

    Examples
    --------
    >>> net = Network("triangle")
    >>> for name in "abc":
    ...     net.add_router(name)
    >>> _ = net.add_link("a", "b")
    >>> _ = net.add_link("b", "c")
    >>> _ = net.add_link("c", "a")
    >>> net.num_routers, net.num_physical_links
    (3, 3)
    >>> net.diameter()
    1
    """

    def __init__(self, name: str = "network"):
        self.name = name
        self._routers: Dict[Hashable, Router] = {}
        # node -> {neighbour: capacity}; both dict levels in insertion
        # order, which is what breaks ties between equal-length paths.
        self._adj: Dict[Hashable, Dict[Hashable, float]] = {}
        # Physical links in the order they were added: replaying them is
        # what rebuilds a networkx graph with the same neighbour order.
        self._links: List[Tuple[Hashable, Hashable]] = []
        self._nx: Optional[nx.Graph] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def add_router(self, name: Hashable, *, is_edge: bool = True) -> Router:
        """Add a router; returns the :class:`Router` record.

        Adding a router twice with identical attributes is a no-op;
        conflicting re-adds raise :class:`TopologyError`.
        """
        existing = self._routers.get(name)
        router = Router(name=name, is_edge=is_edge)
        if existing is not None:
            if existing != router:
                raise TopologyError(
                    f"router {name!r} already exists with different attributes"
                )
            return existing
        self._routers[name] = router
        self._adj[name] = {}
        self._nx = None
        return router

    def add_link(
        self,
        u: Hashable,
        v: Hashable,
        capacity: float = DEFAULT_CAPACITY,
    ) -> Tuple[DirectedLink, DirectedLink]:
        """Add a full-duplex link between existing routers ``u`` and ``v``.

        Returns the two directed link servers ``(u->v, v->u)``.  Both
        directions get the same ``capacity`` (bits/second).
        """
        if u == v:
            raise TopologyError(f"self-loop link at router {u!r}")
        if capacity <= 0:
            raise TopologyError(f"link capacity must be positive, got {capacity}")
        for node in (u, v):
            if node not in self._routers:
                raise UnknownNodeError(node)
        if v in self._adj[u]:
            raise TopologyError(f"link {u!r} -- {v!r} already exists")
        self._adj[u][v] = self._adj[v][u] = float(capacity)
        self._links.append((u, v))
        self._nx = None
        return (
            DirectedLink(u, v, float(capacity)),
            DirectedLink(v, u, float(capacity)),
        )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def num_routers(self) -> int:
        return len(self._routers)

    @property
    def num_physical_links(self) -> int:
        return len(self._links)

    @property
    def num_link_servers(self) -> int:
        """Directed link servers: two per physical link."""
        return 2 * len(self._links)

    def routers(self) -> List[Hashable]:
        """Router names in insertion order."""
        return list(self._routers)

    def router(self, name: Hashable) -> Router:
        try:
            return self._routers[name]
        except KeyError:
            raise UnknownNodeError(name) from None

    def edge_routers(self) -> List[Hashable]:
        """Routers where flows may enter/leave the network."""
        return [name for name, r in self._routers.items() if r.is_edge]

    def has_router(self, name: Hashable) -> bool:
        return name in self._routers

    def has_link(self, u: Hashable, v: Hashable) -> bool:
        """True if a physical link joins ``u`` and ``v`` (either direction)."""
        return v in self._adj.get(u, ())

    def _physical_links(self) -> Iterator[Tuple[Hashable, Hashable, float]]:
        """Each physical link once, in router order then neighbour order
        (the order ``networkx.Graph.edges`` reports)."""
        seen = set()
        for u, nbrs in self._adj.items():
            for v, cap in nbrs.items():
                if v not in seen:
                    yield u, v, cap
            seen.add(u)

    def directed_links(self) -> Iterator[DirectedLink]:
        """Iterate over all directed link servers (two per physical link)."""
        for u, v, cap in self._physical_links():
            yield DirectedLink(u, v, cap)
            yield DirectedLink(v, u, cap)

    def link(self, u: Hashable, v: Hashable) -> DirectedLink:
        """The directed link server ``u -> v``."""
        if not self.has_link(u, v):
            raise UnknownLinkError(u, v)
        return DirectedLink(u, v, self._adj[u][v])

    def capacity(self, u: Hashable, v: Hashable) -> float:
        return self.link(u, v).capacity

    def neighbors(self, name: Hashable) -> List[Hashable]:
        if name not in self._routers:
            raise UnknownNodeError(name)
        return list(self._adj[name])

    def degree(self, name: Hashable) -> int:
        if name not in self._routers:
            raise UnknownNodeError(name)
        return len(self._adj[name])

    def max_degree(self) -> int:
        """Maximum router degree — the paper's ``N`` for a topology."""
        if self.num_routers == 0:
            raise TopologyError("empty network has no degree")
        return max(len(nbrs) for nbrs in self._adj.values())

    def shortest_paths_from(
        self, source: Hashable
    ) -> Dict[Hashable, List[Hashable]]:
        """One hop-count shortest path from ``source`` to every reachable
        router, keyed in discovery order.

        Level-order breadth-first search; among equal-length paths the
        first one discovered wins, scanning routers and neighbours in
        insertion order — the same paths, in the same key order, as
        ``networkx.single_source_shortest_path(network.graph, source)``.
        """
        if source not in self._adj:
            raise UnknownNodeError(source)
        paths: Dict[Hashable, List[Hashable]] = {source: [source]}
        level = [source]
        while level:
            following = []
            for v in level:
                for w in self._adj[v]:
                    if w not in paths:
                        paths[w] = paths[v] + [w]
                        following.append(w)
            level = following
        return paths

    def is_connected(self) -> bool:
        if self.num_routers == 0:
            return False
        reached = self.shortest_paths_from(next(iter(self._adj)))
        return len(reached) == self.num_routers

    def diameter(self) -> int:
        """Hop-count diameter — the paper's ``L`` for a topology."""
        if not self.is_connected():
            raise TopologyError("diameter undefined: network not connected")
        return max(
            len(path) - 1
            for source in self._adj
            for path in self.shortest_paths_from(source).values()
        )

    def to_networkx(self) -> nx.Graph:
        """A mutable *copy* of the network as an undirected graph."""
        return self.graph.copy()

    @property
    def graph(self) -> nx.Graph:
        """The network as a frozen :class:`networkx.Graph`, for graph
        algorithms.

        Derived from the adjacency on first use and cached until the next
        :meth:`add_router` / :meth:`add_link`; mutating it raises
        (:func:`networkx.freeze`) — edit the :class:`Network`, or take
        :meth:`to_networkx` for a private copy.
        """
        if self._nx is None:
            import networkx as nx

            g = nx.Graph()
            g.add_nodes_from(self._adj)
            for u, v in self._links:
                g.add_edge(u, v, capacity=self._adj[u][v])
            self._nx = nx.freeze(g)
        return self._nx

    def without_link(self, u: Hashable, v: Hashable) -> "Network":
        """A copy of the network with the physical link ``u -- v`` removed.

        Used by failure-repair workflows; raises if the link does not
        exist or if removing it would disconnect the network (a repair
        over a partitioned network is a different problem).
        """
        if not self.has_link(u, v):
            raise UnknownLinkError(u, v)
        out = Network(f"{self.name}-minus-{u}-{v}")
        for name, router in self._routers.items():
            out.add_router(name, is_edge=router.is_edge)
        for a, b, cap in self._physical_links():
            if {a, b} == {u, v}:
                continue
            out.add_link(a, b, cap)
        if not out.is_connected():
            raise TopologyError(
                f"removing {u!r} -- {v!r} disconnects the network"
            )
        return out

    # ------------------------------------------------------------------ #
    # dunder
    # ------------------------------------------------------------------ #

    def __contains__(self, name: Hashable) -> bool:
        return name in self._routers

    def __len__(self) -> int:
        return self.num_routers

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Network({self.name!r}, routers={self.num_routers}, "
            f"links={self.num_physical_links})"
        )

    # ------------------------------------------------------------------ #
    # bulk construction helper
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Hashable, Hashable]],
        *,
        capacity: float = DEFAULT_CAPACITY,
        name: str = "network",
        edge_routers: Optional[Iterable[Hashable]] = None,
    ) -> "Network":
        """Build a network from an edge list with uniform capacity.

        Parameters
        ----------
        edges:
            Iterable of ``(u, v)`` pairs.
        capacity:
            Capacity applied to every link (bits/second).
        edge_routers:
            If given, only these routers are marked ``is_edge``; all others
            become core routers.
        """
        edge_list = list(edges)
        edge_set = None if edge_routers is None else set(edge_routers)
        net = cls(name)
        for u, v in edge_list:
            for node in (u, v):
                if node not in net:
                    is_edge = edge_set is None or node in edge_set
                    net.add_router(node, is_edge=is_edge)
            net.add_link(u, v, capacity)
        return net
