"""Topology builders.

:func:`mci_backbone` reconstructs the evaluation topology of the paper
(Section 6, Figure 4): the MCI ISP backbone.  The paper gives the picture
only; the two properties it states *and uses* are the hop diameter
``L = 4`` and the maximum router degree ``N = 6``.  The reconstruction is an
18-router continental mesh satisfying both exactly (enforced by tests).

The remaining builders provide standard synthetic topologies used by the
extension experiments and the test suite.
"""

from __future__ import annotations

from typing import Hashable, List, Sequence, Tuple

from ..errors import TopologyError
from .network import Network
from .router import DEFAULT_CAPACITY

__all__ = [
    "MCI_ROUTERS",
    "MCI_EDGES",
    "NSFNET_ROUTERS",
    "NSFNET_EDGES",
    "mci_backbone",
    "nsfnet_backbone",
    "line_network",
    "ring_network",
    "star_network",
    "full_mesh",
    "grid_network",
    "tree_network",
    "dumbbell_network",
    "random_network",
    "fat_tree_network",
    "waxman_network",
]

#: Router names of the reconstructed MCI backbone (Figure 4).
MCI_ROUTERS: Tuple[str, ...] = (
    "Seattle",
    "SanFrancisco",
    "LosAngeles",
    "Phoenix",
    "Denver",
    "Dallas",
    "Houston",
    "KansasCity",
    "StLouis",
    "Chicago",
    "Atlanta",
    "Orlando",
    "Miami",
    "WashingtonDC",
    "NewYork",
    "Boston",
    "Cleveland",
    "Detroit",
)

#: Physical links of the reconstructed MCI backbone.
MCI_EDGES: Tuple[Tuple[str, str], ...] = (
    ("Seattle", "SanFrancisco"),
    ("Seattle", "Denver"),
    ("Seattle", "Chicago"),
    ("SanFrancisco", "LosAngeles"),
    ("SanFrancisco", "Denver"),
    ("LosAngeles", "Phoenix"),
    ("LosAngeles", "Denver"),
    ("LosAngeles", "Dallas"),
    ("Phoenix", "Dallas"),
    ("Phoenix", "Denver"),
    ("Denver", "KansasCity"),
    ("Denver", "Chicago"),
    ("Dallas", "Houston"),
    ("Dallas", "KansasCity"),
    ("Dallas", "StLouis"),
    ("Dallas", "Atlanta"),
    ("Houston", "Atlanta"),
    ("Houston", "Orlando"),
    ("KansasCity", "Chicago"),
    ("KansasCity", "StLouis"),
    ("StLouis", "WashingtonDC"),
    ("Chicago", "NewYork"),
    ("Chicago", "Atlanta"),
    ("Chicago", "Detroit"),
    ("Atlanta", "Orlando"),
    ("Atlanta", "Miami"),
    ("Atlanta", "WashingtonDC"),
    ("Orlando", "Miami"),
    ("Miami", "WashingtonDC"),
    ("WashingtonDC", "NewYork"),
    ("WashingtonDC", "Cleveland"),
    ("NewYork", "Boston"),
    ("NewYork", "Cleveland"),
    ("Boston", "Cleveland"),
    ("Cleveland", "Detroit"),
)


def mci_backbone(capacity: float = DEFAULT_CAPACITY) -> Network:
    """The reconstructed MCI ISP backbone used in the paper's evaluation.

    18 routers, 35 full-duplex 100 Mbps links, hop diameter ``L = 4``,
    maximum router degree ``N = 6``.  All routers act as edge routers, as in
    the paper's experiment.
    """
    net = Network("mci-backbone")
    for name in MCI_ROUTERS:
        net.add_router(name, is_edge=True)
    for u, v in MCI_EDGES:
        net.add_link(u, v, capacity)
    return net


#: Router names of the NSFNET T1 backbone (14 nodes), used by the
#: cross-topology extension experiments.
NSFNET_ROUTERS: Tuple[str, ...] = (
    "Seattle",
    "PaloAlto",
    "SanDiego",
    "SaltLake",
    "Boulder",
    "Houston",
    "Lincoln",
    "Champaign",
    "Pittsburgh",
    "Atlanta",
    "AnnArbor",
    "Ithaca",
    "Princeton",
    "CollegePark",
)

#: Links of the NSFNET T1 backbone (the 14-node variant commonly used in
#: the networking literature).
NSFNET_EDGES: Tuple[Tuple[str, str], ...] = (
    ("Seattle", "PaloAlto"),
    ("Seattle", "SanDiego"),
    ("Seattle", "Champaign"),
    ("PaloAlto", "SanDiego"),
    ("PaloAlto", "SaltLake"),
    ("SanDiego", "Houston"),
    ("SaltLake", "Boulder"),
    ("SaltLake", "AnnArbor"),
    ("Boulder", "Houston"),
    ("Boulder", "Lincoln"),
    ("Houston", "Atlanta"),
    ("Houston", "CollegePark"),
    ("Lincoln", "Champaign"),
    ("Champaign", "Pittsburgh"),
    ("Pittsburgh", "Atlanta"),
    ("Pittsburgh", "Ithaca"),
    ("Pittsburgh", "Princeton"),
    ("Atlanta", "CollegePark"),
    ("AnnArbor", "Ithaca"),
    ("AnnArbor", "Princeton"),
    ("Ithaca", "CollegePark"),
    ("Princeton", "CollegePark"),
)


def nsfnet_backbone(capacity: float = DEFAULT_CAPACITY) -> Network:
    """The NSFNET T1 backbone — a second real ISP topology.

    14 routers, 22 full-duplex links.  Used by the extension experiments
    to check that the paper's SP-vs-heuristic result is not an artifact
    of the MCI layout.
    """
    net = Network("nsfnet-backbone")
    for name in NSFNET_ROUTERS:
        net.add_router(name, is_edge=True)
    for u, v in NSFNET_EDGES:
        net.add_link(u, v, capacity)
    return net


def _sequential_names(n: int, prefix: str = "r") -> List[str]:
    return [f"{prefix}{i}" for i in range(n)]


def line_network(n: int, capacity: float = DEFAULT_CAPACITY) -> Network:
    """A chain ``r0 -- r1 -- ... -- r(n-1)``; diameter ``n - 1``."""
    if n < 2:
        raise TopologyError("line network needs at least 2 routers")
    names = _sequential_names(n)
    return Network.from_edges(
        zip(names, names[1:]), capacity=capacity, name=f"line-{n}"
    )


def ring_network(n: int, capacity: float = DEFAULT_CAPACITY) -> Network:
    """A cycle of ``n`` routers; diameter ``n // 2``."""
    if n < 3:
        raise TopologyError("ring network needs at least 3 routers")
    names = _sequential_names(n)
    edges = list(zip(names, names[1:])) + [(names[-1], names[0])]
    return Network.from_edges(edges, capacity=capacity, name=f"ring-{n}")


def star_network(n_leaves: int, capacity: float = DEFAULT_CAPACITY) -> Network:
    """A hub with ``n_leaves`` spokes; diameter 2, hub degree ``n_leaves``."""
    if n_leaves < 1:
        raise TopologyError("star network needs at least 1 leaf")
    edges = [("hub", f"leaf{i}") for i in range(n_leaves)]
    return Network.from_edges(
        edges, capacity=capacity, name=f"star-{n_leaves}"
    )


def full_mesh(n: int, capacity: float = DEFAULT_CAPACITY) -> Network:
    """Complete graph on ``n`` routers; diameter 1."""
    if n < 2:
        raise TopologyError("full mesh needs at least 2 routers")
    names = _sequential_names(n)
    edges = [
        (names[i], names[j]) for i in range(n) for j in range(i + 1, n)
    ]
    return Network.from_edges(edges, capacity=capacity, name=f"mesh-{n}")


def grid_network(
    rows: int, cols: int, capacity: float = DEFAULT_CAPACITY
) -> Network:
    """A ``rows x cols`` 2-D grid; diameter ``rows + cols - 2``."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise TopologyError("grid needs at least 2 routers")
    edges: List[Tuple[str, str]] = []
    name = lambda r, c: f"g{r}_{c}"  # noqa: E731 - tiny local helper
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((name(r, c), name(r, c + 1)))
            if r + 1 < rows:
                edges.append((name(r, c), name(r + 1, c)))
    return Network.from_edges(
        edges, capacity=capacity, name=f"grid-{rows}x{cols}"
    )


def tree_network(
    branching: int, depth: int, capacity: float = DEFAULT_CAPACITY
) -> Network:
    """A balanced tree; internal degree ``branching + 1``, diameter ``2*depth``."""
    if branching < 1 or depth < 1:
        raise TopologyError("tree needs branching >= 1 and depth >= 1")
    import networkx as nx

    g = nx.balanced_tree(branching, depth)
    edges = [(f"t{u}", f"t{v}") for u, v in g.edges()]
    return Network.from_edges(
        edges, capacity=capacity, name=f"tree-{branching}x{depth}"
    )


def dumbbell_network(
    n_left: int,
    n_right: int,
    capacity: float = DEFAULT_CAPACITY,
    bottleneck_capacity: float = None,
) -> Network:
    """Two stars joined by a single bottleneck link.

    The classic shape for admission-control stress tests: every left-to-right
    flow shares the ``hubL -- hubR`` bottleneck.
    """
    if n_left < 1 or n_right < 1:
        raise TopologyError("dumbbell needs at least one leaf per side")
    net = Network(f"dumbbell-{n_left}x{n_right}")
    net.add_router("hubL", is_edge=False)
    net.add_router("hubR", is_edge=False)
    for i in range(n_left):
        net.add_router(f"L{i}")
        net.add_link(f"L{i}", "hubL", capacity)
    for i in range(n_right):
        net.add_router(f"R{i}")
        net.add_link(f"R{i}", "hubR", capacity)
    net.add_link(
        "hubL",
        "hubR",
        capacity if bottleneck_capacity is None else bottleneck_capacity,
    )
    return net


def fat_tree_network(
    k: int = 4, capacity: float = DEFAULT_CAPACITY
) -> Network:
    """A k-ary fat-tree (data-center Clos), ``k`` even.

    ``(k/2)^2`` core switches, ``k`` pods of ``k/2`` aggregation +
    ``k/2`` edge switches each.  Only edge switches are edge routers
    (hosts attach there); core/aggregation are pure core.  Diameter 4
    between edge switches in distinct pods — structurally similar to the
    paper's setting despite the very different degree profile, which is
    what makes it an interesting extension topology.
    """
    if k < 2 or k % 2 != 0:
        raise TopologyError(f"fat-tree arity k must be even >= 2, got {k}")
    half = k // 2
    net = Network(f"fat-tree-{k}")
    cores = [f"core{i}_{j}" for i in range(half) for j in range(half)]
    for name in cores:
        net.add_router(name, is_edge=False)
    for pod in range(k):
        aggs = [f"p{pod}_agg{a}" for a in range(half)]
        edges = [f"p{pod}_edge{e}" for e in range(half)]
        for name in aggs:
            net.add_router(name, is_edge=False)
        for name in edges:
            net.add_router(name, is_edge=True)
        for a, agg in enumerate(aggs):
            for edge in edges:
                net.add_link(agg, edge, capacity)
            # Aggregation switch `a` connects to core row `a`.
            for j in range(half):
                net.add_link(agg, f"core{a}_{j}", capacity)
    return net


def waxman_network(
    n: int,
    seed: int,
    *,
    alpha: float = 0.6,
    beta: float = 0.35,
    capacity: float = DEFAULT_CAPACITY,
    max_tries: int = 200,
) -> Network:
    """A connected Waxman random geometric graph (the classic ISP model).

    Routers are placed uniformly in the unit square; each pair is linked
    with probability ``alpha * exp(-distance / (beta * sqrt(2)))`` —
    nearby routers connect densely, long hauls are rare, which mimics
    real backbone economics better than G(n, p).  Deterministic per
    ``(n, seed, alpha, beta)``.
    """
    if n < 2:
        raise TopologyError("waxman network needs at least 2 routers")
    if not (0 < alpha <= 1) or beta <= 0:
        raise TopologyError("need 0 < alpha <= 1 and beta > 0")
    import networkx as nx

    for attempt in range(max_tries):
        # NetworkX's parameter names are swapped relative to the classic
        # formula: its `beta` is the multiplier, its `alpha` the scale.
        g = nx.waxman_graph(
            n, beta=alpha, alpha=beta, seed=seed + attempt
        )
        if nx.is_connected(g):
            edges = [(f"w{u}", f"w{v}") for u, v in g.edges()]
            return Network.from_edges(
                edges, capacity=capacity, name=f"waxman-{n}-{seed}"
            )
    raise TopologyError(
        f"no connected Waxman({n}) found in {max_tries} tries; "
        "increase alpha/beta"
    )


def random_network(
    n: int,
    p: float,
    seed: int,
    capacity: float = DEFAULT_CAPACITY,
    max_tries: int = 200,
) -> Network:
    """A connected Erdős–Rényi ``G(n, p)`` network (deterministic per seed).

    Samples until a connected instance appears (incrementing a derived seed),
    so the result is reproducible for a given ``(n, p, seed)``.
    """
    if n < 2:
        raise TopologyError("random network needs at least 2 routers")
    if not (0.0 < p <= 1.0):
        raise TopologyError(f"edge probability must be in (0, 1], got {p}")
    import networkx as nx

    for attempt in range(max_tries):
        g = nx.gnp_random_graph(n, p, seed=seed + attempt)
        if nx.is_connected(g):
            edges = [(f"r{u}", f"r{v}") for u, v in g.edges()]
            return Network.from_edges(
                edges, capacity=capacity, name=f"gnp-{n}-{seed}"
            )
    raise TopologyError(
        f"no connected G({n}, {p}) found in {max_tries} tries; increase p"
    )
