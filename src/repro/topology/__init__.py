"""Network topology substrate.

Routers and full-duplex links (:class:`Network`), the link-server expansion
used by the delay analysis (:class:`LinkServerGraph`), ready-made topologies
(including the paper's MCI backbone), property reports and serialization.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .builders import (
        MCI_EDGES,
        MCI_ROUTERS,
        NSFNET_EDGES,
        NSFNET_ROUTERS,
        dumbbell_network,
        fat_tree_network,
        full_mesh,
        grid_network,
        line_network,
        mci_backbone,
        nsfnet_backbone,
        random_network,
        ring_network,
        star_network,
        tree_network,
        waxman_network,
    )
    from .network import Network
    from .properties import TopologyReport, analyze
    from .router import DEFAULT_CAPACITY, DirectedLink, Router
    from .serialization import dumps, loads, network_from_dict, network_to_dict
    from .servergraph import LinkServerGraph

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".builders": (
        "MCI_EDGES", "MCI_ROUTERS", "NSFNET_EDGES", "NSFNET_ROUTERS",
        "dumbbell_network", "fat_tree_network", "full_mesh", "grid_network",
        "line_network", "mci_backbone", "nsfnet_backbone", "random_network",
        "ring_network", "star_network", "tree_network", "waxman_network",
    ),
    ".network": ("Network",),
    ".properties": ("TopologyReport", "analyze"),
    ".router": ("DEFAULT_CAPACITY", "DirectedLink", "Router"),
    ".serialization": ("dumps", "loads", "network_from_dict", "network_to_dict"),
    ".servergraph": ("LinkServerGraph",),
})
