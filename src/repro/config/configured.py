"""A configured network: the deployable artifact of configuration time.

The paper's workflow produces three coupled artifacts — a topology, a
per-class utilization assignment, and a route set — that are only
meaningful *together* (the run-time controller is safe exactly because
this triple passed verification).  :class:`ConfiguredNetwork` bundles
them, re-verifies on construction, serializes to/from JSON so a
configuration can be shipped to routers or archived, and manufactures the
run-time controller and validation simulator.

Typical use::

    cfg = configure(network, registry, alphas={"voice": 0.4})   # routes found
    cfg.save("voice.json")
    ...
    cfg = ConfiguredNetwork.load("voice.json")
    controller = cfg.controller()
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

from ..analysis.verification import VerificationResult, verify_assignment
from ..errors import ConfigurationError, SimulationError
from ..admission.ledger import granted_slots
from ..admission.utilization import UtilizationAdmissionController
from ..routing.heuristic import SafeRouteSelector
from ..routing.shortest import shortest_path_routes
from ..simulation.simulator import Simulator
from ..topology.network import Network
from ..topology.serialization import network_from_dict, network_to_dict
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import ClassRegistry, TrafficClass
from ..traffic.generators import all_ordered_pairs

__all__ = ["ConfiguredNetwork", "configure"]

Pair = Tuple[Hashable, Hashable]
RouteMap = Dict[Pair, List[Hashable]]

_SCHEMA_VERSION = 1


@dataclass
class ConfiguredNetwork:
    """A verified (topology, classes, utilization, routes) bundle."""

    network: Network
    registry: ClassRegistry
    alphas: Dict[str, float]
    routes: RouteMap
    verification: VerificationResult = field(default=None, repr=False)
    _graph: LinkServerGraph = field(default=None, repr=False)

    def __post_init__(self):
        if self._graph is None:
            self._graph = LinkServerGraph(self.network)
        if self.verification is None:
            self.verification = self.verify()
        if not self.verification.success:
            raise ConfigurationError(
                "configuration failed verification: "
                + self.verification.reason
            )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> LinkServerGraph:
        return self._graph

    def verify(self) -> VerificationResult:
        """Re-run the Figure 2 procedure on the bundle."""
        return verify_assignment(
            self._graph,
            list(self.routes.values()),
            self.registry,
            self.alphas,
        )

    def slots_per_link(self, class_name: str) -> int:
        """Certified concurrent flows of a class on a uniform-capacity link."""
        rate = self.registry.get(class_name).rate
        return int(granted_slots(self.alphas[class_name], self._graph.uniform_capacity(), rate))

    # ------------------------------------------------------------------ #
    # factories
    # ------------------------------------------------------------------ #

    def controller(self) -> UtilizationAdmissionController:
        """A run-time admission controller for this configuration."""
        return UtilizationAdmissionController(
            self._graph, self.registry, self.alphas, self.routes
        )

    def simulator(self) -> Simulator:
        """An empty packet simulator over this topology and classes."""
        return Simulator(self._graph, self.registry)

    def validate_by_simulation(
        self,
        *,
        flows_per_route: int = 2,
        horizon: float = 0.5,
    ) -> Dict[str, int]:
        """Adversarial packet-level check of the configured guarantees.

        Attaches up to ``flows_per_route`` sources of every real-time
        class on each configured route (capped to stay admissible), runs
        the simulator, and returns the per-class deadline-miss counts —
        all zeros when the certificate holds, which the analysis
        guarantees for admissible populations.  Every source is greedy
        and sends its class's burst as one packet, the worst quantization
        the class permits.
        """
        from ..admission.statistics import Lifetime
        from ..simulation.cosim import simulate_lifetimes
        from ..traffic.flows import FlowSpec

        lifetimes: List[Lifetime] = []
        for cls in self.registry.realtime_classes():
            # Keep the population admissible for this class.
            slots = self.slots_per_link(cls.name)
            per_route = min(
                flows_per_route,
                max(1, slots // max(len(self.routes), 1)),
            )
            for (src, dst), path in self.routes.items():
                for _ in range(per_route):
                    fid = len(lifetimes)
                    lifetimes.append(Lifetime(
                        FlowSpec(f"val{fid}", cls.name, src, dst),
                        path, 0.0, index=fid,
                    ))
        run = simulate_lifetimes(
            self.simulator(),
            lifetimes,
            horizon=horizon,
            pattern_kind="greedy",
        )
        if run is None:
            raise SimulationError("no flow to simulate within the horizon")
        return run.deadline_misses

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        classes = [
            {
                "name": c.name,
                "burst": c.burst,
                "rate": c.rate,
                "deadline": None if math.isinf(c.deadline) else c.deadline,
                "priority": c.priority,
            }
            for c in self.registry.ordered()
        ]
        routes = [
            {"source": src, "destination": dst, "path": list(path)}
            for (src, dst), path in self.routes.items()
        ]
        return {
            "schema_version": _SCHEMA_VERSION,
            "network": network_to_dict(self.network),
            "classes": classes,
            "alphas": dict(self.alphas),
            "routes": routes,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ConfiguredNetwork":
        version = data.get("schema_version")
        if version != _SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported configuration schema version {version!r}"
            )
        network = network_from_dict(data["network"])
        registry = ClassRegistry(
            [
                TrafficClass(
                    name=c["name"],
                    burst=float(c["burst"]),
                    rate=float(c["rate"]),
                    deadline=(
                        math.inf if c["deadline"] is None
                        else float(c["deadline"])
                    ),
                    priority=int(c["priority"]),
                )
                for c in data["classes"]
            ]
        )
        routes = {
            (r["source"], r["destination"]): list(r["path"])
            for r in data["routes"]
        }
        return cls(
            network=network,
            registry=registry,
            alphas={k: float(v) for k, v in data["alphas"].items()},
            routes=routes,
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "ConfiguredNetwork":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def configure(
    network: Network,
    registry: ClassRegistry,
    alphas: Mapping[str, float],
    *,
    pairs: Optional[Sequence[Pair]] = None,
    routing: str = "heuristic",
) -> ConfiguredNetwork:
    """One-call configuration: select routes and verify the bundle.

    Parameters
    ----------
    routing:
        ``"heuristic"`` runs the Section 5.2 safe route selection (single
        real-time class only); ``"shortest-path"`` pins hop-shortest
        routes for any number of classes.
    pairs:
        Demand; defaults to every ordered pair of edge routers.

    Raises
    ------
    ConfigurationError
        If route selection fails or the final bundle does not verify.
    """
    if pairs is None:
        pairs = all_ordered_pairs(network)
    rt = registry.realtime_classes()
    if not rt:
        raise ConfigurationError("registry has no real-time class")
    for cls in rt:
        if cls.name not in alphas:
            raise ConfigurationError(f"missing alpha for class {cls.name!r}")

    if routing in ("shortest-path", "sp"):
        routes = shortest_path_routes(network, pairs)
    elif routing == "heuristic":
        if len(rt) != 1:
            raise ConfigurationError(
                "heuristic routing currently configures a single "
                "real-time class; use routing='shortest-path' or the "
                "MultiClassRouteSelector directly"
            )
        selector = SafeRouteSelector(network, rt[0])
        outcome = selector.select(list(pairs), float(alphas[rt[0].name]))
        if not outcome.success:
            raise ConfigurationError(
                f"safe route selection failed at pair "
                f"{outcome.failed_pair!r} "
                f"({outcome.num_routed}/{len(pairs)} routed); "
                "lower alpha or relax the demand"
            )
        routes = outcome.routes
    else:
        raise ConfigurationError(
            f"unknown routing {routing!r}; "
            "expected 'heuristic' or 'shortest-path'"
        )
    return ConfiguredNetwork(
        network=network,
        registry=registry,
        alphas={c.name: float(alphas[c.name]) for c in rt},
        routes=dict(routes),
    )
