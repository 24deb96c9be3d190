#!/usr/bin/env python3
"""Capacity planning with the high-level configuration API.

An operator's workflow beyond the paper's experiment:

1. configure the network in one call (route selection + verification);
2. ask *what-if*: how far can utilization grow on these routes
   (:func:`critical_alpha`);
3. ship the configuration as JSON (the artifact routers would consume)
   and reload it bit-for-bit;
4. compare two real backbones (MCI vs NSFNET): the route-selection win
   is a property of the topology, not of the algorithm alone.

Run:  python examples/capacity_planning.py
"""

import os
import tempfile

from repro import (
    ConfiguredNetwork,
    LinkServerGraph,
    configure,
    critical_alpha,
    mci_backbone,
    nsfnet_backbone,
    shortest_path_routes,
    theorem4_lower_bound,
    voice_class,
)
from repro.experiments import format_table
from repro.topology import analyze
from repro.traffic import ClassRegistry, all_ordered_pairs


def main() -> None:
    voice = voice_class()
    registry = ClassRegistry.two_class(voice)

    # --- 1. one-call configuration ------------------------------------
    network = mci_backbone()
    cfg = configure(network, registry, {"voice": 0.40}, routing="heuristic")
    print(f"configured {len(cfg.routes)} routes at alpha = 40% "
          f"({cfg.slots_per_link('voice')} calls per link); "
          f"verification: {'OK' if cfg.verification.success else 'FAIL'}")

    # --- 2. what-if analysis -------------------------------------------
    paths = list(cfg.routes.values())
    a_star = critical_alpha(cfg.graph, paths, voice, resolution=1e-3)
    print()
    print(f"these routes stay certifiable up to alpha = {a_star:.3f} "
          f"({int((a_star - 0.40) * 100e6 / voice.rate)} more calls per "
          "link of headroom)")

    # --- 3. ship the configuration -------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "voice-config.json")
        cfg.save(path)
        size_kb = os.path.getsize(path) / 1024
        reloaded = ConfiguredNetwork.load(path)
        assert reloaded.routes == cfg.routes
        print()
        print(f"configuration serialized to JSON ({size_kb:.0f} KiB), "
              "reloaded and re-verified on load")

    # --- 4. cross-topology comparison ----------------------------------
    rows = []
    for net in (mci_backbone(), nsfnet_backbone()):
        rep = analyze(net)
        lb = theorem4_lower_bound(
            rep.max_degree, rep.diameter, voice.burst, voice.rate,
            voice.deadline,
        )
        sp_paths = list(
            shortest_path_routes(net, all_ordered_pairs(net)).values()
        )
        ca = critical_alpha(
            LinkServerGraph(net), sp_paths, voice, resolution=1e-3
        )
        rows.append(
            [net.name, rep.diameter, rep.max_degree, f"{lb:.3f}",
             f"{ca:.3f}", f"{(ca - lb) * 100:.1f} pts"]
        )
    print()
    print(
        format_table(
            ["topology", "L", "N", "Theorem 4 LB", "SP critical alpha",
             "SP headroom over LB"],
            rows,
            title="Cross-topology: how much the bound leaves on the table",
        )
    )
    print()
    print("MCI's shortest paths sit well above the worst-case bound; "
          "NSFNET's realize it almost exactly —")
    print("route selection pays where the topology leaves feedback slack.")


if __name__ == "__main__":
    main()
