#!/usr/bin/env python3
"""VoIP provisioning: regenerate the paper's Table 1.

The Section 6 experiment: on the MCI backbone with voice traffic
(640-bit bursts at 32 kbps, 100 ms end-to-end deadline) between every
router pair, how much link bandwidth can be committed to voice?

Four answers, exactly as in the paper:

* the topology-independent **lower bound** (always safe),
* the maximum found with **shortest-path** routes,
* the maximum found with the **Section 5.2 heuristic**,
* the topology-independent **upper bound** (never exceedable).

Run:  python examples/voip_provisioning.py            (~15 s)
      python examples/voip_provisioning.py --fast     (coarser search)
"""

import argparse
import time

from repro import run_table1
from repro.routing import HeuristicOptions


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast",
        action="store_true",
        help="coarser binary search (resolution 0.02 instead of 0.005)",
    )
    args = parser.parse_args()

    resolution = 0.02 if args.fast else 0.005
    start = time.perf_counter()
    result = run_table1(resolution=resolution)
    elapsed = time.perf_counter() - start

    print(result.render())
    print()
    v = result.values
    print(f"heuristic improvement over SP : {result.improvement:.2f}x "
          f"(paper: 1.36x)")
    print(f"ordering LB <= SP < heur <= UB: "
          f"{'holds' if result.ordering_holds else 'VIOLATED'}")
    print(f"binary-search probes          : "
          f"SP {len(result.shortest_path.evaluations)}, "
          f"heuristic {len(result.heuristic.evaluations)}")
    print(f"wall clock                    : {elapsed:.1f} s")
    print()
    print("Interpretation: at the heuristic's utilization level, every")
    print(f"100 Mbps link can carry "
          f"{int(v['heuristic'] * 100e6 / 32_000)} concurrent 32 kbps calls")
    print(f"with hard 100 ms guarantees, vs "
          f"{int(v['shortest_path'] * 100e6 / 32_000)} under shortest-path "
          "routing.")


if __name__ == "__main__":
    main()
