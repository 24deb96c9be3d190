"""Ext-H: the Table 1 experiment on a second real topology (NSFNET).

Checks that the paper's SP-vs-heuristic result is not an artifact of the
MCI layout: on NSFNET (L = 3, N = 4) the same four columns are computed,
at resolution 0.01, and the same ordering must hold.  MCI's row is
Table 1's, which ``test_bench_table1.py`` computes.
"""

from repro.analysis import single_class_delays
from repro.experiments import cross_topology_table, format_table
from repro.routing import shortest_path_routes
from repro.topology import LinkServerGraph, nsfnet_backbone
from repro.traffic import all_ordered_pairs, voice_class

#: (name, L, N, LB, SP, heuristic, UB) per topology.
ROWS = [("NSFNET", 3, 4, 0.455, 0.455, 0.455, 0.856)]


def test_bench_cross_topology(benchmark, capsys):
    voice = voice_class()
    nsfnet = nsfnet_backbone()
    rows = benchmark.pedantic(
        cross_topology_table,
        args=([("NSFNET", nsfnet)], voice),
        kwargs={"resolution": 0.01},
        rounds=1,
        iterations=1,
    )
    printed = [
        (
            r.name, r.diameter, r.fan_in,
            *(round(x, 3) for x in (
                r.lower_bound, r.shortest_path, r.heuristic, r.upper_bound
            )),
        )
        for r in rows
    ]
    with capsys.disabled():
        print()
        print(
            format_table(
                ["topology", "L", "N", "LB", "SP", "heuristic", "UB"],
                [[f"{x:.3f}" if isinstance(x, float) else x for x in row]
                 for row in printed],
                title="Ext-H: Table 1 across topologies",
            )
        )
    # The paper's qualitative result transfers.
    assert all(r.ordering_holds for r in rows)
    assert printed == ROWS
    # NSFNET's shortest paths realize Theorem 4's worst-case feedback:
    # at the lower bound their worst route sits at the deadline.
    routes = shortest_path_routes(nsfnet, all_ordered_pairs(nsfnet))
    worst = single_class_delays(
        LinkServerGraph(nsfnet), list(routes.values()), voice,
        rows[0].lower_bound,
    ).worst_route_delay
    assert round(worst * 1e3, 5) == 99.99999
