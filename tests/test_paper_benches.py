"""The paper's numbers are checked here.

Table 1, Figure 4 and the extension rows of EXPERIMENTS.md are printed
and asserted by the bench modules in ``PAPER_BENCHES``.  They run below,
in one subprocess with timing off, together with the waterfall
benchmark's smoke.  ``tests/test_structure.py`` counts exactly these
modules as callers of ``src/repro``: a bench that is not listed runs
nowhere, so it keeps nothing alive.
"""

import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]

#: The bench modules that stay, with the EXPERIMENTS.md row each one
#: regenerates and the aim or ROADMAP item that row serves.
PAPER_BENCHES = (
    "benchmarks/conftest.py",
    # Table 1 with Theorem 4's bounds, and Figure 4: the paper itself.
    "benchmarks/test_bench_table1.py",
    "benchmarks/test_bench_figure4.py",
    # Ext-A and Ext-B: what the `sweep` command prints.
    "benchmarks/test_bench_sweep_deadline.py",
    "benchmarks/test_bench_sweep_burst.py",
    # Ext-C and Ext-H: Table 1's search columns (item 10).
    "benchmarks/test_bench_heuristic_ablation.py",
    "benchmarks/test_bench_cross_topology.py",
    # Ext-D and Ext-N: Theorem 5 (item 12).
    "benchmarks/test_bench_multiclass.py",
    "benchmarks/test_bench_multiclass_routing.py",
    # Ext-E: run-time admission cost against the population (1(c)).
    "benchmarks/test_bench_admission.py",
    # Ext-F and Ext-J: measured delay against the bound (5(a)).
    "benchmarks/test_bench_simulator.py",
    "benchmarks/test_bench_cosim.py",
    # Ext-L: the admitted-share price of a cluster (3(c)).
    "benchmarks/test_bench_sharded_admission.py",
    # Ext-O: the price of aggregation (5(e)).
    "benchmarks/test_bench_aggregation_price.py",
    # Ext-Q: repaired routes (aim 3).
    "benchmarks/test_bench_repair.py",
)

#: The waterfall benchmark's own smoke, run beside them unchanged.
WATERFALL_SMOKE = "benchmarks/waterfall/test_waterfall_smoke.py"


def test_every_bench_module_is_listed():
    # A bench outside the list would run nowhere again.
    found = {
        path.relative_to(REPO).as_posix()
        for path in (REPO / "benchmarks").rglob("test_*.py")
        if "waterfall" not in path.relative_to(REPO).parts
    }
    assert found == set(PAPER_BENCHES) - {"benchmarks/conftest.py"}


def test_the_paper_benches_pass():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", *PAPER_BENCHES, WATERFALL_SMOKE,
            "--benchmark-disable", "-q", "-p", "no:cacheprovider",
        ],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-6000:] + proc.stderr[-3000:]
