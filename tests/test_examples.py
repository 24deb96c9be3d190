"""Every walkthrough in ``examples/`` runs to completion.

The examples go through the public imports only, so a renamed or
deleted export breaks one of them before it breaks a reader.  Each runs
as its own process from a scratch working directory
(``observability_demo.py`` writes its two export files into the cwd).
"""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
SRC = EXAMPLES.parent / "src"

#: Flags that keep a walkthrough to seconds.
FAST = {"voip_provisioning.py": ["--fast"]}


@pytest.mark.parametrize(
    "script", sorted(p.name for p in EXAMPLES.glob("*.py"))
)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *FAST.get(script, [])],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    assert proc.stdout.strip()
