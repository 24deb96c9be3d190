"""The one way a ``repro-ubac serve`` child process is started.

Serve options travel as a mapping of parser dests (``vars()`` of the
parsed namespace, or keywords named alike); :func:`serve_argv` is the
only place they become flags again, so a new ``srv.add_argument``
reaches cluster workers and the chaos harness with no further edit.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
from typing import Any, Dict, Iterator, List, Mapping, Tuple

__all__ = ["serve_argv", "serve_child"]

_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))


def serve_argv(options: Mapping[str, Any]) -> List[str]:
    """``serve`` argv for option dests: ``--dest-with-dashes value``, a
    bare flag for ``True``, nothing for ``None``/``False``."""
    argv = ["serve"]
    for dest, value in options.items():
        if dest == "command" or value is None or value is False:
            continue
        argv.append("--" + dest.replace("_", "-"))
        if isinstance(value, (list, tuple)):
            value = ",".join(map(str, value))
        if value is not True:
            argv.append(str(value))
    return argv


@contextlib.contextmanager
def serve_child(
    log_path: str, options: Mapping[str, Any]
) -> Iterator[Tuple[List[str], Dict[str, Any]]]:
    """``(argv, keywords)`` for ``Popen`` / ``create_subprocess_exec``.

    Output goes to a file (truncated per launch), not a pipe: a chatty
    server must never block on a pipe nobody drains.  The child keeps a
    duplicate of the fd; ours closes on exit, so dead launches leak none.
    """
    argv = [sys.executable, "-m", "repro.experiments.cli"]
    argv += serve_argv(options)
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    with open(log_path, "wb") as log_fh:
        yield argv, {"env": env, "stdout": log_fh, "stderr": subprocess.STDOUT}
