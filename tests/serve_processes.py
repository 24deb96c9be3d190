"""Process-level chaos for the tests: kill and restart a live server.

:class:`ServiceProcess` manages a ``repro-ubac serve`` subprocess — the
real server binary, not an in-process stand-in — so the chaos harness
can extend the survivor guarantee across *process death*:

1. drive traffic at the server, remember which flows it established;
2. ``kill -9`` the process mid-run (no drain, no final snapshot — only
   the periodic crash-safe snapshot survives);
3. restart it on the same socket and snapshot path;
4. assert every flow whose admission the snapshot had captured is
   established again, on its original route, before any new traffic.

:func:`kill_restart_check` packages steps 2–4.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time
from typing import Any, Dict, Hashable, List, Optional, Sequence

from repro.errors import FaultInjectionError, ServiceError
from repro.faults.degraded import BackoffPolicy
from repro.service.client import ServiceClient
from repro.service.launch import serve_child

#: How long a launched server may take to answer ``health``.
STARTUP_TIMEOUT = 30.0

__all__ = [
    "ClusterProcess",
    "ServiceProcess",
    "kill_restart_check",
    "kill_worker_restart_check",
]


class ServiceProcess:
    """A ``repro-ubac serve`` subprocess under chaos-harness control.

    ``options`` are ``serve`` options named by parser dest
    (``snapshot=``, ``snapshot_interval=``, ``audit=``, ``topology=``
    ...); unset ones take the CLI's own defaults.
    """

    def __init__(self, *, socket_path: str, **options: Any):
        self.socket_path = socket_path
        self.options = {"socket": socket_path, **options}
        self.proc: Optional[subprocess.Popen] = None
        self.launches = 0
        #: Server stdout+stderr land here (truncated per launch).
        self.log_path = socket_path + ".serve.log"

    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Launch the server and block until it answers ``health``."""
        if self.proc is not None and self.proc.poll() is None:
            raise FaultInjectionError("server process is already running")
        child = serve_child(self.log_path, self.options)
        with child as (argv, io):
            self.proc = subprocess.Popen(argv, **io)
        self.launches += 1
        self.wait_healthy()

    def read_log(self) -> str:
        """Captured stdout+stderr of the current launch (best effort)."""
        try:
            with open(self.log_path, "rb") as fh:
                return fh.read().decode("utf-8", "replace")
        except OSError:
            return ""

    def wait_healthy(self) -> Dict[str, Any]:
        """Poll ``health`` until the server responds (or dies)."""
        deadline = time.monotonic() + STARTUP_TIMEOUT
        last_error: Optional[Exception] = None
        while time.monotonic() < deadline:
            if self.proc is not None and self.proc.poll() is not None:
                raise FaultInjectionError(
                    f"server exited with {self.proc.returncode} during "
                    f"startup: {self.read_log()[-2000:]}"
                )
            try:
                with self.client(retries=0) as client:
                    return client.health()
            except (ServiceError, OSError) as exc:
                last_error = exc
                time.sleep(0.05)
        raise FaultInjectionError(
            f"server did not become healthy within "
            f"{STARTUP_TIMEOUT:g} s: {last_error}"
        )

    def client(self, *, retries: int = 5) -> ServiceClient:
        """A fresh synchronous client for this server's socket."""
        return ServiceClient(
            socket_path=self.socket_path,
            backoff=BackoffPolicy(base=0.05, max_retries=retries),
        )

    # ------------------------------------------------------------------ #
    # chaos actions
    # ------------------------------------------------------------------ #

    def kill(self) -> None:
        """``kill -9``: no drain, no final snapshot."""
        if self.proc is None or self.proc.poll() is not None:
            raise FaultInjectionError("no live server process to kill")
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)

    def terminate(self, timeout: float = 30.0) -> int:
        """SIGTERM — the graceful-drain path; returns the exit code."""
        if self.proc is None or self.proc.poll() is not None:
            raise FaultInjectionError("no live server process to stop")
        self.proc.terminate()
        return self.proc.wait(timeout=timeout)

    def restart(self) -> None:
        """Start a fresh process on the same socket and snapshot path."""
        self.start()

    def stop(self) -> None:
        """Best-effort teardown (idempotent; for test cleanup)."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)

    def __enter__(self) -> "ServiceProcess":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


class ClusterProcess(ServiceProcess):
    """A ``repro-ubac serve --workers N`` cluster under chaos control.

    The managed subprocess is the cluster *supervisor*; its shard
    workers are grandchildren whose pids surface through the
    aggregated ``stats`` op (``worker_pids``).  On top of the whole-
    cluster actions inherited from :class:`ServiceProcess` (kill,
    terminate, restart — all against the supervisor), this adds the
    cluster-specific chaos move: ``kill -9`` one *worker* and wait for
    the supervisor to restart it.
    """

    def __init__(self, *, workers: int, **kwargs: Any):
        super().__init__(workers=workers, **kwargs)
        self.workers = workers

    def worker_pids(self) -> List[Optional[int]]:
        """Live worker pids as reported by the supervisor."""
        with self.client() as client:
            stats = client.stats()
        pids = stats.get("worker_pids")
        if not isinstance(pids, list) or len(pids) != self.workers:
            raise FaultInjectionError(
                f"cluster stats did not report {self.workers} worker "
                f"pids (got {pids!r}) — is {self.socket_path} really "
                "a cluster front door?"
            )
        return pids

    def kill_worker(self, index: int) -> int:
        """``kill -9`` worker ``index``; returns the pid that died."""
        if self.proc is None or self.proc.poll() is not None:
            raise FaultInjectionError(
                "no live cluster supervisor to kill a worker of"
            )
        if not 0 <= index < self.workers:
            raise FaultInjectionError(
                f"worker index {index} out of range "
                f"[0, {self.workers})"
            )
        pid = self.worker_pids()[index]
        if pid is None:
            raise FaultInjectionError(
                f"worker {index} has no live process to kill"
            )
        os.kill(pid, signal.SIGKILL)
        return pid

    def wait_worker_restarted(
        self, index: int, old_pid: int, timeout: float = 30.0
    ) -> int:
        """Block until worker ``index`` runs under a fresh pid and
        answers through the front door; returns the new pid."""
        deadline = time.monotonic() + timeout
        last: Any = None
        while time.monotonic() < deadline:
            try:
                pids = self.worker_pids()
            except (ServiceError, FaultInjectionError, OSError) as exc:
                last = exc
                time.sleep(0.05)
                continue
            new_pid = pids[index]
            last = pids
            if new_pid is not None and new_pid != old_pid:
                return new_pid
            time.sleep(0.05)
        raise FaultInjectionError(
            f"worker {index} (killed pid {old_pid}) was not restarted "
            f"within {timeout:g} s (last: {last!r})"
        )


def kill_worker_restart_check(
    cluster: ClusterProcess,
    index: int,
    established_ids: Sequence[Hashable],
) -> Dict[str, Any]:
    """Kill -9 one worker and verify the per-shard survivor guarantee.

    After the supervisor restarts the dead worker, every flow in
    ``established_ids`` — cluster-wide, not just the dead shard — must
    still answer ``query`` as established through the front door (the
    dead worker's flows restored from its crash-safe shard snapshot on
    their original routes; the other shards untouched).  Returns a
    report dict; raises :class:`FaultInjectionError` on any loss.
    """
    old_pid = cluster.kill_worker(index)
    new_pid = cluster.wait_worker_restarted(index, old_pid)
    with cluster.client() as client:
        stats = client.stats()
        lost = [
            fid for fid in established_ids if not client.query(fid)
        ]
    report = {
        "worker": index,
        "old_pid": old_pid,
        "new_pid": new_pid,
        "expected": len(established_ids),
        "established": stats.get("established", 0),
        "worker_restarts": stats.get("worker_restarts", 0),
        "lost": lost,
    }
    if lost:
        raise FaultInjectionError(
            f"survivor guarantee violated across worker {index} death: "
            f"{len(lost)} of {len(established_ids)} established flows "
            f"were lost (e.g. {lost[:5]!r})"
        )
    return report


def kill_restart_check(
    process: ServiceProcess,
    established_ids: Sequence[Hashable],
) -> Dict[str, Any]:
    """Kill -9 the server, restart it, and verify the survivor guarantee.

    ``established_ids`` are the flows known established before the kill
    (from client-side decisions, or a ``stats``/``query`` sweep).  After
    the restart, every one of them must be established again — restored
    from the crash-safe snapshot on its pinned route — before the server
    takes new traffic.  Returns a small report dict; raises
    :class:`FaultInjectionError` when the guarantee is violated.
    """
    process.kill()
    process.restart()
    with process.client() as client:
        stats = client.stats()
        lost = [
            fid for fid in established_ids if not client.query(fid)
        ]
    report = {
        "expected": len(established_ids),
        "restored": stats.get("restored", 0),
        "established": stats.get("established", 0),
        "lost": lost,
    }
    if lost:
        raise FaultInjectionError(
            f"survivor guarantee violated across process death: "
            f"{len(lost)} of {len(established_ids)} established flows "
            f"were lost (e.g. {lost[:5]!r})"
        )
    return report
