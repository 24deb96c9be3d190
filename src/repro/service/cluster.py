"""Multi-core scale-out: a supervisor for sharded admission workers.

One asyncio supervisor process runs ``N`` admission-server workers
(real subprocesses, one event loop — and so one core — each), each
owning shard ``i`` of ``N`` of the verified slot capacity
(:class:`repro.admission.SlotShardController`, partitioned by
:func:`repro.admission.plan_slot_shards` so the shard quotas sum to
exactly the certified slots), plus the
:class:`~repro.service.router.ClusterRouter` front door on the public
socket.  The wire protocol is unchanged; clients cannot tell a cluster
from a single server except through the extra ``cluster`` discovery op.

Fault handling:

* a worker that dies (``kill -9`` included) is restarted automatically;
  it re-admits its shard's flows from its own crash-safe snapshot on
  their original routes before taking traffic — the single-server
  survivor guarantee, per shard; a replacement that dies before it is
  healthy is one more death, counted and retried the same way;
* per-worker snapshots are merged into one cluster **manifest**
  (:func:`~repro.service.snapshots.merge_cluster_snapshot`) on a
  timer, on the ``snapshot`` op, and at drain; the manifest is itself
  a valid ``repro-admission-snapshot/v1`` file, so a whole-cluster
  restart — even with a different ``--workers`` — re-partitions and
  re-admits every survivor (:func:`split_cluster_snapshot`);
* SIGTERM drains gracefully: the front door closes, workers drain and
  write final shard snapshots, and one last manifest merge lands
  before exit.
"""

from __future__ import annotations

import asyncio
import logging
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from ..errors import ServiceError
from ..faults.degraded import BackoffPolicy
from .client import AsyncServiceClient
from .http import MetricsEndpoint
from .launch import serve_child
from .router import ClusterRouter, HashRing
from .snapshots import (
    SnapshotStore,
    merge_cluster_snapshot,
    split_cluster_snapshot,
)

__all__ = [
    "ClusterConfig",
    "ClusterSupervisor",
    "worker_options",
]

logger = logging.getLogger("repro.service")

#: Front-door-only options: a cluster's shard workers never see them.
FRONT_DOOR_ONLY = frozenset({
    "workers", "host", "port", "metrics_port", "metrics_host",
    "drain_grace", "serve_seconds", "metrics_out", "trace_out",
})
#: Per-worker files: worker ``i`` gets ``<path>.w<i>``.
PER_WORKER_PATHS = ("socket", "snapshot", "audit", "span_out")

#: Pause between a worker's death and the launch of its replacement.
RESTART_DELAY = 0.2
#: How long a launched worker may take to answer ``health``.
STARTUP_TIMEOUT = 60.0


def worker_options(
    options: Mapping[str, Any], index: int, count: int
) -> Dict[str, Any]:
    """The operator's own ``serve`` options (by parser dest), as shard
    worker ``index`` of ``count``: the ordinary single-socket server
    plus the hidden ``--shard-index/--shard-count`` pair that swaps its
    controller for a :class:`~repro.admission.SlotShardController`.
    Every other option reaches the worker verbatim."""
    out = {k: v for k, v in options.items() if k not in FRONT_DOOR_ONLY}
    for dest in PER_WORKER_PATHS:
        if out.get(dest) is not None:
            out[dest] = f"{out[dest]}.w{index}"
    return {**out, "shard_index": index, "shard_count": count}


@dataclass(frozen=True)
class ClusterConfig:
    """Tuning knobs of one :class:`ClusterSupervisor`.

    ``socket_path`` is the public front door (Unix socket); worker
    ``i`` listens on ``<socket_path>.w<i>`` and snapshots to
    ``<snapshot_path>.w<i>``, with the merged cluster manifest at
    ``snapshot_path`` itself.
    """

    workers: int = 2
    socket_path: str = ""
    snapshot_path: Optional[str] = None
    snapshot_interval: Optional[float] = None
    metrics_host: str = "127.0.0.1"
    metrics_port: Optional[int] = None
    drain_grace: float = 0.0
    #: ``"v2"`` (default): the front door accepts v2 upgrades and the
    #: worker links propose v2 per (re)connect; ``"v1"`` pins both
    #: sides of the cluster to the line protocol.
    protocol: str = "v2"

    def __post_init__(self):
        if self.workers < 1:
            raise ServiceError(
                f"need at least one worker, got {self.workers}"
            )
        if not self.socket_path:
            raise ServiceError("cluster needs a front-door socket path")
        if (
            self.snapshot_interval is not None
            and self.snapshot_path is None
        ):
            raise ServiceError("snapshot_interval requires snapshot_path")
        if (
            self.snapshot_interval is not None
            and self.snapshot_interval <= 0
        ):
            raise ServiceError("snapshot_interval must be positive")
        if self.drain_grace < 0:
            raise ServiceError("drain_grace must be >= 0")
        if self.protocol not in ("v1", "v2"):
            raise ServiceError(
                f"protocol must be 'v1' or 'v2', got {self.protocol!r}"
            )

    def worker_socket(self, index: int) -> str:
        return f"{self.socket_path}.w{index}"

    def worker_snapshot(self, index: int) -> Optional[str]:
        if self.snapshot_path is None:
            return None
        return f"{self.snapshot_path}.w{index}"


@dataclass
class _Worker:
    """Book-keeping for one worker subprocess."""

    index: int
    #: This worker's ``serve`` options (see :func:`worker_options`).
    options: Dict[str, Any]
    proc: Optional["asyncio.subprocess.Process"] = None
    launches: int = 0
    monitor: Optional["asyncio.Task"] = field(default=None, repr=False)

    @property
    def socket_path(self) -> str:
        return self.options["socket"]

    @property
    def snapshot_path(self) -> Optional[str]:
        return self.options["snapshot"]

    @property
    def log_path(self) -> str:
        return self.socket_path + ".serve.log"

    @property
    def pid(self) -> Optional[int]:
        return None if self.proc is None else self.proc.pid


class ClusterSupervisor:
    """Run N shard workers plus the front-door router, restart on death.

    ``options`` are the operator's own ``serve`` options by parser dest
    (``vars()`` of the parsed namespace); each worker is started from
    them through :func:`worker_options`.  The front-door socket and the
    manifest path are ``config``'s.
    """

    def __init__(self, config: ClusterConfig, options: Mapping[str, Any]):
        self.config = config
        self.ring = HashRing(config.workers)
        options = {
            **options,
            "socket": config.socket_path,
            "snapshot": config.snapshot_path,
        }
        self.workers = [
            _Worker(i, worker_options(options, i, config.workers))
            for i in range(config.workers)
        ]
        self.router = ClusterRouter(
            [w.socket_path for w in self.workers],
            ring=self.ring,
            on_snapshot=(
                self._snapshot_op
                if config.snapshot_path is not None
                else None
            ),
            extra_stats=self._extra_stats,
            negotiate_v2=config.protocol != "v1",
            link_protocol=config.protocol,
        )
        self.manifest_store: Optional[SnapshotStore] = None
        if config.snapshot_path is not None:
            self.manifest_store = SnapshotStore(config.snapshot_path)
        self.metrics_endpoint: Optional[MetricsEndpoint] = None
        self.restarts = 0
        #: Death of a worker to its replacement answering ``health``,
        #: for the most recent restart: the window in which that shard's
        #: flows could not be admitted.
        self.last_restart_seconds: Optional[float] = None
        self.merges = 0
        self.restored = 0
        self._draining = False
        self._drain_error: Optional[Exception] = None
        self._stopped: Optional[asyncio.Event] = None
        self._merge_task: Optional["asyncio.Task"] = None
        self._merge_lock: Optional[asyncio.Lock] = None

    # -------------------------------------------------------------- #
    # lifecycle
    # -------------------------------------------------------------- #

    async def start(self) -> int:
        """Split any manifest, launch every worker, open the front
        door; returns the number of flows restored cluster-wide."""
        self._stopped = asyncio.Event()
        self._merge_lock = asyncio.Lock()
        self._prepare_worker_snapshots()
        await asyncio.gather(
            *(self._launch(worker) for worker in self.workers)
        )
        for worker in self.workers:
            worker.monitor = asyncio.get_running_loop().create_task(
                self._monitor(worker),
                name=f"repro-cluster-worker-{worker.index}",
            )
        self.restored = await self._count_restored()
        await self.router.start_unix(self.config.socket_path)
        if self.config.metrics_port is not None:
            self.metrics_endpoint = MetricsEndpoint(
                self.router,  # type: ignore[arg-type]
                host=self.config.metrics_host,
                port=self.config.metrics_port,
            )
            await self.metrics_endpoint.start()
        if (
            self.manifest_store is not None
            and self.config.snapshot_interval is not None
        ):
            self._merge_task = asyncio.get_running_loop().create_task(
                self._merge_loop(), name="repro-cluster-merge"
            )
        logger.info(
            "cluster of %d workers serving on %s (restored %d flows)",
            self.config.workers,
            self.config.socket_path,
            self.restored,
        )
        return self.restored

    def install_signal_handlers(self) -> None:
        """Drain gracefully on SIGTERM/SIGINT (no-op where unsupported)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain)
            except (NotImplementedError, ValueError, RuntimeError):
                return

    def request_drain(self) -> None:
        """Start :meth:`drain` in the background (signal handlers,
        timers); :meth:`serve_forever` reports how it ended."""
        task = asyncio.get_running_loop().create_task(self.drain())
        # serve_forever() re-raises a failed drain; retrieve it here so
        # the detached task does not also warn at exit.
        task.add_done_callback(lambda t: t.cancelled() or t.exception())

    async def serve_forever(self) -> None:
        """Block until :meth:`drain` completes; re-raises its failure
        (a final manifest that could not be written)."""
        if self._stopped is None:
            raise ServiceError("cluster is not started")
        await self._stopped.wait()
        if self._drain_error is not None:
            raise self._drain_error

    async def drain(self) -> None:
        """Graceful shutdown: front door first, then the workers, then
        one final manifest merge."""
        if self._draining:
            return
        self._draining = True
        if self.config.drain_grace > 0:
            await asyncio.sleep(self.config.drain_grace)
        if self._merge_task is not None:
            self._merge_task.cancel()
            await asyncio.gather(
                self._merge_task, return_exceptions=True
            )
            self._merge_task = None
        await self.router.stop()
        for worker in self.workers:
            if worker.monitor is not None:
                worker.monitor.cancel()
        await asyncio.gather(
            *(
                worker.monitor
                for worker in self.workers
                if worker.monitor is not None
            ),
            return_exceptions=True,
        )
        for worker in self.workers:
            if worker.proc is not None and worker.proc.returncode is None:
                try:
                    worker.proc.terminate()
                except ProcessLookupError:
                    pass
        await asyncio.gather(
            *(
                worker.proc.wait()
                for worker in self.workers
                if worker.proc is not None
            ),
            return_exceptions=True,
        )
        # Workers wrote final shard snapshots during their drain;
        # merge them into the authoritative cluster cut.
        try:
            if self.manifest_store is not None:
                await self._merge_once()
        except Exception as exc:
            # The front door is closed and the workers are gone:
            # shutdown must finish (serve_forever() released) or the
            # supervisor can only be killed.  The failure is not
            # swallowed.
            logger.error("final manifest merge failed: %s", exc)
            self._drain_error = exc
            raise
        finally:
            if self.metrics_endpoint is not None:
                await self.metrics_endpoint.stop()
                self.metrics_endpoint = None
            if self._stopped is not None:
                self._stopped.set()
        logger.info(
            "cluster on %s drained", self.config.socket_path
        )

    async def stop(self) -> None:
        """Alias for :meth:`drain` (test/operator convenience)."""
        await self.drain()

    # -------------------------------------------------------------- #
    # worker processes
    # -------------------------------------------------------------- #

    def _prepare_worker_snapshots(self) -> None:
        """Split the manifest into shard snapshots when needed.

        A worker restarting in place restores from its own (newest)
        shard snapshot, so the split only runs when a shard file is
        missing or the worker count changed — i.e. a fresh host, a
        resize, or a single-server snapshot being scaled out.  In the
        resize case flows are re-assigned by the ring (their committed
        routes stay pinned either way).
        """
        if self.manifest_store is None or not self.manifest_store.exists():
            return
        manifest = self.manifest_store.load()
        assert manifest is not None
        stored = manifest.get("cluster", {})
        resized = (
            not isinstance(stored, dict)
            or stored.get("workers") != self.config.workers
        )
        missing = any(
            worker.snapshot_path is not None
            and not os.path.exists(worker.snapshot_path)
            for worker in self.workers
        )
        if not (resized or missing):
            return
        shards = split_cluster_snapshot(
            manifest, self.config.workers, self.ring.worker_of
        )
        for worker, shard in zip(self.workers, shards):
            if worker.snapshot_path is not None:
                SnapshotStore(worker.snapshot_path).write(shard)
        logger.info(
            "split manifest %s into %d shard snapshots (%s)",
            self.manifest_store.path,
            self.config.workers,
            "resize" if resized else "missing shard files",
        )

    async def _launch(self, worker: _Worker) -> None:
        """Spawn one worker subprocess and wait until it is healthy."""
        with serve_child(worker.log_path, worker.options) as (argv, io):
            worker.proc = await asyncio.create_subprocess_exec(*argv, **io)
        worker.launches += 1
        await self._wait_healthy(worker)

    async def _wait_healthy(self, worker: _Worker) -> Dict[str, Any]:
        deadline = time.monotonic() + STARTUP_TIMEOUT
        last_error: Optional[Exception] = None
        while time.monotonic() < deadline:
            proc = worker.proc
            if proc is not None and proc.returncode is not None:
                raise ServiceError(
                    f"worker {worker.index} exited with "
                    f"{proc.returncode} during startup "
                    f"(see {worker.log_path})"
                )
            try:
                client = await AsyncServiceClient.connect_unix(
                    worker.socket_path,
                    backoff=BackoffPolicy(base=0.05, max_retries=0),
                )
                try:
                    return await client.health()
                finally:
                    await client.close()
            except (ServiceError, OSError) as exc:
                last_error = exc
                await asyncio.sleep(0.05)
        raise ServiceError(
            f"worker {worker.index} did not become healthy within "
            f"{STARTUP_TIMEOUT:g} s: {last_error}"
        )

    async def _monitor(self, worker: _Worker) -> None:
        """Restart the worker whenever its process dies un-drained."""
        died_at: Optional[float] = None
        try:
            while not self._draining:
                proc = worker.proc
                if proc is None:
                    return
                code = await proc.wait()
                if self._draining:
                    return
                if died_at is None:
                    died_at = time.monotonic()
                self.restarts += 1
                logger.warning(
                    "worker %d (pid %s) died with %s; restarting",
                    worker.index,
                    proc.pid,
                    code,
                )
                await asyncio.sleep(RESTART_DELAY)
                # The worker restores its shard snapshot before its
                # socket answers, so survivors are back on their
                # original routes before the router reconnects.
                try:
                    await self._launch(worker)
                except (ServiceError, OSError) as exc:
                    # A replacement that dies or hangs before it is
                    # healthy is one more death: end it, go round again.
                    logger.warning(
                        "worker %d replacement failed: %s", worker.index, exc
                    )
                    hung = worker.proc
                    if hung is not None and hung.returncode is None:
                        hung.kill()
                    continue
                self.last_restart_seconds = round(
                    time.monotonic() - died_at, 3
                )
                died_at = None
                logger.info(
                    "worker %d healthy again (pid %s) %.3f s after it died",
                    worker.index,
                    worker.pid,
                    self.last_restart_seconds,
                )
        except asyncio.CancelledError:
            pass

    async def _count_restored(self) -> int:
        """Sum of flows the workers restored from their snapshots."""
        stats = await self._worker_stats_direct()
        return sum(
            int(s.get("restored", 0)) for s in stats if s is not None
        )

    async def _worker_stats_direct(
        self,
    ) -> List[Optional[Dict[str, Any]]]:
        """Per-worker stats over short-lived direct connections (used
        before the router's links are up)."""
        out: List[Optional[Dict[str, Any]]] = []
        for worker in self.workers:
            try:
                client = await AsyncServiceClient.connect_unix(
                    worker.socket_path,
                    backoff=BackoffPolicy(base=0.05, max_retries=2),
                )
                try:
                    out.append(await client.stats())
                finally:
                    await client.close()
            except (ServiceError, OSError):
                out.append(None)
        return out

    def _extra_stats(self) -> Dict[str, Any]:
        """Supervisor contribution to the aggregated ``stats`` op."""
        return {
            "worker_restarts": self.restarts,
            "last_restart_seconds": self.last_restart_seconds,
            "manifest_merges": self.merges,
            "cluster_restored": self.restored,
            "worker_pids": [w.pid for w in self.workers],
            "worker_launches": [w.launches for w in self.workers],
        }

    # -------------------------------------------------------------- #
    # snapshot merging
    # -------------------------------------------------------------- #

    async def _snapshot_op(self) -> Dict[str, Any]:
        """The router's ``snapshot`` op: fresh shard cuts, one merge."""
        path, flows = await self._merge_once(trigger_workers=True)
        return {"path": path, "flows": flows}

    async def _merge_loop(self) -> None:
        assert self.config.snapshot_interval is not None
        try:
            while True:
                await asyncio.sleep(self.config.snapshot_interval)
                try:
                    await self._merge_once(trigger_workers=True)
                except (ServiceError, OSError) as exc:
                    logger.error("manifest merge failed: %s", exc)
        except asyncio.CancelledError:
            pass

    async def _merge_once(
        self, *, trigger_workers: bool = False
    ) -> Any:
        """Write one merged manifest; returns ``(path, n_flows)``.

        With ``trigger_workers`` the workers snapshot first (through
        the router links, so each cut is taken on the worker's own
        loop); a dead worker's last on-disk shard snapshot still
        participates — crash-safe by construction.
        """
        assert self.manifest_store is not None
        assert self._merge_lock is not None
        async with self._merge_lock:
            if trigger_workers:
                await self.router._fan_out("snapshot")
            loop = asyncio.get_running_loop()
            shards = await loop.run_in_executor(None, self._read_shards)
            manifest = merge_cluster_snapshot(shards)
            await loop.run_in_executor(
                None, self.manifest_store.write, manifest
            )
            self.merges += 1
            return self.manifest_store.path, len(manifest["flows"])

    def _read_shards(self) -> List[Optional[Dict[str, Any]]]:
        shards: List[Optional[Dict[str, Any]]] = []
        for worker in self.workers:
            if worker.snapshot_path is None or not os.path.exists(
                worker.snapshot_path
            ):
                shards.append(None)
                continue
            shards.append(SnapshotStore(worker.snapshot_path).load())
        return shards
