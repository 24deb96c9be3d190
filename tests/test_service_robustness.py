"""The front door under hostile conditions: a second server aimed at a
live socket path, file descriptors running out, a peer that stops
half way through a frame while the server drains, and a periodic step
that fails (which the operator reads on stderr).

Each runs the real ``repro-ubac serve`` binary in a subprocess
(:class:`~serve_processes.ServiceProcess`) and talks to it over raw
sockets, so what is checked is what a client would see.
"""

import asyncio
import json
import os
import resource
import shutil
import socket
import subprocess
import time

import pytest

from repro.errors import ServiceError
from repro.experiments.cli import main
from serve_processes import ServiceProcess
from repro.service.launch import serve_child
from repro.service.router import ClusterRouter
from repro.service.server import AdmissionService

HELLO_V2 = (
    b'{"id":0,"op":"hello","protocol":"repro-admission-rpc/v2"}\n'
)


def admit(rid, flow_id):
    return {
        "id": rid,
        "op": "admit",
        "flow": {
            "id": flow_id, "cls": "voice", "src": "Seattle", "dst": "Denver",
        },
    }


def dial(path):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(path)
    return sock


def ask(sock, request, timeout=10.0):
    """One v1 request; the decoded answer, or ``None`` when nothing
    came back within ``timeout``."""
    sock.settimeout(timeout)
    sock.sendall(json.dumps(request).encode() + b"\n")
    buf = b""
    try:
        while not buf.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                return None
            buf += chunk
    except socket.timeout:
        return None
    return json.loads(buf)


def highest_fd(pid):
    return max(int(fd) for fd in os.listdir(f"/proc/{pid}/fd"))


# --------------------------------------------------------------------- #
# a live socket path is not stale
# --------------------------------------------------------------------- #


def test_a_second_serve_is_refused_a_live_socket(tmp_path, capsys):
    # The second server used to unlink the path and bind it: `stats`
    # was answered by it, and once it drained the first one kept its
    # ledger with no way left to reach it.
    sock = str(tmp_path / "s.sock")
    with ServiceProcess(socket_path=sock, topology="mci") as first:
        first.start()
        rc = main(["serve", "--socket", sock, "--topology", "mci",
                   "--serve-seconds", "0.3"])
        out = capsys.readouterr().out
        assert rc == 1
        assert out.startswith("FAILURE:")
        assert f"already serving on {sock}" in out
        with first.client() as client:
            assert client.stats()["pid"] == first.proc.pid
        assert first.terminate() == 0


@pytest.mark.parametrize("door", ["server", "router"])
def test_both_front_doors_refuse_a_live_path(tmp_path, door):
    from repro.admission.utilization import UtilizationAdmissionController
    from repro.traffic.classes import ClassRegistry
    from repro.traffic.generators import voice_class
    from repro.topology.builders import line_network
    from repro.topology.servergraph import LinkServerGraph

    path = str(tmp_path / "p.sock")

    async def scenario():
        live = await asyncio.start_unix_server(lambda r, w: None, path=path)
        if door == "server":
            network = line_network(3)
            voice = voice_class()
            handler = AdmissionService(UtilizationAdmissionController(
                LinkServerGraph(network), ClassRegistry.two_class(voice),
                {voice.name: 0.3}, {},
            ))
        else:
            handler = ClusterRouter([str(tmp_path / "w0.sock")])
        try:
            with pytest.raises(ServiceError, match="already serving"):
                await handler.start_unix(path)
        finally:
            live.close()
            await live.wait_closed()

    asyncio.run(scenario())


# --------------------------------------------------------------------- #
# file descriptors run out (ROADMAP 5(c))
# --------------------------------------------------------------------- #


def test_fd_exhaustion_sheds_at_accept_and_recovers(tmp_path):
    sock = str(tmp_path / "s.sock")
    with ServiceProcess(socket_path=sock, topology="mci") as server:
        server.start()
        pid = server.proc.pid
        first = dial(sock)
        assert ask(first, {"id": 1, "op": "health"})["ok"]
        # Room for three more connections, then accept() fails EMFILE.
        _soft, hard = resource.prlimit(pid, resource.RLIMIT_NOFILE)
        resource.prlimit(
            pid, resource.RLIMIT_NOFILE, (highest_fd(pid) + 4, hard)
        )
        accepted, pending = [], None
        for _ in range(32):
            conn = dial(sock)  # lands in the backlog either way
            if ask(conn, {"id": 1, "op": "health"}, timeout=1.5) is None:
                pending = conn
                break
            accepted.append(conn)
        assert pending is not None, "accept never ran out of descriptors"
        assert len(accepted) <= 4

        # Saturated: a connection that is already open is still served.
        assert ask(first, {"id": 2, "op": "health"})["ok"]
        answer = ask(first, admit(3, "emfile-1"))
        assert answer["ok"] and answer["result"]["admitted"]

        # Free some descriptors: the loop retries accept by itself.
        for conn in accepted:
            conn.close()
        began = time.monotonic()
        fresh = dial(sock)
        assert ask(fresh, {"id": 1, "op": "health"}, timeout=8.0)["ok"]
        assert time.monotonic() - began < 8.0
        for conn in (first, pending, fresh):
            conn.close()
        assert server.terminate(timeout=15.0) == 0


# --------------------------------------------------------------------- #
# a half-open peer across drain_grace (ROADMAP 5(c))
# --------------------------------------------------------------------- #


def test_half_open_peer_does_not_hold_up_the_drain(tmp_path):
    sock = str(tmp_path / "s.sock")
    snap = str(tmp_path / "snap.json")
    grace = 0.5
    with ServiceProcess(
        socket_path=sock, topology="mci", snapshot=snap,
        drain_grace=grace, max_delay_ms=300,
    ) as server:
        server.start()
        # v2 peer: negotiated, then a header promising 1000 bytes, ten
        # of them, and silence.
        half_open = dial(sock)
        half_open.sendall(HELLO_V2)
        half_open.settimeout(10.0)
        assert b'"ok":true' in half_open.recv(4096)
        half_open.sendall((1000).to_bytes(4, "big") + b"x" * 10)

        # Another connection's admit waits out the 300 ms window ...
        other = dial(sock)
        other.sendall(json.dumps(admit(1, "in-flight")).encode() + b"\n")
        time.sleep(0.05)
        began = time.monotonic()
        server.proc.terminate()  # ... when the drain starts
        other.settimeout(grace + 2.0)
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = other.recv(65536)
            assert chunk, "connection closed before the in-flight answer"
            buf += chunk
        answer = json.loads(buf)
        assert answer["id"] == 1 and answer["result"]["admitted"], answer

        assert server.proc.wait(timeout=grace + 2.0) == 0
        assert time.monotonic() - began < grace + 2.0
        with open(snap, encoding="utf-8") as fh:
            flows = json.load(fh)["flows"]
        assert [f["flow_id"] for f in flows] == ["in-flight"]
        half_open.close()
        other.close()


# --------------------------------------------------------------------- #
# what a served process logs reaches stderr
# --------------------------------------------------------------------- #


def serve_apart(tmp_path, **options):
    """A real ``serve`` under :class:`ServiceProcess`, its stdout and
    stderr in two files (``out.log``, ``err.log``); started and
    healthy."""
    server = ServiceProcess(socket_path=str(tmp_path / "s.sock"), **options)
    with serve_child(str(tmp_path / "out.log"), server.options) as (argv, io):
        with open(tmp_path / "err.log", "wb") as err:
            server.proc = subprocess.Popen(argv, **{**io, "stderr": err})
    server.wait_healthy()
    return server


def test_a_failed_periodic_snapshot_reaches_stderr(tmp_path):
    # The `repro` logger had only its NullHandler in a served process:
    # the failure was counted in `errors` and written nowhere.
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    server = serve_apart(
        tmp_path, topology="mci", snapshot=str(snaps / "s.json"),
        snapshot_interval=0.2,
    )
    with server:
        shutil.rmtree(snaps)
        deadline = time.monotonic() + 20.0
        with server.client() as client:
            while client.stats()["errors"] < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            errors = client.stats()["errors"]
        snaps.mkdir()  # the drain's final cut lands again
        assert server.terminate() == 0
    err = (tmp_path / "err.log").read_text()
    assert errors >= 1
    assert "periodic snapshot failed" in err
    assert "periodic snapshot failed" not in (tmp_path / "out.log").read_text()


@pytest.mark.parametrize("workers", [None, 2])
def test_a_clean_serve_prints_its_banner_and_summary_only(tmp_path, workers):
    options = {
        "socket": str(tmp_path / "s.sock"), "topology": "mci",
        "serve_seconds": 0.5, "workers": workers,
    }
    with serve_child(str(tmp_path / "unused.log"), options) as (argv, io):
        done = subprocess.run(
            argv, env=io["env"], capture_output=True, text=True, timeout=120
        )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    banner, summary = done.stdout.splitlines()
    assert "listening on" in banner and "drained after" in summary
