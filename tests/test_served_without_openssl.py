"""A served process runs as a CPython built without OpenSSL.

``import asyncio`` loads ``ssl`` (libssl and libcrypto, ≈ 4 MB
resident) only to offer TLS transports, and ``hashlib`` maps libcrypto
through ``_hashlib``; ``serve`` blocks both before anything loads them
(``repro.experiments.cli.NOT_SERVED_MODULES``).  Two things must hold
for that to cost nothing:

* every served process really maps neither library — the single server
  with no flags and with every flag, and a ``--workers 2`` front door
  and both of its workers (``tests/test_import_surface.py`` checks the
  module names; this checks the mechanism);
* every digest a served process computes is the one OpenSSL computed,
  so audit logs and snapshots written before verify after, and a flow's
  shard does not depend on which ``hashlib`` backend loaded.
"""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.service.audit import flow_set_digest, iter_audit, verify_audit
from repro.service.router import HashRing, _hash64
from tests.serve_processes import ClusterProcess, ServiceProcess
from tests.test_service_audit import PER_OP_LOG, PER_OP_REPORT

REPO = pathlib.Path(__file__).resolve().parent.parent

# --------------------------------------------------------------------- #
# the digests the builtin fallback must not move
# --------------------------------------------------------------------- #

#: Wire flow ids of both kinds: the str "1" and the int 1 are different
#: flows, and must digest and hash differently.
IDS = ["f1", "f2", "hard-rt-7", 1, 17, 4096, "1"]

#: Recorded with OpenSSL's digests (``_hashlib`` loaded).
GOLDEN = {
    "flow_set_digest": {
        "mixed": "1d31b46d9d8eff5f",
        "empty": "e3b0c44298fc1c14",
        "str": "4e319c63b3dafcef",
        "int": "6b86b273ff34fce1",
    },
    "hash64": {
        "": 0xE4A6A0577479B2B4,
        "repro-cluster/0/0": 0x399C5BE198A30BE8,
        "repro-cluster#s:f1": 0x5789096AE720F39D,
        "repro-cluster#i:1": 0xF7D1EFA7DACA5423,
    },
    "worker_of": {
        "2": [0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1],
        "4": [2, 1, 0, 0, 2, 2, 3, 2, 0, 2, 2, 2, 1, 0, 2],
    },
}


def digests():
    """Everything a served process digests, computed by this process's
    ``hashlib``, plus what ``verify_audit`` makes of a log written in
    the old one-line-per-decision form (its restore marker's digest
    included)."""
    return {
        "flow_set_digest": {
            "mixed": flow_set_digest(IDS),
            "empty": flow_set_digest([]),
            "str": flow_set_digest(["f1"]),
            "int": flow_set_digest([1]),
        },
        "hash64": {key: _hash64(key) for key in GOLDEN["hash64"]},
        "worker_of": {
            str(n): [
                HashRing(n).worker_of(fid) for fid in IDS + list(range(8))
            ]
            for n in (2, 4)
        },
        "per_op_report": verify_audit(iter_audit(PER_OP_LOG)),
    }


_WITHOUT_OPENSSL = """
import json, sys
sys.modules["_hashlib"] = None   # before anything imports hashlib
sys.path.insert(0, sys.argv[1])
import hashlib
from tests.test_served_without_openssl import digests
print(json.dumps({
    "digests": digests(),
    "sha256": hashlib.sha256.__name__,
    "blake2b": hashlib.blake2b.__module__,
}))
"""


def check(found):
    per_op = found.pop("per_op_report")
    assert found == GOLDEN
    assert per_op == PER_OP_REPORT


def test_digests_are_pinned():
    check(digests())


def test_digests_are_pinned_without_openssl():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_OPENSSL, str(REPO)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    # The builtin constructors, not OpenSSL's ``openssl_sha256``.
    assert result["sha256"] == "sha256"
    assert result["blake2b"] == "_blake2"
    check(result["digests"])


# --------------------------------------------------------------------- #
# what a served process maps
# --------------------------------------------------------------------- #

OPENSSL = re.compile(r"libssl|libcrypto")

on_linux = pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="reads /proc/PID/maps"
)


def mapped(pid):
    """Paths of the files process ``pid`` maps."""
    with open(f"/proc/{pid}/maps", encoding="utf-8") as fh:
        return {line.split()[-1] for line in fh if "/" in line}


def children(pid):
    """Pids whose parent is ``pid``, from ``/proc/*/stat`` (whose
    ``/proc/PID/task/*/children`` twin needs a kernel option)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                # comm is parenthesised and may hold spaces: state and
                # ppid follow its closing parenthesis.
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # exited while we looked
        if ppid == pid:
            found.append(int(entry))
    return sorted(found)


def assert_no_openssl(pid):
    paths = mapped(pid)
    # It is a served process (numpy's core is mapped) ...
    assert any("_multiarray_umath" in path for path in paths), pid
    # ... and OpenSSL is not.
    assert sorted(p for p in paths if OPENSSL.search(p)) == [], pid


def serve_one_flow(process):
    """One admit and its release: the hashing paths run."""
    from repro.traffic.flows import FlowSpec

    with process.client() as client:
        assert client.admit(FlowSpec("f1", "voice", "Seattle", "Denver")).admitted
        assert client.release("f1")


@on_linux
@pytest.mark.parametrize("flags", ["plain", "every flag"])
def test_a_served_process_maps_no_openssl(tmp_path, flags):
    options = {}
    if flags == "every flag":
        options = {
            "audit": str(tmp_path / "a.jsonl"),
            "metrics_port": 0,
            "snapshot": str(tmp_path / "s.json"),
            "governor": True,
            "preempt": True,
        }
    with ServiceProcess(
        socket_path=str(tmp_path / "u.sock"), topology="mci", **options
    ) as server:
        server.start()
        serve_one_flow(server)
        assert_no_openssl(server.proc.pid)
        assert server.terminate() == 0
    if flags == "every flag":
        # What the served process digested verifies here, with OpenSSL.
        report = verify_audit(
            iter_audit(options["audit"]), snapshot=options["snapshot"]
        )
        assert report["ok"], report["problems"]


@on_linux
def test_a_served_cluster_maps_no_openssl(tmp_path):
    with ClusterProcess(
        workers=2, socket_path=str(tmp_path / "c.sock"), topology="mci"
    ) as cluster:
        cluster.start()
        serve_one_flow(cluster)
        router = cluster.proc.pid
        workers = children(router)
        assert workers == sorted(cluster.worker_pids())
        for pid in [router, *workers]:
            assert_no_openssl(pid)
        assert cluster.terminate() == 0
