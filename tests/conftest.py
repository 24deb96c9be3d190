"""Shared fixtures for the test suite."""

from __future__ import annotations

import hashlib
import json
import os

import pytest

try:
    from hypothesis import HealthCheck, settings

    # "ci" pins a derandomized, example-capped profile so property tests
    # are reproducible and uniformly budgeted on shared runners; "dev"
    # is the library default.  Select with HYPOTHESIS_PROFILE=ci.
    settings.register_profile(
        "ci",
        derandomize=True,
        max_examples=50,
        deadline=None,
        print_blob=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile("dev", settings.default)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover - hypothesis always in test deps
    pass

from repro.obs import NULL_REGISTRY, OBS
from repro.topology import (
    LinkServerGraph,
    Network,
    line_network,
    mci_backbone,
    ring_network,
)
from repro.traffic import ClassRegistry, voice_class
from repro.traffic.generators import all_ordered_pairs


@pytest.fixture(autouse=True)
def _obs_isolation():
    """Reset the global observability switchboard around every test.

    ``repro.obs.OBS`` is process-global state: a test that calls
    ``obs.enable()`` and forgets to disable would leak a live registry
    into every later test, and accumulated counters from one suite
    would bleed into another's assertions.  Saving and restoring the
    three switchboard slots makes each test start from whatever state
    the session had at collection time (normally: disabled, null
    registry, no tracer) regardless of what the previous test did.
    """
    saved = (OBS.enabled, OBS.registry, OBS.tracer)
    yield
    OBS.enabled, OBS.registry, OBS.tracer = saved
    # The restored registry may itself have been mutated by the test
    # (same object); only the pristine null twin is guaranteed clean.
    if OBS.registry is not NULL_REGISTRY:
        OBS.registry.reset()
    if OBS.tracer is not None:
        OBS.tracer.reset()


@pytest.fixture(scope="session")
def mci() -> Network:
    """The reconstructed MCI backbone (session-scoped; read-only)."""
    return mci_backbone()


@pytest.fixture(scope="session")
def mci_graph(mci) -> LinkServerGraph:
    return LinkServerGraph(mci)


@pytest.fixture(scope="session")
def mci_pairs(mci):
    return all_ordered_pairs(mci)


@pytest.fixture()
def line4() -> Network:
    """A 4-router chain r0--r1--r2--r3 (fresh per test)."""
    return line_network(4)


@pytest.fixture()
def line4_graph(line4) -> LinkServerGraph:
    return LinkServerGraph(line4)


@pytest.fixture()
def ring6() -> Network:
    return ring_network(6)


@pytest.fixture(scope="session")
def voice():
    """The paper's VoIP class (T=640 b, rho=32 kbps, D=100 ms)."""
    return voice_class()


@pytest.fixture(scope="session")
def voice_registry(voice) -> ClassRegistry:
    return ClassRegistry.two_class(voice)


@pytest.fixture(scope="session")
def stream_digest():
    """sha256 over ``(time, kind, flow_id, source, destination)`` rows
    of a workload timeline (a departure takes its endpoints from the
    flow's arrival) — how the generator streams are pinned."""

    def digest(events) -> str:
        pairs = {
            e.flow_id: (e.source, e.destination)
            for e in events
            if e.kind == "arrival"
        }
        rows = [
            [repr(float(e.time)), e.kind, e.flow_id, *pairs[e.flow_id]]
            for e in events
        ]
        return hashlib.sha256(json.dumps(rows).encode()).hexdigest()

    return digest
