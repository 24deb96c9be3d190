"""The utilization ledger."""

import random

import numpy as np
import pytest

from repro.admission import UtilizationLedger
from repro.errors import AdmissionError
from repro.topology import LinkServerGraph, line_network
from repro.traffic import ClassRegistry, video_class, voice_class


@pytest.fixture()
def ledger(line4_graph, voice_registry):
    return UtilizationLedger(line4_graph, voice_registry, {"voice": 0.3})


def test_slot_arithmetic(ledger, voice):
    # floor(0.3 * 100e6 / 32000) = 937
    assert np.all(ledger.slots("voice") == 937)


def test_reserve_release_roundtrip(ledger, line4_graph):
    servers = line4_graph.route_servers(["r0", "r1", "r2"])
    ledger.reserve("voice", servers)
    assert np.all(ledger.used_view("voice")[servers] == 1)
    ledger.release("voice", servers)
    assert np.all(ledger.used_view("voice") == 0)


def test_available_respects_capacity(line4_graph, voice_registry):
    # Tiny alpha: only 3 slots per server.
    tiny = UtilizationLedger(
        line4_graph, voice_registry, {"voice": 0.001008}
    )
    servers = line4_graph.route_servers(["r0", "r1"])
    n = int(tiny.slots("voice")[servers[0]])
    assert n == 3
    for _ in range(n):
        assert tiny.available("voice", servers)
        tiny.reserve("voice", servers)
    assert not tiny.available("voice", servers)
    with pytest.raises(AdmissionError):
        tiny.reserve("voice", servers)


def test_reserve_is_atomic(line4_graph, voice_registry):
    """A failed reserve leaves no partial reservation."""
    tiny = UtilizationLedger(
        line4_graph, voice_registry, {"voice": 0.001008}
    )
    short = line4_graph.route_servers(["r1", "r2"])
    long = line4_graph.route_servers(["r0", "r1", "r2", "r3"])
    for _ in range(3):
        tiny.reserve("voice", short)  # fill the middle link
    before = tiny.used_view("voice").copy()
    with pytest.raises(AdmissionError):
        tiny.reserve("voice", long)
    np.testing.assert_array_equal(tiny.used_view("voice"), before)


def test_try_reserve_is_available_and_reserve_in_one_pass(
    line4_graph, voice_registry
):
    """``try_reserve`` answers as ``available`` and commits as
    ``reserve``; a refusal leaves the ledger unchanged, and no server
    is ever overcommitted."""
    tiny = {"voice": 0.001008}  # 3 slots per server
    one = UtilizationLedger(line4_graph, voice_registry, tiny)
    two = UtilizationLedger(line4_graph, voice_registry, tiny)
    routes = [
        line4_graph.route_servers(route)
        for route in (
            ["r0", "r1"], ["r1", "r2"], ["r2", "r3"], ["r0", "r1", "r2", "r3"]
        )
    ]
    rng = random.Random(5)
    held = []
    for _ in range(400):
        if held and rng.random() < 0.3:
            servers = held.pop(rng.randrange(len(held)))
            one.release("voice", servers)
            two.release("voice", servers)
            continue
        servers = rng.choice(routes)
        before = one.used_view("voice").copy()
        fits = two.available("voice", servers)
        assert one.try_reserve("voice", servers) == fits
        if fits:
            two.reserve("voice", servers)
            held.append(servers)
        else:
            np.testing.assert_array_equal(one.used_view("voice"), before)
        np.testing.assert_array_equal(
            one.used_view("voice"), two.used_view("voice")
        )
        assert (one.used_view("voice") <= one.slots("voice")).all()


def test_release_unreserved_raises(ledger, line4_graph):
    with pytest.raises(AdmissionError):
        ledger.release("voice", line4_graph.route_servers(["r0", "r1"]))


def test_unknown_class(ledger):
    with pytest.raises(AdmissionError):
        ledger.available("ghost", [0])


def test_missing_alpha_rejected(line4_graph, voice_registry):
    with pytest.raises(AdmissionError):
        UtilizationLedger(line4_graph, voice_registry, {})


def test_alpha_sum_capped(line4_graph):
    registry = ClassRegistry([voice_class(), video_class()])
    with pytest.raises(AdmissionError):
        UtilizationLedger(
            line4_graph, registry, {"voice": 0.6, "video": 0.6}
        )


def _utilization(ledger, class_name):
    """Fraction of link bandwidth in use by the class, per server."""
    rate = ledger.registry.get(class_name).rate
    return ledger.used_view(class_name) * rate / ledger.graph.capacities


def test_utilization_fraction(ledger, line4_graph, voice):
    servers = line4_graph.route_servers(["r0", "r1"])
    for _ in range(10):
        ledger.reserve("voice", servers)
    util = _utilization(ledger, "voice")
    assert util[servers[0]] == pytest.approx(10 * voice.rate / 100e6)
    assert util[servers[0]] <= 0.3  # never exceeds alpha


def test_utilization_never_exceeds_alpha(line4_graph, voice_registry):
    """Invariant: a full ledger still respects the configured fraction."""
    alpha = 0.01
    ledger = UtilizationLedger(line4_graph, voice_registry, {"voice": alpha})
    servers = line4_graph.route_servers(["r0", "r1"])
    while ledger.available("voice", servers):
        ledger.reserve("voice", servers)
    assert np.all(_utilization(ledger, "voice") <= alpha + 1e-12)


def test_bottleneck(ledger, line4_graph):
    servers = line4_graph.route_servers(["r1", "r2"])
    ledger.reserve("voice", servers)
    ratio = ledger.used_view("voice") / ledger.slots("voice")
    assert int(np.argmax(ratio)) == servers[0]
    assert 0 < ratio.max() <= 1


def test_total_reserved_rate(line4_graph, voice):
    registry = ClassRegistry([voice_class(), video_class()])
    ledger = UtilizationLedger(
        line4_graph, registry, {"voice": 0.3, "video": 0.3}
    )
    servers = line4_graph.route_servers(["r0", "r1"])
    ledger.reserve("voice", servers)
    ledger.reserve("video", servers)
    total = _utilization(ledger, "voice") + _utilization(ledger, "video")
    assert total[servers[0]] * 100e6 == pytest.approx(voice.rate + video_class().rate)
