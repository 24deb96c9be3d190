"""Controller failure recovery: snapshot / restore."""

import numpy as np
import pytest

from repro.admission import UtilizationAdmissionController
from repro.errors import AdmissionError
from repro.routing import shortest_path_routes
from repro.traffic import FlowSpec


@pytest.fixture()
def setup(mci, mci_graph, voice_registry):
    pairs = [
        ("Seattle", "Miami"),
        ("Boston", "Phoenix"),
        ("Chicago", "Dallas"),
    ]
    routes = shortest_path_routes(mci, pairs)

    def make():
        return UtilizationAdmissionController(
            mci_graph, voice_registry, {"voice": 0.3}, routes
        )

    return make, pairs


def _populate(ctrl, pairs, n=30):
    for i in range(n):
        src, dst = pairs[i % len(pairs)]
        assert ctrl.admit(FlowSpec(i, "voice", src, dst)).admitted


def test_snapshot_restore_rebuilds_ledger(setup):
    make, pairs = setup
    original = make()
    _populate(original, pairs)
    snap = original.snapshot()

    recovered = make()
    recovered.restore(snap)
    assert recovered.num_established == original.num_established
    np.testing.assert_array_equal(
        recovered.ledger.used_view("voice"), original.ledger.used_view("voice")
    )


def test_restored_controller_keeps_working(setup):
    make, pairs = setup
    original = make()
    _populate(original, pairs)
    recovered = make()
    recovered.restore(original.snapshot())
    # Established flows can be released and new ones admitted.
    recovered.release(0)
    assert recovered.admit(
        FlowSpec("new", "voice", "Seattle", "Miami")
    ).admitted


def test_snapshot_is_json_compatible(setup):
    import json

    make, pairs = setup
    ctrl = make()
    _populate(ctrl, pairs, n=5)
    text = json.dumps(ctrl.snapshot())
    recovered = make()
    recovered.restore(json.loads(text))
    assert recovered.num_established == 5


def test_restore_requires_fresh_controller(setup):
    make, pairs = setup
    original = make()
    _populate(original, pairs, n=3)
    busy = make()
    _populate(busy, pairs, n=1)
    with pytest.raises(AdmissionError):
        busy.restore(original.snapshot())


def test_restore_rejects_alpha_mismatch(setup, mci_graph, voice_registry):
    make, pairs = setup
    original = make()
    _populate(original, pairs, n=3)
    other = UtilizationAdmissionController(
        mci_graph, voice_registry, {"voice": 0.2},
        original.route_map,
    )
    with pytest.raises(AdmissionError):
        other.restore(original.snapshot())


def test_empty_snapshot_roundtrip(setup):
    make, _ = setup
    ctrl = make()
    recovered = make()
    recovered.restore(ctrl.snapshot())
    assert recovered.num_established == 0
