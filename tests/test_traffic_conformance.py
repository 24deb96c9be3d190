"""Envelope conformance of packet sequences, and of the simulator's
sources.

Definition 2 of the paper makes an envelope a promise about every time
window: a packet sequence conforms to ``F`` iff for all ``i <= j`` the
bits arriving in ``[t_i, t_j]`` sum to at most ``F(t_j - t_i)``.
``check_conformance`` checks that promise directly, every window, and is
the reference the simulator's policed sources are held to.
"""

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TrafficError
from repro.simulation import PacketPattern, emission_times
from repro.traffic import leaky_bucket_envelope, voice_class


class ConformanceReport(NamedTuple):
    conforms: bool
    #: Largest ``arrived - F(window)`` over all windows, in bits.
    worst_excess: float
    #: ``(start_time, end_time)`` of the worst window.
    worst_window: tuple
    packets: int

    def __bool__(self):
        return self.conforms


def check_conformance(times, sizes, envelope, tolerance=1e-6):
    """Every closed window ``[t_i, t_j]`` against ``envelope``."""
    t = np.asarray(times, dtype=np.float64)
    if t.size == 0:
        return ConformanceReport(True, float("-inf"), (0.0, 0.0), 0)
    if np.any(np.diff(t) < 0):
        raise TrafficError("times must be non-decreasing")
    s = np.asarray(sizes, dtype=np.float64)
    if s.ndim == 0:
        s = np.full(t.shape, s)
    if s.shape != t.shape:
        raise TrafficError(f"sizes shape {s.shape} does not match times {t.shape}")
    if np.any(s <= 0):
        raise TrafficError("packet sizes must be positive")
    cum = np.cumsum(s)
    worst, window = float("-inf"), (float(t[0]), float(t[0]))
    for i in range(t.size):
        excess = cum[i:] - (cum[i - 1] if i else 0.0) - envelope(t[i:] - t[i])
        j = int(np.argmax(excess))
        if excess[j] > worst:
            worst, window = float(excess[j]), (float(t[i]), float(t[i + j]))
    return ConformanceReport(worst <= tolerance, worst, window, int(t.size))


@pytest.fixture(scope="module")
def bucket():
    return leaky_bucket_envelope(640, 32_000)


def test_empty_sequence_conforms(bucket):
    report = check_conformance([], 640, bucket)
    assert report.conforms
    assert report.packets == 0


def test_single_burst_conforms(bucket):
    assert check_conformance([0.0], 640, bucket)


def test_double_burst_violates(bucket):
    report = check_conformance([0.0, 0.0], 640, bucket)
    assert not report.conforms
    assert report.worst_excess == pytest.approx(640.0)
    assert report.worst_window == (0.0, 0.0)


def test_paced_sequence_conforms(bucket):
    times = np.arange(50) * 0.02  # 640 bits every 20 ms = exactly rho
    assert check_conformance(times, 640, bucket)


def test_slightly_fast_pacing_violates(bucket):
    times = np.arange(50) * 0.019  # 5% above the sustained rate
    report = check_conformance(times, 640, bucket)
    assert not report.conforms
    assert report.worst_excess > 0


def test_heterogeneous_sizes(bucket):
    # 320 + 320 at t=0 fills the bucket exactly; conforms.
    assert check_conformance([0.0, 0.0], [320, 320], bucket)
    # Adding one more bit's worth breaks it.
    report = check_conformance([0.0, 0.0, 0.0], [320, 320, 1], bucket)
    assert not report.conforms


def test_interior_window_detected(bucket):
    """A mid-sequence burst is caught even if the prefix is fine."""
    times = [0.0, 0.5, 0.5]  # second+third packets burst at t=0.5
    report = check_conformance(times, 640, bucket)
    assert not report.conforms
    assert report.worst_window == (0.5, 0.5)


def test_validation(bucket):
    with pytest.raises(TrafficError):
        check_conformance([1.0, 0.5], 640, bucket)  # decreasing times
    with pytest.raises(TrafficError):
        check_conformance([0.0], [640, 640], bucket)  # shape mismatch
    with pytest.raises(TrafficError):
        check_conformance([0.0], 0.0, bucket)  # non-positive size


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["greedy", "periodic", "poisson"]),
    size=st.sampled_from([160, 320, 640]),
    seed=st.integers(min_value=0, max_value=500),
)
def test_prop_policed_sources_conform(kind, size, seed):
    """Every simulator source is envelope-compliant by construction."""
    vc = voice_class()
    times = emission_times(
        PacketPattern(kind, packet_size=size, seed=seed), vc, horizon=0.5
    )
    report = check_conformance(times, size, vc.envelope())
    assert report.conforms, (
        f"{kind} source violated the envelope by "
        f"{report.worst_excess:.3f} bits at {report.worst_window}"
    )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=500),
)
def test_prop_violations_are_localized(seed):
    """Injecting one extra burst into a conforming sequence is detected
    with the right window."""
    vc = voice_class()
    times = emission_times(
        PacketPattern("periodic", packet_size=640, seed=seed),
        vc,
        horizon=0.4,
    )
    if times.size < 3:
        return
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, times.size))
    corrupted = np.sort(np.concatenate([times, [times[k]]]))
    report = check_conformance(corrupted, 640, vc.envelope())
    assert not report.conforms
