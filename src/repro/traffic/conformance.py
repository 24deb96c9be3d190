"""Arrival-sequence conformance checking.

Definition 2 of the paper makes an envelope a *promise about every time
window*: a packet sequence conforms to ``F`` iff for all ``i <= j`` the
bits arriving in ``[t_i, t_j]`` satisfy ``sum <= F(t_j - t_i)``.  This
module checks that promise directly — the tool for validating traffic
sources, policers, traces, or third-party generators against a class
envelope.

The exact check is quadratic in the number of packets (every window
start); :func:`check_conformance` evaluates it with vectorized NumPy and
returns the worst violation rather than a bare boolean, so callers can
distinguish "off by float noise" from "bursting at twice the bucket".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..errors import TrafficError
from .envelope import Envelope

__all__ = ["ConformanceReport", "check_conformance"]

#: Absolute slack, in bits, before a window counts as a violation —
#: far below one packet.
_DEFAULT_TOL = 1e-6


@dataclass(frozen=True)
class ConformanceReport:
    """Outcome of a conformance check.

    Attributes
    ----------
    conforms:
        True iff no window exceeds the envelope beyond tolerance.
    worst_excess:
        Largest ``arrived - F(window)`` over all windows, in bits
        (negative when the sequence has slack everywhere).
    worst_window:
        ``(start_time, end_time)`` of the worst window.
    packets:
        Number of packets checked.
    """

    conforms: bool
    worst_excess: float
    worst_window: tuple
    packets: int

    def __bool__(self) -> bool:  # truthiness == verdict
        return self.conforms


def check_conformance(
    times: Sequence[float],
    sizes: Union[float, Sequence[float]],
    envelope: Envelope,
) -> ConformanceReport:
    """Check a packet arrival sequence against an envelope.

    Parameters
    ----------
    times:
        Arrival instants, non-decreasing (seconds).  An arrival at the
        window edge counts inside the window (closed windows), matching
        the paper's ``f(t + I) - f(t) <= F(I)`` with instantaneous
        packet arrival.
    sizes:
        Per-packet sizes in bits, or one scalar for homogeneous packets.
    """
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1:
        raise TrafficError("times must be one-dimensional")
    if t.size == 0:
        return ConformanceReport(
            conforms=True, worst_excess=float("-inf"),
            worst_window=(0.0, 0.0), packets=0,
        )
    if np.any(np.diff(t) < 0):
        raise TrafficError("times must be non-decreasing")
    if np.isscalar(sizes):
        s = np.full(t.size, float(sizes))
    else:
        s = np.asarray(sizes, dtype=np.float64)
        if s.shape != t.shape:
            raise TrafficError(
                f"sizes shape {s.shape} does not match times {t.shape}"
            )
    if np.any(s <= 0):
        raise TrafficError("packet sizes must be positive")

    cum = np.cumsum(s)
    worst = float("-inf")
    worst_window = (float(t[0]), float(t[0]))
    # For each window start i, check every end j >= i at once.
    for i in range(t.size):
        windows = t[i:] - t[i]
        arrived = cum[i:] - (cum[i - 1] if i > 0 else 0.0)
        excess = arrived - envelope(windows)
        j = int(np.argmax(excess))
        if float(excess[j]) > worst:
            worst = float(excess[j])
            worst_window = (float(t[i]), float(t[i + j]))
    return ConformanceReport(
        conforms=worst <= _DEFAULT_TOL,
        worst_excess=worst,
        worst_window=worst_window,
        packets=int(t.size),
    )
