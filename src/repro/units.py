"""Unit helpers.

The library's canonical units are **bits** for traffic volume, **bits per
second** for rates and capacities, and **seconds** for time.  These helpers
exist so scenario code can say ``rate=kbps(32)`` instead of ``rate=32_000.0``
and stay readable.

All helpers return plain ``float`` values; they are conversion functions, not
unit-carrying types, which keeps the numeric kernels free of wrapper
overhead (see the HPC guides: keep hot paths on plain ndarrays/floats).
"""

from __future__ import annotations

__all__ = ["kbps", "mbps", "milliseconds"]


def kbps(value: float) -> float:
    """*value* kilobits per second, in bits per second."""
    return float(value) * 1e3


def mbps(value: float) -> float:
    """*value* megabits per second, in bits per second."""
    return float(value) * 1e6


def milliseconds(value: float) -> float:
    """*value* milliseconds, in seconds."""
    return float(value) * 1e-3
