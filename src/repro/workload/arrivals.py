"""Seeded open-loop arrival / holding-time generation.

The schedule is Poisson arrivals (rate ``arrival_rate``) with
exponential holding times — the classic telephony model behind the
paper's "admit or reject a call" framing — plus a pair index per flow
drawn from a :class:`~repro.workload.popularity.ZipfPairPopularity`.

Determinism contract
--------------------
Generation is **chunked**: arrivals ``[k * CHUNK_SIZE, (k+1) *
CHUNK_SIZE)`` always come from ``np.random.SeedSequence(seed,
spawn_key=(k,))``, so the output stream is a pure function of
``(seed, num_flows, rates, popularity)``.  The determinism tests pin
this byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import TrafficError
from .popularity import ZipfPairPopularity

__all__ = ["ArrivalSchedule", "open_loop_schedule", "ramp_schedule"]

#: Arrivals generated per independent random stream (see module docs).
CHUNK_SIZE = 4096


@dataclass(frozen=True)
class ArrivalSchedule:
    """Column-oriented open-loop workload: one row per flow.

    Attributes
    ----------
    times:
        Arrival instants, strictly sorted ascending.
    holdings:
        Per-flow holding durations (departure = arrival + holding).
    pair_indices:
        Index into the caller's pair list for each flow.
    seed:
        The seed the schedule was generated from.
    """

    times: np.ndarray
    holdings: np.ndarray
    pair_indices: np.ndarray
    seed: int

    @property
    def num_flows(self) -> int:
        return int(self.times.size)

    def departure_times(self) -> np.ndarray:
        return self.times + self.holdings


def _chunk(
    seed: int,
    k: int,
    count: int,
    arrival_rate: float,
    mean_holding: float,
    popularity: ZipfPairPopularity,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gaps / holdings / pair indices of one fixed-size chunk."""
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(k,))
    )
    gaps = rng.exponential(1.0 / arrival_rate, size=count)
    holdings = rng.exponential(mean_holding, size=count)
    pair_indices = popularity.sample(rng, count)
    return gaps, holdings, pair_indices


#: Supported overload-ramp shapes.
RAMP_SHAPES = ("linear", "step")


def _ramp_rates(
    num_flows: int, rate0: float, rate1: float, shape: str
) -> np.ndarray:
    """Per-arrival instantaneous rate along the ramp."""
    if shape == "linear":
        if num_flows == 1:
            return np.asarray([rate0], dtype=np.float64)
        return np.linspace(rate0, rate1, num_flows)
    # step: first half at rate0, second half at rate1
    rates = np.full(num_flows, rate0, dtype=np.float64)
    rates[num_flows // 2:] = rate1
    return rates


def open_loop_schedule(
    num_flows: int,
    *,
    arrival_rate: float,
    mean_holding: float,
    popularity: ZipfPairPopularity,
    seed: int = 0,
) -> ArrivalSchedule:
    """Generate a deterministic open-loop schedule of ``num_flows``."""
    if num_flows < 0:
        raise TrafficError(f"num_flows must be >= 0, got {num_flows}")
    if arrival_rate <= 0 or mean_holding <= 0:
        raise TrafficError(
            "arrival_rate and mean_holding must be positive"
        )
    counts = [
        min(CHUNK_SIZE, num_flows - start)
        for start in range(0, num_flows, CHUNK_SIZE)
    ]
    parts = [
        _chunk(seed, k, c, arrival_rate, mean_holding, popularity)
        for k, c in enumerate(counts)
    ]
    if not parts:
        empty_f = np.empty(0, dtype=np.float64)
        return ArrivalSchedule(
            times=empty_f,
            holdings=empty_f.copy(),
            pair_indices=np.empty(0, dtype=np.int64),
            seed=seed,
        )
    gaps = np.concatenate([p[0] for p in parts])
    holdings = np.concatenate([p[1] for p in parts])
    pair_indices = np.concatenate([p[2] for p in parts])
    return ArrivalSchedule(
        times=np.cumsum(gaps),
        holdings=holdings,
        pair_indices=pair_indices,
        seed=seed,
    )


def ramp_schedule(
    num_flows: int,
    *,
    arrival_rate: float,
    ramp_factor: float,
    mean_holding: float,
    popularity: ZipfPairPopularity,
    shape: str = "linear",
    seed: int = 0,
) -> ArrivalSchedule:
    """Open-loop schedule whose arrival rate ramps up to overload.

    The instantaneous rate moves from ``arrival_rate`` to
    ``arrival_rate * ramp_factor`` across the run — linearly per
    arrival index (``shape="linear"``) or as a half-way step
    (``shape="step"``).  Holding times and pair choices come from the
    exact same chunked streams as :func:`open_loop_schedule` (same
    seed ⇒ same holdings/pairs); only the inter-arrival gaps are
    rescaled by the ramp, so the result is deterministic in
    ``(seed, num_flows, rates, shape)`` and directly comparable to the
    constant-rate schedule it overloads.
    """
    if shape not in RAMP_SHAPES:
        raise TrafficError(
            f"unknown ramp shape {shape!r} (expected one of {RAMP_SHAPES})"
        )
    if ramp_factor <= 0:
        raise TrafficError(
            f"ramp_factor must be positive, got {ramp_factor}"
        )
    base = open_loop_schedule(
        num_flows,
        arrival_rate=arrival_rate,
        mean_holding=mean_holding,
        popularity=popularity,
        seed=seed,
    )
    if base.num_flows == 0:
        return base
    # base gaps are Exp(1/arrival_rate); rescale each to the ramp's
    # instantaneous rate (gap_i ~ Exp(1/rate_i)).
    gaps = np.empty(base.num_flows, dtype=np.float64)
    gaps[0] = base.times[0]
    np.subtract(base.times[1:], base.times[:-1], out=gaps[1:])
    rates = _ramp_rates(
        base.num_flows, arrival_rate, arrival_rate * ramp_factor, shape
    )
    gaps *= arrival_rate / rates
    return ArrivalSchedule(
        times=np.cumsum(gaps),
        holdings=base.holdings,
        pair_indices=base.pair_indices,
        seed=seed,
    )
