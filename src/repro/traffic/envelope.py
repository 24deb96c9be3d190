"""Piecewise-linear concave traffic envelopes (Cruz constraint functions).

The paper characterizes traffic with *traffic constraint functions*
``F(I)`` bounding the arrivals in any interval of length ``I``
(Definition 2, after Cruz).  For leaky-bucket-policed flows these are
concave piecewise-linear functions, and every operation the analysis needs
— summing flows, taking envelope minima, accounting for upstream jitter
(Theorem 2.1 of Cruz: a flow delayed by at most ``Y`` satisfies
``F'(I) = F(I + Y)``), and computing worst-case queueing delay against a
constant-rate server — stays inside that class.

:class:`Envelope` is that class, closed under :meth:`__add__`,
:meth:`minimum`, :meth:`shift` and integer :meth:`scale`.  Instances are
immutable.

Representation
--------------
``breaks_x[0] == 0`` and ``breaks_x`` strictly increasing; ``breaks_y`` are
the function values at the breakpoints; ``final_slope`` applies beyond the
last breakpoint.  Segments between breakpoints are affine.  Concavity
(non-increasing slopes) and monotonicity (non-negative slopes) are validated
at construction.  ``F(0) = breaks_y[0]`` may be positive: an envelope with a
burst admits instantaneous arrival of ``F(0)`` bits.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

from ..errors import EnvelopeError

__all__ = [
    "Envelope",
    "leaky_bucket_envelope",
]

#: Relative tolerance used when validating concavity and simplifying
#: collinear breakpoints.
_RTOL = 1e-9
_ATOL = 1e-6  # bits — far below one packet


def _as_array(values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise EnvelopeError("breakpoints must be one-dimensional")
    return arr


class Envelope:
    """A concave, nondecreasing, piecewise-linear traffic constraint function.

    Most users construct envelopes through
    :func:`leaky_bucket_envelope` or the algebra (``+``, :meth:`minimum`, :meth:`shift`, :meth:`scale`) rather
    than from raw breakpoints.
    """

    __slots__ = ("breaks_x", "breaks_y", "final_slope")

    def __init__(
        self,
        breaks_x: Sequence[float],
        breaks_y: Sequence[float],
        final_slope: float,
    ):
        x = _as_array(breaks_x)
        y = _as_array(breaks_y)
        if x.size == 0 or x.size != y.size:
            raise EnvelopeError(
                f"need equal, nonzero breakpoint counts, got {x.size}/{y.size}"
            )
        if x[0] != 0.0:
            raise EnvelopeError(f"first breakpoint must be at I=0, got {x[0]}")
        if np.any(np.diff(x) <= 0):
            raise EnvelopeError("breakpoints must be strictly increasing")
        if np.any(y < -_ATOL):
            raise EnvelopeError("envelope values must be non-negative")
        final_slope = float(final_slope)
        if final_slope < -_RTOL:
            raise EnvelopeError(f"final slope must be >= 0, got {final_slope}")

        gaps = np.diff(x)
        slopes = np.diff(y) / gaps if x.size > 1 else np.empty(0)
        all_slopes = np.concatenate([slopes, [final_slope]])
        if np.any(all_slopes < -_ATOL):
            raise EnvelopeError("envelope must be nondecreasing")
        # Concave <=> slopes non-increasing.  The tolerance must absorb
        # float rounding of the slopes themselves: each y carries up to
        # ~eps*|y| of error, so a slope over gap g is uncertain by
        # ~eps*max|y|/g — significant when operations (minimum with its
        # interpolated crossings, sums of large envelopes) produce
        # breakpoints separated by tiny gaps.
        scale = max(1.0, float(np.abs(all_slopes).max()))
        base_tol = _RTOL * scale + _ATOL
        if all_slopes.size > 1:
            eps = np.finfo(np.float64).eps
            y_scale = max(1.0, float(np.abs(y).max()))
            inv_gap = 1.0 / gaps
            # Junction i joins segment i (gap[i]) and segment i+1
            # (gap[i+1] or the final-slope region, which has no gap term).
            noise = 4.0 * eps * y_scale * (
                inv_gap + np.concatenate([inv_gap[1:], [0.0]])
            )
            if np.any(np.diff(all_slopes) > base_tol + noise):
                raise EnvelopeError(
                    "envelope must be concave (slopes decreasing)"
                )

        bx, by, fs = self._simplified(x, y, final_slope)
        object.__setattr__(self, "breaks_x", bx)
        object.__setattr__(self, "breaks_y", by)
        object.__setattr__(self, "final_slope", fs)

    def __setattr__(self, *_args):  # immutability
        raise AttributeError("Envelope is immutable")

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _simplified(
        x: np.ndarray, y: np.ndarray, final_slope: float
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        """Drop breakpoints that do not change the slope."""
        if x.size == 1:
            return x.copy(), np.maximum(y, 0.0).copy(), final_slope
        slopes_in = np.diff(y) / np.diff(x)
        slopes_out = np.concatenate([slopes_in[1:], [final_slope]])
        scale = max(1.0, float(np.abs(slopes_in).max()))
        keep = np.empty(x.size, dtype=bool)
        keep[0] = True
        keep[1:] = np.abs(slopes_in - slopes_out) > _RTOL * scale + _ATOL
        return x[keep].copy(), np.maximum(y[keep], 0.0).copy(), final_slope

    @classmethod
    def zero(cls) -> "Envelope":
        """The all-zero envelope (no traffic)."""
        return cls([0.0], [0.0], 0.0)

    @classmethod
    def affine(cls, burst: float, rate: float) -> "Envelope":
        """``F(I) = burst + rate * I`` (an unclamped leaky bucket)."""
        return cls([0.0], [burst], rate)

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def __call__(self, interval: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Evaluate ``F(I)`` (vectorized; ``I`` must be >= 0)."""
        i = np.asarray(interval, dtype=np.float64)
        if np.any(i < 0):
            raise EnvelopeError("envelope argument must be non-negative")
        inside = np.interp(i, self.breaks_x, self.breaks_y)
        x_last = self.breaks_x[-1]
        y_last = self.breaks_y[-1]
        out = np.where(
            i <= x_last, inside, y_last + self.final_slope * (i - x_last)
        )
        return float(out) if np.isscalar(interval) else out

    @property
    def burst(self) -> float:
        """Instantaneous burst ``F(0)``."""
        return float(self.breaks_y[0])

    @property
    def long_term_rate(self) -> float:
        """The sustained (final) rate of the envelope."""
        return float(self.final_slope)

    # ------------------------------------------------------------------ #
    # algebra
    # ------------------------------------------------------------------ #

    def __add__(self, other: "Envelope") -> "Envelope":
        """Aggregate envelope of two independent traffic streams."""
        if not isinstance(other, Envelope):
            return NotImplemented
        xs = np.union1d(self.breaks_x, other.breaks_x)
        ys = self(xs) + other(xs)
        return Envelope(xs, ys, self.final_slope + other.final_slope)

    def __radd__(self, other):  # supports sum()
        if other == 0:
            return self
        return self.__add__(other)

    def scale(self, n: int) -> "Envelope":
        """Aggregate of ``n`` homogeneous streams with this envelope."""
        if n < 0:
            raise EnvelopeError(f"scale factor must be >= 0, got {n}")
        if n == 0:
            return Envelope.zero()
        return Envelope(
            self.breaks_x, self.breaks_y * n, self.final_slope * n
        )

    def shift(self, delay: float) -> "Envelope":
        """Envelope after experiencing up to ``delay`` seconds of jitter.

        By Cruz's Theorem 2.1 (used in the paper's Theorem 1 proof), a flow
        that satisfied ``F`` at its source and has since been delayed by at
        most ``delay`` satisfies ``F'(I) = F(I + delay)``.
        """
        if delay < 0:
            raise EnvelopeError(f"shift delay must be >= 0, got {delay}")
        if delay == 0.0:
            return self
        x_last = self.breaks_x[-1]
        if delay >= x_last:
            # Entirely into the final-slope region.
            y0 = self.breaks_y[-1] + self.final_slope * (delay - x_last)
            return Envelope([0.0], [y0], self.final_slope)
        keep = self.breaks_x > delay
        xs = np.concatenate([[0.0], self.breaks_x[keep] - delay])
        ys = np.concatenate([[self(delay)], self.breaks_y[keep]])
        return Envelope(xs, ys, self.final_slope)

    def minimum(self, other: "Envelope") -> "Envelope":
        """Pointwise minimum (intersection of traffic constraints)."""
        if not isinstance(other, Envelope):
            raise EnvelopeError("minimum requires another Envelope")
        xs = np.union1d(self.breaks_x, other.breaks_x)
        # Add crossing points between consecutive candidates.
        diff = self(xs) - other(xs)
        crossings: List[float] = []
        for i in range(xs.size - 1):
            a, b = diff[i], diff[i + 1]
            if (a > 0 > b) or (a < 0 < b):
                t = a / (a - b)
                crossings.append(float(xs[i] + t * (xs[i + 1] - xs[i])))
        # Tail crossing beyond the last breakpoint.
        x_tail = float(xs[-1])
        d_tail = float(diff[-1])
        s_diff = self.final_slope - other.final_slope
        if d_tail != 0.0 and s_diff != 0.0:
            t = -d_tail / s_diff
            if t > 0:
                crossings.append(x_tail + t)
        if crossings:
            xs = np.union1d(xs, np.asarray(crossings))
            # Crossing interpolation is ill-conditioned where the two
            # envelopes are near-parallel: it can land microscopically
            # close to an existing breakpoint, and slopes re-derived over
            # such tiny gaps amplify float noise past the concavity
            # tolerance.  Collapse near-duplicate candidates — judged at
            # the *local* x scale: a gap is only noise if it is tiny
            # relative to where it sits, not to the whole span (a distant
            # tail crossing must not swallow a genuine vertex near 0).
            local = np.maximum(np.abs(xs[:-1]), 1.0)
            keep = np.concatenate(
                [[True], np.diff(xs) > 1e-9 * local]
            )
            xs = xs[keep]
        ys = np.minimum(self(xs), other(xs))
        # Beyond the last candidate the ordering is settled; probe one step out.
        probe = float(xs[-1]) + 1.0
        final = (
            self.final_slope if self(probe) <= other(probe) else other.final_slope
        )
        return Envelope(xs, ys, final)

    def clamp_rate(self, line_rate: float) -> "Envelope":
        """Minimum with ``C * I``: the envelope seen after a link of rate C."""
        if line_rate <= 0:
            raise EnvelopeError(f"line rate must be positive, got {line_rate}")
        return self.minimum(Envelope([0.0], [0.0], line_rate))

    # ------------------------------------------------------------------ #
    # queueing quantities vs a constant-rate server
    # ------------------------------------------------------------------ #

    def max_delay(self, service_rate: float) -> float:
        """Worst-case FIFO queueing delay against a server of given rate.

        This is the paper's general delay formula (eq. 3):
        ``d = (1/C) * max_{I>0} (F(I) - C*I)``.  Infinite (raises) if the
        long-term rate exceeds the service rate.
        """
        backlog = self.max_backlog(service_rate)
        return backlog / service_rate

    def max_backlog(self, service_rate: float) -> float:
        """Worst-case backlog ``max_I (F(I) - C*I)`` in bits."""
        if service_rate <= 0:
            raise EnvelopeError(
                f"service rate must be positive, got {service_rate}"
            )
        if self.final_slope > service_rate * (1 + _RTOL):
            raise EnvelopeError(
                f"unstable server: arrival rate {self.final_slope} exceeds "
                f"service rate {service_rate}"
            )
        # Concave F minus linear C*I is concave; max is at a breakpoint.
        values = self.breaks_y - service_rate * self.breaks_x
        return float(max(values.max(), 0.0))

    # ------------------------------------------------------------------ #
    # comparison / repr
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pts = ", ".join(
            f"({x:g}, {y:g})" for x, y in zip(self.breaks_x, self.breaks_y)
        )
        return f"Envelope([{pts}], final_slope={self.final_slope:g})"


def leaky_bucket_envelope(
    burst: float, rate: float, line_rate: float = None
) -> Envelope:
    """The paper's source envelope ``min(C*I, T + rho*I)`` (Section 3).

    Parameters
    ----------
    burst:
        Token-bucket depth ``T`` in bits.
    rate:
        Sustained rate ``rho`` in bits/second.
    line_rate:
        Optional access-link rate ``C``; when given, the envelope is clamped
        by ``C * I`` (no source can beat its own wire).
    """
    if burst < 0:
        raise EnvelopeError(f"burst must be >= 0, got {burst}")
    if rate < 0:
        raise EnvelopeError(f"rate must be >= 0, got {rate}")
    env = Envelope.affine(burst, rate)
    if line_rate is not None:
        if line_rate <= rate:
            raise EnvelopeError(
                f"line rate {line_rate} must exceed sustained rate {rate}"
            )
        env = env.clamp_rate(line_rate)
    return env

