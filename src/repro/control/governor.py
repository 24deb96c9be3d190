"""Runtime alpha governor: an INC/HOLD/DEC controller over a ladder.

Modeled on the GCC congestion controller's ``OveruseDetector`` +
``RemoteRateController`` pair: a detector turns the raw signal (here
the measured queue-delay and its gradient, plus the slot ledger's
occupancy headroom) into an ``overuse`` / ``normal`` / ``underuse``
verdict with hysteresis, and a rate controller maps verdicts onto
increase/hold/decrease actions — here, steps along a pre-certified
:class:`~repro.control.ladder.AlphaLadder`.

The governor is pure and deterministic: it never reads a clock and
never touches the admission controller itself.  Callers sample their
telemetry (coalescer queue, ledger occupancy), feed
:meth:`AlphaGovernor.observe`, and apply the returned per-class alphas
as the controller's limit.  Because every rung
was certified up front, any reachable operating point is provably
deadline-safe — the state machine cannot escape the ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import ConfigurationError
from .ladder import AlphaLadder

__all__ = ["AlphaGovernor", "GovernorConfig", "GovernorSample"]

#: Detector verdicts (signal states).
SIGNAL_OVERUSE = "overuse"
SIGNAL_NORMAL = "normal"
SIGNAL_UNDERUSE = "underuse"

#: Controller actions.
ACTION_INC = "inc"
ACTION_HOLD = "hold"
ACTION_DEC = "dec"


@dataclass(frozen=True)
class GovernorSample:
    """One telemetry observation fed to the governor.

    Attributes
    ----------
    queue_delay:
        Measured (or proxied) queueing delay, in seconds.  Any
        monotone proxy of backlog works — the detector keys on its
        level *and* gradient, not its absolute calibration.
    headroom:
        Fraction of effective slot capacity still free at the current
        bottleneck, in ``[0, 1]``.
    """

    queue_delay: float
    headroom: float


@dataclass(frozen=True)
class GovernorConfig:
    """Tuning knobs of the overuse detector and rate controller.

    The defaults follow the GCC shape: overuse needs the delay signal
    to sit above threshold *while rising* for ``overuse_samples``
    consecutive observations (trigger hysteresis), underuse needs the
    queue drained and real headroom for ``underuse_samples``
    observations, and after any rung change the controller holds for
    ``hold_samples`` before it may move again (rate hysteresis).
    """

    delay_threshold: float = 0.005
    gradient_threshold: float = 0.0
    headroom_low: float = 0.05
    headroom_high: float = 0.25
    overuse_samples: int = 2
    underuse_samples: int = 4
    hold_samples: int = 4

    def __post_init__(self):
        if self.delay_threshold < 0:
            raise ConfigurationError(
                f"delay_threshold must be >= 0, got {self.delay_threshold}"
            )
        if not 0.0 <= self.headroom_low <= self.headroom_high <= 1.0:
            raise ConfigurationError(
                "need 0 <= headroom_low <= headroom_high <= 1, got "
                f"{self.headroom_low} / {self.headroom_high}"
            )
        for name in ("overuse_samples", "underuse_samples", "hold_samples"):
            if getattr(self, name) < 1:
                raise ConfigurationError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )


class AlphaGovernor:
    """INC/HOLD/DEC state machine over a certified alpha ladder.

    State
    -----
    ``rung``
        Current ladder index (starts at the top — the configured
        alpha; the governor only departs from it under pressure).
    ``action``
        Last action taken (``inc`` / ``hold`` / ``dec``).
    ``signal``
        Last detector verdict.
    """

    def __init__(
        self,
        ladder: AlphaLadder,
        config: GovernorConfig = GovernorConfig(),
    ):
        self.ladder = ladder
        self.config = config
        self.rung = ladder.top
        self.action = ACTION_HOLD
        self.signal = SIGNAL_NORMAL
        self.samples = 0
        self.inc_count = 0
        self.dec_count = 0
        self.hold_count = 0
        self._prev_delay: Optional[float] = None
        self._over_streak = 0
        self._under_streak = 0
        self._since_change = config.hold_samples  # free to move at start

    # ------------------------------------------------------------------ #

    @property
    def effective_alpha(self) -> float:
        return self.ladder.rungs[self.rung]

    @property
    def alphas(self) -> Dict[str, float]:
        """The per-class alphas the current rung certified."""
        return self.ladder.class_alphas(self.rung)

    @property
    def at_top(self) -> bool:
        return self.rung == self.ladder.top

    # ------------------------------------------------------------------ #

    def _detect(self, sample: GovernorSample) -> str:
        cfg = self.config
        gradient = (
            0.0
            if self._prev_delay is None
            else sample.queue_delay - self._prev_delay
        )
        self._prev_delay = sample.queue_delay
        pressed = (
            sample.queue_delay > cfg.delay_threshold
            and gradient >= cfg.gradient_threshold
        ) or sample.headroom < cfg.headroom_low
        drained = (
            sample.queue_delay <= cfg.delay_threshold
            and sample.headroom >= cfg.headroom_high
        )
        if pressed:
            self._over_streak += 1
            self._under_streak = 0
        elif drained:
            self._under_streak += 1
            self._over_streak = 0
        else:
            self._over_streak = 0
            self._under_streak = 0
        if self._over_streak >= cfg.overuse_samples:
            return SIGNAL_OVERUSE
        if self._under_streak >= cfg.underuse_samples:
            return SIGNAL_UNDERUSE
        return SIGNAL_NORMAL

    def observe(self, sample: GovernorSample) -> Optional[Dict[str, float]]:
        """Feed one sample; returns the new rung's :attr:`alphas` iff
        the rung moved.

        ``None`` means hold — the caller's previously applied limit is
        still in force.
        """
        self.samples += 1
        self._since_change += 1
        self.signal = self._detect(sample)
        action = ACTION_HOLD
        if self._since_change >= self.config.hold_samples:
            if self.signal == SIGNAL_OVERUSE and self.rung > 0:
                action = ACTION_DEC
            elif self.signal == SIGNAL_UNDERUSE and not self.at_top:
                action = ACTION_INC
        self.action = action
        if action == ACTION_DEC:
            self.rung -= 1
            self.dec_count += 1
        elif action == ACTION_INC:
            self.rung += 1
            self.inc_count += 1
        else:
            self.hold_count += 1
            return None
        self._since_change = 0
        # A move resets the opposing streak so the next decision needs
        # fresh evidence.
        self._over_streak = 0
        self._under_streak = 0
        return self.alphas

    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[str, object]:
        """Deterministic state dump for ``/stats`` and the CLI."""
        return {
            "rung": self.rung,
            "rungs": len(self.ladder),
            "effective_alpha": self.effective_alpha,
            "base_alpha": self.ladder.base,
            "action": self.action,
            "signal": self.signal,
            "samples": self.samples,
            "inc": self.inc_count,
            "dec": self.dec_count,
            "hold": self.hold_count,
        }
