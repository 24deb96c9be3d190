"""Pre-certified ladders of utilization bounds.

An :class:`AlphaLadder` is an ascending sequence of scalar alphas whose
top rung is the configured (already verified) bound.  Every rung below
it was passed through :func:`repro.analysis.verification.\
verify_assignment` — the same Figure 2 fixed-point procedure the
configuration pipeline uses — before being admitted to the ladder, so a
runtime governor stepping between rungs can never apply an operating
point that was not proven deadline-safe.

A rung is *applied* as the per-class alphas :func:`certify_ladder`
verified (:meth:`AlphaLadder.class_alphas`): the controller's ``limit``
admits against their exact slot counts, so the count a rung grants is
the count its certificate names.  Limiting only the *effective* view
(never the verified ceiling) also means moving down a rung never
invalidates established flows: they were admitted under a certificate
that still holds, and ``verify_invariants()`` stays green throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Mapping, Sequence, Tuple, Union

from ..analysis.verification import verify_assignment
from ..errors import ConfigurationError
from ..topology.network import Network
from ..topology.servergraph import LinkServerGraph
from ..traffic.classes import ClassRegistry

__all__ = ["AlphaLadder", "certify_ladder"]


def _scaled(base_alphas: Mapping[str, float], alpha: float) -> Dict[str, float]:
    """Class ``c`` at the common scale ``alpha``: ``alpha * (base_alphas[c]
    / base)``.  ``base / base`` is exactly 1: a one-class rung is its own
    alpha, not a float an ulp off it."""
    base = max(float(a) for a in base_alphas.values())
    return {name: alpha * (float(a) / base) for name, a in base_alphas.items()}


@dataclass(frozen=True)
class AlphaLadder:
    """An ascending, fully certified sequence of scalar alphas.

    Attributes
    ----------
    rungs:
        Strictly increasing alphas; ``rungs[-1]`` is the configured
        base alpha the deployment was verified at.
    base_alphas:
        The configured per-class assignment the rungs scale.
    rejected:
        Candidate alphas that failed certification (kept for
        observability — they are *not* reachable).
    """

    rungs: Tuple[float, ...]
    base_alphas: Mapping[str, float]
    rejected: Tuple[float, ...] = field(default=())

    def __post_init__(self):
        if not self.rungs:
            raise ConfigurationError("alpha ladder needs at least one rung")
        for a, b in zip(self.rungs, self.rungs[1:]):
            if not a < b:
                raise ConfigurationError(
                    f"ladder rungs must be strictly increasing, got "
                    f"{self.rungs!r}"
                )
        for a in self.rungs:
            if not 0.0 < a:
                raise ConfigurationError(
                    f"ladder rungs must be positive, got {a!r}"
                )
        if max(self.base_alphas.values()) != self.base:
            raise ConfigurationError(f"the top rung {self.base!r} is not the largest base alpha")

    # ------------------------------------------------------------------ #

    @property
    def base(self) -> float:
        """The top rung — the configured, verified alpha."""
        return self.rungs[-1]

    @property
    def top(self) -> int:
        """Index of the top rung."""
        return len(self.rungs) - 1

    def __len__(self) -> int:
        return len(self.rungs)

    def class_alphas(self, rung: int) -> Dict[str, float]:
        """The per-class alphas certified at a rung index."""
        return _scaled(self.base_alphas, self.rungs[rung])


def certify_ladder(
    network: Union[Network, LinkServerGraph],
    routes: Sequence[Sequence[Hashable]],
    registry: ClassRegistry,
    base_alphas: Mapping[str, float],
    candidates: Sequence[float],
) -> AlphaLadder:
    """Build an :class:`AlphaLadder` from candidate alphas.

    Every candidate (plus the base alpha itself, which always tops the
    ladder) is scaled onto the deployment's per-class assignment —
    candidate ``a`` maps class ``c`` to ``a * (base_alphas[c] / base)``
    where ``base`` is the largest configured alpha — and run through
    :func:`verify_assignment`.  Only candidates whose certificate
    SUCCEEDs become rungs; the rest are recorded in
    :attr:`AlphaLadder.rejected`.

    Candidates are verified in ascending order and the base last, each
    warm-started from the delays of the last certified rung: the least
    fixed point never decreases as the common scale grows, so a lower
    rung's delays lie below every later one's.

    Raises :class:`ConfigurationError` if the base assignment itself
    fails verification (a mis-configured deployment must not start).
    """
    if not base_alphas:
        raise ConfigurationError("base_alphas must be non-empty")
    base = max(float(a) for a in base_alphas.values())
    if base <= 0:
        raise ConfigurationError(f"base alpha must be positive, got {base}")
    route_list = [list(r) for r in routes]
    warm = None

    def _certified(alpha: float) -> bool:
        nonlocal warm
        scaled = _scaled(base_alphas, alpha)
        result = verify_assignment(network, route_list, registry, scaled, warm_start=warm)
        if result.success:
            warm = result.server_delays
        return result.success

    alphas = [float(raw) for raw in candidates]
    # Above (or at) base is never a rung: the base already tops the
    # ladder and anything beyond it is outside the configured
    # certificate's envelope.
    rejected = [a for a in alphas if not 0 < a < base and a != base]
    accepted = []
    for alpha in sorted({a for a in alphas if 0 < a < base}):
        (accepted if _certified(alpha) else rejected).append(alpha)
    if not _certified(base):
        raise ConfigurationError(
            f"base alpha {base:g} fails verification; refusing to build "
            "a ladder on an uncertified configuration"
        )
    return AlphaLadder((*accepted, base), dict(base_alphas), tuple(sorted(set(rejected))))
