"""Pre-certified ladders of utilization bounds.

An :class:`AlphaLadder` is an ascending sequence of scalar alphas whose
top rung is the configured (verified) bound.  :func:`certify_ladder`
passes that base through :func:`repro.analysis.verification.\
verify_assignment` — the same Figure 2 fixed-point procedure the
configuration pipeline uses — and admits every candidate below it by
monotonicity, so a runtime governor stepping between rungs can never
apply an operating point that was not proven deadline-safe.

The argument: a rung scales every class's alpha by the same factor
below one.  Theorem 3's ``beta = alpha (N - 1) / (rho (N - alpha))``
grows with alpha, and ``Z`` is monotone in the delays, so the base's
least fixed point ``d*`` satisfies ``Z_rung(d*) <= Z_base(d*) = d*``:
it is a post-fixed point of every lower rung's map, and by
Knaster-Tarski each lower rung's least fixed point lies below it.  The
iteration from zero converges there, and every route's delay is at
most the base's, which met its deadline.  ``tests/test_config_search.py``
pins the lemma for Theorem 3 and Theorem 5, and
``tests/test_control_plane.py`` re-verifies every admitted rung.

A rung is *applied* as the per-class alphas :func:`certify_ladder`
certified (:meth:`AlphaLadder.class_alphas`): the controller's ``limit``
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

    The base assignment — ``base_alphas``, whose largest alpha ``base``
    tops the ladder — is run through :func:`verify_assignment`.  Every
    candidate in ``(0, base)`` becomes a rung: scaled onto the
    deployment's per-class assignment (candidate ``a`` maps class ``c``
    to ``a * (base_alphas[c] / base)``), it is certified by the base's
    own fixed point (see the module docstring).  The other candidates
    are recorded in :attr:`AlphaLadder.rejected`.

    Raises :class:`ConfigurationError` if the base assignment itself
    fails verification (a mis-configured deployment must not start).
    """
    if not base_alphas:
        raise ConfigurationError("base_alphas must be non-empty")
    base = max(float(a) for a in base_alphas.values())
    if base <= 0:
        raise ConfigurationError(f"base alpha must be positive, got {base}")
    verdict = verify_assignment(
        network, [list(r) for r in routes], registry,
        _scaled(base_alphas, base),
    )
    if not verdict.success:
        raise ConfigurationError(
            f"base alpha {base:g} fails verification; refusing to build "
            "a ladder on an uncertified configuration"
        )
    alphas = {float(raw) for raw in candidates}
    # Above the base is outside the configured certificate's envelope;
    # the base itself already tops the ladder.
    rungs = sorted(a for a in alphas if 0 < a < base)
    rejected = sorted(a for a in alphas if not 0 < a <= base)
    return AlphaLadder((*rungs, base), dict(base_alphas), tuple(rejected))
