"""Link-failure repair of a configured network.

When a physical link dies, only the routes that traversed it need new
paths — everything else keeps its verified configuration.  This module
implements that incremental workflow on top of the Section 5.2 machinery:

1. partition the configured routes into survivors and casualties;
2. re-run the greedy safe selection for the casualties *only*, on the
   degraded topology, with the survivors pre-committed into every safety
   check (so repairs cannot invalidate surviving guarantees);
3. re-verify the merged route set and return a fresh
   :class:`~repro.config.configured.ConfiguredNetwork`.

The repaired configuration keeps the original utilization assignment: if
no safe repair exists at that level, the result reports failure and the
operator must either lower ``alpha`` or shed demand — exactly the
trade-off the paper's configuration procedures expose.  The runtime
chaos harness (:mod:`repro.faults`) automates that fallback: on a failed
repair it drops into a degraded admission mode and re-routes on
uncertified shortest paths under a reduced effective ``alpha``.

The greedy selection reuses the incremental
:class:`~repro.analysis.routesystem.GrowableRouteSystem` kernels, so an
*online* repair costs one candidate search over the casualties only —
survivor routes are pushed once and shared across every candidate probe.
Repeated repairs (a chaos schedule with several failures) can pass a
pre-built :class:`~repro.routing.heuristic.SafeRouteSelector` via
``selector=`` to share its candidate/beta caches across invocations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Hashable, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError, TopologyError
from ..obs import OBS
from ..routing.heuristic import HeuristicOptions, SafeRouteSelector
from ..routing.partition import partition_by_link
from ..topology.network import Network
from .configured import ConfiguredNetwork

__all__ = ["RepairResult", "repair_after_link_failure", "repair_routes"]

Pair = Tuple[Hashable, Hashable]


@dataclass
class RepairResult:
    """Outcome of a link-failure repair.

    Attributes
    ----------
    success:
        True iff every affected pair found a safe replacement route.
    affected_pairs:
        Pairs whose routes traversed the failed link.
    repaired:
        The new verified configuration (None on failure).
    failed_pair:
        First pair with no safe candidate, on failure.
    reason:
        Human-readable cause on failure (empty on success), e.g. the
        removal disconnecting the network, or safe selection failing at
        ``failed_pair``.
    """

    success: bool
    failed_link: Tuple[Hashable, Hashable]
    affected_pairs: List[Pair]
    repaired: Optional[ConfiguredNetwork]
    failed_pair: Optional[Pair]
    reason: str = ""


def repair_routes(
    cfg: ConfiguredNetwork,
    degraded: Network,
    affected: Sequence[Pair],
    survivors: Mapping[Pair, Sequence[Hashable]],
    *,
    options: HeuristicOptions = HeuristicOptions(),
    selector: Optional[SafeRouteSelector] = None,
) -> Tuple[Optional[ConfiguredNetwork], Optional[Pair], str]:
    """Safe re-selection of ``affected`` pairs on a degraded topology.

    The generalized core of :func:`repair_after_link_failure`, usable
    for any failure shape (single link, several links, a dead router):
    the caller partitions routes and supplies the degraded network;
    this function runs the greedy safe selection for the casualties with
    the survivors pre-committed, merges, re-verifies and returns
    ``(repaired, failed_pair, reason)`` — ``repaired`` is None when no
    safe repair exists.

    ``selector`` lets repeated repairs share one warm
    :class:`SafeRouteSelector` (candidate and beta caches persist across
    calls); it must have been built on ``degraded`` with the same class
    and ``n_mode``.
    """
    rt = cfg.registry.realtime_classes()
    if len(rt) != 1:
        raise ConfigurationError(
            "failure repair currently supports a single real-time class"
        )
    cls = rt[0]
    alpha = float(cfg.alphas[cls.name])
    if selector is None:
        selector = SafeRouteSelector(
            degraded, cls, options=options, n_mode=cfg.n_mode
        )
    outcome = selector.select(
        list(affected), alpha, fixed_routes=list(survivors.values())
    )
    if not outcome.success:
        return (
            None,
            outcome.failed_pair,
            f"no safe replacement route for pair {outcome.failed_pair!r} "
            f"at alpha={alpha:g}",
        )
    merged = {pair: list(path) for pair, path in survivors.items()}
    merged.update(outcome.routes)
    repaired = ConfiguredNetwork(
        network=degraded,
        registry=cfg.registry,
        alphas=dict(cfg.alphas),
        routes=merged,
        n_mode=cfg.n_mode,
    )
    return repaired, None, ""


def repair_after_link_failure(
    cfg: ConfiguredNetwork,
    failed_link: Tuple[Hashable, Hashable],
    *,
    options: HeuristicOptions = HeuristicOptions(),
    selector: Optional[SafeRouteSelector] = None,
) -> RepairResult:
    """Re-route the routes broken by a link failure, keeping the rest.

    Only single-real-time-class configurations are supported (the same
    scope as the Section 5.2 selector); the repaired bundle is re-verified
    before being returned.  A removal that would disconnect the network
    is reported as a failed repair (``reason`` says so) rather than an
    exception — the runtime fallback for both is the same: shed or
    degrade.
    """
    started = time.perf_counter()
    u, v = failed_link
    try:
        degraded: Network = cfg.network.without_link(u, v)
    except TopologyError as exc:
        _record_repair("disconnected", started)
        return RepairResult(
            success=False,
            failed_link=failed_link,
            affected_pairs=list(cfg.routes),
            repaired=None,
            failed_pair=None,
            reason=str(exc),
        )

    survivors, affected = partition_by_link(cfg.routes, failed_link)

    if not affected:
        # Nothing traversed the link; the old certificate still holds on
        # the degraded network (removing capacity no route uses changes
        # nothing), but rebuild against the degraded topology for hygiene.
        repaired = ConfiguredNetwork(
            network=degraded,
            registry=cfg.registry,
            alphas=dict(cfg.alphas),
            routes=dict(survivors),
            n_mode=cfg.n_mode,
        )
        _record_repair("noop", started)
        return RepairResult(
            success=True,
            failed_link=failed_link,
            affected_pairs=[],
            repaired=repaired,
            failed_pair=None,
        )

    repaired, failed_pair, reason = repair_routes(
        cfg,
        degraded,
        affected,
        survivors,
        options=options,
        selector=selector,
    )
    if repaired is None:
        _record_repair("no_safe_repair", started)
        return RepairResult(
            success=False,
            failed_link=failed_link,
            affected_pairs=affected,
            repaired=None,
            failed_pair=failed_pair,
            reason=reason,
        )
    _record_repair("success", started)
    return RepairResult(
        success=True,
        failed_link=failed_link,
        affected_pairs=affected,
        repaired=repaired,
        failed_pair=None,
    )


def _record_repair(outcome: str, started: float) -> None:
    if not OBS.enabled:
        return
    reg = OBS.registry
    reg.counter("repro_repair_attempts_total", outcome=outcome).inc()
    reg.histogram("repro_repair_seconds").observe(
        time.perf_counter() - started
    )
