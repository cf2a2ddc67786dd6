"""Resilience: drill helpers, restart backoff, guardrails.

The query service (:mod:`repro.service`) answers SSSP queries from a
worker pool; this package is its failure story, plus the controller's:

* :mod:`~repro.resilience.faults` — :class:`InjectedShardCrash`, the
  dispatcher death the ``repro chaos-net`` drill arms on a live shard
  (its other kind SIGKILLs a real worker process), and
  :func:`verify_answers`, the Dijkstra check that drill applies to
  every answer;
* :mod:`~repro.resilience.retry` — :class:`RestartPolicy`, the
  supervisor's restart budget and deterministic backoff, and result
  sanity validation (a corrupt result fails its query once and is
  never cached);
* :mod:`~repro.resilience.guard` — the controller divergence watchdog
  that degrades a blown-up adaptive run to plain near-far with the
  last-good static delta (exact distances, minus the self-tuning).

The README's *Resilience* section documents the knobs, the ``health``
op wire schema and the fallback semantics.
"""

from repro.resilience.faults import (
    DivergentController,
    InjectedShardCrash,
    verify_answers,
)
from repro.resilience.guard import DivergenceGuard, GuardConfig
from repro.resilience.retry import (
    CorruptResultError,
    RestartPolicy,
    validate_result,
)

__all__ = [
    "CorruptResultError",
    "DivergenceGuard",
    "DivergentController",
    "GuardConfig",
    "InjectedShardCrash",
    "RestartPolicy",
    "validate_result",
    "verify_answers",
]
