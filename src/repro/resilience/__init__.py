"""Resilience: fault injection, restart backoff, guardrails.

The query service (:mod:`repro.service`) answers SSSP queries from a
worker pool; this package is its failure story, plus the controller's:

* :mod:`~repro.resilience.faults` — a seeded, deterministic
  :class:`FaultPlan` that sabotages pool tasks (hangs) and the serving
  tiers above them (shard and worker deaths) for tests, CI and the
  ``repro chaos-net`` drill, plus :func:`verify_answers`, the Dijkstra
  check that drill applies to every answer;
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
    ALL_FAULT_KINDS,
    FAULT_KINDS,
    NET_FAULT_KINDS,
    WORKER_FAULT_KINDS,
    DivergentController,
    FaultPlan,
    FaultSpec,
    InjectedShardCrash,
    ScheduledFaultPlan,
    apply_fault,
    plan_from_wire,
    plan_to_wire,
    verify_answers,
)
from repro.resilience.guard import DivergenceGuard, GuardConfig
from repro.resilience.retry import (
    CorruptResultError,
    RestartPolicy,
    validate_result,
)

__all__ = [
    "ALL_FAULT_KINDS",
    "CorruptResultError",
    "DivergenceGuard",
    "DivergentController",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "GuardConfig",
    "InjectedShardCrash",
    "NET_FAULT_KINDS",
    "RestartPolicy",
    "ScheduledFaultPlan",
    "WORKER_FAULT_KINDS",
    "apply_fault",
    "plan_from_wire",
    "plan_to_wire",
    "validate_result",
    "verify_answers",
]
