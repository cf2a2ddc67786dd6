"""Resilience: fault injection, retries, circuit breaking, guardrails.

The query service (:mod:`repro.service`) answers SSSP queries from a
worker pool; this package is its failure story, plus the controller's:

* :mod:`~repro.resilience.faults` — a seeded, deterministic
  :class:`FaultPlan` that sabotages pool tasks (crashes, hangs,
  corrupted results, transients, real process deaths) for tests, CI
  and the ``repro faults`` chaos command, plus :func:`verify_answers`,
  the Dijkstra check both chaos drills apply to every answer;
* :mod:`~repro.resilience.retry` — exponential backoff with
  deterministic jitter, a transient/permanent error classifier, and
  result sanity validation (corrupt results are caught, classified
  transient, and re-run);
* :mod:`~repro.resilience.breaker` — circuit breakers per
  ``(graph, algorithm)`` so one poisoned corridor fails fast instead
  of monopolising the pool with retry storms;
* :mod:`~repro.resilience.guard` — the controller divergence watchdog
  that degrades a blown-up adaptive run to plain near-far with the
  last-good static delta (exact distances, minus the self-tuning).

The README's *Resilience* section documents the knobs, the ``health``
op wire schema and the fallback semantics.
"""

from repro.resilience.breaker import BreakerBoard, BreakerConfig, CircuitBreaker
from repro.resilience.faults import (
    ALL_FAULT_KINDS,
    FAULT_KINDS,
    NET_FAULT_KINDS,
    WORKER_FAULT_KINDS,
    DivergentController,
    FaultPlan,
    FaultSpec,
    InjectedCrashError,
    InjectedShardCrash,
    InjectedTransientError,
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
    RetryPolicy,
    classify_error,
    validate_result,
)

__all__ = [
    "ALL_FAULT_KINDS",
    "BreakerBoard",
    "BreakerConfig",
    "CircuitBreaker",
    "CorruptResultError",
    "DivergenceGuard",
    "DivergentController",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "GuardConfig",
    "InjectedCrashError",
    "InjectedShardCrash",
    "InjectedTransientError",
    "NET_FAULT_KINDS",
    "RestartPolicy",
    "RetryPolicy",
    "ScheduledFaultPlan",
    "WORKER_FAULT_KINDS",
    "apply_fault",
    "classify_error",
    "plan_from_wire",
    "plan_to_wire",
    "validate_result",
    "verify_answers",
]
