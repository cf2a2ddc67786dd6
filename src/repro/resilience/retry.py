"""Retry policy: exponential backoff, jitter, and an error classifier.

The query engine retries a failed task only when the failure looks
*transient* — a crashed worker, a timeout, a broken executor, an
injected blip — and gives up immediately on *permanent* errors (bad
parameters, unknown algorithms) where a retry would just repeat the
rejection more slowly.

Backoff is exponential with deterministic jitter: delays for attempt
``a`` are ``base * multiplier**(a-1)``, capped at ``max_delay``, then
spread by ``±jitter`` using a RNG seeded from ``(seed, key)`` so two
runs of the same plan back off identically (and two concurrent queries
with different keys do not thunder in lockstep).

Result validation lives here too: :func:`validate_result` is the
engine's defence against *corrupted* results (a fault kind the
injection harness produces deliberately, and flaky hardware produces
accidentally).  A corrupt result raises :class:`CorruptResultError`,
which classifies as transient — rerunning the task is exactly the
right response.
"""

from __future__ import annotations

import random
import zlib
from concurrent.futures import BrokenExecutor, CancelledError
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass

__all__ = [
    "CorruptResultError",
    "RestartPolicy",
    "RetryPolicy",
    "classify_error",
    "validate_result",
]


class CorruptResultError(RuntimeError):
    """A task returned, but its result fails sanity validation."""


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently to retry transient failures.

    ``max_attempts`` counts the first try: 3 means one run plus up to
    two retries.  ``max_attempts=1`` disables retrying.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay(self, attempt: int, key: object = None) -> float:
        """Backoff before retry number ``attempt`` (1 = first retry).

        Deterministic in ``(seed, key, attempt)``; ``key`` is whatever
        identifies the work being retried (the engine passes the cache
        key) so distinct queries de-synchronise.
        """
        if attempt < 1:
            raise ValueError("attempt must be >= 1")
        delay = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if self.jitter and delay > 0:
            # crc32, not hash(): str hashing is salted per process and
            # would make the jitter irreproducible across runs
            material = repr((self.seed, key, attempt)).encode()
            rng = random.Random(zlib.crc32(material))
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


@dataclass(frozen=True)
class RestartPolicy:
    """How often and how patiently to restart a dead component.

    The supervision analogue of :class:`RetryPolicy`: ``budget`` caps
    how many restarts one component may consume before the supervisor
    declares it permanently failed, and :meth:`delay` spaces the
    attempts with the same capped exponential backoff and
    deterministic jitter the retry layer uses (so two supervised
    deployments with the same seed restart on the same schedule).
    """

    budget: int = 5
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        # delegate the remaining validation to RetryPolicy's rules
        self._backoff  # noqa: B018 — constructs, which validates

    @property
    def _backoff(self) -> RetryPolicy:
        return RetryPolicy(
            max_attempts=max(1, self.budget),
            base_delay=self.base_delay,
            max_delay=self.max_delay,
            multiplier=self.multiplier,
            jitter=self.jitter,
            seed=self.seed,
        )

    def delay(self, restart: int, key: object = None) -> float:
        """Backoff before restart number ``restart`` (1 = first restart)."""
        return self._backoff.delay(restart, key)

    def exhausted(self, restarts: int) -> bool:
        """True once ``restarts`` attempts have consumed the budget."""
        return restarts >= self.budget

    def max_recovery_seconds(self) -> float:
        """Upper bound on the total backoff a full budget can spend.

        Jitter-inclusive (worst case ``1 + jitter`` per delay) — the
        chaos drill uses this as its "recovered within the restart
        budget" deadline.
        """
        total = sum(
            min(self.base_delay * self.multiplier ** (k - 1), self.max_delay)
            for k in range(1, self.budget + 1)
        )
        return total * (1.0 + self.jitter)


def classify_error(exc: BaseException) -> str:
    """``"transient"`` (worth retrying) or ``"permanent"`` (give up).

    Transient: timeouts, broken/crashed workers, cancelled futures,
    OS-level hiccups, corrupt results, and anything carrying a truthy
    ``transient`` attribute (the injected fault exceptions do).
    Permanent: validation-style errors — ``ValueError``, ``KeyError``,
    ``TypeError`` — where the same input will fail the same way again.
    """
    if getattr(exc, "transient", False):
        return "transient"
    from repro.resilience.faults import InjectedCrashError, InjectedTransientError

    if isinstance(
        exc,
        (
            TimeoutError,
            FutureTimeoutError,  # its own class before Python 3.11
            BrokenExecutor,
            CancelledError,
            ConnectionError,
            InjectedCrashError,
            InjectedTransientError,
            CorruptResultError,
            MemoryError,
        ),
    ):
        return "transient"
    if isinstance(exc, OSError):
        return "transient"
    return "permanent"


def validate_result(result: object, *, num_nodes: int, source: int) -> None:
    """Sanity-check an SSSP result before it is cached or served.

    Raises :class:`CorruptResultError` when the result is not a
    distance vector of the right shape, the source distance is not 0,
    or any distance is negative or NaN — all impossible outcomes of a
    correct run on non-negative weights, all cheap to check, and all
    exactly what the ``corrupt`` fault kind produces.
    """
    import numpy as np

    dist = getattr(result, "dist", None)
    if dist is None:
        raise CorruptResultError(
            f"task returned {type(result).__name__}, not an SSSP result"
        )
    dist = np.asarray(dist)
    if dist.shape != (num_nodes,):
        raise CorruptResultError(
            f"distance vector has shape {dist.shape}, expected ({num_nodes},)"
        )
    if not float(dist[source]) == 0.0:
        raise CorruptResultError(
            f"distance to source is {dist[source]!r}, expected 0"
        )
    finite = dist[np.isfinite(dist)]
    if finite.size and float(finite.min()) < 0.0:
        raise CorruptResultError("negative distance in result")
    if np.isnan(dist).any():
        raise CorruptResultError("NaN distance in result")
