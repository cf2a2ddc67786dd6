"""Restart backoff and result validation.

:class:`RestartPolicy` is how the shard supervisor
(:mod:`repro.net.supervisor`) paces the restarts of a dead shard: a
budget of attempts, spaced by capped exponential backoff with
deterministic jitter.  The delay before restart ``r`` is ``base *
multiplier**(r-1)``, capped at ``max_delay``, then spread by
``±jitter`` using a RNG seeded from ``(seed, key, r)``, so two runs
with the same seed restart on the same schedule and two shards with
different keys do not restart in lockstep.

:func:`validate_result` is the engine's check on every pool result
before it is cached or answered.  A result that fails it raises
:class:`CorruptResultError`, and the engine answers each member of
that task with the error once: the kernels are deterministic, so a
rerun would compute the same result again.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

__all__ = [
    "CorruptResultError",
    "RestartPolicy",
    "validate_result",
]


class CorruptResultError(RuntimeError):
    """A task returned, but its result fails sanity validation."""


@dataclass(frozen=True)
class RestartPolicy:
    """How often and how patiently to restart a dead component.

    ``budget`` caps how many restarts one component may consume before
    the supervisor declares it permanently failed, and :meth:`delay`
    spaces the attempts with capped exponential backoff and
    deterministic jitter (so two supervised deployments with the same
    seed restart on the same schedule).
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
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay(self, restart: int, key: object = None) -> float:
        """Backoff before restart number ``restart`` (1 = first restart).

        Deterministic in ``(seed, key, restart)``; ``key`` names the
        component being restarted (the supervisor passes ``shard:i``)
        so distinct components de-synchronise.
        """
        if restart < 1:
            raise ValueError("restart must be >= 1")
        delay = min(
            self.base_delay * self.multiplier ** (restart - 1), self.max_delay
        )
        if self.jitter and delay > 0:
            # crc32, not hash(): str hashing is salted per process and
            # would make the jitter irreproducible across runs
            material = repr((self.seed, key, restart)).encode()
            rng = random.Random(zlib.crc32(material))
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay

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


def validate_result(result: object, *, num_nodes: int, source: int) -> None:
    """Sanity-check an SSSP result before it is cached or served.

    Raises :class:`CorruptResultError` when the result is not a
    distance vector of the right shape, the source distance is not 0,
    or any distance is negative or NaN — all impossible outcomes of a
    correct run on non-negative weights, and all cheap to check.
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
