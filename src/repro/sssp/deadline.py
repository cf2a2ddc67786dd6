"""Per-run deadlines, so a served ``--timeout`` stops the kernel itself.

A runner turns the timeout into a ``time.monotonic()`` instant when its
task starts (:func:`deadline_after`).  Every solver loop reads it once
per iteration, sweep or round (Dijkstra every 256 pops); ``None`` costs
one ``is None`` test each.
"""

from __future__ import annotations

import time
from typing import Optional

__all__ = ["DeadlineExceeded", "check_deadline", "deadline_after"]


class DeadlineExceeded(TimeoutError):
    """A solver passed its deadline after ``iterations`` iterations, sweeps,
    rounds or (Dijkstra) pops."""

    def __init__(self, algorithm: str, iterations: int):
        super().__init__(
            f"{algorithm} passed its deadline after {iterations} iterations"
        )
        self.iterations = iterations


def check_deadline(deadline: float, algorithm: str, iterations: int) -> None:
    """Raise :class:`DeadlineExceeded` once ``time.monotonic()`` reaches it."""
    if time.monotonic() >= deadline:
        raise DeadlineExceeded(algorithm, iterations)


def deadline_after(timeout: Optional[float]) -> Optional[float]:
    """The ``time.monotonic()`` instant ``timeout`` seconds from now (None: none)."""
    return None if timeout is None else time.monotonic() + timeout
