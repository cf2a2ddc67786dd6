"""Controller divergence watchdog (graceful degradation to near-far).

The set-point controller learns ``d`` and ``α`` by SGD (paper Eq. 6 /
Algorithm 1).  On well-behaved inputs it settles in a handful of
iterations; on adversarial degree distributions a learned model can
blow up — NaN deltas out of a degenerate α, runaway deltas from a
mis-scaled gradient, or limit-cycle oscillation where every update
slams the slew-rate limiter in alternating directions.

Correctness never depends on the controller (near+far is
label-correcting under any delta schedule), but *termination in
reasonable time* does: a NaN delta stalls the window, a runaway delta
degrades the run to Bellman-Ford-ish behaviour.  The
:class:`DivergenceGuard` watches every decision and tells the stepper
to **fall back to a static delta** — the last decision that still
looked sane — turning the rest of the run into plain near-far.  The
run completes with exact distances; only the self-tuning is lost.

Detection rules (any one trips the guard):

* **non-finite** — δ is NaN/±inf or not positive;
* **runaway** — δ left ``[initial/max_ratio, initial*max_ratio]``;
* **oscillation** — over the last ``window`` decisions the δ-change
  sign alternated every time *and* the mean |Δδ| exceeded
  ``oscillation_ratio`` × the mean δ (the controller is slamming its
  slew limiter back and forth), or the advance workload X^(2) did the
  equivalent with swings above ``oscillation_ratio`` × its mean.

Thresholds are deliberately conservative: a settling controller
under-shoots and corrects, which is two or three alternations, not
``window`` of them at full amplitude.

The sign test is incremental (the guard runs every iteration): each
series counts its run of alternating nonzero diffs, and the means are
summed only once that run spans the window.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Optional

__all__ = ["GuardConfig", "DivergenceGuard"]


@dataclass(frozen=True)
class GuardConfig:
    """Watchdog thresholds (see module docstring for the rules)."""

    window: int = 8
    max_ratio: float = 1e9
    oscillation_ratio: float = 1.5

    def __post_init__(self) -> None:
        if self.window < 3:
            raise ValueError("window must be >= 3")
        if self.max_ratio <= 1.0:
            raise ValueError("max_ratio must be > 1")
        if self.oscillation_ratio <= 0:
            raise ValueError("oscillation_ratio must be positive")


class _Series:
    """One watched series: its last ``window`` values, and the length of
    the run of nonzero sign-alternating diffs ending at the newest."""

    __slots__ = ("values", "run", "rising")

    def __init__(self, window: int):
        self.values, self.run, self.rising = deque(maxlen=window), 0, False

    def oscillates(self, value: float, ratio: float) -> bool:
        """Append ``value``; True when every diff in the window is
        nonzero and flips the sign of the one before it, and the mean
        |diff| exceeds ``ratio`` × the mean |value|."""
        values = self.values
        if values:
            diff = value - values[-1]
            if diff == 0.0:
                self.run = 0
            else:
                rising = diff > 0
                self.run = self.run + 1 if rising != self.rising else 1
                self.rising = rising
        values.append(value)
        if self.run < values.maxlen - 1:
            return False
        mean_level = sum(abs(v) for v in values) / len(values)
        if mean_level <= 0:
            return False
        diffs = [b - a for a, b in zip(values, islice(values, 1, None))]
        return sum(abs(d) for d in diffs) / len(diffs) > ratio * mean_level


class DivergenceGuard:
    """Observes (δ, X^(2)) per iteration; remembers the last good δ."""

    def __init__(self, initial_delta: float, config: GuardConfig | None = None):
        if not (math.isfinite(initial_delta) and initial_delta > 0):
            raise ValueError("initial_delta must be finite and positive")
        self.config = config or GuardConfig()
        self.initial_delta = initial_delta
        self.last_good_delta = initial_delta
        self.diverged = False
        self.reason: Optional[str] = None
        self._deltas = _Series(self.config.window)
        self._x2s = _Series(self.config.window)

    def observe(self, delta: float, x2: float) -> bool:
        """Feed one decision; returns True the moment divergence is seen.

        After tripping, the guard latches: further observations keep
        returning True and ``last_good_delta`` stays frozen.
        """
        if self.diverged:
            return True
        cfg = self.config
        if not (math.isfinite(delta) and delta > 0):
            return self._trip(f"non-finite delta {delta!r}")
        if delta > self.initial_delta * cfg.max_ratio or (
            delta < self.initial_delta / cfg.max_ratio
        ):
            return self._trip(
                f"runaway delta {delta:.3g} "
                f"(initial {self.initial_delta:.3g}, ratio limit {cfg.max_ratio:g})"
            )
        delta = float(delta)
        if self._deltas.oscillates(delta, cfg.oscillation_ratio):
            return self._trip("oscillating delta (alternating slew-limit steps)")
        if self._x2s.oscillates(float(x2), cfg.oscillation_ratio):
            return self._trip("oscillating advance workload X^(2)")
        self.last_good_delta = delta
        return False

    def _trip(self, reason: str) -> bool:
        self.diverged = True
        self.reason = reason
        return True
