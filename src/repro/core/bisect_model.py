"""BISECT-MODEL (paper Section 4.4).

Learns the linear response of the next frontier size to a delta change:

    X̂_{k+1}^(1) = X_k^(4) + α · Δδ_k

``α`` is the local density of postponed vertices per unit of delta —
how many far-queue vertices a unit widening of the near window pulls
in.  Fitted with Algorithm 1, derivatives taken with respect to α:

    ∇_α  = −2 (X_{k+1}^(1) − X_k^(4) − α·Δδ_k) Δδ_k
    ∇²_α =  2 (Δδ_k)²

Iterations with ``Δδ = 0`` carry no information about α and are skipped
(the paper's Eq. 4 note: Δδ = 0 means the frontier passes through
unchanged).  The paper reports α converging after ~5 iterations; before
that, the controller uses the Eq. 8 bootstrap instead of this model —
exposed here via :attr:`converged`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.sgd import AdaptiveSGD, FixedRateSGD, make_sgd

__all__ = ["ALPHA_MIN", "BOOTSTRAP_UPDATES", "INITIAL_ALPHA", "BisectModel"]

INITIAL_ALPHA = 1.0  # seed of the learned α; the Eq. 8 bootstrap rules early steps
# positivity floor: α divides the delta update (Eq. 6), and a negative
# learned α would mean "widening the window removes vertices"
ALPHA_MIN = 1e-6
BOOTSTRAP_UPDATES = 5  # Algorithm-1 steps before α counts as converged (paper: ~5)


@dataclass
class BisectModel:
    """Online estimator of the frontier-size sensitivity to delta changes.

    α starts at :data:`INITIAL_ALPHA`, never drops below
    :data:`ALPHA_MIN`, and counts as converged after
    :data:`BOOTSTRAP_UPDATES` steps.  ``sgd_mode`` is ``'adaptive'``
    for the paper's Algorithm 1, ``'fixed'`` for the fixed-rate ablation.
    """

    sgd_mode: str = "adaptive"
    sgd: AdaptiveSGD | FixedRateSGD = field(init=False)

    def __post_init__(self) -> None:
        self.sgd = make_sgd(self.sgd_mode, INITIAL_ALPHA)

    @property
    def alpha(self) -> float:
        return max(self.sgd.value, ALPHA_MIN)

    @property
    def updates(self) -> int:
        return self.sgd.updates

    @property
    def converged(self) -> bool:
        return self.sgd.updates >= BOOTSTRAP_UPDATES

    def observe(self, x4: int, delta_change: float, x1_next: int) -> None:
        """Algorithm-1 step from one (X^(4), Δδ, X^(1)_next) triple."""
        if x4 < 0 or x1_next < 0:
            raise ValueError("stage workloads must be non-negative")
        if delta_change == 0.0:
            return
        sgd = self.sgd
        residual = float(x1_next) - (float(x4) + sgd.value * delta_change)
        grad = -2.0 * residual * delta_change
        if sgd.update(grad, 2.0 * delta_change * delta_change) < ALPHA_MIN:
            sgd.value = ALPHA_MIN

    def predict(self, x4: int, delta_change: float) -> float:
        """``X̂_{k+1}^(1)`` after applying ``delta_change`` to a frontier of ``x4``."""
        return float(x4) + self.alpha * delta_change
