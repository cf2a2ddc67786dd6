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

__all__ = ["BisectModel"]


@dataclass
class BisectModel:
    """Online estimator of the frontier-size sensitivity to delta changes.

    Parameters
    ----------
    initial_alpha:
        Seed for α.  Any positive value works; the bootstrap dominates
        early iterations anyway.
    alpha_min:
        Positivity floor: α divides the delta update (Eq. 6).  A
        negative learned α would mean "widening the window removes
        vertices", which is physically impossible — clamping keeps the
        controller stable when noise drives the raw estimate negative.
    convergence_updates:
        How many Algorithm-1 steps count as "converged" (paper: ~5).
    sgd_mode:
        ``'adaptive'`` for the paper's Algorithm 1, ``'fixed'`` for the
        fixed-rate ablation.
    """

    initial_alpha: float = 1.0
    alpha_min: float = 1e-6
    convergence_updates: int = 5
    sgd_mode: str = "adaptive"
    sgd: AdaptiveSGD | FixedRateSGD = field(init=False)

    def __post_init__(self) -> None:
        if self.initial_alpha <= 0:
            raise ValueError("initial_alpha must be positive")
        self.sgd = make_sgd(self.sgd_mode, float(self.initial_alpha))

    @property
    def alpha(self) -> float:
        return max(self.sgd.value, self.alpha_min)

    @property
    def updates(self) -> int:
        return self.sgd.updates

    @property
    def converged(self) -> bool:
        return self.sgd.updates >= self.convergence_updates

    def observe(self, x4: int, delta_change: float, x1_next: int) -> None:
        """Algorithm-1 step from one (X^(4), Δδ, X^(1)_next) triple."""
        if x4 < 0 or x1_next < 0:
            raise ValueError("stage workloads must be non-negative")
        if delta_change == 0.0:
            return
        sgd = self.sgd
        residual = float(x1_next) - (float(x4) + sgd.value * delta_change)
        grad = -2.0 * residual * delta_change
        if sgd.update(grad, 2.0 * delta_change * delta_change) < self.alpha_min:
            sgd.value = self.alpha_min

    def predict(self, x4: int, delta_change: float) -> float:
        """``X̂_{k+1}^(1)`` after applying ``delta_change`` to a frontier of ``x4``."""
        return float(x4) + self.alpha * delta_change
