"""ADVANCE-MODEL (paper Section 4.2).

Learns the linear model ``X̂_k^(2) = d · X_k^(1)`` online: ``d`` is an
estimate of the average out-degree of frontier vertices.  Fitted by
minimising the squared error with Algorithm 1 (adaptive-rate SGD):

    ∇_d  = −2 (X^(2) − d·X^(1)) X^(1)
    ∇²_d =  2 (X^(1))²

Given the parallelism set-point ``P``, the model inverts to the target
frontier size of Eq. 3: ``X̂^(1) = P / d``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.sgd import AdaptiveSGD, FixedRateSGD, make_sgd

__all__ = ["D_MIN", "AdvanceModel"]

D_MIN = 1e-3  # positivity floor on d, which divides the set-point in Eq. 3


@dataclass
class AdvanceModel:
    """Online estimator of the frontier's effective average degree.

    Parameters
    ----------
    initial_d:
        Seed value for ``d``; the graph's global average degree is a
        good choice when known, 1.0 otherwise.
    sgd_mode:
        ``'adaptive'`` for the paper's Algorithm 1, ``'fixed'`` for the
        fixed-rate ablation.

    ``d`` never drops below :data:`D_MIN`.
    """

    initial_d: float = 1.0
    sgd_mode: str = "adaptive"
    sgd: AdaptiveSGD | FixedRateSGD = field(init=False)

    def __post_init__(self) -> None:
        if self.initial_d <= 0:
            raise ValueError("initial_d must be positive")
        self.sgd = make_sgd(self.sgd_mode, float(self.initial_d))

    @property
    def d(self) -> float:
        return max(self.sgd.value, D_MIN)

    @property
    def updates(self) -> int:
        return self.sgd.updates

    def observe(self, x1: int, x2: int) -> None:
        """Algorithm-1 step from the true (X^(1), X^(2)) of an iteration."""
        if x1 < 0 or x2 < 0:
            raise ValueError("stage workloads must be non-negative")
        if x1 == 0:
            return  # an empty frontier carries no degree information
        sgd = self.sgd
        x1f = float(x1)
        residual = float(x2) - sgd.value * x1f
        if sgd.update(-2.0 * residual * x1f, 2.0 * x1f * x1f) < D_MIN:
            sgd.value = D_MIN

    def predict(self, x1: int) -> float:
        """``X̂^(2)`` for a frontier of size ``x1``."""
        return self.d * float(x1)

    def target_frontier(self, setpoint: float) -> float:
        """Eq. 3: the frontier size whose advance output meets the set-point."""
        if setpoint <= 0:
            raise ValueError("setpoint must be positive")
        return setpoint / self.d
