"""Algorithm 1: SGD with an adaptive learning rate (vSGD).

A faithful transcription of the paper's Algorithm 1, which is the
scalar variant of Schaul, Zhang & LeCun, *No More Pesky Learning
Rates* (2012):

.. code-block:: text

    1:  ∇  = grad of this iteration's squared-error term
    2:  ∇² = its second derivative
    3:  ḡ ← (1 − τ⁻¹)·ḡ + τ⁻¹·∇
    4:  v̄ ← (1 − τ⁻¹)·v̄ + τ⁻¹·∇²  (of the *first* derivative, squared)
    5:  h̄ ← (1 − τ⁻¹)·h̄ + τ⁻¹·∇²  (second derivative)
    6:  μ ← ḡ² / (h̄ · v̄)
    7:  τ ← (1 − ḡ²/v̄)·τ + 1
    8:  θ ← θ − μ·∇

Initialisation per the paper: ``τ = (1 + ε)·2``, ``ḡ = 0``, ``h̄ = 1``,
``v̄ = ε``.

The learning rate μ is self-normalising: when the gradient signal is
consistent (ḡ² ≈ v̄) steps approach the Newton step 1/h̄; when it is
noisy (ḡ² ≪ v̄) steps shrink.  The memory constant τ grows while the
signal is noisy and resets toward short memory after large consistent
steps.

Numerical guards (floors on v̄ and h̄, a cap on μ·|∇|) keep the update
finite when counters span many orders of magnitude — frontier sizes
range from 1 to millions, so ∇ can reach 1e13.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "EPSILON",
    "FIXED_RATE",
    "HESSIAN_FLOOR",
    "MAX_RELATIVE_STEP",
    "STEP_FLOOR",
    "AdaptiveSGD",
    "FixedRateSGD",
    "make_sgd",
]

# Algorithm 1: the ε of the paper's initialisation, and a safety clamp
# (one update may change θ by at most MAX_RELATIVE_STEP times
# max(|θ|, STEP_FLOOR)) that keeps the raw optimiser finite under
# adversarial observations; the paper handles early instability at the
# controller level (the Eq. 8 bootstrap)
EPSILON = 1e-8
MAX_RELATIVE_STEP = 10.0
STEP_FLOOR = 1e-3
# the fixed-rate ablation: θ ← θ − FIXED_RATE · ∇/max(∇², HESSIAN_FLOOR)
FIXED_RATE = 0.3
HESSIAN_FLOOR = 1e-12


@dataclass
class AdaptiveSGD:
    """Scalar adaptive-learning-rate SGD (the paper's Algorithm 1).

    ``value`` is the initial parameter value θ₀; the tuning is the
    module's constants.
    """

    value: float

    g_bar: float = field(init=False, default=0.0)
    v_bar: float = field(init=False, default=EPSILON)
    h_bar: float = field(init=False, default=1.0)
    tau: float = field(init=False, default=(1.0 + EPSILON) * 2.0)
    updates: int = field(init=False, default=0)
    last_mu: float = field(init=False, default=0.0)

    def update(self, grad: float, hess: float) -> float:
        """One Algorithm-1 step given this iteration's ∇ and ∇².

        Returns the new parameter value.  Two run per controller
        iteration, so fields are read once and ``max``/``min`` are
        spelled as conditionals that pick the same operand, NaN included.
        """
        if not (hess >= 0):  # also rejects NaN
            raise ValueError(f"second derivative must be >= 0, got {hess}")
        tau = self.tau
        tinv = 1.0 / (1.0 if 1.0 > tau else tau)  # 1 / max(τ, 1)
        keep = 1.0 - tinv

        g_bar = self.g_bar = keep * self.g_bar + tinv * grad
        v_bar = self.v_bar = keep * self.v_bar + tinv * grad * grad
        h_bar = self.h_bar = keep * self.h_bar + tinv * hess

        v = EPSILON if EPSILON > v_bar else v_bar  # max(v̄, ε)
        h = EPSILON if EPSILON > h_bar else h_bar  # max(h̄, ε)
        g2 = g_bar * g_bar
        mu = self.last_mu = g2 / (h * v)

        # line 7: adapt the memory constant; ḡ²/v̄ ∈ [0, 1] because the
        # EMA of squares dominates the square of the EMA
        ratio = g2 / v
        self.tau = (1.0 - (ratio if ratio < 1.0 else 1.0)) * tau + 1.0

        step = mu * grad
        value = self.value
        cap = MAX_RELATIVE_STEP * max(abs(value), STEP_FLOOR)
        if step > cap:
            step = cap
        elif step < -cap:
            step = -cap
        value = self.value = value - step
        self.updates += 1
        return value


@dataclass
class FixedRateSGD:
    """Ablation optimiser: damped Newton steps with a *fixed* rate.

    ``θ ← θ − FIXED_RATE · ∇/∇²`` — the obvious alternative to Algorithm 1
    when the curvature is available (it is, for both paper models:
    ∇² = 2x²).  Normalising by the Hessian is necessary because the
    raw gradients span ~12 orders of magnitude with frontier-sized
    observations; without it no single fixed rate is stable.

    Used by the ``sgd_mode='fixed'`` ablation to quantify what the
    adaptive learning rate of Schaul et al. actually buys: the fixed
    rate either reacts slowly (small rate) or chases noise (large
    rate), where Algorithm 1 does both regimes automatically.
    """

    value: float
    updates: int = field(init=False, default=0)
    last_mu: float = field(init=False, default=0.0)

    def update(self, grad: float, hess: float) -> float:
        """One damped Newton step at the fixed rate; returns new θ."""
        if not (hess >= 0):
            raise ValueError(f"second derivative must be >= 0, got {hess}")
        mu = FIXED_RATE / max(hess, HESSIAN_FLOOR)
        self.last_mu = mu
        self.value -= mu * grad
        self.updates += 1
        return self.value


def make_sgd(mode: str, value: float) -> AdaptiveSGD | FixedRateSGD:
    """Optimiser factory: ``'adaptive'`` (Algorithm 1) or ``'fixed'``."""
    if mode == "adaptive":
        return AdaptiveSGD(value=value)
    if mode == "fixed":
        return FixedRateSGD(value=value)
    raise ValueError(f"unknown sgd mode {mode!r}; expected 'adaptive' or 'fixed'")
