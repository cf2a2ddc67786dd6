"""The set-point controller (paper Section 4, Figure 4).

Closes the loop around the near+far stages: it watches the workload
counters ``X^(1)``, ``X^(2)``, ``X^(4)`` of each iteration, keeps the
ADVANCE-MODEL and BISECT-MODEL updated, and emits the per-iteration
delta adjustment ``Δδ_k`` (Eq. 6):

    δ_{k+1} = δ_k + (P/d − X_k^(4)) / α

During the first iterations — before the BISECT-MODEL converges
(paper: ~5 updates) — α comes from the Eq. 8 bootstrap built from the
current window width and the far-queue partition occupancy instead of
the learned model.

The controller is engine-agnostic: it sees only counters and produces
only a delta.  The same object could sit next to a real GPU run, which
is the paper's deployment (controller on the CPU, kernels on the GPU).
"""

from __future__ import annotations

from time import perf_counter
from typing import NamedTuple

from repro.core.advance_model import AdvanceModel
from repro.core.bisect_model import ALPHA_MIN, BisectModel
from repro.obs import context as obs
from repro.obs.spans import SpanRecorder
from repro.sssp.nearfar import finite_positive

__all__ = [
    "DELTA_MIN",
    "DeltaDecision",
    "MAX_STEP_FRACTION",
    "SetpointController",
]


# Eq. 6 tuning: one value each, so not parameters (the models keep
# their own, the bootstrap's length among them)
DELTA_MIN = 1e-9  # δ floor: the window must stay open to move
MAX_STEP_FRACTION = 4.0  # slew limit: one step scales δ by at most 1 + this


class DeltaDecision(NamedTuple):
    """What the controller decided for the next iteration.

    A named tuple: one is built per iteration, and a frozen dataclass
    costs three times as much to build (1.3 vs 0.4 µs).
    """

    delta: float
    delta_change: float
    alpha_used: float
    target_frontier: float
    bootstrapped: bool


class SetpointController:
    """Online-learning delta controller for the near+far algorithm.

    Parameters
    ----------
    setpoint:
        ``P`` — the desired available parallelism (advance workload).
    initial_delta:
        δ of the first iteration (floored at :data:`DELTA_MIN`).
    initial_d:
        Seed of the ADVANCE-MODEL's ``d``.
    use_bootstrap:
        Ablation switch: when false, the Eq. 8 bootstrap is disabled
        and the (unconverged) learned α is trusted from iteration one.
    sgd_mode:
        ``'adaptive'`` (Algorithm 1) or ``'fixed'`` (ablation).
    """

    def __init__(
        self,
        setpoint: float,
        initial_delta: float,
        *,
        initial_d: float = 1.0,
        use_bootstrap: bool = True,
        sgd_mode: str = "adaptive",
    ):
        # the live set-point: mutable, so an outer loop (e.g. the
        # power-target servo of repro.cosim) can retarget it mid-run
        self.setpoint = finite_positive("setpoint", setpoint)
        self.use_bootstrap = use_bootstrap
        self.delta = max(finite_positive("initial_delta", initial_delta), DELTA_MIN)
        self.advance_model = AdvanceModel(initial_d=initial_d, sgd_mode=sgd_mode)
        self.bisect_model = BisectModel(sgd_mode=sgd_mode)
        # BISECT-MODEL sample (X^(4), Δδ) awaiting its X^(1)_next label
        self._pending: tuple[int, float] | None = None
        # controller CPU accounting (§5.2 overhead): always on, because
        # the overhead *is* a result the paper reports; one perf_counter
        # pair per call, booked as [calls, seconds] under the call's name
        self.seconds = 0.0
        self._calls = {n: [0, 0.0] for n in ("begin_iteration", "observe_advance", "plan")}
        self.decisions: int = 0
        # optional metrics fan-out (no-op unless a registry is active)
        reg = obs.get_registry()
        self._m_plan = reg.timer("controller.plan_seconds")
        self._m_decisions = reg.counter("controller.decisions")

    # ------------------------------------------------------------------
    # observation hooks (called by the algorithm around each stage)
    # ------------------------------------------------------------------
    def begin_iteration(self, x1: int) -> None:
        """Label delivery: X^(1) of this iteration trains the BISECT-MODEL.

        The pending (X^(4), Δδ) pair from the previous iteration predicted
        this X^(1); now that it is observed, run the Algorithm-1 step.
        """
        t0 = perf_counter()
        if self._pending is not None:
            x4, delta_change = self._pending
            self.bisect_model.observe(x4, delta_change, x1)
            self._pending = None
        self._book("begin_iteration", perf_counter() - t0)

    def observe_advance(self, x1: int, x2: int) -> None:
        """ADVANCE-MODEL training step from the true (X^(1), X^(2))."""
        t0 = perf_counter()
        self.advance_model.observe(x1, x2)
        self._book("observe_advance", perf_counter() - t0)

    def invalidate_pending(self) -> None:
        """Drop the pending BISECT-MODEL sample.

        Called when the next frontier was produced by a far-queue drain
        rather than by the rebalancer's Δδ — the linear model of Eq. 4
        does not describe that transition, so the label would be noise.
        """
        self._pending = None

    # ------------------------------------------------------------------
    # decision
    # ------------------------------------------------------------------
    def plan(
        self,
        x4: int,
        *,
        window_lower: float,
        window_split: float,
        far_total: int,
        far_partition_size: int,
        far_partition_upper: float,
    ) -> DeltaDecision:
        """Eq. 6: compute δ_{k+1} from X^(4) and the learned models.

        Parameters
        ----------
        x4:
            Frontier size entering the rebalancer.
        window_lower, window_split:
            The current near window ``[L, S)``; ``S − L`` is the live δ.
        far_total:
            Total far-queue occupancy.  Growing delta has no authority
            when the far queue is empty — there is nothing to pull into
            the frontier — so the controller holds delta in that case
            (and skips the BISECT-MODEL sample, which would otherwise
            teach a spurious α ≈ 0).
        far_partition_size, far_partition_upper:
            Occupancy and upper bound of the current far-queue
            partition, feeding the Eq. 8 bootstrap.
        """
        t0 = perf_counter()
        decision = self._plan(
            x4, window_lower, window_split, far_total, far_partition_size, far_partition_upper
        )
        elapsed = perf_counter() - t0
        self._book("plan", elapsed)
        self.decisions += 1
        self._m_plan.observe(elapsed)
        self._m_decisions.inc()
        return decision

    def _book(self, name: str, elapsed: float) -> None:
        stat = self._calls[name]
        stat[0] += 1
        stat[1] += elapsed
        self.seconds += elapsed

    def _plan(
        self,
        x4: int,
        window_lower: float,
        window_split: float,
        far_total: int,
        far_partition_size: int,
        far_partition_upper: float,
    ) -> DeltaDecision:
        target_x1 = self.advance_model.target_frontier(self.setpoint)

        if far_total == 0 and float(x4) <= target_x1:
            # under target with an empty far queue: the knob is inert
            self._pending = None
            model = self.bisect_model
            return DeltaDecision(self.delta, 0.0, model.alpha, target_x1, not model.converged)

        bootstrapped = self.use_bootstrap and not self.bisect_model.converged
        if bootstrapped:
            alpha = self._bootstrap_alpha(
                x4,
                target_x1,
                window_lower=window_lower,
                window_split=window_split,
                far_partition_size=far_partition_size,
                far_partition_upper=far_partition_upper,
            )
        else:
            alpha = self.bisect_model.alpha

        raw_change = (target_x1 - float(x4)) / alpha

        # multiplicative slew-rate limit: one iteration may grow delta by
        # at most (1 + f)x and shrink it by at most 1/(1 + f)x, so delta
        # can never collapse to zero (or overshoot to infinity) in one
        # bad step; then floor it at DELTA_MIN
        grow_cap = self.delta * (1.0 + MAX_STEP_FRACTION)
        shrink_cap = self.delta / (1.0 + MAX_STEP_FRACTION)
        new_delta = min(max(self.delta + raw_change, shrink_cap), grow_cap)
        new_delta = max(new_delta, DELTA_MIN)
        change = new_delta - self.delta
        self.delta = new_delta

        self._pending = (x4, change)
        return DeltaDecision(new_delta, change, alpha, target_x1, bootstrapped)

    def _bootstrap_alpha(
        self,
        x4: int,
        target_x1: float,
        *,
        window_lower: float,
        window_split: float,
        far_partition_size: int,
        far_partition_upper: float,
    ) -> float:
        """Eq. 8: density-based α before the BISECT-MODEL converges.

        The paper writes the denominators against δ_k directly; with our
        explicit window ``[L, S)`` the equivalent densities are

        * shrink case (X^(4) >= X̂^(1)):  α ≈ X^(4) / (S − L) — the
          frontier's vertices per unit of distance in the live window;
        * grow case: α ≈ S_i / (B_i − S) — the current far partition's
          vertices per unit of distance beyond the split.
        """
        width = max(window_split - window_lower, DELTA_MIN)
        if float(x4) >= target_x1:
            alpha = float(x4) / width
        else:
            span = far_partition_upper - window_split
            if span > 0 and far_partition_size > 0:
                alpha = float(far_partition_size) / span
            else:
                # empty/exhausted partition: fall back to frontier density
                alpha = max(float(x4), 1.0) / width
        return max(alpha, ALPHA_MIN)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def spans(self) -> SpanRecorder:
        """Profile of the calls, one path each; sums to :attr:`seconds`."""
        spans = SpanRecorder()
        spans.merge({"path": p, "count": c, "seconds": t} for p, (c, t) in self._calls.items() if c)
        return spans

    @property
    def d(self) -> float:
        return self.advance_model.d

    @property
    def alpha(self) -> float:
        return self.bisect_model.alpha
