"""Shard supervision: detect dead shards and restart them.

The serving stack's last single point of failure is the shard
dispatcher thread (:class:`~repro.net.shard.Shard`) or, with
``--shard-mode process``, its worker process: the engine beneath it
answers a failed task with an error, but a dead dispatcher or worker
took its whole catalog partition with it.
:class:`ShardSupervisor` closes that gap with the classic supervision
loop:

* **detect** — each check pass replaces a shard only when it is dead:
  its dispatcher thread exited, its worker process exited (or missed a
  REQUEST deadline, which marks the worker dead), or its idle worker
  stayed silent past the heartbeat timeout
  (:meth:`~repro.net.shard.Shard.heartbeat_expired`).  A slow shard
  is not a dead one: long work is bounded by the engine's per-task
  timeout and the worker REQUEST deadline, never by a guess here.
* **degrade** — a dead shard is retired (its pending futures fail
  with retryable ``unavailable:`` errors, nothing hangs) and marked
  ``down``.  Its graphs stay on their home shard and answer the same
  retryable ``unavailable:`` in-band until it is back.
* **restart** — restarts follow a
  :class:`~repro.resilience.retry.RestartPolicy`: exponential backoff
  between attempts and a hard budget, after which the shard is marked
  ``failed`` and its graphs answer ``unavailable:`` for good (a budget
  of 0 retires a dead shard without restarting it).  A successful
  rebuild re-arms the backoff.

Everything observable: ``shard_down`` / ``shard_up`` / ``shard_failed``
events, the ``net.shard.restarts`` counter and the
``net.shard.degraded`` gauge, plus :meth:`report` (surfaced by the
``health`` protocol op and ``repro top``).

The loop runs in a daemon thread (:meth:`start`), but every decision
lives in :meth:`check`, which takes an explicit ``now`` — tests drive
the whole state machine with a fake clock and zero sleeps.  Check
passes run one at a time; the lock :meth:`report` shares with them
covers bookkeeping only, never a retire or a rebuild, so ``health``
answers while a worker respawns.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro import obs
from repro.resilience.retry import RestartPolicy

__all__ = ["ShardSupervisor"]

# supervised shard states (ShardManager.shard_state values)
STATE_UP = "up"
STATE_DOWN = "down"
STATE_FAILED = "failed"


class _ShardWatch:
    """Supervision bookkeeping for one shard index."""

    __slots__ = (
        "state", "restarts", "down_at", "next_attempt_at", "last_reason",
        "last_recovery_seconds",
    )

    def __init__(self):
        self.state = STATE_UP
        self.restarts = 0
        self.down_at: Optional[float] = None
        self.next_attempt_at: Optional[float] = None
        self.last_reason: Optional[str] = None
        self.last_recovery_seconds: Optional[float] = None


class ShardSupervisor:
    """Health-check and restart a ShardManager's shards.

    Parameters
    ----------
    manager:
        The :class:`~repro.net.shard.ShardManager` to supervise.  The
        supervisor attaches itself (``manager.attach_supervisor``) so
        the ``health`` op can surface its report.
    restart_policy:
        Backoff + budget for restarts (default
        :class:`~repro.resilience.retry.RestartPolicy`()).
    check_interval:
        Seconds between health passes of the background thread.
    """

    def __init__(
        self,
        manager,
        *,
        restart_policy: Optional[RestartPolicy] = None,
        check_interval: float = 0.05,
    ):
        if check_interval <= 0:
            raise ValueError("check_interval must be positive")
        self.manager = manager
        self.policy = restart_policy if restart_policy is not None else RestartPolicy()
        self.check_interval = float(check_interval)
        self._watch: Dict[int, _ShardWatch] = {
            shard.index: _ShardWatch() for shard in manager.shards
        }
        # _pass_lock runs check passes one at a time; _lock guards the
        # _watch rows that report() reads, and is never held across a
        # retire or a rebuild
        self._pass_lock = threading.Lock()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        registry = obs.get_registry()
        self._restart_counter = registry.counter("net.shard.restarts")
        self._degraded_gauge = registry.gauge("net.shard.degraded")
        self._events = obs.get_events()
        manager.attach_supervisor(self)

    # ------------------------------------------------------------------
    # the background loop
    # ------------------------------------------------------------------
    def start(self) -> "ShardSupervisor":
        """Run :meth:`check` every ``check_interval`` on a daemon thread."""
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-shard-supervisor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the background thread (waits up to 5 s for its pass)."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.check_interval):
            try:
                self.check()
            except Exception:  # a supervision bug must not kill supervision
                pass

    # ------------------------------------------------------------------
    # one health pass (fake-clock friendly: all time comes in via `now`)
    # ------------------------------------------------------------------
    def check(self, now: Optional[float] = None) -> None:
        """Run one detect/degrade/restart pass over every shard."""
        now = time.monotonic() if now is None else now
        with self._pass_lock:
            for index in list(self._watch):
                self._check_shard(index, now)
            with self._lock:
                degraded = self.degraded_count()
            self._degraded_gauge.set(degraded)

    def _check_shard(self, index: int, now: float) -> None:
        watch = self._watch[index]
        if watch.state == STATE_FAILED:
            return
        shard = self.manager.shards[index]
        if watch.state == STATE_UP:
            if not shard.alive:
                self._declare_down(
                    index, now,
                    shard.exit_reason or "dispatcher thread not running",
                )
            elif shard.heartbeat_expired(now):
                # an idle process-mode worker beats over its socket;
                # silence means it is wedged or unreachable
                self._declare_down(
                    index, now,
                    f"worker heartbeat timed out "
                    f"({shard.beat_age(now):.2f}s since last frame)",
                )
            return
        # state == down: restart when the backoff window opens
        if watch.next_attempt_at is not None and now < watch.next_attempt_at:
            return
        self._attempt_restart(index, now)

    def _declare_down(self, index: int, now: float, reason: str) -> None:
        watch = self._watch[index]
        with self._lock:
            watch.state = STATE_DOWN
            watch.down_at = now
            watch.last_reason = reason
        self.manager.set_shard_state(index, STATE_DOWN)
        self.manager.shards[index].retire(reason)
        if self._spend_restart(index, now, reason) and self._events.enabled:
            self._events.emit(
                {
                    "type": "shard_down",
                    "shard": index,
                    "reason": reason,
                    "restart": watch.restarts,
                    "budget": self.policy.budget,
                }
            )

    def _spend_restart(self, index: int, now: float, reason: str) -> bool:
        """Schedule the next restart, or declare the shard failed.

        Returns False once the restart budget is spent.
        """
        watch = self._watch[index]
        if self.policy.exhausted(watch.restarts):
            self._declare_failed(index, reason)
            return False
        with self._lock:
            watch.restarts += 1
            watch.next_attempt_at = now + self.policy.delay(
                watch.restarts, key=f"shard:{index}"
            )
        return True

    def _declare_failed(self, index: int, reason: str) -> None:
        watch = self._watch[index]
        with self._lock:
            watch.state = STATE_FAILED
            watch.next_attempt_at = None
        self.manager.set_shard_state(index, STATE_FAILED)
        if self._events.enabled:
            self._events.emit(
                {
                    "type": "shard_failed",
                    "shard": index,
                    "reason": reason,
                    "restarts": watch.restarts,
                }
            )

    def _attempt_restart(self, index: int, now: float) -> None:
        watch = self._watch[index]
        try:
            self.manager.rebuild_shard(index)
        except Exception as exc:  # rebuild itself failed: burn a restart
            reason = f"rebuild failed: {type(exc).__name__}: {exc}"
            with self._lock:
                watch.last_reason = reason
            self._spend_restart(index, now, reason)
            return
        self.manager.set_shard_state(index, STATE_UP)
        downtime = (now - watch.down_at) if watch.down_at is not None else 0.0
        with self._lock:
            watch.state = STATE_UP
            watch.down_at = None
            watch.next_attempt_at = None
            watch.last_recovery_seconds = downtime
        self._restart_counter.inc()
        if self._events.enabled:
            self._events.emit(
                {
                    "type": "shard_up",
                    "shard": index,
                    "restart": watch.restarts,
                    "downtime_ms": round(downtime * 1000.0, 3),
                }
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def degraded_count(self) -> int:
        """Shards currently not serving their home partition."""
        return sum(1 for w in self._watch.values() if w.state != STATE_UP)

    def state(self, index: int) -> str:
        """Shard ``index``'s supervised state: up, down or failed."""
        with self._lock:
            return self._watch[index].state

    def report(self) -> dict:
        """JSON-ready supervision state (the ``health`` op surfaces it)."""
        with self._lock:
            shards = {
                str(index): {
                    "state": watch.state,
                    "restarts": watch.restarts,
                    "last_reason": watch.last_reason,
                    "last_recovery_ms": (
                        round(watch.last_recovery_seconds * 1000.0, 3)
                        if watch.last_recovery_seconds is not None
                        else None
                    ),
                }
                for index, watch in sorted(self._watch.items())
            }
            degraded = self.degraded_count()
        return {
            "restart_budget": self.policy.budget,
            "degraded": degraded,
            "shards": shards,
        }

    def __enter__(self) -> "ShardSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
