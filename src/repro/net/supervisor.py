"""Shard supervision: detect dead shards, restart them, degrade routing.

The serving stack's last single point of failure is the shard
dispatcher thread (:class:`~repro.net.shard.Shard`) or, with
``--shard-mode process``, its worker process: the engine beneath it
already absorbs task failures (retries, breakers), but a dead
dispatcher or worker took its whole catalog partition with it.
:class:`ShardSupervisor` closes that gap with the classic supervision
loop:

* **detect** — each check pass replaces a shard only when it is dead:
  its dispatcher thread exited, its worker process exited (or missed a
  REQUEST deadline, which marks the worker dead), or its idle worker
  stayed silent past the heartbeat timeout
  (:meth:`~repro.net.shard.Shard.heartbeat_expired`).  A slow shard
  is not a dead one: long work is bounded by the engine's per-task
  timeout and the worker REQUEST deadline, never by a guess here.
* **degrade** — a failed shard is retired (its pending futures fail
  with retryable ``unavailable:`` errors, nothing hangs) and marked
  ``down``.  Under ``failover="adopt"`` its graphs are re-adopted by
  surviving shards (catalog memoisation means no reload) and traffic
  flows on degraded capacity; under ``failover="failfast"`` requests
  for its graphs fast-fail in-band until it returns.
* **restart** — restarts follow a
  :class:`~repro.resilience.retry.RestartPolicy`: exponential backoff
  between attempts and a hard budget, after which the shard is marked
  ``failed`` and left to the operator.  A successful rebuild restores
  home routing and re-arms the backoff.

Everything observable: ``shard_down`` / ``shard_up`` events,
``net.shard.restarts`` / ``net.shard.failovers`` counters and the
``net.shard.degraded`` gauge, plus :meth:`report` (surfaced by the
``health`` protocol op and ``repro top``).

The loop runs in a daemon thread (:meth:`start`), but every decision
lives in :meth:`check`, which takes an explicit ``now`` — tests drive
the whole state machine with a fake clock and zero sleeps.
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
        "last_recovery_seconds", "failovers",
    )

    def __init__(self):
        self.state = STATE_UP
        self.restarts = 0
        self.down_at: Optional[float] = None
        self.next_attempt_at: Optional[float] = None
        self.last_reason: Optional[str] = None
        self.last_recovery_seconds: Optional[float] = None
        self.failovers = 0


class ShardSupervisor:
    """Health-check, restart and degrade-route a ShardManager's shards.

    Parameters
    ----------
    manager:
        The :class:`~repro.net.shard.ShardManager` to supervise.  The
        supervisor attaches itself (``manager.attach_supervisor``) so
        the ``health`` op can surface its report.
    restart_policy:
        Backoff + budget for restarts (default
        :class:`~repro.resilience.retry.RestartPolicy`()).
    failover:
        ``"failfast"`` (default): a down shard's graphs answer
        ``unavailable:`` until it restarts.  ``"adopt"``: its graphs
        are re-adopted by surviving shards while it is down.
    check_interval:
        Seconds between health passes of the background thread.
    """

    def __init__(
        self,
        manager,
        *,
        restart_policy: Optional[RestartPolicy] = None,
        failover: str = "failfast",
        check_interval: float = 0.05,
    ):
        if failover not in ("failfast", "adopt"):
            raise ValueError(
                f"failover must be 'failfast' or 'adopt', got {failover!r}"
            )
        if check_interval <= 0:
            raise ValueError("check_interval must be positive")
        self.manager = manager
        self.policy = restart_policy if restart_policy is not None else RestartPolicy()
        self.failover = failover
        self.check_interval = float(check_interval)
        self._watch: Dict[int, _ShardWatch] = {
            shard.index: _ShardWatch() for shard in manager.shards
        }
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        registry = obs.get_registry()
        self._restart_counter = registry.counter("net.shard.restarts")
        self._failover_counter = registry.counter("net.shard.failovers")
        self._degraded_gauge = registry.gauge("net.shard.degraded")
        self._events = obs.get_events()
        manager.attach_supervisor(self)

    # ------------------------------------------------------------------
    # the background loop
    # ------------------------------------------------------------------
    def start(self) -> "ShardSupervisor":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-shard-supervisor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
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
        with self._lock:
            for index in list(self._watch):
                self._check_shard(index, now)
            self._degraded_gauge.set(self.degraded_count())

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
        watch.state = STATE_DOWN
        watch.down_at = now
        watch.last_reason = reason
        shard = self.manager.shards[index]
        shard.retire(reason)
        self.manager.set_shard_state(index, STATE_DOWN)
        if self.policy.exhausted(watch.restarts):
            self._declare_failed(index, reason)
            return
        watch.restarts += 1
        watch.next_attempt_at = now + self.policy.delay(
            watch.restarts, key=f"shard:{index}"
        )
        moved: Dict[str, int] = {}
        if self.failover == "adopt":
            moved = self.manager.adopt_shard_graphs(index)
            if moved:
                watch.failovers += 1
                self._failover_counter.inc()
        if self._events.enabled:
            self._events.emit(
                {
                    "type": "shard_down",
                    "shard": index,
                    "reason": reason,
                    "restart": watch.restarts,
                    "budget": self.policy.budget,
                    "failover": dict(moved) if moved else None,
                }
            )

    def _declare_failed(self, index: int, reason: str) -> None:
        watch = self._watch[index]
        watch.state = STATE_FAILED
        watch.next_attempt_at = None
        self.manager.set_shard_state(index, STATE_FAILED)
        if self.failover == "adopt":
            moved = self.manager.adopt_shard_graphs(index)
            if moved:
                watch.failovers += 1
                self._failover_counter.inc()
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
            watch.last_reason = f"rebuild failed: {type(exc).__name__}: {exc}"
            if self.policy.exhausted(watch.restarts):
                self._declare_failed(index, watch.last_reason)
                return
            watch.restarts += 1
            watch.next_attempt_at = now + self.policy.delay(
                watch.restarts, key=f"shard:{index}"
            )
            return
        restored = self.manager.restore_assignment(index)
        self.manager.set_shard_state(index, STATE_UP)
        downtime = (now - watch.down_at) if watch.down_at is not None else 0.0
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
                    "restored_graphs": restored or None,
                }
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def degraded_count(self) -> int:
        """Shards currently not serving their home partition."""
        return sum(1 for w in self._watch.values() if w.state != STATE_UP)

    def state(self, index: int) -> str:
        with self._lock:
            return self._watch[index].state

    def report(self) -> dict:
        """JSON-ready supervision state (the ``health`` op surfaces it)."""
        with self._lock:
            shards = {
                str(index): {
                    "state": watch.state,
                    "restarts": watch.restarts,
                    "failovers": watch.failovers,
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
            "failover": self.failover,
            "restart_budget": self.policy.budget,
            "degraded": degraded,
            "shards": shards,
        }

    def __enter__(self) -> "ShardSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
