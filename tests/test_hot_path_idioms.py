"""Guard the near+far hot path against numpy calls measured to be slow.

On numpy 2.4 (2-vCPU x86 VM) these cost, per call at frontier sizes of
the road workloads:

* ``np.unique`` on int64 takes a hash-table path: 527 µs on 5.7k keys
  against 58 µs for ``repro.sssp.frontier.sorted_unique``;
* ``np.union1d`` is ``np.unique`` of a concatenation: 221 µs against
  27 µs for ``sorted_unique(np.concatenate(...))`` on 2.3k keys;
* ``np.divmod`` on int64: 45 µs against 18 µs for ``q = a // n`` and
  ``a - q * n`` on 11k keys.

A revert that doubles one workload's latency can pass an absolute perf
gate, so the idiom is checked at the source.

A batched sweep over a 2-source batch touches ~100 keys per stage, so
there numpy's Python-level function wrappers cost more than the data.
A second banned set keeps them out of ``repro/sssp/frontier.py`` and the
sweep ``while`` loop of ``batched_nearfar_sssp`` (setup code outside the
loop may keep them); per call on 300 elements, the method forms save
1-2 µs each (see :data:`WRAPPERS`).

The near+far solvers must also call the ``repro.sssp.frontier`` stage
functions by their module-level names: the repo benchmark's tracer
(``bench/tracing.py``) times each stage by swapping those bindings for
wrappers, and a call routed through a table, an object or a default
argument would bypass it.  For the same reason nothing imports
``repro.sssp.backends`` (a kernel dispatch table) or
``repro.service.scheduler`` (a batching window that the shard
dispatcher makes redundant).  Nothing names ``ProcessPoolExecutor`` or
the ``poolbreak`` fault kind either: process isolation is the process
shards' job (``--shard-mode process``), and the executor pool is
thread-only.  A process shard keeps one REQUEST frame in flight,
awaits every answer through one correlated call and serves the stats
and health its worker last sent, so the outstanding-frame window, the
second handshake path and the proxy's hand-copied fallbacks stay gone.
A shard is replaced when it is dead, never for being slow, so nothing
names the stall watchdog, the dispatcher heartbeat that fed it or the
``dispatcher_hang`` drill kind; keyword and parameter names count.
Supervised restart is the only recovery and every graph stays on its
home shard, so nothing names failover adoption or its knob, and no
engine or pool gains a graph after construction (``failover`` matches
as a substring: ``--failover``, ``failovers`` and docstrings count).
Admission sheds only when a shard's in-flight bound is full, so nothing
names the latency-predicting deadline gate (``--deadline-ms``, its
EWMA and ``reset_shard``), the admission breaker's helpers or the
``--drain-limit`` knob, whose one value is now a constant of
``repro/net/shard.py``.  A failed pool task runs once and answers its
error, so nothing names the engine's retry loop (``RetryPolicy``,
``classify_error``, its counters and event), a circuit breaker of any
kind (``breaker`` matches as a substring), the simulated ``transient``
and ``crash`` pool faults, or the ``--fault-kinds`` and
``--fault-seed`` options that only the chaos drill's retries needed.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Set

import pytest

import repro

SRC = Path(repro.__file__).parent
HOT_PATH = sorted(
    [
        *(SRC / "sssp").rglob("*.py"),
        SRC / "core" / "stepwise.py",
        SRC / "core" / "partitions.py",
        SRC / "extensions" / "widest_path.py",
    ]
)
BANNED = {
    "unique": "use repro.sssp.frontier.sorted_unique (58 vs 527 µs on 5.7k int64 keys)",
    "union1d": "use sorted_unique(np.concatenate(...)) (27 vs 221 µs on 2.3k keys)",
    "divmod": "use q = a // n and a - q * n (18 vs 45 µs on 11k keys)",
}


# per call on 300 elements, numpy 2.4, 2-vCPU x86 VM
WRAPPERS = {
    "repeat": "use x.repeat(counts) (1.4 vs 3.4 µs)",
    "sort": "use a copy and its .sort() method (2.5 vs 3.2 µs)",
    "cumsum": "use a.cumsum(out=...) (2.6 vs 3.8 µs)",
    "any": "use the .any() method (1.8 vs 3.7 µs)",
    "all": "use the .all() method (1.9 vs 3.9 µs)",
    "full": "use np.empty plus .fill() (0.9 vs 1.9 µs)",
}


def _sweep_loops(tree: ast.AST) -> List[ast.While]:
    """The sweep ``while`` loops in the body of ``batched_nearfar_sssp``."""
    return [
        node
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "batched_nearfar_sssp"
        for node in ast.walk(fn)
        if isinstance(node, ast.While)
    ]


def _violations(source: str, label: str, banned=BANNED, scope=None) -> List[str]:
    """``np.<banned>`` uses (inside ``scope(tree)`` if given) and ``from numpy`` imports."""
    tree = ast.parse(source, filename=label)
    found = []
    for root in [tree] if scope is None else scope(tree):
        for node in ast.walk(root):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in banned
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            ):
                found.append((node.lineno, node.attr))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(node.lineno, a.name) for a in node.names if a.name in banned]
    return [f"{label}:{line}: np.{name} -- {banned[name]}" for line, name in sorted(found)]


def test_hot_path_files_exist():
    assert all(path.is_file() for path in HOT_PATH)
    assert len(HOT_PATH) > 4


@pytest.mark.parametrize("path", HOT_PATH, ids=lambda p: str(p.relative_to(SRC)))
def test_no_slow_numpy_idioms(path):
    problems = _violations(path.read_text(), str(path.relative_to(SRC.parent)))
    assert not problems, "slow numpy call on the near+far hot path:\n" + "\n".join(problems)


def test_guard_catches_each_idiom():
    source = (
        "import numpy as np\n"
        "from numpy import union1d\n"
        "keys = np.unique(x)\n"
        "q, r = np.divmod(keys, 3)\n"
        "# np.unique in a comment is fine\n"
    )
    problems = _violations(source, "probe.py")
    assert [p.split(" -- ")[0] for p in problems] == [
        "probe.py:2: np.union1d",
        "probe.py:3: np.unique",
        "probe.py:4: np.divmod",
    ]
    assert "sorted_unique" in problems[1]


# module -> where the wrapper ban applies (None: the whole file)
WRAPPER_SCOPES = {"sssp/frontier.py": None, "sssp/batch_kernels.py": _sweep_loops}


@pytest.mark.parametrize("module", sorted(WRAPPER_SCOPES))
def test_no_numpy_wrappers_on_the_sweep_path(module):
    source = (SRC / module).read_text()
    scope = WRAPPER_SCOPES[module]
    if scope is not None:
        assert scope(ast.parse(source)), f"{module}: no sweep loop found to check"
    problems = _violations(source, module, WRAPPERS, scope)
    assert not problems, "numpy wrapper on the batched sweep path:\n" + "\n".join(problems)


def test_wrapper_guard_catches_each_idiom():
    source = (
        "import numpy as np\n"
        "from numpy import cumsum\n"
        "def batched_nearfar_sssp(a, c, m):\n"
        "    dist = np.full(3, np.inf)\n"
        "    while a.size:\n"
        "        x = np.repeat(a, c)\n"
        "        y = a.repeat(c)\n"
        "        if np.any(m) and np.all(m):\n"
        "            z = np.sort(a)\n"
        "        d = np.full(2, 0.0)\n"
        "    return np.sort(dist)\n"
    )
    problems = _violations(source, "probe.py", WRAPPERS, _sweep_loops)
    assert [p.split(" -- ")[0] for p in problems] == [
        "probe.py:2: np.cumsum",
        "probe.py:6: np.repeat",
        "probe.py:8: np.all",
        "probe.py:8: np.any",
        "probe.py:9: np.sort",
        "probe.py:10: np.full",
    ]
    assert "x.repeat(counts)" in problems[1] and "µs" in problems[1]
    whole = _violations(source, "probe.py", WRAPPERS)
    assert "probe.py:4: np.full" in [p.split(" -- ")[0] for p in whole]
    assert "probe.py:11: np.sort" in [p.split(" -- ")[0] for p in whole]
    assert _sweep_loops(ast.parse("def batched_nearfar_sssp():\n    pass\n")) == []


# solver module -> the frontier stage functions it must call by name
STAGE_CALLERS = {
    "sssp/nearfar.py": ("advance", "filter_frontier", "bisect", "drain_far_queue"),
    "sssp/batch_kernels.py": (
        "batched_advance",
        "batched_filter",
        "batched_bisect",
        "batched_drain_far",
    ),
}
FRONTIER = "repro.sssp.frontier"
REMOVED_MODULES = (
    "repro.sssp.backends",
    "repro.service.scheduler",
    "repro.resilience.breaker",
)
REMOVED_NAMES = (
    "ProcessPoolExecutor",
    "poolbreak",
    # the per-task telemetry envelope: pool tasks record in-context
    "capture_task",
    "merge_payload",
    "run_algorithm_traced",
    "run_algorithm_batch_traced",
    "TELEMETRY_WIRE_VERSION",
    "merge_snapshot",
    # process shards: one REQUEST in flight, one correlated-call path
    "DEFAULT_WINDOW",
    "_window_slots",
    "_handshake_adopt",
    "_EMPTY_STATS",
    "_EMPTY_HEALTH",
    "_WorkerPoolView",
    # shards are replaced when dead, never for being slow: no stall
    # watchdog, dispatcher heartbeat or drill fault that only fed it
    "stall_seconds",
    "stall_ms",
    "stall-ms",
    "tick_seconds",
    "last_beat",
    "request_deadline_seconds",
    "dispatcher_hang",
    # restart is the only recovery: no failover adoption, no graph
    # added to an engine or pool after construction
    "adopt_shard_graphs",
    "restore_assignment",
    "_failover_graphs",
    "add_graph",
    "failover",
    # admission has one gate, the per-shard token bound: no deadline
    # gate or latency estimate, no admission breaker, no merge knob
    "deadline_ms",
    "deadline-ms",
    "reset_shard",
    "ewma",
    "EWMA",
    "_breaker_key",
    "record_breaker",
    "drain_limit",
    "drain-limit",
    # a failed pool task runs once: no retry loop, no circuit breaker,
    # no simulated pool faults that only a retry could absorb
    "RetryPolicy",
    "classify_error",
    "BreakerBoard",
    "BreakerConfig",
    "CircuitBreaker",
    "breaker",
    "query_retry",
    "retry_attempts",
    "retry_exhausted",
    "InjectedTransientError",
    "InjectedCrashError",
    "parse_kinds",
    "fault-kinds",
    "fault-seed",
    "fault_seed",
)


def _stage_call_problems(source: str, label: str, stages) -> List[str]:
    """Stages not called as ``name(...)`` or ``frontier.name(...)``, or bound elsewhere."""
    tree = ast.parse(source, filename=label)
    imported: Set[str] = set()  # stage names bound by ``from repro.sssp.frontier import``
    aliases: Set[str] = set()  # names bound by ``from repro.sssp import frontier``
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == FRONTIER:
            imported |= {a.asname or a.name for a in node.names if a.name in stages}
        elif isinstance(node, ast.ImportFrom) and node.module == "repro.sssp":
            aliases |= {a.asname or a.name for a in node.names if a.name == "frontier"}
    called: Set[str] = set()
    callees: Set[int] = set()  # ids of the Name nodes that are called
    for node in ast.walk(tree):
        func = node.func if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Name) and func.id in imported:
            called.add(func.id)
            callees.add(id(func))
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in stages
            and isinstance(func.value, ast.Name)
            and func.value.id in aliases
        ):
            called.add(func.attr)
    problems = [f"{label}: {stage} is never called by name" for stage in stages if stage not in called]
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in stages and id(node) not in callees:
            how = "rebound" if isinstance(node.ctx, ast.Store) else "passed around"
            problems.append(f"{label}:{node.lineno}: {node.id} {how} instead of called")
        elif isinstance(node, ast.arg) and node.arg in stages:
            problems.append(f"{label}:{node.lineno}: {node.arg} shadowed by an argument")
    return problems


@pytest.mark.parametrize("module", sorted(STAGE_CALLERS))
def test_solvers_call_frontier_stages_by_name(module):
    path = SRC / module
    problems = _stage_call_problems(path.read_text(), module, STAGE_CALLERS[module])
    assert not problems, "stage call bypasses the module-level binding:\n" + "\n".join(problems)


def test_stage_guard_catches_indirection():
    stages = ("advance", "bisect", "filter_frontier")
    good = (
        "from repro.sssp import frontier\n"
        "from repro.sssp.frontier import advance\n"
        "def run(g, f, d):\n"
        "    advance(g, f, d)\n"
        "    frontier.bisect(f, d, 1.0)\n"
        "    frontier.filter_frontier(f)\n"
    )
    assert _stage_call_problems(good, "good.py", stages) == []
    bad = (
        "from repro.sssp.frontier import advance, bisect\n"
        "TABLE = {'advance': advance}\n"
        "def run(g, f, d, bisect=bisect):\n"
        "    TABLE['advance'](g, f, d)\n"
        "    bisect(f, d, 1.0)\n"
    )
    problems = _stage_call_problems(bad, "bad.py", stages)
    assert "bad.py: filter_frontier is never called by name" in problems
    assert "bad.py:2: advance passed around instead of called" in problems
    assert "bad.py:3: bisect passed around instead of called" in problems
    assert "bad.py:3: bisect shadowed by an argument" in problems


def _spelled(node: ast.AST) -> str:
    """The identifier or string a node spells out ("" for none)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, (ast.arg, ast.keyword)):
        return node.arg or ""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return ""


def _removed_imports(source: str, label: str) -> List[str]:
    found = []
    for node in ast.walk(ast.parse(source, filename=label)):
        spelled = _spelled(node)
        found += [
            f"{label}:{node.lineno}: names {name}"
            for name in REMOVED_NAMES
            if name in spelled
        ]
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        hits = [n for n in names for m in REMOVED_MODULES if n == m or n.startswith(m + ".")]
        if hits:
            found.append(f"{label}:{node.lineno}: imports {hits[0]}")
    return found


def test_removed_dispatch_layers_not_imported():
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        label = str(path.relative_to(SRC.parent))
        problems += _removed_imports(path.read_text(), label)
    assert not problems, "\n".join(problems)
    probe = (
        "from repro.sssp import backends\nimport repro.service.scheduler\n"
        "from repro.resilience import breaker\n"
    )
    assert [p for p in _removed_imports(probe, "probe.py") if " imports " in p] == [
        "probe.py:1: imports repro.sssp.backends",
        "probe.py:2: imports repro.service.scheduler",
        "probe.py:3: imports repro.resilience.breaker",
    ]
    probe = (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "import concurrent.futures as cf\n"
        "pool = cf.ProcessPoolExecutor(max_workers=2)\n"
        "KINDS = ('crash', 'poolbreak')\n"
        "def apply(kind):\n"
        "    return kind == 'hang'\n"
        "from repro.obs.telemetry import capture_task, TELEMETRY_WIRE_VERSION\n"
        "def run_algorithm_traced(graph, envelope):\n"
        "    return run_algorithm_batch_traced(merge_payload(envelope))\n"
        "registry.merge_snapshot({})\n"
        "x = (DEFAULT_WINDOW, c._window_slots, c._handshake_adopt, "
        "_EMPTY_STATS, _EMPTY_HEALTH, _WorkerPoolView)\n"
        "def shard(tick_seconds=0.25, *, request_deadline_seconds=60.0):\n"
        "    return Supervisor(stall_seconds=s.last_beat, kind='dispatcher_hang', "
        "flag='--stall-ms', ms=a.stall_ms)\n"
        "m.adopt_shard_graphs(0), m.restore_assignment(0), m._failover_graphs, "
        "p.add_graph('g', g), Sup(failover='adopt'), '--failover', w.failovers\n"
        "a.reset_shard(0), a._breaker_key(0), f(record_breaker=False, drain_limit=64), "
        "'--deadline-ms', o.deadline_ms, _ewma_seconds, _EWMA_ALPHA, '--drain-limit'\n"
        "RetryPolicy(), classify_error(e), BreakerConfig(), e.retry_attempts, "
        "e.retry_exhausted, {'type': 'query_retry'}, InjectedCrashError, "
        "InjectedTransientError, FaultPlan.parse_kinds('hang'), '--fault-kinds', "
        "'--fault-seed', a.fault_seed\n"
        "class CircuitBreaker: pass\n"
        "def board(): return BreakerBoard()\n"
    )
    assert sorted(_removed_imports(probe, "probe.py")) == [
        "probe.py:10: names merge_snapshot",
        "probe.py:11: names DEFAULT_WINDOW",
        "probe.py:11: names _EMPTY_HEALTH",
        "probe.py:11: names _EMPTY_STATS",
        "probe.py:11: names _WorkerPoolView",
        "probe.py:11: names _handshake_adopt",
        "probe.py:11: names _window_slots",
        "probe.py:12: names request_deadline_seconds",
        "probe.py:12: names tick_seconds",
        "probe.py:13: names dispatcher_hang",
        "probe.py:13: names last_beat",
        "probe.py:13: names stall-ms",
        "probe.py:13: names stall_ms",
        "probe.py:13: names stall_seconds",
        "probe.py:14: names _failover_graphs",
        "probe.py:14: names add_graph",
        "probe.py:14: names adopt_shard_graphs",
        "probe.py:14: names failover",
        "probe.py:14: names failover",
        "probe.py:14: names failover",
        "probe.py:14: names failover",
        "probe.py:14: names restore_assignment",
        "probe.py:15: names EWMA",
        "probe.py:15: names _breaker_key",
        "probe.py:15: names breaker",
        "probe.py:15: names breaker",
        "probe.py:15: names deadline-ms",
        "probe.py:15: names deadline_ms",
        "probe.py:15: names drain-limit",
        "probe.py:15: names drain_limit",
        "probe.py:15: names ewma",
        "probe.py:15: names record_breaker",
        "probe.py:15: names reset_shard",
        "probe.py:16: names BreakerConfig",
        "probe.py:16: names InjectedCrashError",
        "probe.py:16: names InjectedTransientError",
        "probe.py:16: names RetryPolicy",
        "probe.py:16: names classify_error",
        "probe.py:16: names fault-kinds",
        "probe.py:16: names fault-seed",
        "probe.py:16: names fault_seed",
        "probe.py:16: names parse_kinds",
        "probe.py:16: names query_retry",
        "probe.py:16: names retry_attempts",
        "probe.py:16: names retry_exhausted",
        "probe.py:17: names CircuitBreaker",
        "probe.py:18: names BreakerBoard",
        "probe.py:1: names ProcessPoolExecutor",
        "probe.py:3: names ProcessPoolExecutor",
        "probe.py:4: names poolbreak",
        "probe.py:7: names TELEMETRY_WIRE_VERSION",
        "probe.py:7: names capture_task",
        "probe.py:8: names run_algorithm_traced",
        "probe.py:9: names merge_payload",
        "probe.py:9: names run_algorithm_batch_traced",
    ]
