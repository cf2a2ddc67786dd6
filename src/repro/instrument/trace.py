"""Per-iteration execution traces.

Every frontier-based SSSP run in this package produces one row per
outer iteration ``k``, carrying the paper's four stage-workload
counters:

* ``x1`` — input frontier size (advance input),
* ``x2`` — advance output size, i.e. the total neighbour-list length of
  the frontier.  This is the paper's *available parallelism* metric
  ("Average parallelism is defined as the average frontier size
  (X_k^(2)) over all iterations").
* ``x3`` — filter output size (unique improved vertices),
* ``x4`` — frontier size entering bisect-far-queue / the rebalancer.

A row is a tuple of :class:`IterationRecord`'s fields after ``k``
(:data:`ROW_FIELDS`; ``k`` is its position).  The near+far solvers
append one row per iteration and, when the run ends, book the
``sssp.*`` metrics and the ``iterations`` event from the rows with
:func:`publish_run`.  A :class:`RunTrace` keeps the rows and builds
records only when a reader asks.

The trace is the contract between the algorithms and both the
controller (:mod:`repro.core`) and the platform simulator
(:mod:`repro.gpusim.executor`), which replays traces into
time/energy/power.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

import numpy as np

__all__ = [
    "IterationRecord",
    "NEARFAR_WIDTH",
    "ROW_DEFAULTS",
    "ROW_FIELDS",
    "RunTrace",
    "publish_run",
]


@dataclass
class IterationRecord:
    """Stage workloads and knob state for one outer SSSP iteration."""

    k: int
    x1: int
    x2: int
    x3: int
    x4: int
    delta: float
    split: float
    far_size: int
    drains: int = 0
    moved_from_far: int = 0
    moved_to_far: int = 0
    # far-queue entries touched by range queries this iteration (pulled
    # and re-validated, whether or not they moved); the flat-queue
    # ablation shows up here
    far_scanned: int = 0
    # controller internals (NaN when the baseline runs without a controller)
    d_estimate: float = float("nan")
    alpha_estimate: float = float("nan")
    controller_seconds: float = 0.0

    @property
    def parallelism(self) -> int:
        """The paper's available-parallelism metric for this iteration."""
        return self.x2


_FIELDS = dataclasses.fields(IterationRecord)
ROW_FIELDS = tuple(f.name for f in _FIELDS[1:])
NEARFAR_WIDTH = ROW_FIELDS.index("drains") + 1  # a fixed-delta row: x1 .. drains
ROW_DEFAULTS = tuple(f.default for f in _FIELDS[1:])  # what a short row leaves out
_INDEX = {name: i for i, name in enumerate(ROW_FIELDS)}


@dataclass
class RunTrace:
    """All iteration rows of one SSSP run, plus run-level metadata.

    A row may stop early (a fixed-delta row after ``drains``); the
    fields it leaves out read as the record's defaults.  ``meta``
    carries run-level scalars the rows cannot (the set-point of an
    adaptive run, the fixed delta of a baseline run, …); consumers such
    as ``repro trace diff`` use it to pick the right analysis target
    without re-deriving it from the rows.
    """

    algorithm: str
    graph_name: str
    source: int
    rows: List[tuple] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def append(self, rec: IterationRecord) -> None:
        """Add ``rec`` as the next row; its ``k`` must be that row's index."""
        if rec.k != len(self.rows):
            raise ValueError(f"record k={rec.k} appended as row {len(self.rows)}")
        self.rows.append(tuple(getattr(rec, name) for name in ROW_FIELDS))

    @property
    def records(self) -> List[IterationRecord]:
        """The rows as :class:`IterationRecord` objects (built on each call)."""
        return [IterationRecord(k, *row) for k, row in enumerate(self.rows)]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[IterationRecord]:
        return iter(self.records)

    # ------------------------------------------------------------------
    # column extraction
    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """A column across iterations, e.g. ``trace.column('x2')``."""
        if name == "k":
            return np.arange(len(self.rows), dtype=np.float64)
        i, default = _INDEX[name], ROW_DEFAULTS[_INDEX[name]]
        return np.asarray(
            [row[i] if i < len(row) else default for row in self.rows],
            dtype=np.float64,
        )

    @property
    def parallelism(self) -> np.ndarray:
        return self.column("x2")

    @property
    def deltas(self) -> np.ndarray:
        return self.column("delta")

    @property
    def num_iterations(self) -> int:
        return len(self.rows)

    @property
    def total_edges_expanded(self) -> int:
        return int(self.column("x2").sum())

    @property
    def average_parallelism(self) -> float:
        """Mean X^(2) over iterations — the paper's Figure 2 y-axis."""
        if not self.rows:
            return 0.0
        return float(self.parallelism.mean())

    @property
    def parallelism_cv(self) -> float:
        """Coefficient of variation of X^(2): the variability Fig. 1 shows."""
        p = self.parallelism
        if p.size == 0 or p.mean() == 0:
            return 0.0
        return float(p.std() / p.mean())

    @property
    def controller_seconds(self) -> float:
        """The controller's wall clock over the run: the ``meta`` total
        a saved trace carries, else the sum over the rows."""
        total = self.meta.get("controller_seconds")
        if total is not None:
            return float(total)
        return float(self.column("controller_seconds").sum())


def publish_run(
    registry, events, rows: Sequence[tuple], reached: int,
    queue: Optional[Sequence[int]] = None,
) -> None:
    """Book a finished run's rows into ``registry`` and ``events``, once.

    Counters add the run's totals (``sssp.relaxations`` is the sum of
    ``x2``), ``sssp.frontier`` and ``sssp.parallelism`` take the ``x1``
    and ``x2`` columns in one bulk observe each, and a live sink gets
    one ``iterations`` event holding every column as a list, then
    ``run_end``.  ``queue`` is ``(moved_from_far, moved_to_far,
    far_scanned)`` for fixed-delta rows, which do not carry them.
    """
    if not (registry.enabled or events.enabled):
        return
    # a run stopped before its first iteration still has every column
    width = len(ROW_FIELDS) if queue is None else NEARFAR_WIDTH
    columns = list(zip(*rows)) or [()] * width
    relaxations = sum(columns[1])
    if registry.enabled:
        if queue is None:  # a stepper row's three fields after drains
            queue = [sum(c) for c in columns[NEARFAR_WIDTH : NEARFAR_WIDTH + 3]]
        drains = sum(columns[NEARFAR_WIDTH - 1])
        for name, total in zip(_TOTALS, (len(rows), relaxations, *queue, drains)):
            registry.counter(name).inc(total)
        registry.histogram("sssp.frontier").observe_many(columns[0])
        registry.histogram("sssp.parallelism").observe_many(columns[1])
    if events.enabled:
        event = {"type": "iterations"}
        event.update(zip(ROW_FIELDS, map(list, columns)))
        events.emit(event)
        events.emit(
            {"type": "run_end", "iterations": len(rows),
             "relaxations": relaxations, "reached": reached}
        )


_TOTALS = (
    "sssp.iterations",
    "sssp.relaxations",
    "sssp.queue.moved_from_far",
    "sssp.queue.moved_to_far",
    "sssp.queue.far_scanned",
    "sssp.queue.drains",
)
