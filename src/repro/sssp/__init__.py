"""SSSP algorithm zoo.

* :mod:`~repro.sssp.dijkstra` — binary-heap Dijkstra, the correctness
  oracle for every other algorithm.
* :mod:`~repro.sssp.bellman_ford` — vectorised Bellman–Ford, a second
  oracle which also detects negative cycles.
* :mod:`~repro.sssp.delta_stepping` — classic Meyer–Sanders
  delta-stepping with a bucket array.
* :mod:`~repro.sssp.nearfar` — the Gunrock-style near+far baseline
  (Davidson et al.) with the paper's four stages and ``X^(1..4)``
  workload counters; this is what the self-tuning algorithm in
  :mod:`repro.core` extends.
* :mod:`~repro.sssp.batch_kernels` — batched multi-source near+far:
  B queries in one pass over shared CSR arrays, composite
  ``query_id * n + v`` keys, per-query windows and termination.
* :mod:`~repro.sssp.frontier` — shared vectorised stage primitives.
* :mod:`~repro.sssp.deadline` — the ``deadline=`` every solver reads.
"""

from repro.sssp.batch_kernels import batched_nearfar_sssp
from repro.sssp.bellman_ford import NegativeCycleError, bellman_ford
from repro.sssp.deadline import DeadlineExceeded
from repro.sssp.delta_stepping import delta_stepping
from repro.sssp.dijkstra import dijkstra
from repro.sssp.kla import kla_sssp
from repro.sssp.nearfar import nearfar_sssp, suggest_delta
from repro.sssp.result import SSSPResult, assert_distances_close, extract_path

__all__ = [
    "DeadlineExceeded",
    "NegativeCycleError",
    "SSSPResult",
    "assert_distances_close",
    "batched_nearfar_sssp",
    "bellman_ford",
    "delta_stepping",
    "dijkstra",
    "extract_path",
    "kla_sssp",
    "nearfar_sssp",
    "suggest_delta",
]
