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
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

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


def _violations(source: str, label: str) -> List[str]:
    found = []
    for node in ast.walk(ast.parse(source, filename=label)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in BANNED
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(node.lineno, a.name) for a in node.names if a.name in BANNED]
    return [f"{label}:{line}: np.{name} -- {BANNED[name]}" for line, name in sorted(found)]


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
