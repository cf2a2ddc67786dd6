"""Every experiment table, byte for byte against a committed snapshot.

``python -m repro experiment all --scale 0.005`` prints every table the
harness makes, in about 4 s: the paper's figures and Table 1, the
ablations (the ``no-bootstrap`` and ``fixed-sgd`` rows included), the
power-target table and the rest.  This test regenerates that output and
compares it with ``data/experiment_all_scale0.005.txt`` line by line.
Only the columns that time this machine are masked: the wall-clock
columns of the two overhead tables (:data:`MEASURED`).

Regenerate the snapshot only when a change is meant to move a table
(a change that claims identical behaviour must pass against the old
one)::

    PYTHONPATH=src python -m repro experiment all --scale 0.005 \\
        > tests/experiments/data/experiment_all_scale0.005.txt
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path
from typing import List

import repro

SNAPSHOT = Path(__file__).parent / "data" / "experiment_all_scale0.005.txt"

# section title -> its columns measured on the wall clock
MEASURED = {
    "Section 5.2: controller runtime overhead": (
        "wall time (s)",
        "controller wall (s)",
        "us per second (wall)",
    ),
    "Observability: instrumentation overhead (fixed-delta near+far)": (
        "hooks off (s)",
        "hooks on (s)",
        "on/off",
        "noop hook cost (s)",
        "noop frac",
    ),
}

_CELL_GAP = re.compile(r"\s{2,}")


def _mask(text: str) -> List[str]:
    """``text``'s lines, with each :data:`MEASURED` table's rows split into
    cells and its measured cells replaced by ``*``."""
    out: List[str] = []
    masked = None  # column indices to mask in the current table
    columns = None  # measured column names of the current section
    for line in text.splitlines():
        if line.startswith("==="):
            columns = MEASURED.get(line.strip("= "))
            masked = None
        elif columns is not None and line.strip():
            cells = _CELL_GAP.split(line.strip())
            if masked is None:  # the table's header row
                assert set(columns) <= set(cells), (columns, cells)
                masked = {i for i, cell in enumerate(cells) if cell in columns}
            else:
                cells = ["*" if i in masked else c for i, c in enumerate(cells)]
            line = " | ".join(cells)
        out.append(line)
    return out


def test_mask_hides_only_the_measured_cells():
    table = (
        "=== Section 5.2: controller runtime overhead ===\n"
        "dataset  iterations  wall time (s)  controller wall (s)  "
        "us per second (wall)  sim overhead frac\n"
        "    cal         231          0.015                0.001"
        "              98,289.2              0.015\n"
    )
    assert _mask(table)[2] == "cal | 231 | * | * | * | 0.015"
    assert _mask(table.replace("231", "232")) != _mask(table)
    assert _mask(table.replace("0.015  ", "0.123  ", 1)) == _mask(table)


def test_every_experiment_table_matches_the_snapshot(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "experiment", "all", "--scale", "0.005"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert _mask(proc.stdout) == _mask(SNAPSHOT.read_text())
