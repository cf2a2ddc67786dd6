"""Graph file formats.

The paper's inputs come as DIMACS Shortest Path Challenge ``.gr`` files
(Cal) and UF sparse-matrix-collection Matrix Market files (Wiki).  We
implement readers and writers for both, plus a trivial TSV edge list,
so that a user with the real datasets can run the harness on them
unchanged.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import TextIO

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "read_dimacs",
    "write_dimacs",
    "read_matrix_market",
    "write_matrix_market",
    "read_edge_list",
    "write_edge_list",
    "load_graph",
]


def _open_text(path: str | Path, mode: str = "rt") -> TextIO:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode)  # type: ignore[return-value]
    return open(path, mode)


# ----------------------------------------------------------------------
# DIMACS Shortest Path Challenge (.gr)
# ----------------------------------------------------------------------
def read_dimacs(path: str | Path) -> CSRGraph:
    """Read a DIMACS ``.gr`` file (``p sp N M`` header, ``a u v w`` arcs).

    DIMACS vertex ids are 1-based; we convert to 0-based.
    """
    n = m = None
    src: list[int] = []
    dst: list[int] = []
    w: list[float] = []
    with _open_text(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if len(parts) != 4 or parts[1] != "sp":
                    raise ValueError(f"bad DIMACS problem line: {line!r}")
                n, m = int(parts[2]), int(parts[3])
            elif parts[0] == "a":
                if len(parts) != 4:
                    raise ValueError(f"bad DIMACS arc line: {line!r}")
                src.append(int(parts[1]) - 1)
                dst.append(int(parts[2]) - 1)
                w.append(float(parts[3]))
            else:
                raise ValueError(f"unrecognised DIMACS line: {line!r}")
    if n is None:
        raise ValueError("missing DIMACS problem line")
    if m is not None and m != len(src):
        raise ValueError(f"header declares {m} arcs but file has {len(src)}")
    return CSRGraph.from_edges(
        n,
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(w, dtype=np.float64),
        name=Path(path).stem,
    )


def write_dimacs(graph: CSRGraph, path: str | Path, *, comment: str = "") -> None:
    """Write ``graph`` in DIMACS ``.gr`` format (1-based, integer-rounded ok)."""
    with _open_text(path, "wt") as fh:
        if comment:
            for ln in comment.splitlines():
                fh.write(f"c {ln}\n")
        fh.write(f"p sp {graph.num_nodes} {graph.num_edges}\n")
        src, dst, w = graph.edge_arrays()
        buf = io.StringIO()
        for u, v, ww in zip(src, dst, w):
            if float(ww).is_integer():
                buf.write(f"a {u + 1} {v + 1} {int(ww)}\n")
            else:
                buf.write(f"a {u + 1} {v + 1} {ww:.17g}\n")
        fh.write(buf.getvalue())


# ----------------------------------------------------------------------
# Matrix Market coordinate format
# ----------------------------------------------------------------------
def read_matrix_market(path: str | Path) -> CSRGraph:
    """Read a Matrix Market ``coordinate`` file as a digraph.

    ``pattern`` matrices get unit weights; ``symmetric`` matrices are
    expanded to both directions (general UF-collection convention).
    """
    with _open_text(path) as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise ValueError("missing MatrixMarket banner")
        tokens = header.split()
        if len(tokens) < 5 or tokens[1] != "matrix" or tokens[2] != "coordinate":
            raise ValueError(f"unsupported MatrixMarket header: {header!r}")
        field, symmetry = tokens[3], tokens[4]
        if field not in {"real", "integer", "pattern"}:
            raise ValueError(f"unsupported field type {field!r}")
        if symmetry not in {"general", "symmetric"}:
            raise ValueError(f"unsupported symmetry {symmetry!r}")

        lineno = 2
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
            lineno += 1
        size = line.split()
        if len(size) != 3 or not all(t.isdecimal() for t in size):
            raise ValueError(
                f"line {lineno}: bad MatrixMarket size line {line!r} "
                "(expected 'rows cols entries')"
            )
        rows, cols, nnz = (int(t) for t in size)
        if rows != cols:
            raise ValueError("graph adjacency matrices must be square")

        src = np.empty(nnz, dtype=np.int64)
        dst = np.empty(nnz, dtype=np.int64)
        w = np.ones(nnz, dtype=np.float64)
        for i in range(nnz):
            lineno += 1
            line = fh.readline()
            if not line:
                raise ValueError(
                    f"line {lineno}: file ends after {i} of the {nnz} "
                    "entries the size line declares"
                )
            parts = line.split()
            try:
                src[i] = int(parts[0]) - 1
                dst[i] = int(parts[1]) - 1
                if field != "pattern":
                    w[i] = float(parts[2])
            except (IndexError, ValueError):
                raise ValueError(
                    f"line {lineno}: bad MatrixMarket entry {line!r}"
                ) from None

    if symmetry == "symmetric":
        off = src != dst  # mirror all off-diagonal entries
        src, dst, w = (
            np.concatenate([src, dst[off]]),
            np.concatenate([dst, src[off]]),
            np.concatenate([w, w[off]]),
        )
    return CSRGraph.from_edges(rows, src, dst, w, name=Path(path).stem, dedupe=True)


def write_matrix_market(graph: CSRGraph, path: str | Path) -> None:
    """Write the adjacency matrix in Matrix Market general/real coordinate form."""
    src, dst, w = graph.edge_arrays()
    with _open_text(path, "wt") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"% written by repro for graph {graph.name}\n")
        fh.write(f"{graph.num_nodes} {graph.num_nodes} {graph.num_edges}\n")
        buf = io.StringIO()
        for u, v, ww in zip(src, dst, w):
            buf.write(f"{u + 1} {v + 1} {ww:.17g}\n")
        fh.write(buf.getvalue())


# ----------------------------------------------------------------------
# TSV edge list
# ----------------------------------------------------------------------
def read_edge_list(path: str | Path, *, num_nodes: int | None = None) -> CSRGraph:
    """Read ``src<TAB>dst<TAB>weight`` lines (0-based ids; '#' comments)."""
    src: list[int] = []
    dst: list[int] = []
    w: list[float] = []
    with _open_text(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) == 2:
                u, v, ww = int(parts[0]), int(parts[1]), 1.0
            elif len(parts) == 3:
                u, v, ww = int(parts[0]), int(parts[1]), float(parts[2])
            else:
                raise ValueError(f"bad edge-list line: {line!r}")
            src.append(u)
            dst.append(v)
            w.append(ww)
    if num_nodes is None:
        num_nodes = (max(max(src, default=-1), max(dst, default=-1)) + 1) if src else 0
    return CSRGraph.from_edges(
        num_nodes,
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(w, dtype=np.float64),
        name=Path(path).stem,
    )


def write_edge_list(graph: CSRGraph, path: str | Path) -> None:
    """Write ``src<TAB>dst<TAB>weight`` lines."""
    src, dst, w = graph.edge_arrays()
    with _open_text(path, "wt") as fh:
        fh.write(f"# {graph.name}: {graph.num_nodes} nodes {graph.num_edges} edges\n")
        buf = io.StringIO()
        for u, v, ww in zip(src, dst, w):
            buf.write(f"{u}\t{v}\t{ww:.17g}\n")
        fh.write(buf.getvalue())


def load_graph(path: str | Path) -> CSRGraph:
    """Dispatch on extension: ``.gr[.gz]`` DIMACS, ``.mtx[.gz]`` MatrixMarket, else TSV."""
    p = Path(path)
    suffixes = [s for s in p.suffixes if s != ".gz"]
    ext = suffixes[-1] if suffixes else ""
    if ext == ".gr":
        return read_dimacs(p)
    if ext == ".mtx":
        return read_matrix_market(p)
    if ext in {".tsv", ".txt", ".el"}:
        return read_edge_list(p)
    raise ValueError(f"cannot infer graph format from {p.name!r}")
