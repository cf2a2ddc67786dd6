"""Round-trip and format tests for graph I/O."""

import gzip

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_road_network, rmat
from repro.graph.io import (
    load_graph,
    read_dimacs,
    read_edge_list,
    read_matrix_market,
    write_dimacs,
    write_edge_list,
    write_matrix_market,
)


def _assert_same_graph(a: CSRGraph, b: CSRGraph) -> None:
    assert a.num_nodes == b.num_nodes
    ea, eb = sorted(a.edges()), sorted(b.edges())
    assert len(ea) == len(eb)
    for (ua, va, wa), (ub, vb, wb) in zip(ea, eb):
        assert (ua, va) == (ub, vb)
        assert wa == pytest.approx(wb, rel=1e-12)


class TestDimacs:
    def test_roundtrip(self, tmp_path, small_grid):
        p = tmp_path / "g.gr"
        write_dimacs(small_grid, p, comment="test graph")
        g2 = read_dimacs(p)
        _assert_same_graph(small_grid, g2)

    def test_roundtrip_integer_weights(self, tmp_path, small_rmat):
        p = tmp_path / "g.gr"
        write_dimacs(small_rmat, p)
        g2 = read_dimacs(p)
        _assert_same_graph(small_rmat, g2)

    def test_gzip(self, tmp_path, small_rmat):
        p = tmp_path / "g.gr.gz"
        write_dimacs(small_rmat, p)
        with gzip.open(p, "rt") as fh:
            assert fh.readline().startswith(("c", "p"))
        _assert_same_graph(small_rmat, read_dimacs(p))

    def test_reads_hand_written(self, tmp_path):
        p = tmp_path / "hand.gr"
        p.write_text(
            "c demo\n"
            "p sp 3 2\n"
            "a 1 2 10\n"
            "a 2 3 20\n"
        )
        g = read_dimacs(p)
        assert g.num_nodes == 3
        assert sorted(g.edges()) == [(0, 1, 10.0), (1, 2, 20.0)]

    def test_missing_problem_line(self, tmp_path):
        p = tmp_path / "bad.gr"
        p.write_text("a 1 2 10\n")
        with pytest.raises(ValueError):
            read_dimacs(p)

    def test_arc_count_mismatch(self, tmp_path):
        p = tmp_path / "bad.gr"
        p.write_text("p sp 3 5\na 1 2 10\n")
        with pytest.raises(ValueError, match="declares 5 arcs"):
            read_dimacs(p)

    def test_unknown_line_rejected(self, tmp_path):
        p = tmp_path / "bad.gr"
        p.write_text("p sp 2 1\nz nonsense\n")
        with pytest.raises(ValueError, match="unrecognised"):
            read_dimacs(p)


class TestMatrixMarket:
    def test_roundtrip(self, tmp_path, small_rmat):
        p = tmp_path / "g.mtx"
        write_matrix_market(small_rmat, p)
        g2 = read_matrix_market(p)
        _assert_same_graph(small_rmat, g2)

    def test_pattern_matrix_unit_weights(self, tmp_path):
        p = tmp_path / "p.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "3 3 2\n"
            "1 2\n"
            "3 1\n"
        )
        g = read_matrix_market(p)
        assert sorted(g.edges()) == [(0, 1, 1.0), (2, 0, 1.0)]

    def test_symmetric_expansion(self, tmp_path):
        p = tmp_path / "s.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "% comment line\n"
            "3 3 2\n"
            "2 1 5.0\n"
            "3 3 7.0\n"
        )
        g = read_matrix_market(p)
        # off-diagonal mirrored, diagonal kept once
        assert sorted(g.edges()) == [(0, 1, 5.0), (1, 0, 5.0), (2, 2, 7.0)]

    def test_rejects_nonsquare(self, tmp_path):
        p = tmp_path / "ns.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n2 3 0\n")
        with pytest.raises(ValueError, match="square"):
            read_matrix_market(p)

    def test_rejects_wrong_banner(self, tmp_path):
        p = tmp_path / "b.mtx"
        p.write_text("not a matrix\n")
        with pytest.raises(ValueError, match="banner"):
            read_matrix_market(p)

    def test_rejects_complex_field(self, tmp_path):
        p = tmp_path / "c.mtx"
        p.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 0\n")
        with pytest.raises(ValueError, match="field"):
            read_matrix_market(p)

    def test_truncated_entries_name_the_line(self, tmp_path):
        p = tmp_path / "t.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% comment line\n"
            "3 3 4\n"
            "1 2 1.0\n"
            "2 3 2.0\n"
        )
        with pytest.raises(ValueError, match="line 6: file ends after 2 of the 4"):
            read_matrix_market(p)

    @pytest.mark.parametrize(
        "entry", ["1 2", "\n", "1 x 1.0", "1 2 heavy"], ids=["short", "blank", "id", "weight"]
    )
    def test_bad_entry_line_names_the_line(self, tmp_path, entry):
        p = tmp_path / "e.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            f"3 3 2\n1 2 1.0\n{entry}\n"
        )
        with pytest.raises(ValueError, match="line 4: bad MatrixMarket entry"):
            read_matrix_market(p)

    @pytest.mark.parametrize("size", ["3 3", "3 3 x", "3 3 -1", ""])
    def test_bad_size_line_names_the_line(self, tmp_path, size):
        p = tmp_path / "z.mtx"
        p.write_text(
            f"%%MatrixMarket matrix coordinate real general\n% c\n{size}\n"
        )
        with pytest.raises(ValueError, match="line 3: bad MatrixMarket size line"):
            read_matrix_market(p)


class TestEdgeList:
    def test_roundtrip(self, tmp_path, small_grid):
        p = tmp_path / "g.tsv"
        write_edge_list(small_grid, p)
        g2 = read_edge_list(p, num_nodes=small_grid.num_nodes)
        _assert_same_graph(small_grid, g2)

    def test_two_column_defaults_to_unit_weight(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("# comment\n0 1\n1 2\n")
        g = read_edge_list(p)
        assert sorted(g.edges()) == [(0, 1, 1.0), (1, 2, 1.0)]

    def test_infers_node_count(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("0\t5\t2.0\n")
        g = read_edge_list(p)
        assert g.num_nodes == 6

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("")
        g = read_edge_list(p)
        assert g.num_nodes == 0

    def test_rejects_bad_line(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("0 1 2 3 4\n")
        with pytest.raises(ValueError, match="bad edge-list line"):
            read_edge_list(p)


class TestLoadGraph:
    def test_dispatch_by_extension(self, tmp_path, small_rmat):
        gr = tmp_path / "a.gr"
        mtx = tmp_path / "a.mtx"
        tsv = tmp_path / "a.tsv"
        write_dimacs(small_rmat, gr)
        write_matrix_market(small_rmat, mtx)
        write_edge_list(small_rmat, tsv)
        for p in (gr, mtx, tsv):
            _assert_same_graph(small_rmat, load_graph(p))

    def test_gz_suffix_stripped(self, tmp_path, small_rmat):
        p = tmp_path / "a.gr.gz"
        write_dimacs(small_rmat, p)
        _assert_same_graph(small_rmat, load_graph(p))

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(ValueError, match="cannot infer"):
            load_graph(tmp_path / "a.xyz")
