"""Graph structure, neighborhoods, and the normalized adjacency against
a dense hand-written oracle."""

import re
import tracemalloc

import numpy as np
import pytest

from fagcn.errors import ConfigError, DataError
from fagcn.graph import (Graph, build_graph, load_edge_list, neighborhood,
                         normalized_adjacency)


def dense_oracle(adjacency: np.ndarray) -> np.ndarray:
    """Explicit D^{-1/2} (I + A) D^{-1/2} with self-loop degrees."""
    n = adjacency.shape[0]
    with_loops = np.eye(n) + adjacency
    d = np.diag(1.0 / np.sqrt(with_loops.sum(axis=1)))
    return d @ with_loops @ d


def reference_adjacency(n: int, edges) -> np.ndarray:
    """Dense A straight from a raw edge list: symmetric, zero diagonal."""
    dense = np.zeros((n, n))
    for i, j in edges:
        if i != j:
            dense[i, j] = dense[j, i] = 1.0
    return dense


def random_edges(n: int, rng: np.random.Generator, p: float = 0.3) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def random_graph(n: int, rng: np.random.Generator, p: float = 0.3) -> Graph:
    return Graph(n, random_edges(n, rng, p))


def messy_edges(n: int, rng: np.random.Generator) -> list:
    """Random endpoints with repeats, reversed pairs, self-loops and numpy
    ints; a short list leaves some nodes isolated."""
    raw = [tuple(pair) for pair in rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))]
    return raw + [(j, i) for i, j in raw[::2]] + raw[::3] + [(np.int32(n - 1), n - 1)]


class TestGraph:
    def test_symmetrizes_and_dedupes(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1), (2, 1)])
        assert g.edges == frozenset({(0, 1), (1, 2)})
        np.testing.assert_array_equal(g.adjacency, g.adjacency.T)
        np.testing.assert_array_equal(np.diag(g.adjacency), 0.0)

    def test_self_loops_dropped(self):
        g = Graph(2, [(0, 0), (0, 1)])
        assert g.edges == frozenset({(0, 1)})

    def test_degree_is_row_sum(self):
        g = Graph(4, [(0, 1), (1, 2), (1, 3)])
        np.testing.assert_array_equal(g.degree, [1, 3, 1, 1])

    def test_out_of_range_edge(self):
        with pytest.raises(DataError):
            Graph(2, [(0, 2)])

    @pytest.mark.parametrize("edges", [
        [(0, 1.5)], [(0, 1, 2)], [("0", "1")], [(0, 1), (0, 1, 2)], [(0, None)],
        [(0, 2 ** 70)], [(-1, 0)], [(0, 1), (np.int64(3), 0)], [0, 1]])
    def test_bad_endpoints_are_data_error(self, edges):
        with pytest.raises(DataError):
            Graph(3, edges)

    @pytest.mark.parametrize("n", [0, 2.5, "3", None, True])
    def test_bad_node_count_is_data_error(self, n):
        with pytest.raises(DataError, match="nodes"):
            Graph(n, [])

    def test_views_match_reference_on_messy_edges(self):
        rng = np.random.default_rng(9)
        for trial in range(60):
            n = int(rng.integers(1, 25))
            edges = messy_edges(n, rng)
            g, dense = Graph(n, edges), reference_adjacency(n, edges)
            centers, members = np.nonzero(dense + np.eye(n))
            np.testing.assert_array_equal(g.pairs[0], centers)
            np.testing.assert_array_equal(g.pairs[1], members)
            np.testing.assert_array_equal(g.pairs[2], np.r_[0, np.cumsum(dense.sum(axis=1) + 1)])
            np.testing.assert_array_equal(g.degree, dense.sum(axis=1))
            assert g.edges == {(i, j) for i, j in zip(*np.nonzero(np.triu(dense)))}
            np.testing.assert_array_equal(g.adjacency, dense)
            np.testing.assert_allclose(normalized_adjacency(g), dense_oracle(dense), atol=1e-15)

    def test_bool_endpoint_views_agree(self):
        g = Graph(3, [(0, True)])
        centers, members, indptr = g.pairs
        assert list(zip(centers.tolist(), members.tolist())) == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]
        assert g.edges == {(0, 1)}
        np.testing.assert_array_equal(g.adjacency, reference_adjacency(3, [(0, 1)]))
        np.testing.assert_array_equal(g.degree, [1, 1, 0])

    def test_construction_allocates_no_dense_matrix(self):
        ring = [(i, (i + 1) % 4000) for i in range(4000)]
        tracemalloc.start()
        try:
            g = Graph(4000, ring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        np.testing.assert_array_equal(g.degree, 2.0)


class TestNormalizedAdjacency:
    def test_single_node(self):
        np.testing.assert_array_equal(normalized_adjacency(Graph(1, [])), [[1.0]])

    def test_two_nodes_one_edge(self):
        out = normalized_adjacency(Graph(2, [(0, 1)]))
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_three_node_path_hand_values(self):
        out = normalized_adjacency(Graph(3, [(0, 1), (1, 2)]))
        s = 1.0 / np.sqrt(6.0)
        expected = [[0.5, s, 0.0], [s, 1 / 3, s], [0.0, s, 0.5]]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_matches_dense_oracle_with_isolated_nodes(self):
        rng = np.random.default_rng(42)
        for trial in range(50):
            n = int(rng.integers(1, 21))
            g = random_graph(n, rng, p=float(rng.uniform(0.0, 0.5)))
            out = normalized_adjacency(g)
            np.testing.assert_allclose(out, dense_oracle(g.adjacency), atol=1e-12)
            np.testing.assert_allclose(out, out.T, atol=1e-12)

    def test_self_loop_entries_positive(self):
        rng = np.random.default_rng(5)
        g = random_graph(12, rng)
        out = normalized_adjacency(g)
        np.testing.assert_allclose(np.diag(out), 1.0 / (g.degree + 1.0), atol=1e-15)

    def test_support_matches_neighborhood(self):
        rng = np.random.default_rng(6)
        g = random_graph(15, rng)
        out = normalized_adjacency(g)
        for i in range(g.n):
            support = tuple(np.flatnonzero(out[i] > 0.0).tolist())
            assert support == neighborhood(g, i).members


class TestNeighborhood:
    def test_isolated_node(self):
        g = Graph(6, [(0, 1)])
        assert neighborhood(g, 5).members == (5,)

    def test_path_center(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert neighborhood(g, 1).members == (0, 1, 2)

    def test_matches_adjacency_row_scan(self):
        rng = np.random.default_rng(77)
        g = random_graph(18, rng)
        for i in range(g.n):
            expected = sorted(set(np.flatnonzero(g.adjacency[i]).tolist()) | {i})
            assert list(neighborhood(g, i).members) == expected

    def test_bounds(self):
        g = Graph(2, [])
        with pytest.raises(ConfigError):
            neighborhood(g, 2)
        with pytest.raises(ConfigError):
            neighborhood(g, -1)

    @pytest.mark.parametrize("index", [1.5, True, "1", None, [1]])
    def test_non_int_index_is_config_error(self, index):
        with pytest.raises(ConfigError, match="int"):
            neighborhood(Graph(3, [(0, 1)]), index)

    def test_numpy_int_index(self):
        assert neighborhood(Graph(3, [(0, 1)]), np.int64(1)).members == (0, 1)


class TestPairs:
    def test_sorted_closed_neighborhoods(self):
        g = Graph(4, [(2, 0), (0, 1)])
        centers, members, indptr = g.pairs
        assert list(zip(centers.tolist(), members.tolist())) == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 2), (3, 3)]
        assert indptr.tolist() == [0, 3, 5, 7, 8]

    def test_matches_adjacency_with_self_loops(self):
        edges = random_edges(18, np.random.default_rng(5))
        g, reference = Graph(18, edges), reference_adjacency(18, edges) + np.eye(18)
        centers, members, indptr = g.pairs
        dense = np.zeros((g.n, g.n))
        dense[centers, members] = 1.0
        np.testing.assert_array_equal(dense, reference)
        np.testing.assert_array_equal(np.diff(indptr), reference.sum(axis=1))
        assert np.all(np.diff(centers * g.n + members) > 0)

    def test_adjacency_built_on_first_use_only(self):
        g = Graph(3, [(0, 1)])
        assert "adjacency" not in vars(g)
        assert g.adjacency is g.adjacency


class TestEdgeFiles:
    def test_parse_with_comments(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# header\n0 1\n\n2 0\n", encoding="utf-8")
        assert load_edge_list(path) == [(0, 1), (2, 0)]

    def test_bad_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1 2\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_edge_list(path)

    def test_non_integer_ids(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("a b\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_edge_list(path)

    @pytest.mark.parametrize("node_id", ["1_0", "+3", "١٠", "٣"])
    def test_node_ids_must_be_ascii_digits(self, tmp_path, node_id):
        # int() would read "1_0" and "١٠" as 10, silently joining node 10
        path = tmp_path / "edges.txt"
        path.write_text(f"0 -1\n{node_id} 2\n", encoding="utf-8")
        with pytest.raises(DataError, match="^" + re.escape(f"{path}:2: ")):
            load_edge_list(path)

    def test_build_graph_maps_external_ids(self):
        g = build_graph([10, 20, 30], [(30, 10)])
        assert g.edges == frozenset({(0, 2)})

    def test_build_graph_unknown_endpoint(self):
        with pytest.raises(DataError, match="99"):
            build_graph([10, 20], [(10, 99)])

    def test_build_graph_duplicate_ids(self):
        with pytest.raises(DataError):
            build_graph([1, 1], [])
