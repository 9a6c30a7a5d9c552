"""Undirected graph structure and the normalized adjacency used by the
convolution layers."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .util import text_lines


class Graph:
    """Immutable undirected graph over node indices 0..n-1.

    Edges are deduplicated, symmetrized and stored unordered; self-loop
    pairs in the input are dropped (the diagonal of the adjacency matrix
    is always zero, self-loops enter only through the normalization).
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise DataError(f"graph needs at least one node, got n={n}")
        edge_set: set[tuple[int, int]] = set()
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise DataError(f"edge ({i}, {j}) out of range for n={n}")
            if i == j:
                continue
            edge_set.add((min(i, j), max(i, j)))
        self.n = n
        self.edges = frozenset(edge_set)
        adjacency = np.zeros((n, n))
        for i, j in edge_set:
            adjacency[i, j] = 1.0
            adjacency[j, i] = 1.0
        self.adjacency = adjacency
        self.degree = adjacency.sum(axis=1)

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Closed neighborhoods as index arrays ``(centers, members, indptr)``,
        built on first use: pairs sorted by center, then member, node i's
        from ``indptr[i]`` to ``indptr[i + 1]``, each node paired with itself."""
        n, ends = self.n, np.array(list(self.edges), dtype=np.intp).reshape(-1, 2)
        # pair (c, m) as the key c * n + m, so one sort orders by center, then member
        keys = np.sort(np.concatenate([ends @ [n, 1], ends @ [1, n], np.arange(n) * (n + 1)]))
        centers, members = np.divmod(keys, n)
        return centers, members, np.searchsorted(centers, np.arange(n + 1))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n={self.n}, edges={len(self.edges)})"


@dataclass(frozen=True)
class Neighborhood:
    """A node together with its first-order neighbors, sorted ascending."""

    center: int
    members: tuple[int, ...]


def neighborhood(g: Graph, i: int) -> Neighborhood:
    """Closed neighborhood of node i: itself plus all adjacent nodes."""
    if not 0 <= i < g.n:
        raise ConfigError(f"node index {i} out of range for n={g.n}")
    _, members, indptr = g.pairs
    return Neighborhood(center=i, members=tuple(members[indptr[i]:indptr[i + 1]].tolist()))


def normalized_adjacency(g: Graph) -> np.ndarray:
    """Symmetrically normalized adjacency with self-loops.

    Degrees for the normalization count the self-loop (D + I), which
    keeps every row well defined even for isolated nodes: their only
    entry is 1 on the diagonal.
    """
    with_loops = g.adjacency + np.eye(g.n)
    inv_sqrt = 1.0 / np.sqrt(g.degree + 1.0)
    return inv_sqrt[:, None] * with_loops * inv_sqrt[None, :]


def load_edge_list(path) -> list[tuple[int, int]]:
    """Parse an edge-list file: two integer node ids per line, '#' comments."""
    pairs: list[tuple[int, int]] = []
    for lineno, raw in text_lines(path, DataError):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise DataError(f"{path}:{lineno}: expected two node ids, got {line!r}")
        try:
            pairs.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise DataError(f"{path}:{lineno}: node ids must be integers") from None
    return pairs


def build_graph(node_ids: Sequence[int], id_pairs: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph over the given node id space from external id pairs.

    ``node_ids`` fixes the index order (position = node index); edge
    endpoints must all appear in it.
    """
    index = {node_id: k for k, node_id in enumerate(node_ids)}
    if len(index) != len(node_ids):
        raise DataError("duplicate node ids")
    edges = []
    for a, b in id_pairs:
        if a not in index:
            raise DataError(f"edge endpoint {a} is not a known node id")
        if b not in index:
            raise DataError(f"edge endpoint {b} is not a known node id")
        edges.append((index[a], index[b]))
    return Graph(len(node_ids), edges)
