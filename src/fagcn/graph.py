"""Undirected graph structure and the normalized adjacency used by the
convolution layers. A ``Graph`` stores one form of its edges, ``pairs``
(the CSR layout of I + A), and its degrees; the edge set, the dense
adjacency and every n x n operator are derived from ``pairs``."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .util import text_lines


class Graph:
    """Immutable undirected graph over node indices 0..n-1.

    Stores ``pairs = (centers, members, indptr)``: each node paired with
    itself and each neighbor, sorted by center, then member, node i's
    from ``indptr[i]`` to ``indptr[i + 1]``; and ``degree`` (float64,
    self-pair not counted). Input edges are deduplicated and symmetrized;
    input self-loops add nothing. Lazy views: ``edges``, the set of
    ``(i, j)`` with i < j, and the dense ``adjacency`` (zero diagonal),
    kept for reference checks and the benchmark's memory count.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise DataError(f"graph needs an int number of nodes >= 1, got n={n!r}")
        edges = list(edges)
        try:
            ends = np.array(edges) if edges else np.empty((0, 2), dtype=np.intp)
        except ValueError:  # ragged
            ends = np.empty(0)
        if ends.ndim != 2 or ends.shape[1] != 2 or ends.dtype.kind not in "iu":
            raise DataError(f"edges must be pairs of integer node indices, got {edges[:3]}")
        outside = (ends < 0) | (ends >= n)
        if outside.any():
            bad = ends[outside.any(axis=1)][0].tolist()
            raise DataError(f"edge {tuple(bad)} out of range for n={n}")
        ends = ends.astype(np.intp, copy=False)
        # pair (c, m) as the key c * n + m, so one sort orders by center, then member
        keys = np.sort(np.concatenate([ends @ [n, 1], ends @ [1, n], np.arange(n) * (n + 1)]))
        keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
        centers, members = np.divmod(keys, n)
        indptr = np.searchsorted(centers, np.arange(n + 1))
        self.n = n
        self.pairs = centers, members, indptr
        self.degree = np.diff(indptr) - 1.0

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        centers, members, _ = self.pairs
        upper = centers < members
        return frozenset(zip(centers[upper].tolist(), members[upper].tolist()))

    @cached_property
    def adjacency(self) -> np.ndarray:
        centers, members, _ = self.pairs
        return self.dense(centers != members)

    def dense(self, values) -> np.ndarray:
        """The n x n matrix with ``values`` (one per pair, or a scalar)
        at the pairs' (center, member) entries and zero elsewhere."""
        centers, members, _ = self.pairs
        out = np.zeros((self.n, self.n))
        out[centers, members] = values
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n={self.n}, edges={int(self.degree.sum()) // 2})"


@dataclass(frozen=True)
class Neighborhood:
    """A node together with its first-order neighbors, sorted ascending."""

    center: int
    members: tuple[int, ...]


def check_node(g: Graph, i) -> None:
    """Raise ConfigError unless ``i`` is an int node index of ``g``."""
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < g.n:
        raise ConfigError(f"node index must be an int in [0, {g.n}), got {i!r}")


def neighborhood(g: Graph, i: int) -> Neighborhood:
    """Closed neighborhood of node i: itself plus all adjacent nodes."""
    check_node(g, i)
    _, members, indptr = g.pairs
    return Neighborhood(center=i, members=tuple(members[indptr[i]:indptr[i + 1]].tolist()))


def normalized_adjacency(g: Graph) -> np.ndarray:
    """Symmetrically normalized adjacency with self-loops: pair (c, m)
    holds 1 / sqrt((d_c + 1)(d_m + 1)).

    Degrees for the normalization count the self-loop (D + I), which
    keeps every row well defined even for isolated nodes: their only
    entry is 1 on the diagonal.
    """
    centers, members, _ = g.pairs
    inv_sqrt = 1.0 / np.sqrt(g.degree + 1.0)
    return g.dense(inv_sqrt[centers] * inv_sqrt[members])


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
