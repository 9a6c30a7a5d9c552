"""Per-token attention weights, all tokens scored at once and normalised
by a softmax per segment of consecutive rows, like a graph-attention
edge softmax. Variants: "none" (zero scores: a plain mean), "self"
(token h scored tanh(h)·s with a shared trained vector s) and "context"
(a neighbor's token h scored h·(c Bᵀ), c the sum of the aggregating
node's token rows). Every variant weighs one (pair, token) layout:
segment p holds the tokens of ``members[p]`` as ``centers[p]`` aggregates
it, so under "none" and "self" every pair of a member repeats its weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .graph import Graph
from .tensor import Tensor

VARIANTS = ("none", "self", "context")


@dataclass
class AttentionParams:
    """Trained attention parameters for exactly one variant.

    ``score_vector`` (1 x feature_dim) belongs to the "self" variant,
    ``bilinear`` (feature_dim x feature_dim) to "context"; "none" has no
    parameters.
    """

    variant: str
    score_vector: Tensor | None = None
    bilinear: Tensor | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown attention variant {self.variant!r}")
        if (self.variant == "self") != (self.score_vector is not None):
            raise ConfigError("score_vector is present iff variant is 'self'")
        if (self.variant == "context") != (self.bilinear is not None):
            raise ConfigError("bilinear is present iff variant is 'context'")

    @classmethod
    def init(cls, variant: str, feature_dim: int, rng: np.random.Generator) -> "AttentionParams":
        if variant == "self":
            bound = 1.0 / np.sqrt(feature_dim)
            return cls(variant, score_vector=Tensor(
                rng.uniform(-bound, bound, size=(1, feature_dim))))
        if variant == "context":
            bound = 1.0 / feature_dim
            return cls(variant, bilinear=Tensor(
                rng.uniform(-bound, bound, size=(feature_dim, feature_dim))))
        return cls(variant)  # "none", or a ConfigError for an unknown variant

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        if self.variant == "self":
            return [("attention.score_vector", self.score_vector)]
        if self.variant == "context":
            return [("attention.bilinear", self.bilinear)]
        return []


def token_weights(attention: AttentionParams, features: Tensor, starts: np.ndarray,
                  graph: Graph) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Attention weights of the (pair, token) rows of ``graph.pairs``.

    ``features`` stacks every node's token rows in node order, node i's
    from row ``starts[i]``. Returns the weight column, the row of
    ``features`` each weight belongs to, and the segment starts of the
    column: segment p holds the tokens of ``members[p]`` as seen by
    ``centers[p]``, in order. The weights of each segment sum to one.
    """
    starts = np.asarray(starts, dtype=np.intp)
    if starts.size != graph.n:
        raise ShapeError(f"token rows of {starts.size} nodes for a graph of {graph.n}")
    _, members, indptr = graph.pairs
    lengths = np.diff(starts, append=features.rows)[members]
    pair_starts = np.cumsum(lengths) - lengths
    rows = np.arange(lengths.sum()) + np.repeat(starts[members] - pair_starts, lengths)
    if attention.variant == "none":
        scores = T.constant(np.zeros((rows.size, 1)))
    elif attention.variant == "self":
        scores = T.take_rows(T.matmul(T.tanh(features), T.transpose(attention.score_vector)),
                             rows)
    else:
        contexts = T.gather_segment_sum(T.constant(np.ones((features.rows, 1))), features,
                                        np.arange(features.rows), starts)
        keys = T.matmul(contexts, T.transpose(attention.bilinear))
        # pairs are sorted by center, so each center's (pair, token) rows are one segment
        scores = T.gather_dot(features, rows, keys, pair_starts[indptr[:-1]])
    return T.segment_softmax(scores, pair_starts), rows, pair_starts
