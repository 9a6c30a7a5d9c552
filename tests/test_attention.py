"""Attention weights over the segment layout: hand-computed softmax
values, the context vector of the aggregating node, simplex properties,
variant reductions, and gradient checks."""

import numpy as np
import pytest

import fagcn.tensor as T
from fagcn.attention import AttentionParams, PairTokens, token_weights
from fagcn.errors import ConfigError, ShapeError
from fagcn.graph import Graph
from fagcn.tensor import Tape, Tensor

from conftest import grad_check, sum_all


def self_params(vector) -> AttentionParams:
    return AttentionParams("self", score_vector=Tensor(vector))


def context_params(bilinear) -> AttentionParams:
    return AttentionParams("context", bilinear=Tensor(bilinear))


def member_weights(attention, center_rows, member_rows) -> np.ndarray:
    """Weights of node 1's token rows when node 0 aggregates it, in a
    two-node graph with one edge: segment 1, pair (0, 1), for every
    variant."""
    h = Tensor(np.vstack([center_rows, member_rows]))
    starts = np.array([0, len(center_rows)])
    layout = PairTokens(Graph(2, [(0, 1)]), starts, h.rows)
    weights = token_weights(attention, h, layout)
    bounds = np.append(layout.pair_starts, weights.rows)
    np.testing.assert_array_equal(layout.rows[bounds[1]:bounds[2]], np.arange(starts[1], h.rows))
    return weights.data[bounds[1]:bounds[2], 0]


def segment_sums(weights: Tensor, segments) -> np.ndarray:
    return np.add.reduceat(weights.data[:, 0], segments)


def per_pair(layout: PairTokens) -> T.GatherLayout:
    """The layout's entries with one segment per pair instead of per center."""
    return T.GatherLayout(layout.rows, layout.pair_starts)


class TestAttentionSelf:
    def test_single_row_gives_weight_one(self, rng):
        weights = member_weights(self_params(rng.standard_normal((1, 4))),
                                 rng.standard_normal((2, 4)), rng.standard_normal((1, 4)))
        np.testing.assert_allclose(weights, [1.0], atol=1e-15)

    def test_zero_vector_gives_uniform(self, rng):
        weights = member_weights(self_params(np.zeros((1, 3))),
                                 rng.standard_normal((1, 3)), rng.standard_normal((5, 3)))
        np.testing.assert_allclose(weights, np.full(5, 0.2), atol=1e-15)

    def test_hand_computed_two_rows(self):
        # rows 0 and 1 through tanh give scores 0 and tanh(1)=0.76159;
        # softmax of those is [0.31831, 0.68169]
        layout = PairTokens(Graph(1, []), np.array([0]), 2)
        weights = token_weights(self_params([[1.0]]), Tensor([[0.0], [1.0]]), layout)
        np.testing.assert_allclose(weights.data, [[0.3184], [0.6816]], atol=1e-3)
        expected = np.exp([0.0, np.tanh(1.0)])
        np.testing.assert_allclose(weights.data[:, 0], expected / expected.sum(), atol=1e-12)
        np.testing.assert_array_equal(layout.rows, [0, 1])
        np.testing.assert_array_equal(layout.pair_starts, [0])


class TestContextVector:
    """The context of the aggregating node is the sum of its token rows."""

    def test_single_row_is_itself(self, rng):
        h = rng.standard_normal((1, 6))
        member = rng.standard_normal((3, 6))
        scores = member @ h[0]
        expected = np.exp(scores - scores.max())
        weights = member_weights(context_params(np.eye(6)), h, member)
        np.testing.assert_allclose(weights, expected / expected.sum(), atol=1e-12)

    def test_hand_sum(self):
        # context [1+3, 2+4] = [4, 6] scores the member's unit rows 4 and 6
        weights = member_weights(context_params(np.eye(2)), [[1.0, 2.0], [3.0, 4.0]], np.eye(2))
        e2 = np.exp(2.0)
        np.testing.assert_allclose(weights, [1 / (1 + e2), e2 / (1 + e2)], atol=1e-12)

    def test_matches_column_sum_oracle(self, rng):
        h = rng.standard_normal((5, 8))
        member = rng.standard_normal((3, 8))
        bilinear = rng.standard_normal((8, 8)) / 8
        context = np.array([sum(h[i][k] for i in range(5)) for k in range(8)])
        scores = np.array([member[j] @ bilinear @ context for j in range(3)])
        expected = np.exp(scores) / np.exp(scores).sum()
        np.testing.assert_allclose(member_weights(context_params(bilinear), h, member),
                                   expected, atol=1e-12)


class TestAttentionContext:
    def test_zero_bilinear_gives_uniform(self, rng):
        weights = member_weights(context_params(np.zeros((3, 3))),
                                 rng.standard_normal((1, 3)), rng.standard_normal((4, 3)))
        np.testing.assert_allclose(weights, np.full(4, 0.25), atol=1e-15)

    def test_hand_computed_identity_bilinear(self):
        weights = member_weights(context_params(np.eye(2)), [[1.0, 0.0]],
                                 [[1.0, 0.0], [0.0, 1.0]])
        e = np.e
        np.testing.assert_allclose(weights, [e / (e + 1), 1 / (e + 1)], atol=1e-12)
        np.testing.assert_allclose(weights, [0.7311, 0.2689], atol=1e-4)

    def test_identical_rows_share_weight(self, rng):
        row = rng.standard_normal(3)
        weights = member_weights(context_params(rng.standard_normal((3, 3))),
                                 rng.standard_normal((1, 3)), np.vstack([row, row]))
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-15)

    def test_scaling_context_preserves_argmax(self, rng):
        member = rng.standard_normal((5, 4))
        context = rng.standard_normal((1, 4))
        attention = context_params(rng.standard_normal((4, 4)))
        a = member_weights(attention, context, member)
        b = member_weights(attention, 3.5 * context, member)
        assert np.argmax(a) == np.argmax(b)
        assert not np.allclose(a, b)  # weights themselves do change

    def test_weights_depend_on_the_center(self, rng):
        # the member's segment differs per center; its own segment is
        # scored against its own context
        h = rng.standard_normal((6, 3))
        attention = context_params(rng.standard_normal((3, 3)))
        graph = Graph(3, [(0, 2), (1, 2)])
        starts, ends = np.array([0, 2, 3]), np.array([2, 3, 6])
        layout = PairTokens(graph, starts, 6)
        weights = token_weights(attention, Tensor(h), layout)
        centers, members, _ = graph.pairs
        bounds = np.append(layout.pair_starts, weights.rows)
        by_pair = {(int(c), int(m)): weights.data[bounds[p]:bounds[p + 1], 0]
                   for p, (c, m) in enumerate(zip(centers, members))}
        assert not np.allclose(by_pair[(0, 2)], by_pair[(1, 2)])
        for (c, m), w in by_pair.items():
            context = h[starts[c]:ends[c]].sum(axis=0)
            scores = h[starts[m]:ends[m]] @ attention.bilinear.data @ context
            np.testing.assert_allclose(w, np.exp(scores) / np.exp(scores).sum(), atol=1e-12)

    def test_the_pair_index_softmaxes_as_the_pair_starts_do(self, rng):
        # the layout's per-entry pair index is what segment_softmax builds
        # from the pair starts, and reading it changes no bit, forward or
        # backward
        graph = Graph(4, [(0, 2), (1, 2), (2, 3)])
        starts = np.array([0, 2, 3, 7])
        layout = PairTokens(graph, starts, 9)
        lengths = np.diff(layout.pair_starts, append=layout.rows.size)
        np.testing.assert_array_equal(layout.pair_of,
                                      np.repeat(np.arange(lengths.size), lengths))
        scores, probe = rng.standard_normal((2, layout.rows.size, 1))
        runs = []
        for seg in (layout.pair_of, None):
            x = Tensor(scores)
            with Tape() as tape:
                out = T.segment_softmax(x, layout.pair_starts, seg)
                tape.backward(sum_all(T.mul(T.constant(probe), out)))
            runs.append((out.data.tobytes(), x.grad.tobytes()))
        assert runs[0] == runs[1]

    def test_node_count_mismatch(self, rng):
        with pytest.raises(ShapeError):
            PairTokens(Graph(3, []), np.array([0, 1]), 3)
        with pytest.raises(ShapeError):
            token_weights(AttentionParams("none"), Tensor(rng.standard_normal((3, 2))),
                          PairTokens(Graph(2, []), np.array([0, 1]), 4))


class TestAggregate:
    """A node's feature row is the weighted segment sum of its token rows."""

    def test_uniform_mean(self):
        h = Tensor([[2.0, 0.0], [0.0, 2.0]])
        layout = PairTokens(Graph(1, []), np.array([0]), 2)
        weights = token_weights(AttentionParams("none"), h, layout)
        out = T.gather_segment_sum(weights, h, layout)
        np.testing.assert_array_equal(out.data, [[1.0, 1.0]])

    def test_degenerate_weight_picks_row(self, rng):
        h = rng.standard_normal((2, 4))
        out = T.gather_segment_sum(Tensor([[1.0], [0.0]]), Tensor(h), T.GatherLayout([0, 1], [0]))
        np.testing.assert_allclose(out.data, h[0:1], atol=1e-15)

    def test_matches_weighted_sum_oracle(self, rng):
        h = rng.standard_normal((4, 6))
        raw = rng.random(4)
        alpha = raw / raw.sum()
        expected = np.zeros(6)
        for j in range(4):
            expected += alpha[j] * h[j]
        out = T.gather_segment_sum(Tensor(alpha.reshape(4, 1)), Tensor(h),
                                   T.GatherLayout(range(4), [0]))
        np.testing.assert_allclose(out.data[0], expected, atol=1e-12)

    def test_weight_length_mismatch(self, rng):
        with pytest.raises(ShapeError):
            T.gather_segment_sum(Tensor([[0.5], [0.5]]), Tensor(rng.standard_normal((3, 2))),
                                 T.GatherLayout(range(3), [0]))


def random_instance(rng):
    """A random small graph (isolated nodes likely) with ragged token rows."""
    n = int(rng.integers(1, 6))
    edges = [(int(i), int(j)) for i, j in rng.integers(0, n, size=(int(rng.integers(0, 6)), 2))]
    lengths = rng.integers(1, 6, size=n)
    dim = int(rng.integers(2, 9))
    h = Tensor(rng.standard_normal((int(lengths.sum()), dim)) * 3)
    return Graph(n, edges), h, np.cumsum(lengths) - lengths, dim


class TestSimplexAndReductions:
    """Properties over random instances: weights live on the simplex of
    each segment, degenerate parameters reduce every variant to the plain
    mean, and aggregation stays inside the convex hull of the rows."""

    def test_hundred_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            graph, h, starts, dim = random_instance(rng)
            ends = np.append(starts[1:], h.rows)
            _, members, _ = graph.pairs
            layout = PairTokens(graph, starts, h.rows)
            pairs = per_pair(layout)
            uniform = token_weights(AttentionParams("none"), h, layout)
            plain = T.gather_segment_sum(uniform, h, pairs).data
            for attention in (self_params(rng.standard_normal((1, dim))),
                              context_params(rng.standard_normal((dim, dim)) / dim)):
                weights = token_weights(attention, h, layout)
                np.testing.assert_allclose(segment_sums(weights, layout.pair_starts), 1.0,
                                           atol=1e-9)
                assert np.all(weights.data > 0.0)
                mixed = T.gather_segment_sum(weights, h, pairs).data
                for p, m in enumerate(members):
                    block = h.data[starts[m]:ends[m]]
                    assert np.all(mixed[p] >= block.min(axis=0) - 1e-12)
                    assert np.all(mixed[p] <= block.max(axis=0) + 1e-12)

            for attention in (self_params(np.zeros((1, dim))),
                              context_params(np.zeros((dim, dim)))):
                mixed = T.gather_segment_sum(token_weights(attention, h, layout), h, pairs).data
                np.testing.assert_allclose(mixed, plain, atol=1e-12)

    def test_gradients_through_context_attention(self, rng):
        graph = Graph(3, [(0, 1), (1, 2)])
        starts = np.array([0, 2, 3])
        features = Tensor(rng.standard_normal((6, 4)))
        bilinear = Tensor(rng.standard_normal((4, 4)) / 2)
        attention = AttentionParams("context", bilinear=bilinear)
        probe = rng.standard_normal((graph.pairs[0].size, 4))
        targets = [("features", features), ("bilinear", bilinear)]

        layout = PairTokens(graph, starts, features.rows)

        def objective():
            weights = token_weights(attention, features, layout)
            mixed = T.gather_segment_sum(weights, features, per_pair(layout))
            return sum_all(T.mul(T.constant(probe), mixed))

        assert grad_check(objective, targets, eps=1e-5) < 1e-6


class TestAttentionParams:
    def test_variant_field_consistency(self, rng):
        with pytest.raises(ConfigError):
            AttentionParams("none", score_vector=Tensor(np.zeros((1, 3))))
        with pytest.raises(ConfigError):
            AttentionParams("self")
        with pytest.raises(ConfigError):
            AttentionParams("sideways")

    def test_init_ranges(self, rng):
        own = AttentionParams.init("self", 9, rng)
        assert np.all(np.abs(own.score_vector.data) <= 1 / 3)
        ctx = AttentionParams.init("context", 4, rng)
        assert np.all(np.abs(ctx.bilinear.data) <= 0.25)
        assert AttentionParams.init("none", 4, rng).named_parameters() == []
