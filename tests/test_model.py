"""Full model: layer contracts against loop oracles, loss closed forms,
equivalence with the straight-line re-implementation, and gradient
checks for every parameter group."""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import fagcn.model as model
import fagcn.tensor as T
from fagcn.corpus import ContentCorpus, split
from fagcn.datasets import four_node_fixture, synthetic_citation
from fagcn.errors import ConfigError, DataError, NumericError, ShapeError
from fagcn.graph import Graph, neighborhood
from fagcn.noise import inject_noise
from fagcn.model import (BaselineParams, GraphOperators, LabelMatrix,
                         ModelParams, PairOperator, bag_of_words, baseline_gcn_forward,
                         classify, encode_nodes, export_attention, forward,
                         init_for_variant, layer1, layer2, loss, node_input_features)
from fagcn.tensor import Tape, Tensor
from fagcn.training import ExperimentConfig, evaluate, predict, train

from conftest import grad_check, sum_all
from _oracle import (adjacency_of, arrays_of, listed_ones, normalized_adjacency_of,
                     straightline_baseline, straightline_forward, straightline_loss)


def fixture_params(variant: str, seed: int = 0) -> ModelParams:
    _, corpus, _ = four_node_fixture()
    return ModelParams.init(corpus.vocab_size, corpus.num_classes,
                            embed_dim=4, feature_dim=4, hidden_dim=3,
                            variant=variant, rng=np.random.default_rng(seed))


def pair_token_layout(graph: Graph, lengths) -> tuple[np.ndarray, np.ndarray]:
    """The token rows and segment starts of the (pair, token) layout,
    built by loops: segment p holds node ``members[p]``'s token rows."""
    starts = np.cumsum(lengths) - lengths
    rows, segments = [], []
    for m in graph.pairs[1]:
        segments.append(len(rows))
        rows += range(starts[m], starts[m] + lengths[m])
    return np.array(rows), np.array(segments)


class TestNodeInputFeatures:
    def test_mean_aggregation_without_attention(self, rng):
        # the hidden state evolves across positions, so even identical
        # tokens get position-dependent vectors; the "none" variant is a
        # plain mean of the rows (and the row itself for single tokens)
        graph = Graph(1, [])
        corpus = ContentCorpus(node_ids=[0], contents=[[2, 2, 2]], labels=[0],
                               label_names=["x"], vocab_size=3)
        params = ModelParams.init(3, 1, 4, 4, 3, "none", rng)
        encoded, weights, rows, starts = node_input_features(params, corpus, graph)
        np.testing.assert_array_equal(encoded.data, encode_nodes(params, corpus).data)
        np.testing.assert_array_equal(weights.data, np.full((3, 1), 1 / 3))
        np.testing.assert_array_equal(rows, [0, 1, 2])
        np.testing.assert_array_equal(starts, [0])
        mixed = T.gather_segment_sum(weights, encoded, rows, starts)
        np.testing.assert_allclose(mixed.data[0], encoded.data.mean(axis=0), atol=1e-12)

    @pytest.mark.parametrize("variant", ["none", "self", "context"])
    def test_one_pair_token_layout_for_every_variant(self, variant):
        graph, corpus, _ = four_node_fixture()
        params = fixture_params(variant, seed=6)
        _, weights, rows, starts = node_input_features(params, corpus, graph)
        lengths = [len(tokens) for tokens in corpus.contents]
        expected_rows, expected_starts = pair_token_layout(graph, lengths)
        np.testing.assert_array_equal(rows, expected_rows)
        np.testing.assert_array_equal(starts, expected_starts)
        np.testing.assert_allclose(np.add.reduceat(weights.data[:, 0], starts), 1.0,
                                   atol=1e-12)

    def test_context_with_zero_bilinear_matches_none(self):
        graph, corpus, _ = four_node_fixture()
        plain = fixture_params("none", seed=3)
        ctx = fixture_params("context", seed=3)
        shared = dict(plain.named_parameters())
        for name, t in ctx.named_parameters():
            if name in shared:
                t.data[...] = shared[name].data
        ctx.attention.bilinear.data[...] = 0.0
        z_plain = forward(plain, graph, corpus).data
        z_ctx = forward(ctx, graph, corpus).data
        np.testing.assert_allclose(z_ctx, z_plain, atol=1e-12)


    @pytest.mark.parametrize("variant", ["none", "self", "context"])
    @pytest.mark.parametrize("dataset", ["four_node", "sixty_node"])
    def test_tape_records_do_not_grow_with_the_graph(self, variant, dataset):
        if dataset == "four_node":
            graph, corpus, _ = four_node_fixture()
        else:
            graph, corpus, _ = synthetic_citation(num_classes=3, nodes_per_class=20)
        params = ModelParams.init(corpus.vocab_size, corpus.num_classes, 4, 4, 3, variant,
                                  np.random.default_rng(0))
        with Tape() as tape:
            encoded = encode_nodes(params, corpus)
            before = len(tape)
            features = node_input_features(params, corpus, graph, encoded=encoded)
            attention_records = len(tape) - before
            before = len(tape)
            layer1(graph, features, params.conv1_weight)
            layer1_records = len(tape) - before
        # projection (transpose, matmul), weights times pair coefficients
        # (a constant under "none", so not recorded), one segment sum
        assert attention_records <= 5
        assert layer1_records == (3 if variant == "none" else 4)

    @pytest.mark.parametrize("dataset", ["four_node", "sixty_node"])
    def test_encoder_records_do_not_grow_with_the_corpus(self, dataset):
        # one gather, one op per LSTM direction, their sum, one dropout
        if dataset == "four_node":
            _, corpus, _ = four_node_fixture()
        else:
            _, corpus, _ = synthetic_citation(num_classes=3, nodes_per_class=20)
        params = ModelParams.init(corpus.vocab_size, corpus.num_classes, 4, 4, 3, "self",
                                  np.random.default_rng(0))
        with Tape() as tape:
            encoded = encode_nodes(params, corpus, training=True, dropout_lstm=0.5,
                                   rng=np.random.default_rng(1))
        assert len(tape) <= 5
        assert encoded.shape == (sum(len(c) for c in corpus.contents), 4)

    def test_encoder_dropout_is_one_mask_over_all_tokens(self):
        # one draw over every token row: the same stream as one draw per
        # node in node order
        _, corpus, _ = four_node_fixture()
        params = fixture_params("self")
        dropped = encode_nodes(params, corpus, training=True, dropout_lstm=0.5,
                               rng=np.random.default_rng(7)).data
        plain = encode_nodes(params, corpus).data
        keep = np.random.default_rng(7).random(plain.shape) >= 0.5
        np.testing.assert_array_equal(dropped, plain * keep * 2.0)

    def test_empty_corpus_is_shape_error(self):
        corpus = ContentCorpus(node_ids=[], contents=[], labels=[], label_names=["a"],
                               vocab_size=6)
        with pytest.raises(ShapeError):
            encode_nodes(fixture_params("self"), corpus)

    def test_encoded_count_must_match_graph(self, rng):
        graph, corpus, _ = four_node_fixture()
        params = fixture_params("context")
        encoded = encode_nodes(params, corpus)
        with pytest.raises(ShapeError):
            node_input_features(params, corpus, Graph(5, []), encoded=encoded)


def layer1_input(graph: Graph, lengths, dim: int, rng, uniform: bool = False):
    """Random token rows of the given per-node lengths, laid out with
    per-(pair, token) weights that differ from center to center (or are
    uniform per segment), as ``node_input_features`` hands them over."""
    rows, segments = pair_token_layout(graph, lengths)
    if uniform:
        counts = np.diff(segments, append=rows.size)
        weights = np.repeat(1.0 / counts, counts)
    else:
        weights = rng.random(rows.size)
    encoded = rng.standard_normal((int(np.sum(lengths)), dim))
    return encoded, weights, (Tensor(encoded), Tensor(weights[:, None]), rows, segments)


class TestLayer1:
    def test_isolated_node(self, rng):
        graph = Graph(1, [])
        encoded, weights, features = layer1_input(graph, [3], 4, rng)
        w0 = Tensor(rng.standard_normal((3, 4)))
        out = layer1(graph, features, w0)
        np.testing.assert_allclose(out.data[0], w0.data @ (weights @ encoded), atol=1e-12)

    def test_identity_weight_path_center(self, rng):
        graph = Graph(3, [(0, 1), (1, 2)])
        encoded, _, features = layer1_input(graph, [2, 1, 3], 4, rng, uniform=True)
        out = layer1(graph, features, Tensor(np.eye(4)))
        means = [encoded[0:2].mean(axis=0), encoded[2], encoded[3:6].mean(axis=0)]
        np.testing.assert_allclose(out.data[1], np.sum(means, axis=0), atol=1e-12)

    def test_matches_per_node_loop_oracle(self, rng):
        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)])
        lengths = [2, 1, 4, 3, 2]
        starts = np.cumsum(lengths) - lengths
        encoded, weights, features = layer1_input(graph, lengths, 4, rng)
        w0 = rng.standard_normal((3, 4))
        norm = normalized_adjacency_of(graph)
        for normalize in (False, True):
            out = layer1(graph, features, Tensor(w0), normalize=normalize)
            t = 0
            for i in range(5):
                expected = np.zeros(3)
                for m in neighborhood(graph, i).members:
                    coeff = norm[i, m] if normalize else 1.0
                    for j in range(lengths[m]):
                        expected += coeff * weights[t] * (w0 @ encoded[starts[m] + j])
                        t += 1
                np.testing.assert_allclose(out.data[i], expected, atol=1e-12)
            assert t == weights.size

    def test_normalize_switch_uses_normalized_weights(self, rng):
        # weights that do not depend on the center reduce layer1 to
        # norm_adj @ mixed @ W0^T, with mixed the per-node weighted mean
        graph = Graph(3, [(0, 1), (1, 2)])
        encoded, _, features = layer1_input(graph, [2, 1, 3], 4, rng, uniform=True)
        w0 = rng.standard_normal((2, 4))
        out = layer1(graph, features, Tensor(w0), normalize=True)
        mixed = np.stack([encoded[0:2].mean(axis=0), encoded[2], encoded[3:6].mean(axis=0)])
        expected = normalized_adjacency_of(graph) @ mixed @ w0.T
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_each_pair_row_is_used_once(self, rng):
        # weight one on every (pair, token) row and an identity weight:
        # node i sums every token row of its closed neighborhood once
        graph = Graph(3, [(0, 1), (1, 2)])
        encoded, weights, (tokens, _, rows, starts) = layer1_input(graph, [2, 1, 3], 2, rng)
        out = layer1(graph, (tokens, Tensor(np.ones((weights.size, 1))), rows, starts),
                     Tensor(np.eye(2)))
        np.testing.assert_allclose(out.data, [encoded[0:3].sum(axis=0),
                                              encoded.sum(axis=0),
                                              encoded[2:6].sum(axis=0)], atol=1e-15)

    def test_wrong_row_count_is_shape_error(self, rng):
        graph = Graph(3, [(0, 1), (1, 2)])
        _, _, features = layer1_input(graph, [2, 1, 3], 4, rng)
        encoded, weights, rows, starts = features
        with pytest.raises(ShapeError):  # laid out for another graph
            layer1(Graph(3, [(0, 1)]), features, Tensor(np.eye(4)))
        with pytest.raises(ShapeError):  # one weight short
            layer1(graph, (encoded, Tensor(weights.data[1:]), rows, starts),
                   Tensor(np.eye(4)))
        with pytest.raises(ShapeError):  # token rows narrower than the weight
            layer1(graph, features, Tensor(np.eye(5)))


class TestLayer2:
    def test_all_negative_hidden_gives_zero(self, rng):
        graph = Graph(3, [(0, 1), (1, 2)])
        ops = GraphOperators.build(graph)
        out = layer2(ops.norm_adj, Tensor(-np.abs(rng.standard_normal((3, 4)))),
                     Tensor(rng.standard_normal((4, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_single_node(self, rng):
        ops = GraphOperators.build(Graph(1, []))
        hidden = rng.standard_normal((1, 4))
        w1 = rng.standard_normal((4, 2))
        out = layer2(ops.norm_adj, Tensor(hidden), Tensor(w1))
        np.testing.assert_allclose(out.data, np.maximum(0, hidden) @ w1, atol=1e-12)

    def test_three_node_path_dense_oracle(self, rng):
        graph = Graph(3, [(0, 1), (1, 2)])
        ops = GraphOperators.build(graph)
        hidden = rng.standard_normal((3, 4))
        w1 = rng.standard_normal((4, 2))
        out = layer2(ops.norm_adj, Tensor(hidden), Tensor(w1))
        expected = normalized_adjacency_of(graph) @ np.maximum(0.0, hidden) @ w1
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_propagates_at_class_width_both_ways(self, rng, monkeypatch):
        # layer2 multiplies by its weight before it propagates, Â(H·W2), so
        # every sweep, forward and backward, and those of a baseline epoch,
        # runs on 3 class columns and none on the 16 hidden ones
        widths = []
        swept_sums = T._swept_sums

        def recording(w, x, idx, sweep):
            widths.append(x.shape[1])
            return swept_sums(w, x, idx, sweep)

        monkeypatch.setattr(T, "_swept_sums", recording)
        graph, corpus, _ = synthetic_citation(3, 10)
        hidden = Tensor(rng.standard_normal((graph.n, 16)))
        w = Tensor(rng.standard_normal((16, 3)))
        with Tape() as tape:
            out = layer2(GraphOperators.build(graph).norm_adj, hidden, w,
                         training=True, dropout_gcn=0.5, rng=rng)
            tape.backward(sum_all(out))
        assert widths == [3, 3]
        config = ExperimentConfig(hidden_dim=16, epochs=1, variant="baseline_gcn")
        train(config, graph, corpus, split(corpus.n, config.train_fraction, rng))
        assert widths == [3] * 5  # and the epoch's forward, backward and evaluation


PAIR_GRAPHS = {
    "single-node": Graph(1, []),
    "isolated-nodes": Graph(6, [(0, 1), (1, 2), (2, 0), (3, 1)]),
    "irregular": Graph(12, [(i, j) for i in range(12) for j in range(i + 1, 12)
                         if (3 * i + 5 * j) % 7 < 2]),
}


class TestPairOperator:
    @pytest.mark.parametrize("name", PAIR_GRAPHS)
    def test_coefficients_match_the_dense_references(self, name):
        graph = PAIR_GRAPHS[name]
        ops = GraphOperators.build(graph)
        assert ops.support.data.shape == ops.norm_adj.data.shape == graph.pairs[1].shape
        np.testing.assert_array_equal(graph.dense(ops.support.data),
                                      adjacency_of(graph) + np.eye(graph.n))
        np.testing.assert_array_equal(graph.dense(ops.norm_adj.data),
                                      normalized_adjacency_of(graph))

    @pytest.mark.parametrize("name", PAIR_GRAPHS)
    def test_product_matches_the_dense_product(self, name, rng):
        graph = PAIR_GRAPHS[name]
        ops = GraphOperators.build(graph)
        x = rng.standard_normal((graph.n, 3))
        for op in (ops.support, ops.norm_adj):
            np.testing.assert_allclose(op.propagate(Tensor(x)).data,
                                       graph.dense(op.data) @ x, rtol=0, atol=1e-12)

    @staticmethod
    def constants(n: int, rng) -> dict[str, np.ndarray]:
        """0/1 constant arrays for ``propagate_nonzeros``, with all-zero
        rows and columns."""
        sparse = (rng.random((n, 7)) < 0.3).astype(float)
        sparse[::2] = 0.0
        sparse[:, [1, 4]] = 0.0
        return {"binary": rng.integers(0, 2, size=(n, 5)).astype(float),
                "zero-rows-and-columns": sparse,
                "all-zero": np.zeros((n, 4)),
                "no-columns": np.zeros((n, 0))}

    @pytest.mark.parametrize("name", PAIR_GRAPHS)
    def test_constant_product_matches_the_dense_product(self, name, rng):
        graph = PAIR_GRAPHS[name]
        ops = GraphOperators.build(graph)
        for x in self.constants(graph.n, rng).values():
            np.testing.assert_allclose(ops.norm_adj.propagate_nonzeros(*listed_ones(x)),
                                       normalized_adjacency_of(graph) @ x, rtol=0, atol=1e-12)
            np.testing.assert_allclose(ops.support.propagate_nonzeros(*listed_ones(x)),
                                       (adjacency_of(graph) + np.eye(graph.n)) @ x,
                                       rtol=0, atol=1e-12)

    def test_row_count_must_match_the_graph(self):
        op = GraphOperators.build(Graph(3, [(0, 1)])).norm_adj
        w1, w2 = Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2)))
        for rows in (2, 4):
            with pytest.raises(ShapeError):
                op.propagate(Tensor(np.ones((rows, 2))))
            with pytest.raises(ShapeError):
                op.propagate_nonzeros(np.zeros(rows, dtype=np.intp),
                                      np.ones(rows, dtype=np.intp), 2)
            with pytest.raises(ShapeError):
                baseline_gcn_forward(op, T.constant(np.ones((rows, 2))), w1, w2)

    @pytest.mark.parametrize("scale", [np.ones(2), np.ones(4), np.ones((3, 1)), 1.0],
                             ids=["too-few", "too-many", "column", "scalar"])
    def test_a_scale_is_one_value_per_node(self, scale):
        graph = Graph(3, [(0, 1)])
        with pytest.raises(ShapeError, match="one scale per node"):
            PairOperator(graph, scale)

    def test_is_diag_scale_times_the_closed_neighbourhoods_times_diag_scale(self, rng):
        graph = PAIR_GRAPHS["irregular"]
        scale = rng.uniform(0.5, 2.0, graph.n)
        op = PairOperator(graph, scale)
        np.testing.assert_array_equal(
            graph.dense(op.data),
            np.diag(scale) @ (adjacency_of(graph) + np.eye(graph.n)) @ np.diag(scale))
        x = rng.standard_normal((graph.n, 2))
        np.testing.assert_allclose(op.propagate(Tensor(x)).data, graph.dense(op.data) @ x,
                                   rtol=0, atol=1e-12)

    def test_gradients_through_layer2(self, rng):
        norm_adj = GraphOperators.build(PAIR_GRAPHS["isolated-nodes"]).norm_adj
        hidden = Tensor(rng.standard_normal((6, 4)))
        w = Tensor(rng.standard_normal((4, 3)))
        probe = T.constant(rng.standard_normal((6, 3)))

        def loss_fn():
            return sum_all(T.mul(probe, layer2(norm_adj, hidden, w)))

        assert grad_check(loss_fn, [("hidden", hidden), ("w", w)], eps=1e-6) < 1e-7

    def test_gradients_through_baseline(self, rng):
        norm_adj = GraphOperators.build(PAIR_GRAPHS["irregular"]).norm_adj
        bow = T.constant(rng.integers(0, 2, size=(12, 7)).astype(float))
        params = BaselineParams.init(vocab_size=7, num_classes=3, hidden_dim=4,
                                     rng=np.random.default_rng(4))
        labels = LabelMatrix.build([k % 3 for k in range(12)], 3, train_idx=[0, 4, 5, 9])

        def loss_fn():
            z = baseline_gcn_forward(norm_adj, bow, params.conv1_weight, params.conv2_weight)
            return loss(z, labels, params, 0.0, 5e-4)

        assert grad_check(loss_fn, params.named_parameters(), eps=1e-6) < 1e-7


def hub_on_ring(n: int) -> Graph:
    """A ring of n nodes and a hub, node n, joined to each of them."""
    return Graph(n + 1, [(i, (i + 1) % n) for i in range(n)] + [(i, n) for i in range(n)])


SWEEP_GRAPHS = {
    **PAIR_GRAPHS,
    "isolated": Graph(5, []),
    "star": Graph(2001, [(0, leaf) for leaf in range(1, 2001)]),
    "hub-on-ring": hub_on_ring(30),
}


def propagated_with_gradient(op: PairOperator, x: np.ndarray,
                             probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``op.propagate(x)`` and the gradient of sum(probe * it) in x."""
    xt = Tensor(x)
    with Tape() as tape:
        out = op.propagate(xt)
        tape.backward(sum_all(T.mul(T.constant(probe), out)))
    return out.data, xt.grad


class TestPairSweep:
    """``PairOperator.propagate`` sweeps the pairs, longest closed
    neighbourhood first, and its input gradient is the same sweep, as
    every operator is symmetric."""

    @pytest.mark.parametrize("name", SWEEP_GRAPHS)
    def test_forward_and_input_gradient_match_the_dense_oracle(self, name, rng):
        graph = SWEEP_GRAPHS[name]
        ops = GraphOperators.build(graph)
        x, probe = rng.standard_normal((2, graph.n, 3))
        for op, dense in ((ops.support, adjacency_of(graph) + np.eye(graph.n)),
                          (ops.norm_adj, normalized_adjacency_of(graph))):
            out, grad = propagated_with_gradient(op, x, probe)
            np.testing.assert_allclose(out, dense @ x, rtol=0, atol=1e-12)
            np.testing.assert_allclose(grad, dense.T @ probe, rtol=0, atol=1e-12)

    def test_a_star_sweeps_two_steps_and_finishes_its_hub_in_the_tail(self):
        sweep, _ = SWEEP_GRAPHS["star"].pair_sweep
        assert sweep.batch.tolist() == [2001, 2001]
        assert sweep.order[0] == 0 and sweep.tail.tolist() == [0]

    def test_the_sweep_runs_while_as_many_centers_remain_as_steps_have_run(self):
        # a path of 4 nodes: two centers have a third pair, after two steps
        sweep, _ = Graph(4, [(0, 1), (1, 2), (2, 3)]).pair_sweep
        assert sweep.batch.tolist() == [4, 4, 2] and sweep.tail.size == 0

    def test_a_hub_on_a_ring_finishes_in_the_tail(self):
        # ring nodes have 4 pairs each; at step 4 only the hub is left
        sweep, rows = SWEEP_GRAPHS["hub-on-ring"].pair_sweep
        assert sweep.batch.tolist() == [31] * 4
        assert sweep.order[0] == 30 and sweep.tail.tolist() == [0]
        assert rows[4 * 31:].tolist() == list(range(4, 30)) + [30]

    def test_isolated_nodes_sweep_one_step(self):
        sweep, rows = SWEEP_GRAPHS["isolated"].pair_sweep
        assert sweep.batch.tolist() == [5] and sweep.tail.size == 0
        assert rows.tolist() == sweep.order.tolist() == list(range(5))

    def test_holds_no_pairs_by_width_array(self):
        # 3,000 nodes, 21,000 pairs, width 16: one pairs x width float64
        # array is 2.69 MB; the first call also builds the sweep
        rng = np.random.default_rng(5)
        edges: set[tuple[int, int]] = set()
        while len(edges) < 9000:
            i, j = rng.integers(0, 3000, size=2)
            if i != j:
                edges.add((min(i, j), max(i, j)))
        graph = Graph(3000, sorted(edges))
        assert graph.pairs[1].size == 21000
        norm_adj = GraphOperators.build(graph).norm_adj
        x, probe = rng.standard_normal((2, 3000, 16))
        tracemalloc.start()
        try:
            propagated_with_gradient(norm_adj, x, probe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 21000 * 16 * 8


def summed_in_pair_order(op: PairOperator, x: np.ndarray) -> np.ndarray:
    """``op``'s product with ``x``, each output row summed one pair at a
    time in pair order from zero, as a single ``np.bincount`` sums it."""
    centers, members, _ = op.graph.pairs
    out = np.zeros(x.shape)
    for c, m, coef in zip(centers, members, op.data):
        out[c] += coef * x[m]
    return out


def contents_with_repeats(n: int, vocab: int, rng) -> list[list[int]]:
    """1-8 tokens per node, drawn with repeats from ``vocab`` terms."""
    return [rng.integers(0, vocab, size=k).tolist() for k in rng.integers(1, 9, size=n)]


def forward_constant(norm_adj: PairOperator, bow: np.ndarray) -> np.ndarray:
    """The constant norm_adj @ bow that ``baseline_gcn_forward`` builds
    from ``bow``'s ones, taken where it enters the baseline's head."""
    with mock.patch.object(model, "_baseline_head", lambda _, propagated, *__: propagated):
        return baseline_gcn_forward(norm_adj, T.constant(bow), None, None)


class TestConstantProductInBlocks:
    """``PairOperator.propagate_nonzeros`` over each node's distinct terms
    sums in blocks of whole centers, and every block size gives the bits
    of one sum over all pairs in pair order, as ``baseline_gcn_forward``
    does from the bag of words' ones."""

    @staticmethod
    def product(graph: Graph, contents, vocab: int):
        corpus = ContentCorpus(node_ids=list(range(graph.n)), contents=contents,
                               labels=[0] * graph.n, label_names=["x"], vocab_size=vocab)
        bow = bag_of_words(corpus, vocab)
        op = GraphOperators.build(graph).norm_adj
        return op.propagate_nonzeros(*corpus.distinct_tokens, vocab), op, bow

    @pytest.mark.parametrize("block", [1, 2, 5, 24])
    @pytest.mark.parametrize("name", SWEEP_GRAPHS)
    def test_every_block_size_matches_the_oracle_bit_for_bit(self, name, block, monkeypatch,
                                                               rng):
        graph = SWEEP_GRAPHS[name]
        monkeypatch.setattr(T, "GATHER_BLOCK", block)
        product, op, bow = self.product(graph, contents_with_repeats(graph.n, 6, rng), 6)
        np.testing.assert_allclose(product, normalized_adjacency_of(graph) @ bow,
                                   rtol=0, atol=1e-12)
        assert product.tobytes() == summed_in_pair_order(op, bow).tobytes()
        assert forward_constant(op, bow).tobytes() == product.tobytes()

    def test_a_hub_bigger_than_a_block_is_a_block_of_its_own(self, rng):
        graph = SWEEP_GRAPHS["star"]
        contents = [[0, 0]] + [rng.choice(40, size=6, replace=False).tolist() + [0]
                               for _ in range(2000)]
        product, op, bow = self.product(graph, contents, 40)
        _, members, indptr = graph.pairs
        assert bow[members[:indptr[1]]].sum() > T.GATHER_BLOCK
        np.testing.assert_allclose(product, normalized_adjacency_of(graph) @ bow,
                                   rtol=0, atol=1e-12)
        assert product.tobytes() == summed_in_pair_order(op, bow).tobytes()


class TestNoDenseMatrix:
    """On a 4,000-node ring one n x n float64 matrix is 122 MiB; nothing on
    the training or evaluation path comes near that."""

    N = 4000
    BOUND = 8 * 2 ** 20

    @classmethod
    def ring(cls) -> tuple[Graph, ContentCorpus]:
        graph = Graph(cls.N, [(i, (i + 1) % cls.N) for i in range(cls.N)])
        classes = [i % 2 for i in range(cls.N)]
        corpus = ContentCorpus(node_ids=list(range(cls.N)), contents=[[k] for k in classes],
                               labels=classes, label_names=["a", "b"], vocab_size=2)
        return graph, corpus

    @staticmethod
    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_building_the_operators(self):
        graph, _ = self.ring()
        assert self.peak(lambda: GraphOperators.build(graph)) < self.BOUND

    def test_eval_forward(self, rng):
        graph, corpus = self.ring()
        params = ModelParams.init(2, 2, embed_dim=2, feature_dim=2, hidden_dim=2,
                                  variant="none", rng=rng)
        assert self.peak(lambda: forward(params, graph, corpus)) < self.BOUND

    def test_one_baseline_epoch(self):
        graph, corpus = self.ring()
        config = ExperimentConfig(hidden_dim=2, epochs=1, variant="baseline_gcn")
        dataset_split = split(corpus.n, config.train_fraction, np.random.default_rng(0))
        assert self.peak(lambda: train(config, graph, corpus, dataset_split)) < self.BOUND

    @classmethod
    def wide_vocabulary_bind_peak(cls) -> float:
        """bind's peak on 3,000 nodes x 1,030 terms, in n x vocab float64
        arrays (23.6 MiB each)."""
        graph, corpus, _ = synthetic_citation(3, 1000, filler_vocab=1000)
        ops = GraphOperators.build(graph)
        params = BaselineParams.init(corpus.vocab_size, corpus.num_classes, hidden_dim=2,
                                     rng=np.random.default_rng(0))
        array_bytes = corpus.n * corpus.vocab_size * 8
        return cls.peak(lambda: params.bind(graph, corpus, ops)) / array_bytes

    def test_baseline_bind_on_a_wide_vocabulary(self):
        # gathering every pair's whole vocabulary row peaked at 9.4 arrays
        assert self.wide_vocabulary_bind_peak() < 3

    def test_baseline_bind_builds_no_bag_of_words(self):
        # building the bag of words besides the output peaked at 2.17 arrays
        assert self.wide_vocabulary_bind_peak() < 1.5


class TestClassify:
    def test_zero_row_uniform(self):
        out = classify(Tensor(np.zeros((1, 4))))
        np.testing.assert_allclose(out.data, np.full((1, 4), 0.25), atol=1e-15)

    def test_dominant_entry_saturates(self):
        out = classify(Tensor([[50.0, 0.0, 0.0]]))
        assert out.data[0, 0] > 0.999999

    def test_rows_sum_to_one(self, rng):
        out = classify(Tensor(rng.standard_normal((7, 3)) * 10))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)


class TestLoss:
    def test_perfect_prediction_zero_loss(self):
        z = Tensor([[1.0, 0.0], [0.0, 1.0]])
        labels = LabelMatrix.build([0, 1], 2, train_idx=[0, 1])
        params = fixture_params("none")
        assert loss(z, labels, params, 0.0, 0.0).item() == pytest.approx(0.0, abs=1e-12)

    def test_uniform_prediction_closed_form(self):
        num_classes = 5
        z = Tensor(np.full((3, num_classes), 1.0 / num_classes))
        labels = LabelMatrix.build([2, 0, 1], num_classes, train_idx=[1])
        params = fixture_params("none")
        out = loss(z, labels, params, 0.0, 0.0).item()
        assert out == pytest.approx(np.log(num_classes), abs=1e-12)

    def test_matches_loop_oracle_with_penalties(self, rng):
        params = fixture_params("context", seed=9)
        z_raw = rng.random((4, 2)) + 0.05
        z_raw /= z_raw.sum(axis=1, keepdims=True)
        labels = LabelMatrix.build([0, 1, 0, 1], 2, train_idx=[0, 2, 3])
        got = loss(Tensor(z_raw), labels, params, 5e-3, 5e-4).item()
        expected = straightline_loss(z_raw, np.eye(2)[[0, 1, 0, 1]], [0, 2, 3],
                                     arrays_of(params), 5e-3, 5e-4)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_loss_non_negative(self, rng):
        params = fixture_params("self", seed=4)
        graph, corpus, _ = four_node_fixture()
        z = forward(params, graph, corpus)
        labels = LabelMatrix.build(corpus.labels, 2, train_idx=[0, 1, 2])
        assert loss(z, labels, params, 5e-3, 5e-4).item() >= 0.0

    @staticmethod
    def penalized(variant: str) -> tuple[ModelParams | BaselineParams, list[Tensor]]:
        if variant == "baseline_gcn":
            _, corpus, _ = four_node_fixture()
            params = BaselineParams.init(corpus.vocab_size, 2, hidden_dim=3,
                                         rng=np.random.default_rng(2))
        else:
            params = fixture_params(variant, seed=2)
        return params, params.feature_reg_terms() + params.node_reg_terms()

    @pytest.mark.parametrize("variant", ["none", "self", "context", "baseline_gcn"])
    def test_records_one_tape_step(self, variant):
        graph, corpus, _ = four_node_fixture()
        params, _ = self.penalized(variant)
        labels = LabelMatrix.build(corpus.labels, 2, train_idx=[0, 2])
        with Tape() as tape:
            z = params.bind(graph, corpus, GraphOperators.build(graph))(training=False)
            before = len(tape)
            loss(z, labels, params, 5e-3, 5e-4)
            assert len(tape) == before + 1

    @pytest.mark.parametrize("variant", ["context", "baseline_gcn"])
    def test_gradients_match_the_closed_forms(self, variant):
        # an output gradient of 3 reaches z as -3 Y / z and each penalized
        # weight W as 2 * 3 * lambda * W
        params, weights = self.penalized(variant)
        z_raw = np.array([[0.7, 0.3], [0.0, 1.0], [0.2, 0.8], [1e-13, 1.0]])
        z = Tensor(z_raw)
        labels = LabelMatrix.build([0, 1, 0, 0], 2, train_idx=[0, 1, 3])
        with Tape() as tape:
            out = loss(z, labels, params, 5e-3, 5e-4)
            tape.backward(sum_all(T.mul(T.constant([[3.0]]), out)))
        expected = np.zeros((4, 2))
        expected[0, 0], expected[1, 1] = -3.0 / 0.7, -3.0
        np.testing.assert_allclose(z.grad, expected, rtol=1e-15)
        lambdas = [5e-3] * len(params.feature_reg_terms()) + [5e-4] * len(params.node_reg_terms())
        for w, lam in zip(weights, lambdas):
            np.testing.assert_allclose(w.grad, 6.0 * lam * w.data, rtol=1e-15)

    @pytest.mark.parametrize("variant", ["context", "baseline_gcn"])
    def test_gradients_share_no_memory(self, rng, variant):
        params, weights = self.penalized(variant)
        z = Tensor(rng.random((4, 2)) + 0.05)
        labels = LabelMatrix.build([0, 1, 0, 1], 2, train_idx=[0, 1, 3])
        with Tape() as tape:
            tape.backward(loss(z, labels, params, 5e-3, 5e-4))
        tensors = [z, *weights]
        for t in tensors:
            before = [u.grad.copy() for u in tensors]
            t.grad += 1.0
            for u, grad in zip(tensors, before):
                if u is not t:
                    np.testing.assert_array_equal(u.grad, grad)

    @pytest.mark.parametrize("shape", [(4, 3), (3, 2)])
    def test_probabilities_must_fit_the_labels(self, shape):
        params = fixture_params("none")
        labels = LabelMatrix.build([0, 1, 0, 1], 2, train_idx=[0])
        with pytest.raises(ShapeError):
            loss(Tensor(np.full(shape, 0.5)), labels, params, 5e-3, 5e-4)


class TestForwardOracleEquivalence:
    @pytest.mark.parametrize("variant", ["none", "self", "context"])
    def test_matches_straightline_reimplementation(self, variant):
        graph, corpus, _ = four_node_fixture()
        for seed in range(5):
            params = fixture_params(variant, seed=seed)
            z = forward(params, graph, corpus).data
            expected = straightline_forward(arrays_of(params), adjacency_of(graph),
                                            corpus.contents, variant)
            np.testing.assert_allclose(z, expected, atol=1e-12)

    def test_layer1_normalize_variant_matches(self):
        graph, corpus, _ = four_node_fixture()
        params = fixture_params("context", seed=11)
        z = forward(params, graph, corpus, layer1_normalize=True).data
        expected = straightline_forward(arrays_of(params), adjacency_of(graph),
                                        corpus.contents, "context",
                                        layer1_normalize=True)
        np.testing.assert_allclose(z, expected, atol=1e-12)


    @pytest.mark.parametrize("layer1_normalize", [False, True])
    @pytest.mark.parametrize("variant", ["none", "self", "context"])
    def test_isolated_node_matches(self, variant, layer1_normalize):
        graph, corpus, _ = four_node_fixture()
        graph = Graph(5, graph.edges)
        corpus = ContentCorpus(node_ids=list(range(5)),
                               contents=corpus.contents + [[2, 2, 5]],
                               labels=corpus.labels + [1], label_names=corpus.label_names,
                               vocab_size=corpus.vocab_size)
        params = fixture_params(variant, seed=17)
        z = forward(params, graph, corpus, layer1_normalize=layer1_normalize).data
        expected = straightline_forward(arrays_of(params), adjacency_of(graph), corpus.contents,
                                        variant, layer1_normalize=layer1_normalize)
        np.testing.assert_allclose(z, expected, atol=1e-12)


class TestPermutationEquivariance:
    def test_relabeling_nodes_permutes_output_rows(self):
        graph, corpus, _ = four_node_fixture()
        params = fixture_params("context", seed=21)
        z = forward(params, graph, corpus).data

        perm = [2, 0, 3, 1]  # new index of each old node
        edges = [(perm[i], perm[j]) for i, j in graph.edges]
        permuted_graph = Graph(4, edges)
        contents = [None] * 4
        labels = [0] * 4
        for old, new in enumerate(perm):
            contents[new] = corpus.contents[old]
            labels[new] = corpus.labels[old]
        permuted_corpus = ContentCorpus(node_ids=list(range(4)), contents=contents,
                                        labels=labels, label_names=corpus.label_names,
                                        vocab_size=corpus.vocab_size)
        z_perm = forward(params, permuted_graph, permuted_corpus).data
        for old, new in enumerate(perm):
            np.testing.assert_allclose(z_perm[new], z[old], atol=1e-12)


class TestSingleTokenContents:
    def test_aggregation_is_identity_on_single_rows(self, rng):
        graph = Graph(2, [(0, 1)])
        corpus = ContentCorpus(node_ids=[0, 1], contents=[[0], [1]], labels=[0, 1],
                               label_names=["a", "b"], vocab_size=2)
        # pairs (0, 0), (0, 1), (1, 0), (1, 1): segment p is member p's one
        # token row, with weight one
        np.testing.assert_array_equal(graph.pairs[1], [0, 1, 0, 1])
        for variant in ("none", "self", "context"):
            params = ModelParams.init(2, 2, 4, 4, 3, variant, rng)
            _, weights, rows, starts = node_input_features(params, corpus, graph)
            np.testing.assert_array_equal(rows, [0, 1, 0, 1])
            np.testing.assert_array_equal(starts, [0, 1, 2, 3])
            np.testing.assert_allclose(weights.data, np.ones((4, 1)), atol=1e-15)


class TestErrorContract:
    def test_negative_regularization_is_config_error(self):
        params = fixture_params("none")
        z = Tensor(np.full((4, 2), 0.5))
        labels = LabelMatrix.build([0, 1, 0, 1], 2, train_idx=[0])
        # a NaN weight used to drop its penalty, and an infinite one gave an infinite loss
        for bad in (-1e-3, np.nan, np.inf):
            for l2_feature, l2_node in ((bad, 0.0), (0.0, bad)):
                with pytest.raises(ConfigError):
                    loss(z, labels, params, l2_feature, l2_node)

    @pytest.mark.parametrize("center", [-1, 4])
    def test_export_out_of_range_node_is_config_error(self, center):
        graph, corpus, _ = four_node_fixture()
        with pytest.raises(ConfigError):
            export_attention(fixture_params("self"), graph, corpus,
                             ["ash", "oak", "elm", "fir", "yew", "bay"], center=center)

    @pytest.mark.parametrize("center", [1.5, True, "1", None])
    def test_export_non_int_node_is_config_error(self, center):
        graph, corpus, _ = four_node_fixture()
        with pytest.raises(ConfigError, match="int"):
            export_attention(fixture_params("self"), graph, corpus,
                             ["ash", "oak", "elm", "fir", "yew", "bay"], center=center)


class TestOperatorsOfAnotherGraph:
    """``operators=`` built for another graph is a ConfigError wherever it
    is accepted; those of a graph with the same pairs are taken."""

    @staticmethod
    def setting(variant: str):
        graph, corpus, _ = synthetic_citation(3, 10)
        params = init_for_variant(variant, corpus.vocab_size, corpus.num_classes, embed_dim=4,
                                  feature_dim=4, hidden_dim=3, rng=np.random.default_rng(0))
        other = GraphOperators.build(Graph(graph.n, [(0, 1)]))
        return graph, corpus, params, other

    @pytest.mark.parametrize("variant", ["none", "baseline_gcn"])
    def test_evaluate_and_bind_refuse_them(self, variant):
        graph, corpus, params, other = self.setting(variant)
        with pytest.raises(ConfigError, match="do not fit"):
            evaluate(params, graph, corpus, range(corpus.n), operators=other)
        with pytest.raises(ConfigError, match="do not fit"):
            params.bind(graph, corpus, other)

    def test_forward_and_layer1_refuse_them(self):
        graph, corpus, params, other = self.setting("none")
        with pytest.raises(ConfigError, match="do not fit"):
            forward(params, graph, corpus, operators=other)
        features = node_input_features(params, corpus, graph)
        with pytest.raises(ConfigError, match="do not fit"):
            layer1(graph, features, params.conv1_weight, operators=other)
        own = GraphOperators.build(graph)
        with pytest.raises(ConfigError, match="do not fit"):
            forward(params, graph, corpus,
                    operators=GraphOperators(support=own.support, norm_adj=other.norm_adj))

    def test_other_pairs_of_the_same_size_are_refused(self):
        _, corpus, _ = four_node_fixture()
        params = fixture_params("none")
        path, other = Graph(4, [(0, 1), (1, 2), (2, 3)]), Graph(4, [(0, 1), (1, 2), (1, 3)])
        assert other.pairs[1].size == path.pairs[1].size
        with pytest.raises(ConfigError, match="do not fit"):
            forward(params, path, corpus, operators=GraphOperators.build(other))

    @pytest.mark.parametrize("variant", ["none", "baseline_gcn"])
    def test_those_of_an_equal_graph_are_taken(self, variant):
        graph, corpus, params, _ = self.setting(variant)
        twin = GraphOperators.build(Graph(graph.n, sorted(graph.edges)))
        np.testing.assert_array_equal(predict(params, graph, corpus, operators=twin),
                                      predict(params, graph, corpus))


class TestBaselineGcn:
    def test_zero_first_layer_gives_uniform(self, rng):
        graph = Graph(3, [(0, 1), (1, 2)])
        ops = GraphOperators.build(graph)
        bow = T.constant(rng.integers(0, 2, size=(3, 6)).astype(float))
        z = baseline_gcn_forward(ops.norm_adj, bow, Tensor(np.zeros((6, 4))),
                                 Tensor(rng.standard_normal((4, 2))))
        np.testing.assert_allclose(z.data, np.full((3, 2), 0.5), atol=1e-15)

    def test_single_node_is_a_perceptron(self, rng):
        ops = GraphOperators.build(Graph(1, []))
        bow = rng.integers(0, 2, size=(1, 5)).astype(float)
        w0 = rng.standard_normal((5, 3))
        w1 = rng.standard_normal((3, 2))
        z = baseline_gcn_forward(ops.norm_adj, T.constant(bow), Tensor(w0), Tensor(w1))
        logits = np.maximum(0.0, bow @ w0) @ w1
        e = np.exp(logits - logits.max())
        np.testing.assert_allclose(z.data, e / e.sum(), atol=1e-12)

    def test_three_node_fixture_matches_oracle(self, rng):
        graph = Graph(3, [(0, 1), (1, 2)])
        ops = GraphOperators.build(graph)
        params = BaselineParams.init(vocab_size=6, num_classes=2, hidden_dim=4,
                                     rng=np.random.default_rng(8))
        bow = rng.integers(0, 2, size=(3, 6)).astype(float)
        z = baseline_gcn_forward(ops.norm_adj, T.constant(bow),
                                 params.conv1_weight, params.conv2_weight)
        expected = straightline_baseline(arrays_of(params), adjacency_of(graph), bow)
        np.testing.assert_allclose(z.data, expected, atol=1e-12)

    def test_bind_builds_the_forward_constant_bit_for_bit(self):
        # perfbench replays training through baseline_gcn_forward, so its
        # probabilities must equal the bound model's exactly
        graph, corpus, _ = synthetic_citation(3, 20)
        ops = GraphOperators.build(graph)
        params = BaselineParams.init(corpus.vocab_size, corpus.num_classes, hidden_dim=4,
                                     rng=np.random.default_rng(3))
        bound = params.bind(graph, corpus, ops)()
        direct = baseline_gcn_forward(ops.norm_adj,
                                      T.constant(bag_of_words(corpus, corpus.vocab_size)),
                                      params.conv1_weight, params.conv2_weight)
        assert bound.data.tobytes() == direct.data.tobytes()

    @pytest.mark.parametrize("entry", [2.0, -1.0, 0.5, np.nan])
    def test_a_bag_entry_other_than_zero_or_one_is_a_data_error(self, entry):
        ops = GraphOperators.build(Graph(3, [(0, 1), (1, 2)]))
        bow = np.eye(3)
        bow[1, 2] = entry
        with pytest.raises(DataError):
            baseline_gcn_forward(ops.norm_adj, T.constant(bow),
                                 Tensor(np.ones((3, 2))), Tensor(np.ones((2, 2))))

    def test_bag_of_words_is_binary_presence(self):
        corpus = ContentCorpus(node_ids=[0, 1], contents=[[0, 0, 2], [1]],
                               labels=[0, 0], label_names=["x"], vocab_size=3)
        bow = bag_of_words(corpus, 3)
        np.testing.assert_array_equal(bow, [[1, 0, 1], [0, 1, 0]])

    def test_bag_of_words_matches_per_node_loop(self, rng):
        # ragged lengths and repeated tokens; two terms occur nowhere
        contents = [rng.integers(0, 8, size=k).tolist() for k in rng.integers(1, 7, size=30)]
        corpus = ContentCorpus(node_ids=list(range(30)), contents=contents, labels=[0] * 30,
                               label_names=["x"], vocab_size=10)
        expected = np.zeros((30, 10))
        for i, tokens in enumerate(contents):
            expected[i, tokens] = 1.0
        assert bag_of_words(corpus, 10).tobytes() == expected.tobytes()


class TestFullModelGradients:
    @staticmethod
    def worst_error(variant, graph, corpus) -> float:
        params = fixture_params(variant, seed=13)
        labels = LabelMatrix.build(corpus.labels, 2, train_idx=[0, 2])

        def loss_fn():
            z = forward(params, graph, corpus)
            return loss(z, labels, params, 5e-3, 5e-4)

        return grad_check(loss_fn, params.named_parameters(), eps=1e-5,
                          rng=np.random.default_rng(0), samples_per_param=4)

    @pytest.mark.parametrize("variant", ["none", "self", "context"])
    def test_every_parameter_group_passes(self, variant):
        graph, corpus, _ = four_node_fixture()
        assert self.worst_error(variant, graph, corpus) < 1e-4

    @pytest.mark.parametrize("variant", ["none", "self", "context"])
    def test_every_parameter_group_passes_after_injected_noise(self, variant):
        graph, corpus, _ = four_node_fixture()
        noisy = inject_noise(corpus, 0.4, np.random.default_rng(3))
        assert [len(c) for c in noisy.contents] == [3, 4, 1, 3]
        assert self.worst_error(variant, graph, noisy) < 1e-4


@pytest.mark.parametrize("variant", ["none", "self", "context", "baseline_gcn"])
def test_every_tape_record_is_made_by_op(monkeypatch, variant):
    graph, corpus, _ = synthetic_citation(num_classes=2, nodes_per_class=5)
    rng = np.random.default_rng(0)
    if variant == "baseline_gcn":
        params = BaselineParams.init(corpus.vocab_size, 2, hidden_dim=3, rng=rng)
    else:
        params = ModelParams.init(corpus.vocab_size, 2, 4, 4, 3, variant, rng)
    labels = LabelMatrix.build(corpus.labels, 2, train_idx=[0, 3, 6])
    tape, made = Tape(), []
    op = T._op

    def counted(data, inputs, grads):
        before = len(tape)
        out = op(data, inputs, grads)
        made.append(len(tape) - before)
        return out

    monkeypatch.setattr(T, "_op", counted)
    with tape:
        z = params.bind(graph, corpus, GraphOperators.build(graph))(
            training=True, dropout_lstm=0.5, dropout_gcn=0.5, rng=rng)
        loss(z, labels, params, 5e-3, 5e-4)
    assert len(tape) > 0 and sum(made) == len(tape)


class TestExportAttention:
    @pytest.mark.parametrize("count", [0, 5])
    def test_fewer_terms_than_the_vocabulary_is_a_shape_error(self, count):
        graph, corpus, _ = four_node_fixture()
        terms = ["ash", "oak", "elm", "fir", "yew", "bay"][:count]
        with pytest.raises(ShapeError, match=f"{count} terms .* vocabulary of 6"):
            export_attention(fixture_params("self"), graph, corpus, terms, center=3)

    def test_uniform_weights_for_none_variant(self):
        graph, corpus, _ = four_node_fixture()
        params = fixture_params("none", seed=1)
        record = export_attention(params, graph, corpus,
                                  ["ash", "oak", "elm", "fir", "yew", "bay"], center=1)
        assert record["variant"] == "none"
        assert [n["node"] for n in record["neighbors"]] == [0, 1, 2]
        for entry in record["neighbors"]:
            weights = [w["weight"] for w in entry["weights"]]
            np.testing.assert_allclose(weights, 1.0 / len(weights), atol=1e-12)

    def test_weights_sum_to_one_and_sorted(self):
        graph, corpus, _ = four_node_fixture()
        params = fixture_params("context", seed=2)
        record = export_attention(params, graph, corpus,
                                  ["ash", "oak", "elm", "fir", "yew", "bay"], center=2)
        for entry in record["neighbors"]:
            weights = [w["weight"] for w in entry["weights"]]
            assert abs(sum(weights) - 1.0) < 1e-9
            assert weights == sorted(weights, reverse=True)

    def test_single_token_neighbor_gets_weight_one(self):
        graph, corpus, _ = four_node_fixture()
        params = fixture_params("self", seed=5)
        record = export_attention(params, graph, corpus,
                                  ["ash", "oak", "elm", "fir", "yew", "bay"], center=3)
        node2 = next(n for n in record["neighbors"] if n["node"] == 2)
        assert len(node2["weights"]) == 1
        assert node2["weights"][0]["weight"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("variant", ["none", "self", "context"])
    def test_overflowing_weights_are_numeric_error(self, variant):
        # every row the encoder returns is finite: its gates saturate
        graph, corpus, _ = four_node_fixture()
        params = fixture_params(variant)
        for _, tensor in params.named_parameters():
            tensor.data[:] = 1e300
        with pytest.raises(NumericError, match="overflow"):
            export_attention(params, graph, corpus, ["ash", "oak", "elm", "fir", "yew", "bay"],
                             center=0)

    @staticmethod
    def with_a_spare_term(variant: str) -> tuple[Graph, ContentCorpus, ModelParams]:
        # a vocabulary of 7, so no node uses term 6; the encoders' input
        # weights are scaled so that projecting a table row of 1e300 overflows
        graph, corpus, _ = four_node_fixture()
        corpus = dataclasses.replace(corpus, vocab_size=7)
        params = ModelParams.init(7, corpus.num_classes, embed_dim=4, feature_dim=4, hidden_dim=3,
                                  variant=variant, rng=np.random.default_rng(0))
        for direction in (params.lstm_fwd, params.lstm_bwd):
            direction.weight.data[:4] *= 1e9
        return graph, corpus, params

    @pytest.mark.parametrize("variant", ["none", "self", "context"])
    def test_a_term_no_node_uses_is_never_projected(self, variant):
        graph, corpus, params = self.with_a_spare_term(variant)
        terms = ["ash", "oak", "elm", "fir", "yew", "bay", "elk"]
        record, z = export_attention(params, graph, corpus, terms, 0), predict(params, graph, corpus)
        params.embeddings.data[6] = 1e300
        assert export_attention(params, graph, corpus, terms, 0) == record
        np.testing.assert_array_equal(predict(params, graph, corpus), z)

    @pytest.mark.parametrize("variant", ["none", "self", "context"])
    def test_a_used_term_of_1e300_is_numeric_error(self, variant):
        graph, corpus, params = self.with_a_spare_term(variant)
        params.embeddings.data[0] = 1e300
        with pytest.raises(NumericError, match="overflow"):
            export_attention(params, graph, corpus,
                             ["ash", "oak", "elm", "fir", "yew", "bay", "elk"], center=0)

    def test_non_finite_weights_are_numeric_error(self):
        graph, corpus, _ = four_node_fixture()
        params = fixture_params("self")
        params.attention.score_vector.data[:] = np.nan
        with pytest.raises(NumericError, match="not finite"):
            export_attention(params, graph, corpus, ["ash", "oak", "elm", "fir", "yew", "bay"],
                             center=0)

    @pytest.mark.parametrize("variant", ["none", "self", "context"])
    def test_weights_per_neighbor_for_every_variant(self, variant):
        # each neighbor lists its own tokens, weights summing to one; under
        # "none" and "self" a member's weights are the same for every center
        # that aggregates it, under "none" uniform, and under "context" they
        # may differ per center
        graph, corpus, _ = four_node_fixture()
        terms = ["ash", "oak", "elm", "fir", "yew", "bay"]
        params = fixture_params(variant, seed=4)
        seen: dict[int, list[dict]] = {}
        for center in range(graph.n):
            record = export_attention(params, graph, corpus, terms, center)
            assert [n["node"] for n in record["neighbors"]] == \
                list(neighborhood(graph, center).members)
            for entry in record["neighbors"]:
                tokens = [terms[t] for t in corpus.contents[entry["node"]]]
                weights = [w["weight"] for w in entry["weights"]]
                assert sorted(w["token"] for w in entry["weights"]) == sorted(tokens)
                assert abs(sum(weights) - 1.0) < 1e-9
                assert weights == sorted(weights, reverse=True)
                if variant == "none":
                    assert [w["token"] for w in entry["weights"]] == tokens
                    np.testing.assert_allclose(weights, 1.0 / len(tokens), atol=1e-15)
                seen.setdefault(entry["node"], []).append(
                    {w["token"]: w["weight"] for w in entry["weights"]})
        assert len(seen[2]) == 4  # node 2 is aggregated by every node
        for member, per_center in seen.items():
            same = all(by_token == per_center[0] for by_token in per_center)
            assert same or (variant == "context" and len(corpus.contents[member]) > 1)
        if variant == "context":
            assert not all(by_token == seen[0][0] for by_token in seen[0])
