"""Full model: layer contracts against loop oracles, loss closed forms,
equivalence with the straight-line re-implementation, and gradient
checks for every parameter group."""

import numpy as np
import pytest

import fagcn.tensor as T
from fagcn.corpus import ContentCorpus
from fagcn.datasets import four_node_fixture, synthetic_citation
from fagcn.errors import ConfigError, ShapeError
from fagcn.graph import Graph, neighborhood, normalized_adjacency
from fagcn.noise import inject_noise
from fagcn.model import (BaselineParams, GraphOperators, LabelMatrix,
                         ModelParams, bag_of_words, baseline_gcn_forward,
                         classify, encode_nodes, export_attention, forward,
                         layer1, layer2, loss, node_input_features)
from fagcn.tensor import Tape, Tensor

from _oracle import (arrays_of, straightline_baseline, straightline_forward,
                     straightline_loss)


def fixture_params(variant: str, seed: int = 0) -> ModelParams:
    _, corpus, _ = four_node_fixture()
    return ModelParams.init(corpus.vocab_size, corpus.num_classes,
                            embed_dim=4, feature_dim=4, hidden_dim=3,
                            variant=variant, rng=np.random.default_rng(seed))


class TestNodeInputFeatures:
    def test_mean_aggregation_without_attention(self, rng):
        # the hidden state evolves across positions, so even identical
        # tokens get position-dependent vectors; the "none" variant is a
        # plain mean of the rows (and the row itself for single tokens)
        graph = Graph(1, [])
        corpus = ContentCorpus(node_ids=[0], contents=[[2, 2, 2]], labels=[0],
                               label_names=["x"], vocab_size=3)
        params = ModelParams.init(3, 1, 4, 4, 3, "none", rng)
        features = node_input_features(params, corpus, graph)
        encoded = encode_nodes(params, corpus).data[corpus.starts[0]:]
        np.testing.assert_allclose(features.data[0], encoded.mean(axis=0), atol=1e-12)

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
        assert attention_records <= 7
        assert layer1_records == 3

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


def pair_rows(graph: Graph, node_rows: np.ndarray) -> Tensor:
    """Node feature rows laid out one per pair of ``graph.pairs``."""
    return Tensor(node_rows[graph.pairs[1]])


class TestLayer1:
    def test_isolated_node(self, rng):
        graph = Graph(1, [])
        features = rng.standard_normal((1, 4))
        w0 = Tensor(rng.standard_normal((3, 4)))
        out = layer1(graph, pair_rows(graph, features), w0)
        np.testing.assert_allclose(out.data[0], w0.data @ features[0], atol=1e-12)

    def test_identity_weight_path_center(self, rng):
        graph = Graph(3, [(0, 1), (1, 2)])
        features = rng.standard_normal((3, 4))
        out = layer1(graph, pair_rows(graph, features), Tensor(np.eye(4)))
        np.testing.assert_allclose(out.data[1], features.sum(axis=0), atol=1e-12)

    def test_matches_per_node_loop_oracle(self, rng):
        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)])
        features = rng.standard_normal((5, 4))
        w0 = rng.standard_normal((3, 4))
        out = layer1(graph, pair_rows(graph, features), Tensor(w0))
        for i in range(5):
            expected = np.zeros(3)
            for m in neighborhood(graph, i).members:
                expected += w0 @ features[m]
            np.testing.assert_allclose(out.data[i], expected, atol=1e-12)

    def test_normalize_switch_uses_normalized_weights(self, rng):
        graph = Graph(3, [(0, 1), (1, 2)])
        features = rng.standard_normal((3, 4))
        w0 = rng.standard_normal((2, 4))
        out = layer1(graph, pair_rows(graph, features), Tensor(w0), normalize=True)
        norm = normalized_adjacency(graph)
        expected = norm @ features @ w0.T
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_each_pair_row_is_used_once(self, rng):
        # pair rows that differ per center (as under context attention)
        graph = Graph(3, [(0, 1), (1, 2)])
        features = rng.standard_normal((7, 2))
        out = layer1(graph, Tensor(features), Tensor(np.eye(2)))
        np.testing.assert_allclose(out.data, [features[0:2].sum(axis=0),
                                              features[2:5].sum(axis=0),
                                              features[5:7].sum(axis=0)], atol=1e-15)

    def test_wrong_row_count_is_shape_error(self, rng):
        graph = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ShapeError):
            layer1(graph, Tensor(rng.standard_normal((3, 4))), Tensor(np.eye(4)))


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
        expected = normalized_adjacency(graph) @ np.maximum(0.0, hidden) @ w1
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


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
        expected = straightline_loss(z_raw, labels.onehot, labels.train_idx,
                                     arrays_of(params), 5e-3, 5e-4)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_loss_non_negative(self, rng):
        params = fixture_params("self", seed=4)
        graph, corpus, _ = four_node_fixture()
        z = forward(params, graph, corpus)
        labels = LabelMatrix.build(corpus.labels, 2, train_idx=[0, 1, 2])
        assert loss(z, labels, params, 5e-3, 5e-4).item() >= 0.0


class TestForwardOracleEquivalence:
    @pytest.mark.parametrize("variant", ["none", "self", "context"])
    def test_matches_straightline_reimplementation(self, variant):
        graph, corpus, _ = four_node_fixture()
        for seed in range(5):
            params = fixture_params(variant, seed=seed)
            z = forward(params, graph, corpus).data
            expected = straightline_forward(arrays_of(params), graph.adjacency,
                                            corpus.contents, variant)
            np.testing.assert_allclose(z, expected, atol=1e-12)

    def test_layer1_normalize_variant_matches(self):
        graph, corpus, _ = four_node_fixture()
        params = fixture_params("context", seed=11)
        z = forward(params, graph, corpus, layer1_normalize=True).data
        expected = straightline_forward(arrays_of(params), graph.adjacency,
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
        expected = straightline_forward(arrays_of(params), graph.adjacency, corpus.contents,
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
        params = ModelParams.init(2, 2, 4, 4, 3, "none", rng)
        features = node_input_features(params, corpus, graph)
        encoded = encode_nodes(params, corpus)
        # pairs (0, 0), (0, 1), (1, 0), (1, 1): row p holds member p's features
        np.testing.assert_array_equal(graph.pairs[1], [0, 1, 0, 1])
        for p, m in enumerate([0, 1, 0, 1]):
            np.testing.assert_allclose(features.data[p], encoded.data[corpus.starts[m]],
                                       atol=1e-15)


class TestErrorContract:
    def test_negative_regularization_is_config_error(self):
        params = fixture_params("none")
        z = Tensor(np.full((4, 2), 0.5))
        labels = LabelMatrix.build([0, 1, 0, 1], 2, train_idx=[0])
        for l2_feature, l2_node in ((-1e-3, 0.0), (0.0, -1e-3)):
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
        expected = straightline_baseline(arrays_of(params), graph.adjacency, bow)
        np.testing.assert_allclose(z.data, expected, atol=1e-12)

    def test_bag_of_words_is_binary_presence(self):
        corpus = ContentCorpus(node_ids=[0, 1], contents=[[0, 0, 2], [1]],
                               labels=[0, 0], label_names=["x"], vocab_size=3)
        bow = bag_of_words(corpus, 3)
        np.testing.assert_array_equal(bow, [[1, 0, 1], [0, 1, 0]])


class TestFullModelGradients:
    @staticmethod
    def worst_error(variant, graph, corpus) -> float:
        params = fixture_params(variant, seed=13)
        labels = LabelMatrix.build(corpus.labels, 2, train_idx=[0, 2])

        def loss_fn():
            z = forward(params, graph, corpus)
            return loss(z, labels, params, 5e-3, 5e-4)

        return T.grad_check(loss_fn, params.named_parameters(), eps=1e-5,
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


class TestExportAttention:
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
