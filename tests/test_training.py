"""Training loop: Adam behavior, determinism, evaluation rules, and
repeated experiments as one-value sweeps."""

import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import fagcn.tensor as T
from fagcn.corpus import DatasetSplit, split
from fagcn.datasets import two_cluster_fixture
from fagcn.errors import ConfigError, DataError, NumericError, ShapeError
from fagcn.graph import Graph
from fagcn.model import BaselineParams, ModelParams, export_attention
from fagcn.noise import sweep
from fagcn.corpus import ContentCorpus
from fagcn.tensor import Tensor
from fagcn.training import (AdamState, ExperimentConfig, adam_step, evaluate, init_params,
                            run_cell, train)
from fagcn.util import derive_rng


def small_config(**overrides) -> ExperimentConfig:
    base = dict(embed_dim=6, feature_dim=6, hidden_dim=4, train_fraction=0.5,
                dropout_lstm=0.0, dropout_gcn=0.0, l2_feature=5e-3, l2_node=5e-4,
                lr=2e-3, epochs=5, seed=1, variant="self")
    base.update(overrides)
    return ExperimentConfig(**base)


def fixture_split(seed: int = 1) -> DatasetSplit:
    return split(8, 0.5, derive_rng(seed, "split"))


class TestExperimentConfig:
    def test_paper_style_defaults(self):
        config = ExperimentConfig()
        assert (config.embed_dim, config.feature_dim) == (80, 80)
        assert config.train_fraction == 0.4
        assert (config.dropout_lstm, config.dropout_gcn) == (0.2, 0.3)
        assert (config.l2_feature, config.l2_node) == (5e-3, 5e-4)
        assert (config.lr, config.epochs) == (2e-3, 200)

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="mystery"):
            ExperimentConfig.from_dict({"mystery": 1})

    def test_roundtrip(self):
        config = small_config()
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("bad", [
        {"epochs": -1}, {"lr": 0.0}, {"variant": "zigzag"},
        {"dropout_gcn": 1.0}, {"train_fraction": 1.5}, {"hidden_dim": 0},
        {"seed": -1}, {"epochs": "2"}, {"epochs": 2.5}, {"epochs": True},
        {"seed": None}, {"lr": "0.1"}, {"lr": float("nan")},
        {"l2_node": float("inf")}, {"lr": 10 ** 400}, {"dropout_gcn": False},
        {"layer1_normalize": "no"}, {"layer1_normalize": 0},
    ])
    def test_validation(self, bad):
        with pytest.raises(ConfigError):
            small_config(**bad).validate()

    def test_a_replaced_copy_checks_itself(self):
        with pytest.raises(ConfigError, match="lr must be positive"):
            dataclasses.replace(ExperimentConfig(), lr=-1)

    def test_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExperimentConfig().lr = 1.0


class TestAdam:
    def test_zero_gradient_is_a_fixed_point(self):
        p = Tensor(np.ones((2, 2)))
        state = AdamState()
        adam_step([("p", p)], state, lr=0.1)
        np.testing.assert_array_equal(p.data, np.ones((2, 2)))
        np.testing.assert_array_equal(state.moment1["p"], np.zeros((2, 2)))

    def test_first_step_magnitude_is_learning_rate(self):
        # bias correction makes the first update lr * g / (|g| + eps)
        for g in (0.5, -3.0, 10.0):
            p = Tensor([[1.0]])
            p.grad = np.array([[g]])
            adam_step([("p", p)], AdamState(), lr=2e-3)
            expected = 1.0 - 2e-3 * g / (abs(g) + 1e-8)
            assert p.data[0, 0] == pytest.approx(expected, abs=1e-15)
            assert abs(1.0 - p.data[0, 0]) == pytest.approx(2e-3, rel=1e-6)

    def test_constant_gradient_tracks_sign(self):
        p = Tensor([[0.0]])
        state = AdamState()
        for _ in range(50):
            p.grad = np.array([[4.0]])
            adam_step([("p", p)], state, lr=0.01)
        assert p.data[0, 0] == pytest.approx(-0.5, rel=1e-3)

    def test_non_finite_gradient_names_group(self):
        p = Tensor([[1.0]])
        p.grad = np.array([[np.nan]])
        with pytest.raises(NumericError, match="conv1"):
            adam_step([("conv1", p)], AdamState(), lr=0.1)


class TestTrain:
    def test_zero_epochs_returns_initialization(self):
        graph, corpus, _ = two_cluster_fixture()
        config = small_config(epochs=0)
        params, history = train(config, graph, corpus, fixture_split())
        fresh = init_params(config, corpus, derive_rng(config.seed, "init"))
        for (_, a), (_, b) in zip(params.named_parameters(), fresh.named_parameters()):
            assert np.array_equal(a.data, b.data)
        assert history.losses == []

    def test_losses_finite_and_decreasing_overall(self):
        graph, corpus, _ = two_cluster_fixture()
        params, history = train(small_config(epochs=60), graph, corpus, fixture_split())
        assert len(history.losses) == 60
        assert all(np.isfinite(v) for v in history.losses)
        assert history.losses[-1] < history.losses[0]

    def test_overfits_separable_fixture(self):
        graph, corpus, _ = two_cluster_fixture()
        config = small_config(embed_dim=12, feature_dim=12, hidden_dim=8,
                              epochs=200, variant="context")
        fit_split = fixture_split(seed=3)
        params, _ = train(config, graph, corpus, fit_split)
        train_accuracy = evaluate(params, graph, corpus, fit_split.train_idx)
        assert train_accuracy == 1.0

    def test_deterministic_per_seed(self):
        graph, corpus, _ = two_cluster_fixture()
        config = small_config(epochs=8, dropout_lstm=0.2, dropout_gcn=0.3)
        a_params, a_hist = train(config, graph, corpus, fixture_split())
        b_params, b_hist = train(config, graph, corpus, fixture_split())
        assert a_hist.losses == b_hist.losses
        for (_, x), (_, y) in zip(a_params.named_parameters(), b_params.named_parameters()):
            assert np.array_equal(x.data, y.data)

    def test_baseline_variant_trains(self):
        graph, corpus, _ = two_cluster_fixture()
        config = small_config(variant="baseline_gcn", epochs=30)
        params, history = train(config, graph, corpus, fixture_split())
        assert isinstance(params, BaselineParams)
        assert history.losses[-1] < history.losses[0]

    def test_threads_train_like_serial(self):
        # every thread records onto its own tape, so cells running on a
        # pool give the serial per-epoch losses
        graph, corpus, _ = two_cluster_fixture()

        def losses(seed):
            config = small_config(seed=seed, variant="context", epochs=3,
                                  dropout_lstm=0.2, dropout_gcn=0.3)
            return train(config, graph, corpus, fixture_split(seed))[1].losses

        serial = [losses(seed) for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(losses, range(8)))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    @pytest.mark.parametrize("field, value", [
        ("labels", -1), ("labels", 2), ("labels", 0.5), ("contents", 0.7)])
    def test_a_corrupt_corpus_never_reaches_training(self, field, value):
        # node 0 is a training node whose first token is id 0: unchecked, a
        # label -1 trains as the last class and a token 0.7 as token 0, and
        # labels 2 and 0.5 fail in numpy's indexing
        graph, corpus, _ = two_cluster_fixture()
        first = corpus.contents[0]
        edit = {"labels": [value, *corpus.labels[1:]],
                "contents": [[value, *first[1:]], *corpus.contents[1:]]}[field]
        config = small_config(variant="none", embed_dim=4, feature_dim=4, hidden_dim=3,
                              epochs=2)
        with pytest.raises(DataError, match="^node 0: "):
            train(config, graph, dataclasses.replace(corpus, **{field: edit}), fixture_split())

    def test_graph_corpus_size_mismatch(self):
        _, corpus, _ = two_cluster_fixture()
        with pytest.raises(Exception, match="nodes"):
            train(small_config(), Graph(3, []), corpus, fixture_split())

    @pytest.mark.parametrize("train_idx, test_idx, match", [
        ((0, 99), (1,), "train indices"),     # past the last node
        ((-1, 0), (2,), "train indices"),     # would train on node 7
        ((0, 1.5), (2,), "train indices"),
        ((0, 1), (2, 8), "test indices"),
        ((0, 1), (1, 2), "overlap"),          # would test on a training node
    ])
    def test_bad_splits_are_config_errors(self, monkeypatch, train_idx, test_idx, match):
        graph, corpus, _ = two_cluster_fixture()
        monkeypatch.setattr("fagcn.training.adam_step", lambda *args: pytest.fail("trained"))
        with pytest.raises(ConfigError, match=match):
            train(small_config(), graph, corpus, DatasetSplit(train_idx, test_idx))

    @pytest.mark.parametrize("train_idx, test_idx, match", [
        ((0, 1, 0), (2,), "train set repeats node 0"),
        ((0, 1), (2, 5, 3, 5), "test set repeats node 5"),
    ])
    def test_a_repeated_node_fails_before_any_epoch(self, monkeypatch, train_idx, test_idx,
                                                    match):
        graph, corpus, _ = two_cluster_fixture()
        monkeypatch.setattr("fagcn.training.loss", lambda *args: pytest.fail("ran an epoch"))
        with pytest.raises(ConfigError, match=match):
            train(small_config(), graph, corpus, DatasetSplit(train_idx, test_idx))

    @pytest.mark.parametrize("train_idx, test_idx, match", [
        ((), tuple(range(8)), "train set is empty"),  # only the L2 terms would train
        ((0, 1, 2), (), "test set is empty"),         # used to fail after the last epoch
    ])
    def test_empty_sets_fail_before_any_epoch(self, monkeypatch, train_idx, test_idx, match):
        graph, corpus, _ = two_cluster_fixture()
        monkeypatch.setattr("fagcn.training.loss", lambda *args: pytest.fail("ran an epoch"))
        with pytest.raises(ConfigError, match=match):
            train(small_config(), graph, corpus, DatasetSplit(train_idx, test_idx))

    @pytest.mark.parametrize("variant, layer1_normalize", [
        ("self", False), ("context", True), ("baseline_gcn", False)])
    def test_binds_once_and_scores_as_evaluate(self, monkeypatch, variant, layer1_normalize):
        graph, corpus, _ = two_cluster_fixture()
        config = small_config(variant=variant, layer1_normalize=layer1_normalize)
        params_type = BaselineParams if variant == "baseline_gcn" else ModelParams
        bind, binds = params_type.bind, []

        def counted(self, *args):
            binds.append(args)
            return bind(self, *args)

        monkeypatch.setattr(params_type, "bind", counted)
        params, history = train(config, graph, corpus, fixture_split())
        assert len(binds) == 1
        assert history.test_accuracy == evaluate(params, graph, corpus, fixture_split().test_idx,
                                                 layer1_normalize=layer1_normalize)

    @pytest.mark.parametrize("variant, sweeps", [("none", 3), ("self", 3), ("context", 4)])
    def test_sorts_in_its_first_epoch_only(self, monkeypatch, variant, sweeps):
        # the graph's pair sweep, the corpus's token layout and the binding's
        # (pair, token) layout are built by the first epoch, context's with
        # its segment sweep too; later epochs and the final scoring reuse them
        graph, corpus, _ = two_cluster_fixture()
        steps, calls = [], []

        def spy(name, real):
            def call(*args, **kwargs):
                calls.append((name, len(steps)))
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr("fagcn.training.adam_step",
                            lambda *args: steps.append(adam_step(*args)))
        monkeypatch.setattr(T.Sweep, "of", spy("Sweep.of", T.Sweep.of))
        monkeypatch.setattr(np, "argsort", spy("argsort", np.argsort))
        train(small_config(variant=variant, epochs=4), graph, corpus, fixture_split())
        assert len(steps) == 4
        assert {epoch for _, epoch in calls} == {0}
        assert [name for name, _ in calls].count("Sweep.of") == sweeps
        assert "argsort" in {name for name, _ in calls}


class TestEvaluate:
    def test_all_correct(self):
        graph, corpus, _ = two_cluster_fixture()
        config = small_config(epochs=200, variant="self")
        fit_split = fixture_split(seed=5)
        params, history = train(config, graph, corpus, fit_split)
        if history.test_accuracy == 1.0:
            assert evaluate(params, graph, corpus, fit_split.test_idx) == 1.0

    def test_uniform_predictions_tie_break_to_class_zero(self):
        # zero weights give uniform class probabilities everywhere, so
        # every node is predicted as class 0
        graph = Graph(4, [(0, 1), (2, 3)])
        corpus = ContentCorpus(node_ids=[0, 1, 2, 3], contents=[[0], [1], [0], [1]],
                               labels=[0, 1, 1, 0], label_names=["a", "b"], vocab_size=2)
        params = BaselineParams(conv1_weight=Tensor(np.zeros((2, 3))),
                                conv2_weight=Tensor(np.zeros((3, 2))))
        accuracy = evaluate(params, graph, corpus, [0, 1, 2, 3])
        assert accuracy == 0.5  # exactly the fraction labeled class 0

    def test_hand_counted_accuracy(self):
        # no edges and one-hot contents make the baseline a lookup table:
        # logits for node i are conv2 row of its word
        graph = Graph(5, [])
        corpus = ContentCorpus(node_ids=list(range(5)),
                               contents=[[0], [1], [2], [3], [4]],
                               labels=[0, 1, 1, 1, 0],
                               label_names=["a", "b"], vocab_size=5)
        conv2 = np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        params = BaselineParams(conv1_weight=Tensor(np.eye(5)),
                                conv2_weight=Tensor(conv2))
        # predictions: 0, 1, 0, 1, 0(tie) vs labels 0, 1, 1, 1, 0 -> 4/5
        assert evaluate(params, graph, corpus, list(range(5))) == 0.8

    def test_non_finite_probabilities_are_numeric_error(self):
        graph = Graph(2, [(0, 1)])
        corpus = ContentCorpus(node_ids=[0, 1], contents=[[0], [1]], labels=[0, 1],
                               label_names=["a", "b"], vocab_size=2)
        params = BaselineParams(conv1_weight=Tensor(np.full((2, 2), 1e300)),
                                conv2_weight=Tensor(np.full((2, 2), 1e300)))
        with pytest.raises(NumericError, match="not finite"):
            evaluate(params, graph, corpus, [0, 1])

    def test_empty_test_set(self):
        graph, corpus, _ = two_cluster_fixture()
        params = init_params(small_config(), corpus, derive_rng(0, "init"))
        with pytest.raises(ConfigError, match="test set is empty"):
            evaluate(params, graph, corpus, [])

    # -1 would silently score node 7; 99 and 1.5 used to raise IndexError
    @pytest.mark.parametrize("test_idx", [[-1], [99], [8], [1.5], [True], ["0"], [0, None]])
    def test_bad_test_indices_are_config_errors(self, test_idx):
        graph, corpus, _ = two_cluster_fixture()
        params = init_params(small_config(), corpus, derive_rng(0, "init"))
        with pytest.raises(ConfigError, match="test indices"):
            evaluate(params, graph, corpus, test_idx)

    def test_a_repeated_test_node_is_a_config_error(self):
        # node 2 would be scored three times
        graph, corpus, _ = two_cluster_fixture()
        params = init_params(small_config(), corpus, derive_rng(0, "init"))
        with pytest.raises(ConfigError, match="test set repeats node 2"):
            evaluate(params, graph, corpus, [2, 2, 2, 5])

    @pytest.mark.parametrize("variant", ["none", "baseline_gcn"])
    @pytest.mark.parametrize("terms, classes", [(5, 3), (4, 2), (6, 2)])
    def test_weights_for_another_corpus_size_are_a_shape_error(self, variant, terms, classes):
        # 2-class weights on three label names would score 0.5; export_attention shares
        # the check, and refuses baseline weights, which used to raise AttributeError
        graph, corpus, vocab = two_cluster_fixture()
        corpus = dataclasses.replace(corpus, vocab_size=terms,
                                     contents=[[min(t, terms - 1) for t in c]
                                               for c in corpus.contents],
                                     label_names=["fruit", "mineral", "other"][:classes])
        params = init_params(small_config(variant=variant), two_cluster_fixture()[1],
                             derive_rng(0, "init"))
        fit = f"5 terms and 2 classes .* {terms} terms and {classes} classes"
        with pytest.raises(ShapeError, match=fit):
            evaluate(params, graph, corpus, [0, 5])
        error, match = (ConfigError, "baseline") if variant == "baseline_gcn" else (ShapeError, fit)
        with pytest.raises(error, match=match):
            export_attention(params, graph, corpus, vocab.terms, 0)

    def test_numpy_indices_are_accepted(self):
        graph, corpus, _ = two_cluster_fixture()
        params = init_params(small_config(), corpus, derive_rng(0, "init"))
        assert (evaluate(params, graph, corpus, np.arange(8, dtype=np.int32))
                == evaluate(params, graph, corpus, list(range(8))))


class TestRepeatedExperiment:
    """A repeated experiment is a sweep of one value, such as axis ``p`` at
    the config's own train_fraction: each seed draws its own split and
    initialization."""

    @staticmethod
    def repeated(config: ExperimentConfig, seeds: list[int], max_workers: int = 1):
        graph, corpus, _ = two_cluster_fixture()
        [row] = sweep(config, graph, corpus, "p", [config.train_fraction], [config.variant],
                      seeds, max_workers)
        assert (row.protocol, row.ratio, row.variant, row.seeds) == (
            "train_fraction", config.train_fraction, config.variant, tuple(seeds))
        return row

    def test_identical_seeds_give_zero_std(self):
        assert self.repeated(small_config(epochs=10), [7, 7, 7]).std_accuracy == 0.0

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_gives_the_mean_and_std_of_train_per_seed(self, max_workers):
        graph, corpus, _ = two_cluster_fixture()
        config, seeds = small_config(epochs=4), [3, 8, 11]
        accuracies = []
        for seed in seeds:
            cell = dataclasses.replace(config, seed=seed)
            cell_split = split(corpus.n, cell.train_fraction, derive_rng(seed, "split"))
            accuracies.append(train(cell, graph, corpus, cell_split)[1].test_accuracy)
        row = self.repeated(config, seeds, max_workers)
        assert (row.mean_accuracy, row.std_accuracy) == (float(np.mean(accuracies)),
                                                         float(np.std(accuracies)))
        assert accuracies == [run_cell(config, graph, corpus, seed) for seed in seeds]