"""Noise interventions: exact token counts, positional guarantees,
determinism, and sweep table shape."""

from collections import Counter
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from fagcn.corpus import ContentCorpus
from fagcn.datasets import two_cluster_fixture
from fagcn.errors import ConfigError
from fagcn.noise import (_check_ratio, corrupt, inject_noise, noise_sweep,
                         replace_noise, sweep, sweep_rows_to_csv)
from fagcn.training import ExperimentConfig, run_cell
from fagcn.util import derive_rng


def make_corpus(lengths: list[int], vocab_size: int = 50) -> ContentCorpus:
    rng = np.random.default_rng(0)
    contents = [[int(t) for t in rng.integers(0, vocab_size, size=k)] for k in lengths]
    return ContentCorpus(node_ids=list(range(len(lengths))), contents=contents,
                         labels=[0] * len(lengths), label_names=["x"],
                         vocab_size=vocab_size)


class TestInjectNoise:
    def test_ratio_zero_is_identity(self):
        corpus = make_corpus([5, 9, 3])
        noisy = inject_noise(corpus, 0.0, np.random.default_rng(1))
        assert noisy.contents == corpus.contents

    def test_ten_words_ratio_point_one_adds_exactly_one(self):
        corpus = make_corpus([10])
        noisy = inject_noise(corpus, 0.1, np.random.default_rng(2))
        assert len(noisy.contents[0]) == 11

    def test_ratio_one_doubles_length_with_originals_kept(self):
        corpus = make_corpus([7])
        noisy = inject_noise(corpus, 1.0, np.random.default_rng(3))
        assert len(noisy.contents[0]) == 14
        extra = Counter(noisy.contents[0]) - Counter(corpus.contents[0])
        assert sum(extra.values()) == 7

    def test_original_multiset_is_preserved(self):
        corpus = make_corpus([6, 11, 4])
        noisy = inject_noise(corpus, 0.5, np.random.default_rng(4))
        for before, after in zip(corpus.contents, noisy.contents):
            assert not Counter(before) - Counter(after)

    def test_negative_ratio_rejected(self):
        with pytest.raises(ConfigError):
            inject_noise(make_corpus([3]), -0.1, np.random.default_rng(0))


class TestReplaceNoise:
    def test_ratio_zero_is_identity(self):
        corpus = make_corpus([5, 9])
        noisy = replace_noise(corpus, 0.0, np.random.default_rng(1))
        assert noisy.contents == corpus.contents

    def test_ten_words_ratio_point_one_changes_one_position(self):
        # the replacement draw can coincide with the original token, so
        # count chosen positions via a vocabulary the originals avoid
        corpus = make_corpus([10], vocab_size=1000)
        noisy = replace_noise(corpus, 0.1, np.random.default_rng(2))
        assert len(noisy.contents[0]) == 10
        differing = sum(a != b for a, b in zip(corpus.contents[0], noisy.contents[0]))
        assert differing <= 1

    def test_half_ratio_resamples_exactly_half_positions(self):
        # track positions through sentinel contents: original tokens are
        # all token 0, replacements land anywhere in [0, vocab)
        corpus = ContentCorpus(node_ids=[0], contents=[[0] * 8], labels=[0],
                               label_names=["x"], vocab_size=10_000)
        rng = np.random.default_rng(3)
        noisy = replace_noise(corpus, 0.5, rng)
        assert len(noisy.contents[0]) == 8
        changed = sum(t != 0 for t in noisy.contents[0])
        # 4 positions were redrawn; each redraw hits 0 with prob 1e-4
        assert changed == 4

    def test_rounding_half_up(self):
        corpus = make_corpus([5])
        noisy = replace_noise(corpus, 0.5, np.random.default_rng(9))
        # k = round_half_up(2.5) = 3: at most 3 positions may differ
        differing = sum(a != b for a, b in zip(corpus.contents[0], noisy.contents[0]))
        assert differing <= 3

    def test_small_node_low_ratio_untouched(self):
        corpus = make_corpus([4])
        noisy = replace_noise(corpus, 0.1, np.random.default_rng(5))
        assert noisy.contents == corpus.contents  # round(0.4) = 0

    def test_out_of_range_ratio(self):
        with pytest.raises(ConfigError):
            replace_noise(make_corpus([3]), 1.5, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            replace_noise(make_corpus([3]), 0.9, np.random.default_rng(0))


class TestDeterminismAndSpec:
    def test_same_seed_same_corruption(self):
        corpus = make_corpus([6, 7, 8])
        for protocol in ("inject", "replace"):
            a = corrupt(corpus, protocol, 0.4, derive_rng(11, "noise"))
            b = corrupt(corpus, protocol, 0.4, derive_rng(11, "noise"))
            assert a.contents == b.contents

    def test_vocabulary_never_grows(self):
        corpus = make_corpus([5, 5], vocab_size=20)
        noisy = inject_noise(corpus, 1.0, np.random.default_rng(1))
        assert noisy.vocab_size == 20
        assert all(t < 20 for tokens in noisy.contents for t in tokens)

    def test_noise_spec_bounds(self):
        # the sweep's check and both protocols accept and refuse the same ratios
        corpus = make_corpus([3])
        for protocol, ratio in [("inject", 1.0), ("replace", 0.5), ("inject", 0), ("replace", 0)]:
            _check_ratio(protocol, ratio)
            corrupt(corpus, protocol, ratio, np.random.default_rng(0))
        for protocol, ratio in [("replace", 0.6), ("replace", 0.9), ("inject", 1.1),
                                ("inject", 1.5), ("inject", -0.1), ("replace", -0.1)]:
            with pytest.raises(ConfigError, match="ratio"):
                _check_ratio(protocol, ratio)
            with pytest.raises(ConfigError, match="ratio"):
                corrupt(corpus, protocol, ratio, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            corrupt(corpus, "scramble", 0.1, np.random.default_rng(0))

    @pytest.mark.parametrize("ratio", ["0.3", None, True, [0.3], float("nan")])
    def test_non_numeric_ratio_is_config_error(self, ratio):
        for protocol, noise in (("inject", inject_noise), ("replace", replace_noise)):
            with pytest.raises(ConfigError, match="ratio"):
                _check_ratio(protocol, ratio)
            with pytest.raises(ConfigError, match="ratio"):
                noise(make_corpus([3]), ratio, np.random.default_rng(0))


class TestNoiseSweep:
    def sweep_config(self) -> ExperimentConfig:
        return ExperimentConfig(embed_dim=5, feature_dim=5, hidden_dim=3,
                                train_fraction=0.5, dropout_lstm=0.0,
                                dropout_gcn=0.0, lr=2e-3, epochs=3, seed=1,
                                variant="self")

    def test_zero_ratio_matches_clean_run(self):
        graph, corpus, _ = two_cluster_fixture()
        config = self.sweep_config()
        rows = noise_sweep(config, graph, corpus, "replace", [0.0],
                           ["self"], [1, 2])
        from fagcn.corpus import split
        from fagcn.training import train
        accuracies = []
        for seed in (1, 2):
            from dataclasses import replace as dc_replace
            cfg = dc_replace(config, seed=seed)
            s = split(8, 0.5, derive_rng(seed, "split"))
            _, hist = train(cfg, graph, corpus, s)
            accuracies.append(hist.test_accuracy)
        assert rows[0].mean_accuracy == pytest.approx(np.mean(accuracies), abs=1e-12)

    @pytest.mark.parametrize("protocol, ratios", [("replace", [0.2, 0.9]),
                                                  ("inject", [-0.1, 0.5]),
                                                  ("inject", [0.5, 1.5])])
    def test_every_ratio_is_bounded_before_any_cell_trains(self, monkeypatch,
                                                            protocol, ratios):
        graph, corpus, _ = two_cluster_fixture()
        trained = []
        monkeypatch.setattr("fagcn.noise.run_cell", lambda *args: trained.append(args))
        with pytest.raises(ConfigError, match="ratio"):
            noise_sweep(self.sweep_config(), graph, corpus, protocol, ratios, ["self"], [1])
        assert trained == []

    @pytest.mark.parametrize("variants, seeds", [(["self", "bogus"], [1]),
                                                 (["self"], [1, -2])])
    def test_every_cell_is_validated_before_any_cell_trains(self, monkeypatch,
                                                            variants, seeds):
        graph, corpus, _ = two_cluster_fixture()
        trained = []
        monkeypatch.setattr("fagcn.noise.run_cell", lambda *args: trained.append(args))
        with pytest.raises(ConfigError):
            noise_sweep(self.sweep_config(), graph, corpus, "inject", [0.0, 0.5],
                        variants, seeds)
        assert trained == []

    def test_non_numeric_ratio_is_config_error(self, monkeypatch):
        graph, corpus, _ = two_cluster_fixture()
        trained = []
        monkeypatch.setattr("fagcn.noise.run_cell", lambda *args: trained.append(args))
        with pytest.raises(ConfigError, match="ratio"):
            noise_sweep(self.sweep_config(), graph, corpus, "inject", [0.1, "0.3"],
                        ["self"], [1])
        assert trained == []

    @pytest.mark.parametrize("ratios, variants, seeds", [([], ["self"], [1]),
                                                        ([0.1], [], [1]),
                                                        ([0.1], ["self"], [])])
    def test_empty_axes_are_config_errors(self, ratios, variants, seeds):
        graph, corpus, _ = two_cluster_fixture()
        with pytest.raises(ConfigError, match="at least one"):
            noise_sweep(self.sweep_config(), graph, corpus, "inject", ratios, variants, seeds)

    @pytest.mark.parametrize("protocol", ["inject", "replace"])
    def test_a_float_array_of_ratios_sweeps_like_the_list(self, protocol):
        graph, corpus, _ = two_cluster_fixture()
        args = (self.sweep_config(), graph, corpus, protocol)
        assert (noise_sweep(*args, np.array([0.1, 0.2]), ["self"], [1])
                == noise_sweep(*args, [0.1, 0.2], ["self"], [1]))

    @pytest.mark.parametrize("ratios, variants, seeds, match", [
        (0.5, ["self"], [1], "values must be a list"),
        (np.float64(0.5), ["self"], [1], "values must be a list"),
        (np.array(0.5), ["self"], [1], "values must be a list"),
        ("0.5", ["self"], [1], "values must be a list"),
        ([0.5], "self", [1], "variants must be a list"),
        ([0.5], ["self"], 1, "seeds must be a list"),
        ([0.5], ["self"], b"\x01", "seeds must be a list"),
        ([0.5], ["self"], np.array([1, 2]), "seed must be of type int"),
        # a mapping gave its keys, and a set its hash-seed order
        ({0.5, 0.25}, ["self"], [1], "values must be a list"),
        ([0.5], {"self": 1}, [1], "variants must be a list"),
        ([0.5], dict.fromkeys(["self"]).keys(), [1], "variants must be a list"),
        ([0.5], ["self"], frozenset([1]), "seeds must be a list"),
        ([0.5], ["self"], (s for s in [1]), "seeds must be a list"),
        (np.array([[0.5]]), ["self"], [1], "values must be a list"),
    ], ids=["float", "numpy-float", "0-d-array", "string-values", "string-variants",
            "int-seeds", "bytes-seeds", "numpy-int-seeds", "set", "dict", "dict-keys",
            "frozenset", "generator", "2-d-array"])
    def test_a_scalar_or_a_string_for_a_list_is_a_config_error(self, monkeypatch, ratios,
                                                                variants, seeds, match):
        graph, corpus, _ = two_cluster_fixture()
        trained = []
        monkeypatch.setattr("fagcn.noise.run_cell", lambda *args: trained.append(args))
        with pytest.raises(ConfigError, match=match):
            noise_sweep(self.sweep_config(), graph, corpus, "inject", ratios, variants, seeds)
        assert trained == []

    def test_table_shape_and_order(self):
        graph, corpus, _ = two_cluster_fixture()
        ratios = [0.1, 0.2, 0.3]
        rows = noise_sweep(self.sweep_config(), graph, corpus, "inject",
                           ratios, ["none", "self"], [1])
        assert len(rows) == 6
        assert [r.ratio for r in rows] == [0.1, 0.1, 0.2, 0.2, 0.3, 0.3]
        assert [r.variant for r in rows] == ["none", "self"] * 3

    def test_threaded_matches_sequential(self):
        graph, corpus, _ = two_cluster_fixture()
        sequential = noise_sweep(self.sweep_config(), graph, corpus, "replace",
                                 [0.2], ["none", "baseline_gcn"], [1, 2])
        threaded = noise_sweep(self.sweep_config(), graph, corpus, "replace",
                               [0.2], ["none", "baseline_gcn"], [1, 2],
                               max_workers=4)
        assert sequential == threaded

    def test_csv_rendering(self):
        from fagcn.noise import SweepRow
        rows = [SweepRow("replace", 0.3, "context", 0.75, 0.024999, (1, 2, 3))]
        text = sweep_rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "protocol,ratio,variant,mean_accuracy,std_accuracy,seeds"
        assert lines[1] == "replace,0.3,context,0.7500,0.0250,1;2;3"


FIELDS = {"d_i": "embed_dim", "d_o": "feature_dim", "d_h": "hidden_dim",
          "p": "train_fraction"}
VALUES = {"d_i": [3, 5], "d_o": [3, 5], "d_h": [2, 4], "p": [0.25, 0.5],
          "noise-inject": [0.0, 0.5], "noise-replace": [0.2, 0.5]}


class TestSweep:
    def config(self) -> ExperimentConfig:
        return ExperimentConfig(embed_dim=4, feature_dim=4, hidden_dim=3,
                                train_fraction=0.5, epochs=2, seed=1, variant="self")

    @pytest.mark.parametrize("axis", sorted(VALUES))
    def test_rows_aggregate_run_cell_per_cell(self, axis):
        graph, corpus, _ = two_cluster_fixture()
        config, variants, seeds = self.config(), ["none", "baseline_gcn"], [1, 2]
        rows = sweep(config, graph, corpus, axis, VALUES[axis], variants, seeds)
        expected = []
        for value in VALUES[axis]:
            for variant in variants:
                accuracies = []
                for seed in seeds:
                    if axis in FIELDS:
                        cell = dc_replace(config, variant=variant, **{FIELDS[axis]: value})
                        data = corpus
                    else:
                        cell = dc_replace(config, variant=variant)
                        data = corrupt(corpus, axis[len("noise-"):], value,
                                       derive_rng(seed, "noise"))
                    accuracies.append(run_cell(cell, graph, data, seed))
                expected.append((value, variant, float(np.mean(accuracies)),
                                 float(np.std(accuracies))))
        assert [(r.ratio, r.variant, r.mean_accuracy, r.std_accuracy) for r in rows] == expected
        assert {r.protocol for r in rows} == {FIELDS.get(axis, axis[len("noise-"):])}
        assert {r.seeds for r in rows} == {(1, 2)}

    @pytest.mark.parametrize("axis", sorted(VALUES))
    def test_each_cell_gets_its_config_corpus_and_seed(self, monkeypatch, axis):
        graph, corpus, _ = two_cluster_fixture()
        config, variants, seeds = self.config(), ["none", "self"], [1, 2]
        seen = []
        monkeypatch.setattr("fagcn.noise.run_cell", lambda cell, g, data, seed:
                            seen.append((cell, data.contents, seed)) or 0.5)
        sweep(config, graph, corpus, axis, VALUES[axis], variants, seeds, max_workers=1)
        expected = []
        for value in VALUES[axis]:
            for variant in variants:
                for seed in seeds:
                    if axis in FIELDS:
                        expected.append((dc_replace(config, variant=variant,
                                                    **{FIELDS[axis]: value}),
                                         corpus.contents, seed))
                    else:
                        noisy = corrupt(corpus, axis[len("noise-"):], value,
                                        derive_rng(seed, "noise"))
                        expected.append((dc_replace(config, variant=variant),
                                         noisy.contents, seed))
        assert seen == expected

    @pytest.mark.parametrize("axis, head, first", [
        ("d_h", "axis,value", "hidden_dim,2,"), ("p", "axis,value", "train_fraction,0.25,"),
        ("noise-inject", "protocol,ratio", "inject,0,"),
        ("noise-replace", "protocol,ratio", "replace,0.2,"),
    ])
    def test_csv_header_follows_the_axis(self, axis, head, first):
        graph, corpus, _ = two_cluster_fixture()
        rows = sweep(self.config(), graph, corpus, axis, VALUES[axis], ["self"], [1])
        lines = sweep_rows_to_csv(rows).strip().split("\n")
        assert lines[0] == f"{head},variant,mean_accuracy,std_accuracy,seeds"
        assert len(lines) == 1 + len(VALUES[axis])
        assert lines[1].startswith(f"{first}self,")

    @pytest.mark.parametrize("protocol", ["inject", "replace"])
    def test_noise_sweep_is_the_noise_axis(self, protocol):
        graph, corpus, _ = two_cluster_fixture()
        args = (["none", "self"], [1, 2])
        assert (noise_sweep(self.config(), graph, corpus, protocol, [0.1, 0.4], *args)
                == sweep(self.config(), graph, corpus, f"noise-{protocol}", [0.1, 0.4], *args))

    @pytest.mark.parametrize("axis", ["p", "noise-replace"])
    def test_a_float_array_of_values_sweeps_like_the_list(self, axis):
        # and so do tuples and ranges
        graph, corpus, _ = two_cluster_fixture()
        args = (["none", "self"], [1, 2])
        assert (sweep(self.config(), graph, corpus, axis, np.array(VALUES[axis]), *args)
                == sweep(self.config(), graph, corpus, axis, VALUES[axis], *args)
                == sweep(self.config(), graph, corpus, axis, tuple(VALUES[axis]),
                         ("none", "self"), range(1, 3)))

    @pytest.mark.parametrize("axis, values, match", [
        ("warp", [1], "unknown sweep axis"), (["d_h"], [2], "unknown sweep axis"),
        (None, [2], "unknown sweep axis"), ("embed_dim", [2], "unknown sweep axis"),
        ("noise-inject", [0.1, "0.3"], "ratio"), ("d_h", [2, 2.5], "hidden_dim"),
    ])
    def test_bad_axis_or_value_trains_no_cell(self, monkeypatch, axis, values, match):
        graph, corpus, _ = two_cluster_fixture()
        trained = []
        monkeypatch.setattr("fagcn.noise.run_cell", lambda *args: trained.append(args))
        with pytest.raises(ConfigError, match=match):
            sweep(self.config(), graph, corpus, axis, values, ["self"], [1])
        assert trained == []

    @pytest.mark.parametrize("max_workers", [0, -3, True, 2.5, None, "2", np.int64(2)],
                             ids=["zero", "negative", "bool", "float", "none", "string",
                                  "numpy-int"])
    @pytest.mark.parametrize("axis", ["d_h", "noise-inject"])
    def test_max_workers_that_is_not_an_int_of_one_or_more_trains_no_cell(
            self, monkeypatch, axis, max_workers):
        graph, corpus, _ = two_cluster_fixture()
        trained = []
        monkeypatch.setattr("fagcn.noise.run_cell", lambda *args: trained.append(args) or 0.5)
        with pytest.raises(ConfigError, match="max_workers"):
            sweep(self.config(), graph, corpus, axis, VALUES[axis], ["self"], [1],
                  max_workers=max_workers)
        with pytest.raises(ConfigError, match="max_workers"):
            noise_sweep(self.config(), graph, corpus, "inject", [0.1], ["self"], [1],
                        max_workers)
        assert trained == []
