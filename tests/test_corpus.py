"""Content loading, vocabulary, embeddings init, and train/test splits."""

import dataclasses
import re

import numpy as np
import pytest

from fagcn.corpus import (ContentCorpus, Vocabulary, init_embeddings,
                          load_corpus, split)
from fagcn.errors import ConfigError, DataError


def write_content(tmp_path, text: str):
    path = tmp_path / "content.tsv"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCorpus:
    def test_two_line_file(self, tmp_path):
        path = write_content(tmp_path, "0\tx\ta b\n1\ty\tb c\n")
        corpus, vocab = load_corpus(path)
        assert len(vocab) == 3
        assert corpus.contents == [[0, 1], [1, 2]]
        assert corpus.labels == [0, 1]
        assert corpus.vocab_size == 3

    def test_duplicate_tokens_kept_in_place(self, tmp_path):
        path = write_content(tmp_path, "0\tx\ta b a a\n")
        corpus, _ = load_corpus(path)
        assert corpus.contents == [[0, 1, 0, 0]]

    def test_tokens_lowercased(self, tmp_path):
        path = write_content(tmp_path, "0\tx\tFoo foo FOO\n")
        corpus, vocab = load_corpus(path)
        assert len(vocab) == 1
        assert corpus.contents == [[0, 0, 0]]

    def test_empty_content_names_node(self, tmp_path):
        path = write_content(tmp_path, "0\tx\ta\n7\ty\t \n")
        with pytest.raises(DataError, match="7"):
            load_corpus(path)

    @pytest.mark.parametrize("node_id", ["1_0", "+3", "١٠", "٣"])
    def test_node_id_must_be_ascii_digits(self, tmp_path, node_id):
        path = write_content(tmp_path, f"0\tx\ta\n{node_id}\ty\tb\n")
        with pytest.raises(DataError, match="^" + re.escape(f"{path}:2: ")):
            load_corpus(path)

    def test_negative_node_id_is_read(self, tmp_path):
        corpus, _ = load_corpus(write_content(tmp_path, "-12\tx\ta\n"))
        assert corpus.node_ids == [-12]

    def test_idempotent(self, tmp_path):
        path = write_content(tmp_path, "0\tx\ta b\n1\ty\tb c d\n")
        first = load_corpus(path)
        second = load_corpus(path)
        assert first[0] == second[0]
        assert first[1].terms == second[1].terms

    def test_vocabulary_roundtrip(self, tmp_path):
        path = write_content(tmp_path, "0\tx\tred green blue red\n")
        _, vocab = load_corpus(path)
        for term in vocab.terms:
            assert vocab.terms[vocab.index[term]] == term


class TestVocabulary:
    def test_first_appearance_order(self):
        vocab = Vocabulary(["b", "a", "b", "c"])
        assert vocab.terms == ["b", "a", "c"]
        assert vocab.index == {"b": 0, "a": 1, "c": 2}

    def test_contains(self):
        vocab = Vocabulary(["w"])
        assert "w" in vocab and "z" not in vocab


class TestInitEmbeddings:
    def test_deterministic_per_seed(self):
        a = init_embeddings(50, 8, np.random.default_rng(3))
        b = init_embeddings(50, 8, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_uniform_range_and_mean(self):
        table = init_embeddings(1000, 10, np.random.default_rng(11))
        assert table.shape == (1000, 10)
        assert np.all(table >= -0.1) and np.all(table <= 0.1)
        assert abs(table.mean()) < 0.005

    def test_invalid_dims(self):
        with pytest.raises(ConfigError):
            init_embeddings(0, 4, np.random.default_rng(0))


class TestSplit:
    def test_counts(self):
        s = split(10, 0.4, np.random.default_rng(0))
        assert len(s.train_idx) == 4 and len(s.test_idx) == 6
        assert not set(s.train_idx) & set(s.test_idx)
        assert sorted(s.train_idx + s.test_idx) == list(range(10))

    def test_smallest_valid_split(self):
        s = split(2, 0.5, np.random.default_rng(1))
        assert len(s.train_idx) == 1 and len(s.test_idx) == 1

    def test_degenerate_fractions_rejected(self):
        with pytest.raises(ConfigError):
            split(10, 0.01, np.random.default_rng(0))  # rounds to 0 train nodes
        with pytest.raises(ConfigError):
            split(3, 0.99, np.random.default_rng(0))  # rounds to all train nodes

    def test_deterministic_and_seed_sensitive(self):
        a = split(100, 0.3, np.random.default_rng(5))
        b = split(100, 0.3, np.random.default_rng(5))
        c = split(100, 0.3, np.random.default_rng(6))
        assert a == b
        assert a != c

    def test_sampling_is_uniform(self):
        # 2000 trials put the worst-case per-node deviation (max over
        # 1000 binomial frequencies) well inside the 0.05 band.
        n, p, trials = 1000, 0.3, 2000
        counts = np.zeros(n)
        for seed in range(trials):
            s = split(n, p, np.random.default_rng(seed))
            counts[list(s.train_idx)] += 1
        freq = counts / trials
        assert np.all(np.abs(freq - p) < 0.05)


class TestValidate:
    def test_rejects_out_of_range_token(self):
        with pytest.raises(DataError):
            ContentCorpus(node_ids=[0], contents=[[5]], labels=[0],
                          label_names=["x"], vocab_size=3)

    def test_rejects_out_of_range_label(self):
        with pytest.raises(DataError):
            ContentCorpus(node_ids=[0], contents=[[0]], labels=[2],
                          label_names=["x"], vocab_size=3)

    @pytest.mark.parametrize("contents, labels, message", [
        ([[0], [1]], [0, -1], "label -1 out of range"),
        ([[0], [1]], [0, 2], "label 2 out of range"),
        ([[0], [1]], [0, 0.5], "label 0.5 is not an integer"),
        ([[0], [1]], [0, True], "label True is not an integer"),
        ([[0], [0.7]], [0, 1], "token id 0.7 is not an integer"),
        ([[0], [1, "a"]], [0, 1], "token id 'a' is not an integer"),
        ([[0], [np.int64(5)]], [0, 1], "token id 5 out of range"),
        ([[0], []], [0, 1], "has no content tokens"),
    ], ids=["label-negative", "label-class-count", "label-float", "label-bool",
            "token-float", "token-string", "token-numpy-out-of-range", "empty-content"])
    def test_a_bad_node_is_named_when_built(self, contents, labels, message):
        with pytest.raises(DataError, match=f"^node 17:? {re.escape(message)}$"):
            ContentCorpus(node_ids=[3, 17], contents=contents, labels=labels,
                          label_names=["a", "b"], vocab_size=2)

    @pytest.mark.parametrize("vocab_size", [2.5, "3", True, 0, -1, None])
    def test_vocab_size_must_be_a_positive_int(self, vocab_size):
        with pytest.raises(DataError, match="^vocabulary size must be an int >= 1"):
            ContentCorpus(node_ids=[0], contents=[[0]], labels=[0], label_names=["a"],
                          vocab_size=vocab_size)

    def test_field_lengths_must_agree(self):
        with pytest.raises(DataError, match="lengths disagree"):
            ContentCorpus(node_ids=[0, 1], contents=[[0]], labels=[0],
                          label_names=["a"], vocab_size=1)

    def test_numpy_integers_are_integers(self):
        corpus = ContentCorpus(node_ids=[0], contents=[[np.int64(1), np.intp(0)]],
                               labels=[np.int32(0)], label_names=["a"], vocab_size=2)
        assert corpus.tokens.tolist() == [1, 0]

    def test_corpus_is_immutable(self):
        corpus = ContentCorpus(node_ids=[0], contents=[[0]], labels=[0],
                               label_names=["a"], vocab_size=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            corpus.labels = [1]


class TestTokenLayout:
    def test_flat_tokens_and_node_starts(self):
        corpus = ContentCorpus(node_ids=[5, 6, 7], contents=[[2, 0], [1], [0, 0, 2]],
                               labels=[0, 0, 0], label_names=["a"], vocab_size=3)
        assert corpus.tokens.dtype == np.intp
        assert corpus.tokens.tolist() == [2, 0, 1, 0, 0, 2]
        assert corpus.starts.tolist() == [0, 2, 3]

    def test_derived_once(self):
        corpus = ContentCorpus(node_ids=[0], contents=[[0, 1]], labels=[0],
                               label_names=["a"], vocab_size=2)
        assert corpus.tokens is corpus.tokens
        assert corpus.starts is corpus.starts
        assert corpus.distinct_tokens is corpus.distinct_tokens
        assert corpus.label_array is corpus.label_array

    def test_empty_corpus(self):
        corpus = ContentCorpus(node_ids=[], contents=[], labels=[], label_names=["a"],
                               vocab_size=1)
        assert corpus.tokens.size == corpus.starts.size == 0
        terms, counts = corpus.distinct_tokens
        assert terms.size == counts.size == corpus.label_array.size == 0

    def test_distinct_tokens_ascend_per_node(self):
        corpus = ContentCorpus(node_ids=[5, 6, 7], contents=[[2, 0, 2], [1], [0, 0, 0]],
                               labels=[1, 0, 1], label_names=["a", "b"], vocab_size=3)
        terms, counts = corpus.distinct_tokens
        assert terms.tolist() == [0, 2, 1, 0] and counts.tolist() == [2, 1, 1]
        assert corpus.label_array.dtype == np.intp
        assert corpus.label_array.tolist() == [1, 0, 1]
