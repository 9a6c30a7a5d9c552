"""Content loading, vocabulary, embeddings init, and train/test splits."""

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
        corpus = ContentCorpus(node_ids=[0], contents=[[5]], labels=[0],
                               label_names=["x"], vocab_size=3)
        with pytest.raises(DataError):
            corpus.validate()

    def test_rejects_out_of_range_label(self):
        corpus = ContentCorpus(node_ids=[0], contents=[[0]], labels=[2],
                               label_names=["x"], vocab_size=3)
        with pytest.raises(DataError):
            corpus.validate()
