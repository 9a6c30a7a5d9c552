"""Node text content: vocabulary, token sequences, labels, train/test
splits, and the trainable word-embedding table."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .util import round_half_up, text_lines


class Vocabulary:
    """Bijective word <-> id map, ids assigned in first-appearance order."""

    def __init__(self, terms: Sequence[str] = ()):
        self.terms: list[str] = []
        self.index: dict[str, int] = {}
        for term in terms:
            self.add(term)

    def add(self, term: str) -> int:
        """Return the id of ``term``, inserting it if unseen."""
        term_id = self.index.get(term)
        if term_id is None:
            term_id = len(self.terms)
            self.terms.append(term)
            self.index[term] = term_id
        return term_id

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self.index


@dataclass
class ContentCorpus:
    """Per-node ordered token-id sequences with class labels.

    Token order is preserved: contents are sequences fed to a recurrent
    encoder, not bags. Every node has at least one token (enforced at
    load time) and ``node_ids`` keeps the external ids so graph edges
    can be resolved against the same id space.
    """

    node_ids: list[int]
    contents: list[list[int]]
    labels: list[int]
    label_names: list[str]
    vocab_size: int

    @property
    def n(self) -> int:
        return len(self.contents)

    @property
    def num_classes(self) -> int:
        return len(self.label_names)

    @property
    def starts(self) -> np.ndarray:
        """Row of each node's first token when all contents are concatenated."""
        return np.cumsum([0] + [len(tokens) for tokens in self.contents[:-1]])

    def validate(self) -> None:
        if not (len(self.node_ids) == len(self.contents) == len(self.labels)):
            raise DataError("corpus field lengths disagree")
        for node_id, tokens in zip(self.node_ids, self.contents):
            if not tokens:
                raise DataError(f"node {node_id} has no content tokens")
            for t in tokens:
                if not 0 <= t < self.vocab_size:
                    raise DataError(f"node {node_id}: token id {t} out of range")
        for node_id, label in zip(self.node_ids, self.labels):
            if not 0 <= label < self.num_classes:
                raise DataError(f"node {node_id}: label {label} out of range")


def load_corpus(path) -> tuple[ContentCorpus, Vocabulary]:
    """Load a content file: ``node_id<TAB>label<TAB>token token ...``.

    Tokens are lowercased but otherwise taken as-is (no stemming or
    stop-word removal); duplicate tokens within a node are kept in
    sequence position. Label ids are assigned in first-appearance order.
    """
    vocab = Vocabulary()
    node_ids: list[int] = []
    contents: list[list[int]] = []
    label_ids: list[int] = []
    label_names: list[str] = []
    label_index: dict[str, int] = {}

    for lineno, raw in text_lines(path, DataError):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
        id_text, label, token_text = fields
        try:
            node_id = int(id_text)
        except ValueError:
            raise DataError(f"{path}:{lineno}: node id must be an integer") from None
        tokens = token_text.split()
        if not tokens:
            raise DataError(f"{path}:{lineno}: node {node_id} has no content tokens")
        if label not in label_index:
            label_index[label] = len(label_names)
            label_names.append(label)
        node_ids.append(node_id)
        contents.append([vocab.add(tok.lower()) for tok in tokens])
        label_ids.append(label_index[label])

    if not node_ids:
        raise DataError(f"{path}: no nodes found")
    corpus = ContentCorpus(node_ids=node_ids, contents=contents,
                           labels=label_ids, label_names=label_names,
                           vocab_size=len(vocab))
    corpus.validate()
    return corpus, vocab


def init_embeddings(vocab_size: int, embed_dim: int, rng: np.random.Generator) -> np.ndarray:
    """Fresh embedding table, entries i.i.d. uniform in [-0.1, 0.1]."""
    if vocab_size < 1 or embed_dim < 1:
        raise ConfigError(f"embedding table needs positive dims, got {vocab_size}x{embed_dim}")
    return rng.uniform(-0.1, 0.1, size=(vocab_size, embed_dim))


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint train/test node index sets covering all nodes."""

    train_idx: tuple[int, ...]
    test_idx: tuple[int, ...]


def split(n: int, p: float, rng: np.random.Generator) -> DatasetSplit:
    """Sample round(p*n) training nodes uniformly without replacement."""
    if not 0.0 < p < 1.0:
        raise ConfigError(f"train fraction must be in (0, 1), got {p}")
    k = round_half_up(p * n)
    if k == 0 or k == n:
        raise ConfigError(f"train fraction {p} leaves an empty train or test set for n={n}")
    train = np.sort(rng.choice(n, size=k, replace=False))
    mask = np.ones(n, dtype=bool)
    mask[train] = False
    test = np.flatnonzero(mask)
    return DatasetSplit(train_idx=tuple(int(i) for i in train),
                        test_idx=tuple(int(i) for i in test))
