"""Node text content: vocabulary, token sequences, labels, train/test
splits, and the trainable word-embedding table."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .util import require_ascii_ints, round_half_up, text_lines


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


@dataclass(frozen=True)
class ContentCorpus:
    """Per-node ordered token-id sequences with class labels, immutable and
    checked when built: the vocabulary size is an int >= 1, every node has a
    token, and its token ids and label are integers in range, else a
    DataError names the node.

    Token order is preserved: contents are sequences fed to a recurrent
    encoder, not bags. ``node_ids`` keeps the external ids so graph edges
    can be resolved against the same id space.
    """

    node_ids: list[int]
    contents: list[list[int]]
    labels: list[int]
    label_names: list[str]
    vocab_size: int

    def __post_init__(self) -> None:
        if not (len(self.node_ids) == len(self.contents) == len(self.labels)):
            raise DataError("corpus field lengths disagree")
        if (isinstance(self.vocab_size, bool) or not isinstance(self.vocab_size, (int, np.integer))
                or self.vocab_size < 1):
            raise DataError(f"vocabulary size must be an int >= 1, got {self.vocab_size!r}")
        vocab, classes = self.vocab_size, self.num_classes
        if (all(self.contents)
                and not [t for t in chain.from_iterable(self.contents)
                         if type(t) is not int or not 0 <= t < vocab]
                and not [y for y in self.labels if type(y) is not int or not 0 <= y < classes]):
            return  # the common case, checked without naming nodes
        for node_id, tokens, label in zip(self.node_ids, self.contents, self.labels):
            if not tokens:
                raise DataError(f"node {node_id} has no content tokens")
            for what, value, bound in [*(("token id", t, vocab) for t in tokens),
                                       ("label", label, classes)]:
                if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                    raise DataError(f"node {node_id}: {what} {value!r} is not an integer")
                if not 0 <= value < bound:
                    raise DataError(f"node {node_id}: {what} {value} out of range")

    @property
    def n(self) -> int:
        return len(self.contents)

    @property
    def num_classes(self) -> int:
        return len(self.label_names)

    @cached_property
    def tokens(self) -> np.ndarray:
        """Every node's token ids, concatenated in node order."""
        return np.fromiter(chain.from_iterable(self.contents), dtype=np.intp)

    @cached_property
    def starts(self) -> np.ndarray:
        """Row of each node's first token in ``tokens``."""
        return np.cumsum([0, *map(len, self.contents)])[:-1]

    @cached_property
    def distinct_tokens(self) -> tuple[np.ndarray, np.ndarray]:
        """Each node's distinct token ids, ascending, concatenated in node
        order, and how many each node has: the keys node * vocab_size +
        token, sorted once, less the repeats."""
        nodes = np.repeat(np.arange(self.n), np.diff(self.starts, append=self.tokens.size))
        keys = np.sort(nodes * self.vocab_size + self.tokens)
        nodes, terms = np.divmod(keys[np.diff(keys, prepend=-1) != 0], self.vocab_size)
        return terms, np.bincount(nodes, minlength=self.n)

    @cached_property
    def label_array(self) -> np.ndarray:
        """``labels`` as an integer array."""
        return np.array(self.labels, dtype=np.intp)


def load_corpus(path) -> tuple[ContentCorpus, Vocabulary]:
    """Load a content file: ``node_id<TAB>label<TAB>token token ...``,
    the node id ASCII ``-?[0-9]+``.

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
            node_id = int(require_ascii_ints(id_text))
        except ValueError:
            raise DataError(
                f"{path}:{lineno}: node id must be an integer, got {id_text!r}") from None
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
    return ContentCorpus(node_ids=node_ids, contents=contents, labels=label_ids,
                         label_names=label_names, vocab_size=len(vocab)), vocab


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
