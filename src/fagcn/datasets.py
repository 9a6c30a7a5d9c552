"""Synthetic citation-style datasets for demos, tests, and robustness
experiments.

Generated graphs have community structure (nodes link mostly within
their class) and node contents mixing a few class-indicative words with
shared filler words, which is the regime the feature-attention model is
built for: sparse text where only part of each node's content carries
the class signal.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from .corpus import ContentCorpus, Vocabulary
from .graph import Graph


INDICATIVE_TOKENS, INDICATIVE_VOCAB = 2, 10
INTRA_LINKS, INTER_LINK_PROB = 3, 0.2


def synthetic_citation(num_classes: int = 3, nodes_per_class: int = 100, *,
                       filler_tokens: int = 3, filler_vocab: int = 30,
                       seed: int = 0) -> tuple[Graph, ContentCorpus, Vocabulary]:
    """Community graph whose node texts carry a partial class signal.

    Each node's content holds ``INDICATIVE_TOKENS`` words drawn from its
    class's private pool of ``INDICATIVE_VOCAB`` plus ``filler_tokens``
    words from a pool of ``filler_vocab`` shared by every class, shuffled
    together. Each node links to ``INTRA_LINKS`` random same-class nodes
    and, with probability ``INTER_LINK_PROB``, one node of another class.
    """
    rng = np.random.default_rng(seed)
    vocab = Vocabulary()
    class_pools = [[vocab.add(f"c{k}w{j}") for j in range(INDICATIVE_VOCAB)]
                   for k in range(num_classes)]
    filler_pool = [vocab.add(f"fill{j}") for j in range(filler_vocab)]

    n = num_classes * nodes_per_class
    contents: list[list[int]] = []
    labels: list[int] = []
    for node in range(n):
        k = node // nodes_per_class
        tokens = list(rng.choice(class_pools[k], size=INDICATIVE_TOKENS))
        tokens += list(rng.choice(filler_pool, size=filler_tokens))
        order = rng.permutation(len(tokens))
        contents.append([int(tokens[i]) for i in order])
        labels.append(k)

    edges: list[tuple[int, int]] = []
    for node in range(n):
        k = node // nodes_per_class
        base = k * nodes_per_class
        for _ in range(INTRA_LINKS):
            other = base + int(rng.integers(0, nodes_per_class))
            if other != node:
                edges.append((node, other))
        if num_classes > 1 and rng.random() < INTER_LINK_PROB:
            other = int(rng.integers(0, n - nodes_per_class))
            if other >= base:
                other += nodes_per_class
            edges.append((node, other))

    corpus = ContentCorpus(node_ids=list(range(n)), contents=contents, labels=labels,
                           label_names=[f"class{k}" for k in range(num_classes)],
                           vocab_size=len(vocab))
    return Graph(n, edges), corpus, vocab


def two_cluster_fixture() -> tuple[Graph, ContentCorpus, Vocabulary]:
    """Tiny linearly separable fixture: two 4-cliques with one bridge.

    Class-0 nodes talk about fruit, class-1 nodes about minerals, and
    every node carries one shared filler word, so contents alone
    separate the classes.
    """
    vocab = Vocabulary()
    apple, berry, stone, metal, thing = (vocab.add(w) for w in
                                         ("apple", "berry", "stone", "metal", "thing"))
    contents = [
        [apple, berry, thing], [berry, apple, thing],
        [apple, thing, apple], [thing, berry, berry],
        [stone, metal, thing], [metal, stone, thing],
        [stone, thing, stone], [thing, metal, metal],
    ]
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(i, j) for i in range(4, 8) for j in range(i + 1, 8)]
    edges.append((3, 4))
    corpus = ContentCorpus(node_ids=list(range(8)), contents=contents,
                           labels=[0, 0, 0, 0, 1, 1, 1, 1],
                           label_names=["fruit", "mineral"], vocab_size=len(vocab))
    return Graph(8, edges), corpus, vocab


def four_node_fixture() -> tuple[Graph, ContentCorpus, Vocabulary]:
    """Small mixed-degree fixture used by gradient and oracle checks.

    Varied content lengths (including a single-token node) and a
    non-regular graph exercise every aggregation path.
    """
    vocab = Vocabulary()
    ids = [vocab.add(w) for w in ("ash", "oak", "elm", "fir", "yew", "bay")]
    contents = [
        [ids[0], ids[1]],
        [ids[1], ids[2], ids[3]],
        [ids[4]],
        [ids[5], ids[0]],
    ]
    edges = [(0, 1), (1, 2), (2, 3), (0, 2)]
    corpus = ContentCorpus(node_ids=list(range(4)), contents=contents,
                           labels=[0, 0, 1, 1],
                           label_names=["left", "right"], vocab_size=len(vocab))
    return Graph(4, edges), corpus, vocab


def write_dataset(dirpath, corpus: ContentCorpus, vocab: Vocabulary,
                  graph: Graph) -> tuple[str, str]:
    """Write the content and edge-list files; returns their paths."""
    os.makedirs(dirpath, exist_ok=True)
    content_path = os.path.join(dirpath, "content.tsv")
    edges_path = os.path.join(dirpath, "edges.txt")
    with open(content_path, "w", encoding="utf-8", newline="\n") as fh:
        for node_id, tokens, label in zip(corpus.node_ids, corpus.contents, corpus.labels):
            words = " ".join(vocab.terms[t] for t in tokens)
            fh.write(f"{node_id}\t{corpus.label_names[label]}\t{words}\n")
    with open(edges_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# edge list: one undirected edge per line\n")
        for i, j in sorted(graph.edges):
            fh.write(f"{corpus.node_ids[i]} {corpus.node_ids[j]}\n")
    return content_path, edges_path


def main(argv: list[str] | None = None) -> int:
    """Emit a demo dataset: ``python -m fagcn.datasets OUT_DIR [SEED]``. A
    SEED that is not an int >= 0 or an unwritable OUT_DIR exits 2."""
    args = sys.argv[1:] if argv is None else argv
    if not 1 <= len(args) <= 2:
        print("usage: python -m fagcn.datasets OUT_DIR [SEED]", file=sys.stderr)
        return 2
    seed = args[1] if len(args) == 2 else "0"
    try:
        if not (seed.isascii() and seed.isdecimal()):
            raise ValueError(f"SEED must be an int >= 0, got {seed!r}")
        graph, corpus, vocab = synthetic_citation(seed=int(seed))
        content_path, edges_path = write_dataset(args[0], corpus, vocab, graph)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {content_path} and {edges_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
