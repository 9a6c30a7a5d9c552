"""Seeded benchmark workloads: what each one generates, how it is
configured, and the timed set-up that loads it back through the public
loaders.

Every workload fixes its shape (node count, edge count, token-length
multiset) independently of the seed; the seed only decides labels, which
node gets which length, token choices and which edges exist. Timings
from different seeds are therefore timings of the same amount of work.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from fagcn import (ContentCorpus, ExperimentConfig, Graph, Vocabulary,
                   build_graph, load_corpus, load_edge_list)
from fagcn.datasets import write_dataset
from fagcn.model import GraphOperators


@dataclass(frozen=True)
class Size:
    """Generated shape of one workload."""

    n: int
    classes: int
    degree: int            # average degree; edge count is exactly n*degree//2
    lengths: tuple[int, ...]  # token-length multiset, one entry per node
    epochs: int            # epochs per train() call
    eval_repeats: int      # evaluate() calls per trained model
    cells_per_round: int = 1  # train() cells between two set-ups (and sweeps)


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str           # the variant of train(); "sweep" runs noise_sweep
    full: Size
    toy: Size
    threaded: bool = False  # sweep cells on nproc worker threads instead of one
    reference: str = "interpreter"  # clock.py kernel whose speed scales the times


# Few epochs must separate the classes, so test accuracy is far from chance
# and steady across seeds: a learning rate above the default 2e-3 and more
# hidden units than the default 6.
LEARNING_RATE = 0.03
HIDDEN_DIM = 16
SWEEP_RATIOS = (0.25, 0.5)
SWEEP_VARIANTS = ("none", "self", "context", "baseline_gcn")
# One seed, and one noise_sweep call per ratio, keep a call near 2.5 s: short
# enough that the reference passes timed around it (see clock.py) still track
# the host's speed.
SWEEP_SEEDS = 1
CELL_SEEDS = 4             # config seeds a run's train() cells cycle through
SETUP_ROUND_S = 0.02       # set-up repetitions per round last at least this long
HOMOPHILY = 0.9            # share of edges that join two nodes of one class
INDICATIVE_SHARE = 0.6     # share of tokens drawn from the node's class pool
CLASS_VOCAB = 10
FILLER_VOCAB = 30


def long_tail_lengths(n: int, median: float, sigma: float, cap: int) -> tuple[int, ...]:
    """Log-normal token lengths at evenly spaced quantiles, clipped to [1, cap].

    Quantiles instead of random draws keep the multiset, and with it the
    total token count and the longest sequence, the same for every seed.
    """
    normal = statistics.NormalDist()
    return tuple(min(cap, max(1, round(median * math.exp(sigma * normal.inv_cdf((k + 0.5) / n)))))
                 for k in range(n))


# Two train() cells per round give epoch_ms about as many samples as the
# sweep calls that take most of a round.
SWEEP_FULL = Size(n=32, classes=2, degree=4, lengths=(4,) * 32, epochs=6, eval_repeats=10,
                  cells_per_round=2)
SWEEP_TOY = Size(n=18, classes=2, degree=4, lengths=(4,) * 18, epochs=1, eval_repeats=2)

# Each workload puts most of its work into one layer (BENCHMARK.json gives
# the reason for each), so every optimisation has a workload that runs it
# and one that bypasses it.
WORKLOADS = {w.name: w for w in (
    # Bi-LSTM: long-tailed lengths (L_max 36, 78% padding in an n x L_max batch).
    Workload("text_ragged", "self",
             full=Size(n=60, classes=2, degree=4, lengths=long_tail_lengths(60, 6.0, 0.75, 40),
                       epochs=6, eval_repeats=5),
             toy=Size(n=24, classes=2, degree=4, lengths=long_tail_lengths(24, 6.0, 0.75, 40),
                      epochs=2, eval_repeats=2)),
    # Attention and layer1 pair loops: 1,700 (center, member) pairs, no padding.
    Workload("graph_context", "context",
             full=Size(n=100, classes=2, degree=16, lengths=(3,) * 100, epochs=6, eval_repeats=5),
             toy=Size(n=40, classes=2, degree=8, lengths=(3,) * 40, epochs=2, eval_repeats=2)),
    # Dense n x n operators; no LSTM or attention code runs.
    Workload("bow_gcn_large", "baseline_gcn",
             full=Size(n=3000, classes=4, degree=6, lengths=(5,) * 3000, epochs=8, eval_repeats=5),
             toy=Size(n=60, classes=4, degree=6, lengths=(5,) * 60, epochs=3, eval_repeats=2),
             reference="dense"),
    # Noise injection and per-cell set-up, cells run one after another.
    Workload("noise_sweep", "sweep", full=SWEEP_FULL, toy=SWEEP_TOY),
    # The same sweep on nproc worker threads.
    Workload("noise_sweep_threads", "sweep", full=SWEEP_FULL, toy=SWEEP_TOY, threaded=True),
)}


def config_for(workload: Workload, size: Size, seed: int) -> ExperimentConfig:
    variant = "context" if workload.variant == "sweep" else workload.variant
    return replace(ExperimentConfig(), variant=variant, epochs=size.epochs,
                   hidden_dim=HIDDEN_DIM, lr=LEARNING_RATE, seed=seed)


def generate(size: Size, seed: int) -> tuple[Graph, ContentCorpus, Vocabulary]:
    """Community graph whose node texts carry a partial class signal."""
    rng = np.random.default_rng(seed)
    vocab = Vocabulary()
    pools = [[vocab.add(f"c{k}w{j}") for j in range(CLASS_VOCAB)] for k in range(size.classes)]
    filler = [vocab.add(f"fill{j}") for j in range(FILLER_VOCAB)]
    labels = rng.permutation(np.arange(size.n) % size.classes)
    lengths = rng.permutation(np.array(size.lengths))
    contents = []
    for label, length in zip(labels, lengths):
        indicative = rng.random(length) < INDICATIVE_SHARE
        contents.append([int(rng.choice(pools[label])) if hit else int(rng.choice(filler))
                         for hit in indicative])

    members = [np.flatnonzero(labels == k) for k in range(size.classes)]
    target = size.n * size.degree // 2
    edges: set[tuple[int, int]] = set()
    while len(edges) < target:
        i = int(rng.integers(size.n))
        if rng.random() < HOMOPHILY:
            j = int(rng.choice(members[labels[i]]))
        else:
            j = int(rng.integers(size.n))
        if i != j:
            edges.add((min(i, j), max(i, j)))

    corpus = ContentCorpus(node_ids=list(range(size.n)), contents=contents,
                           labels=[int(k) for k in labels],
                           label_names=[f"class{k}" for k in range(size.classes)],
                           vocab_size=len(vocab))
    return Graph(size.n, sorted(edges)), corpus, vocab


def write_inputs(dirpath: str, size: Size, seed: int) -> tuple[str, str]:
    """Generate a workload and write it as content and edge-list files."""
    graph, corpus, vocab = generate(size, seed)
    return write_dataset(dirpath, corpus, vocab, graph)


@dataclass
class Loaded:
    """One workload as loaded back from its files."""

    corpus: ContentCorpus
    graph: Graph
    operators: GraphOperators


def load(content_path: str, edges_path: str, tracer=None) -> Loaded:
    """The set-up a user pays before training: load, build, derive operators."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    with span("corpus.load_corpus"):
        corpus, _ = load_corpus(content_path)
    with span("graph.load_edge_list"):
        pairs = load_edge_list(edges_path)
    with span("graph.build_graph"):
        graph = build_graph(corpus.node_ids, pairs)
    with span("model.GraphOperators.build"):
        operators = GraphOperators.build(graph)
    return Loaded(corpus, graph, operators)


def timed_setups(content_path: str, edges_path: str, *, min_reps: int = 5,
                 min_seconds: float = 1.0, max_reps: int = 40,
                 tracer=None, clock=None) -> tuple[list[float], Loaded]:
    """Repeat the set-up and return every duration plus the last result.

    The previous result is dropped before each repetition, so peak memory
    holds one loaded workload, not several. With a ``ReferenceClock`` the
    durations are scaled by the reference passes around the whole batch.
    """
    durations: list[float] = []
    loaded = None
    started = time.perf_counter()
    while len(durations) < min_reps or (time.perf_counter() - started < min_seconds
                                        and len(durations) < max_reps):
        loaded = None
        t0 = time.perf_counter()
        loaded = load(content_path, edges_path, tracer)
        durations.append(time.perf_counter() - t0)
    return (clock.scale("setup", durations) if clock else durations), loaded


def shape(corpus: ContentCorpus, graph: Graph) -> dict:
    """Counts that decide how much work each layer does."""
    lengths = [len(tokens) for tokens in corpus.contents]
    tokens = sum(lengths)
    l_max = max(lengths)
    return {"n": graph.n, "edges": len(graph.edges),
            "pairs": int(graph.n + graph.degree.sum()),
            "tokens": tokens, "l_max": l_max,
            "pad_share": 1.0 - tokens / (graph.n * l_max)}
