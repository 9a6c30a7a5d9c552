"""End-to-end forward pass: token encoding, attention weights for every
(center, member) pair of the closed neighborhoods, two convolution
layers, classification, and the regularized loss. Also hosts the plain
two-layer GCN baseline on bag-of-words input.

The token rows of all nodes form one matrix, node i's from row
``corpus.starts[i]``, so the Bi-LSTM runs once over the whole corpus.
Attention weighs them in one (pair, token) layout for every variant
(``attention.PairTokens``), and layer1 projects them to hidden width
before it sums them per center: Â(XW). ``ModelParams.bind`` builds that
layout once, so the sweeps that attention's and layer1's gradients run
over are sorted by the first backward and reused by every later epoch.
Both convolutions and the baseline propagate over the (center, member)
pairs of ``graph.pairs``, with one coefficient per pair; no n x n matrix
is built. Layer2 and the baseline's second layer multiply by their
weight first and propagate second, Â(H·W2), as Kipf & Welling order the
GCN step: the product moves n x classes values instead of n x hidden.
``PairOperator.propagate`` runs it as a sweep over the centers packed
longest closed neighbourhood first: step k adds every center's k-th pair
at once, and the few hubs left once fewer centers remain than steps have
run finish in one segment sum. A ``PairOperator`` is diag(s)(I + A)diag(s)
for a per-node scale s, so it is symmetric: its input gradient is the
same sweep, and neither direction holds a pairs x width array. The
baseline's first layer keeps (Â·X)·W1: its Â·X is a constant of the
binding, while Â(X·W1) would propagate once more per epoch. That constant
is summed from each node's distinct terms, the bag of words' nonzero
entries, as Kipf & Welling keep those features sparse. It is built when
the baseline binds, in blocks of whole centers with one ``np.bincount``
each, and no n x vocab bag of words, pairs x vocab gather or array over
all pairs' terms is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, ClassVar, Sequence

import numpy as np

from . import tensor as T
from .attention import AttentionParams, PairTokens, token_weights
from .corpus import ContentCorpus, init_embeddings
from .errors import ConfigError, DataError, NumericError, ShapeError
from .graph import Graph, check_node, normalized_scale
from .lstm import LstmDirectionParams, bilstm_encode
from .tensor import Tensor


@dataclass
class ModelParams:
    """All trainable weights of the feature-attention model."""

    kind: ClassVar[str] = "model"

    embeddings: Tensor
    lstm_fwd: LstmDirectionParams
    lstm_bwd: LstmDirectionParams
    attention: AttentionParams
    conv1_weight: Tensor  # hidden_dim x feature_dim
    conv2_weight: Tensor  # hidden_dim x num_classes

    @classmethod
    def init(cls, vocab_size: int, num_classes: int, embed_dim: int,
             feature_dim: int, hidden_dim: int, variant: str,
             rng: np.random.Generator) -> "ModelParams":
        def conv(rows: int, cols: int, fan_in: int) -> Tensor:
            bound = 1.0 / np.sqrt(fan_in)
            return Tensor(rng.uniform(-bound, bound, size=(rows, cols)))

        return cls(
            embeddings=Tensor(init_embeddings(vocab_size, embed_dim, rng)),
            lstm_fwd=LstmDirectionParams.init(embed_dim, feature_dim, rng),
            lstm_bwd=LstmDirectionParams.init(embed_dim, feature_dim, rng),
            attention=AttentionParams.init(variant, feature_dim, rng),
            conv1_weight=conv(hidden_dim, feature_dim, fan_in=feature_dim),
            conv2_weight=conv(hidden_dim, num_classes, fan_in=hidden_dim),
        )

    def bind(self, graph: Graph, corpus: ContentCorpus,
             operators: GraphOperators | None = None) -> Callable[..., Tensor]:
        """``forward`` over this graph and corpus (see ``GraphOperators.of``),
        with the (pair, token) layout built once for every call, as the
        baseline's binding builds its Â·BoW."""
        return partial(forward, self, graph, corpus,
                       operators=GraphOperators.of(graph, operators),
                       layout=PairTokens(graph, corpus.starts, corpus.tokens.size))

    @property
    def variant(self) -> str:
        return self.attention.variant

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        names: list[tuple[str, Tensor]] = [("embeddings", self.embeddings)]
        names += self.lstm_fwd.named_parameters("lstm_fwd")
        names += self.lstm_bwd.named_parameters("lstm_bwd")
        names += self.attention.named_parameters()
        names += [("conv1_weight", self.conv1_weight),
                  ("conv2_weight", self.conv2_weight)]
        return names

    def feature_reg_terms(self) -> list[Tensor]:
        """Weight matrices covered by the feature-learning L2 penalty."""
        return [self.lstm_fwd.weight, self.lstm_bwd.weight]

    def node_reg_terms(self) -> list[Tensor]:
        """Weight matrices covered by the node-learning L2 penalty."""
        return [self.conv1_weight, self.conv2_weight]


@dataclass
class BaselineParams:
    """Plain two-layer GCN weights over static bag-of-words features."""

    kind: ClassVar[str] = "baseline"

    conv1_weight: Tensor  # vocab_size x hidden_dim
    conv2_weight: Tensor  # hidden_dim x num_classes

    @classmethod
    def init(cls, vocab_size: int, num_classes: int, hidden_dim: int,
             rng: np.random.Generator) -> "BaselineParams":
        def conv(rows: int, cols: int) -> Tensor:
            bound = 1.0 / np.sqrt(rows)
            return Tensor(rng.uniform(-bound, bound, size=(rows, cols)))

        return cls(conv1_weight=conv(vocab_size, hidden_dim),
                   conv2_weight=conv(hidden_dim, num_classes))

    def bind(self, graph: Graph, corpus: ContentCorpus,
             operators: GraphOperators | None = None) -> Callable[..., Tensor]:
        """The baseline has no dropout, so the training keywords are
        ignored. The constant Â·BoW is built once per binding from each
        node's distinct terms (``ContentCorpus.distinct_tokens``), the bag
        of words' nonzero entries, in blocks of whole centers
        (``PairOperator.propagate_nonzeros``); no n x vocab bag of words is
        built."""
        norm_adj = GraphOperators.of(graph, operators).norm_adj
        propagated = norm_adj.propagate_nonzeros(*corpus.distinct_tokens, corpus.vocab_size)

        def run(**_training_keywords) -> Tensor:
            return _baseline_head(norm_adj, propagated, self.conv1_weight, self.conv2_weight)

        return run

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [("baseline.conv1_weight", self.conv1_weight),
                ("baseline.conv2_weight", self.conv2_weight)]

    def feature_reg_terms(self) -> list[Tensor]:
        return []

    def node_reg_terms(self) -> list[Tensor]:
        return [self.conv1_weight, self.conv2_weight]


def check_fit(params: ModelParams | BaselineParams, corpus: ContentCorpus) -> None:
    """ShapeError unless ``params`` are weights for the corpus's term and class counts."""
    terms = (params.conv1_weight if params.kind == "baseline" else params.embeddings).rows
    classes = params.conv2_weight.cols
    if (terms, classes) != (corpus.vocab_size, corpus.num_classes):
        raise ShapeError(f"weights for {terms} terms and {classes} classes do not fit a "
                         f"corpus of {corpus.vocab_size} terms and {corpus.num_classes} classes")


def init_for_variant(variant: str, vocab_size: int, num_classes: int, embed_dim: int,
                     feature_dim: int, hidden_dim: int,
                     rng: np.random.Generator) -> ModelParams | BaselineParams:
    """Fresh weights of the parameter set that ``variant`` trains."""
    if variant == "baseline_gcn":
        return BaselineParams.init(vocab_size, num_classes, hidden_dim, rng)
    return ModelParams.init(vocab_size, num_classes, embed_dim, feature_dim,
                            hidden_dim, variant, rng)


@dataclass
class LabelMatrix:
    """The one-hot labels of the labeled nodes: an n x classes matrix whose
    rows for all other nodes are zero."""

    masked: np.ndarray

    @classmethod
    def build(cls, labels: Sequence[int], num_classes: int,
              train_idx: Sequence[int]) -> "LabelMatrix":
        masked = np.zeros((len(labels), num_classes))
        idx = [int(i) for i in train_idx]
        masked[idx, [labels[i] for i in idx]] = 1.0
        return cls(masked=masked)


@dataclass(frozen=True)
class PairOperator:
    """The constant n x n operator diag(s)(I + A)diag(s) for one ``scale``
    s per node, held as ``data``: s_c * s_m per (center, member) pair of
    ``graph.pairs``, in that order, as a scipy CSR matrix holds its values.
    It is symmetric, its own adjoint. ``propagate`` runs over
    ``graph.pair_sweep``, built once per graph, with the coefficients put
    in its order once per operator."""

    graph: Graph
    scale: np.ndarray

    def __post_init__(self):
        if np.shape(self.scale) != (self.graph.n,):
            raise ShapeError(f"a graph of {self.graph.n} nodes needs one scale per node, "
                             f"got shape {np.shape(self.scale)}")

    @cached_property
    def data(self) -> np.ndarray:
        centers, members, _ = self.graph.pairs
        return self.scale[centers] * self.scale[members]

    @cached_property
    def _swept(self) -> np.ndarray:  # the coefficients in the pair sweep's order
        return self.data[self.graph.pair_sweep[0].entries, None]

    def propagate(self, x: Tensor) -> Tensor:
        """The product with ``x``: row c sums ``data[p] * x[members[p]]``
        over c's pairs p, as one taped op over the graph's pair sweep,
        which is also its input gradient, as the operator is symmetric."""
        if x.rows != self.graph.n:
            raise ShapeError(f"a graph of {self.graph.n} nodes cannot propagate {x.shape}")
        sweep, rows = self.graph.pair_sweep

        def product(y: np.ndarray) -> np.ndarray:
            return sweep.unswept(T._swept_sums(self._swept, y, rows, sweep))

        return T._op(product(x.data), (x,), (product,))

    def propagate_nonzeros(self, cols: np.ndarray, counts: np.ndarray, width: int) -> np.ndarray:
        """``propagate`` for the constant 0/1 n x ``width`` array whose ones
        are listed row by row: node m's ``counts[m]`` column ids in ``cols``.
        Each pair p = (c, m) and one (m, v) add ``data[p]`` at (c, v), in
        pair order. The pairs are taken in blocks of whole centers holding at
        most ``GATHER_BLOCK`` such terms (a bigger center is a block of its
        own); one ``np.bincount`` writes each block's output rows, so every
        sum stays inside one block and no array spans all pairs' terms."""
        n = self.graph.n
        if counts.shape != (n,):
            raise ShapeError(f"a graph of {n} nodes cannot propagate {counts.size} rows")
        centers, members, indptr = self.graph.pairs
        terms = counts[members]  # pair p takes over node members[p]'s entries
        ends = np.cumsum(terms)
        bounds = np.append(0, ends)[indptr]  # terms before each center's pairs
        # pair p's terms t read the entries shift[p] + t
        shift = (np.cumsum(counts) - counts)[members] - (ends - terms)
        out = np.empty((n, width))
        c = 0
        while c < n:
            j = max(c + 1, np.searchsorted(bounds, bounds[c] + T.GATHER_BLOCK, side="right") - 1)
            lo, hi = indptr[c], indptr[j]
            k = terms[lo:hi]
            entry = np.repeat(shift[lo:hi], k) + np.arange(bounds[c], bounds[j])
            out[c:j] = np.bincount(np.repeat((centers[lo:hi] - c) * width, k) + cols[entry],
                                   np.repeat(self.data[lo:hi], k),
                                   minlength=(j - c) * width).reshape(j - c, width)
            c = j
        return out


@dataclass
class GraphOperators:
    """Constant operators derived from the graph, reused across epochs."""

    support: PairOperator   # I + A: 1 per pair, the unnormalized closed-neighborhood sum
    norm_adj: PairOperator  # Â: 1 / sqrt((d_c + 1)(d_m + 1)) per pair

    @classmethod
    def build(cls, graph: Graph) -> "GraphOperators":
        return cls(support=PairOperator(graph, np.ones(graph.n)),
                   norm_adj=PairOperator(graph, normalized_scale(graph)))

    @classmethod
    def of(cls, graph: Graph, operators: "GraphOperators | None") -> "GraphOperators":
        """``operators``, or those of ``graph`` when None. Operators built
        for another graph, one that is not ``graph`` and has other pairs,
        are a ConfigError."""
        if operators is None:
            return cls.build(graph)
        for own in (operators.support.graph, operators.norm_adj.graph):
            if own is not graph and not all(map(np.array_equal, own.pairs, graph.pairs)):
                raise ConfigError(f"operators built for a graph of {own.n} nodes and "
                                  f"{own.pairs[1].size} pairs do not fit this graph of "
                                  f"{graph.n} nodes and {graph.pairs[1].size} pairs")
        return operators


def encode_nodes(params: ModelParams, corpus: ContentCorpus, *,
                 training: bool = False,
                 dropout_lstm: float = 0.0,
                 rng: np.random.Generator | None = None) -> Tensor:
    """Bi-LSTM encode every node's token sequence in one pass.

    Returns one (total tokens x feature_dim) matrix whose rows for node i
    start at ``corpus.starts[i]``, with dropout applied in training mode.
    """
    return T.dropout(bilstm_encode(params.lstm_fwd, params.lstm_bwd, params.embeddings,
                                   corpus.token_layout), dropout_lstm, rng, training)


def node_input_features(params: ModelParams, corpus: ContentCorpus, graph: Graph, *,
                        training: bool = False,
                        dropout_lstm: float = 0.0,
                        rng: np.random.Generator | None = None,
                        encoded: Tensor | None = None,
                        layout: PairTokens | None = None
                        ) -> tuple[Tensor, Tensor, PairTokens]:
    """The encoded token rows with their attention weights, as
    ``(encoded, weights, layout)``.

    ``weights`` has one row per entry of the (pair, token) ``layout``:
    segment p, from row ``layout.pair_starts[p]``, weighs the token rows
    of node ``members[p]`` as ``centers[p]`` aggregates it (see
    ``token_weights``). A layout that is not given is built for this
    graph and corpus.
    """
    if layout is None:
        layout = PairTokens(graph, corpus.starts, corpus.tokens.size)
    if encoded is None:
        encoded = encode_nodes(params, corpus, training=training,
                               dropout_lstm=dropout_lstm, rng=rng)
    return encoded, token_weights(params.attention, encoded, layout), layout


def layer1(graph: Graph, features: tuple[Tensor, Tensor, PairTokens],
           conv1_weight: Tensor, *,
           normalize: bool = False,
           operators: GraphOperators | None = None) -> Tensor:
    """First convolution: project the token rows to hidden width, then sum
    each node's weighted pair-token rows.

    ``features`` is ``node_input_features``' ``(encoded, weights,
    layout)``. Each weight is scaled by its pair's coefficient: 1, with no
    degree normalization and no nonlinearity, or with ``normalize=True``
    the normalized-adjacency entry. The sum runs over the layout's center
    segments (``tensor.gather_segment_sum``).
    """
    encoded, weights, layout = features
    operators = GraphOperators.of(graph, operators)
    mixer = operators.norm_adj if normalize else operators.support
    pairs = graph.pairs[1].size
    if layout.pair_starts.size != pairs:
        raise ShapeError(f"{layout.pair_starts.size} pair segments for a graph of {pairs} pairs")
    coeffs = T.constant(mixer.data[layout.pair_of][:, None])
    projected = T.matmul(encoded, T.transpose(conv1_weight))
    return T.gather_segment_sum(T.mul(weights, coeffs), projected, layout)


def layer2(norm_adj: PairOperator, hidden: Tensor, conv2_weight: Tensor, *,
           training: bool = False,
           dropout_gcn: float = 0.0,
           rng: np.random.Generator | None = None) -> Tensor:
    """Second convolution: normalized aggregation of the rectified layer,
    Â(relu(H)·W2).

    Dropout is applied to the rectified activations (training mode only).
    They are multiplied by ``conv2_weight`` before they are propagated, so
    the propagation, forward and backward, runs at class width.
    """
    active = T.dropout(T.relu(hidden), dropout_gcn, rng, training)
    return norm_adj.propagate(T.matmul(active, conv2_weight))


def classify(outputs: Tensor) -> Tensor:
    """Row-wise softmax over the class scores."""
    return T.rowwise_softmax(outputs)


def forward(params: ModelParams, graph: Graph, corpus: ContentCorpus, *,
            training: bool = False,
            dropout_lstm: float = 0.0,
            dropout_gcn: float = 0.0,
            layer1_normalize: bool = False,
            rng: np.random.Generator | None = None,
            operators: GraphOperators | None = None,
            layout: PairTokens | None = None) -> Tensor:
    """Full forward pass producing the n x num_classes probability matrix;
    ``layout`` as ``node_input_features`` takes it."""
    operators = GraphOperators.of(graph, operators)
    features = node_input_features(params, corpus, graph, training=training,
                                   dropout_lstm=dropout_lstm, rng=rng, layout=layout)
    hidden = layer1(graph, features, params.conv1_weight,
                    normalize=layer1_normalize, operators=operators)
    outputs = layer2(operators.norm_adj, hidden, params.conv2_weight,
                     training=training, dropout_gcn=dropout_gcn, rng=rng)
    return classify(outputs)


def loss(z: Tensor, labels: LabelMatrix, params: ModelParams | BaselineParams,
         l2_feature: float, l2_node: float) -> Tensor:
    """Cross-entropy over labeled nodes plus the two L2 penalties, as one
    taped op; both penalty weights must be finite and >= 0.

    The penalties cover exactly the two stacked LSTM gate weights (feature
    term) and the two convolution weights (node term); biases, embeddings and
    attention parameters are not regularized. Probabilities are clamped
    at 1e-12 before the log. For an output gradient g, z gets -g Y / z where
    z > 1e-12 and 0 elsewhere (Y the masked one-hot labels), and a weight W
    penalized by λ gets 2 g λ W.
    """
    if not (0 <= l2_feature < np.inf and 0 <= l2_node < np.inf):
        raise ConfigError(f"L2 weights must be finite and >= 0, got {l2_feature}, {l2_node}")
    masked, z_data = labels.masked, z.data
    if z_data.shape != masked.shape:
        raise ShapeError(f"probabilities {z.shape} do not fit labels {masked.shape}")
    clamped = np.maximum(z_data, 1e-12)
    total = float((masked * np.log(clamped)).sum()) * -1.0
    inputs = [z]
    grads = [lambda g: np.full(z_data.shape, -g[0, 0]) * masked * (z_data > 1e-12) / clamped]
    for lam, terms in ((l2_feature, params.feature_reg_terms()),
                       (l2_node, params.node_reg_terms())):
        for w in terms if lam > 0 else ():
            total += float((w.data * w.data).sum()) * lam
            inputs.append(w)
            grads.append(lambda g, w_data=w.data, lam=lam: (2.0 * (g[0, 0] * lam)) * w_data)
    return T._op(np.array([[total]]), inputs, grads)


def bag_of_words(corpus: ContentCorpus, vocab_size: int) -> np.ndarray:
    """Binary n x vocab_size term-presence matrix. The model never builds
    it (``BaselineParams.bind`` reads ``ContentCorpus.distinct_tokens``);
    it is the dense input of ``baseline_gcn_forward``."""
    bow = np.zeros((corpus.n, vocab_size))
    bow[np.repeat(np.arange(corpus.n), [*map(len, corpus.contents)]), corpus.tokens] = 1.0
    return bow


def baseline_gcn_forward(norm_adj: PairOperator, bow: Tensor,
                         conv1_weight: Tensor, conv2_weight: Tensor) -> Tensor:
    """Two-layer GCN on static 0/1 bag-of-words features.

    Z = softmax(norm_adj @ (relu((norm_adj @ bow) @ W) @ W')); both
    layers use the same normalized adjacency. The second multiplies by W'
    before it propagates, as ``layer2`` does. The first propagates first:
    ``bow`` is a constant, so its product norm_adj @ bow is built once,
    from its ones (``PairOperator.propagate_nonzeros``), bit for bit as
    ``BaselineParams.bind`` builds it from the corpus's distinct terms,
    and carries no gradient. An entry other than 0 or 1 is a DataError,
    and a row count other than the graph's a ShapeError.
    """
    ones = bow.data != 0
    if not (bow.data[ones] == 1).all():
        raise DataError("a bag of words holds only zeros and ones")
    propagated = norm_adj.propagate_nonzeros(np.nonzero(ones)[1], np.count_nonzero(ones, axis=1),
                                             bow.cols)
    return _baseline_head(norm_adj, propagated, conv1_weight, conv2_weight)


def _baseline_head(norm_adj: PairOperator, propagated: np.ndarray,
                   conv1_weight: Tensor, conv2_weight: Tensor) -> Tensor:
    # the baseline past its constant first product norm_adj @ bow, which
    # ``BaselineParams.bind`` computes once per binding: the first layer is
    # (norm_adj @ bow) @ W and propagates nothing per epoch, and the second
    # is ``layer2`` without dropout, norm_adj @ (relu(.) @ W')
    hidden = T.matmul(T.constant(propagated), conv1_weight)
    return classify(layer2(norm_adj, hidden, conv2_weight))


def export_attention(params: ModelParams, graph: Graph, corpus: ContentCorpus,
                     terms: Sequence[str], center: int) -> dict:
    """Inspectable attention record for one aggregating node.

    For every member of the center's closed neighborhood, lists that
    node's (token string, weight) pairs sorted by descending weight;
    the "none" variant reports the uniform weights it implies. Baseline
    weights are a ConfigError, and weights that do not fit the corpus a
    ShapeError. Numpy's floating-point errors, and encoded rows or
    weights that are not finite, raise NumericError instead of warning.
    """
    if params.kind == "baseline":
        raise ConfigError("baseline weights have no attention to export")
    check_fit(params, corpus)
    check_node(graph, center)
    if len(terms) < corpus.vocab_size:
        raise ShapeError(f"{len(terms)} terms cannot name a vocabulary of {corpus.vocab_size}")
    try:
        with np.errstate(all="raise", under="ignore"):
            encoded = encode_nodes(params, corpus, training=False)
            layout = PairTokens(graph, corpus.starts, corpus.tokens.size)
            weights = token_weights(params.attention, encoded, layout)
    except FloatingPointError as exc:  # saturating gates hide an overflow from the checks below
        raise NumericError(f"attention export failed: {exc}") from None
    if not (np.isfinite(encoded.data).all() and np.isfinite(weights.data).all()):
        raise NumericError("encoded token rows or attention weights are not finite")
    per_segment = np.split(weights.data[:, 0], layout.pair_starts[1:])
    _, members, indptr = graph.pairs
    record = {"center": corpus.node_ids[center], "variant": params.variant, "neighbors": []}
    for p in range(indptr[center], indptr[center + 1]):
        m = members[p]
        ranked = sorted(
            ({"token": terms[tok], "weight": float(w)}
             for tok, w in zip(corpus.contents[m], per_segment[p])),
            key=lambda entry: -entry["weight"])
        record["neighbors"].append({"node": corpus.node_ids[m], "weights": ranked})
    return record
