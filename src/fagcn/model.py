"""End-to-end forward pass: token encoding, attention weights for every
(center, member) pair of the closed neighborhoods, two convolution
layers, classification, and the regularized loss. Also hosts the plain
two-layer GCN baseline on bag-of-words input.

The token rows of all nodes form one matrix, node i's from row
``corpus.starts[i]``, so the Bi-LSTM runs once over the whole corpus.
Attention weighs them in one (pair, token) layout for every variant, and
layer1 projects them to hidden width before it sums them per center: Â(XW).
Both convolutions and the baseline propagate over the (center, member)
pairs of ``graph.pairs``, with one coefficient per pair; no n x n matrix
is built. The baseline's constant first product Â·BoW is summed from the
bag of words' nonzero entries only, as Kipf & Welling keep those
features sparse, so it never gathers a pair's whole vocabulary row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, ClassVar, Sequence

import numpy as np

from . import tensor as T
from .attention import AttentionParams, token_weights
from .corpus import ContentCorpus, init_embeddings
from .errors import ConfigError, ShapeError
from .graph import Graph, check_node, normalized_coefficients
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
             operators: GraphOperators) -> Callable[..., Tensor]:
        """``forward`` over this graph and corpus."""
        return partial(forward, self, graph, corpus, operators=operators)

    @property
    def variant(self) -> str:
        return self.attention.variant

    @property
    def vocab_size(self) -> int:
        return self.embeddings.rows

    @property
    def num_classes(self) -> int:
        return self.conv2_weight.cols

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
             operators: GraphOperators) -> Callable[..., Tensor]:
        """The baseline has no dropout, so the training keywords are
        ignored. The constant Â·BoW is built once per binding, from the
        bag of words' nonzero entries (``PairOperator.propagate_constant``)."""
        norm_adj = operators.norm_adj
        propagated = norm_adj.propagate_constant(bag_of_words(corpus, corpus.vocab_size))

        def run(**_training_keywords) -> Tensor:
            return _baseline_head(norm_adj, propagated, self.conv1_weight, self.conv2_weight)

        return run

    @property
    def vocab_size(self) -> int:
        return self.conv1_weight.rows

    @property
    def num_classes(self) -> int:
        return self.conv2_weight.cols

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [("baseline.conv1_weight", self.conv1_weight),
                ("baseline.conv2_weight", self.conv2_weight)]

    def feature_reg_terms(self) -> list[Tensor]:
        return []

    def node_reg_terms(self) -> list[Tensor]:
        return [self.conv1_weight, self.conv2_weight]


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
    """One-hot labels for all nodes plus the labeled-node index set."""

    onehot: np.ndarray
    train_idx: tuple[int, ...]

    @classmethod
    def build(cls, labels: Sequence[int], num_classes: int,
              train_idx: Sequence[int]) -> "LabelMatrix":
        onehot = np.zeros((len(labels), num_classes))
        onehot[np.arange(len(labels)), labels] = 1.0
        return cls(onehot=onehot, train_idx=tuple(int(i) for i in train_idx))

    def masked(self) -> np.ndarray:
        """One-hot rows for labeled nodes, zero rows elsewhere."""
        out = np.zeros_like(self.onehot)
        idx = list(self.train_idx)
        out[idx] = self.onehot[idx]
        return out


@dataclass(frozen=True)
class PairOperator:
    """A constant n x n operator stored as one coefficient per (center,
    member) pair of ``graph.pairs``, in that order: ``data`` is the CSR
    value array, as a scipy CSR matrix's ``.data`` is, and every entry
    off the pairs is zero."""

    graph: Graph
    data: np.ndarray

    def propagate(self, x: Tensor) -> Tensor:
        """The product with ``x``: row c sums ``data[p] * x[members[p]]``
        over c's pairs p."""
        if x.rows != self.graph.n:
            raise ShapeError(f"a graph of {self.graph.n} nodes cannot propagate {x.shape}")
        _, members, indptr = self.graph.pairs
        return T.gather_segment_sum(T.constant(self.data[:, None]), x, members, indptr[:-1])

    def propagate_constant(self, x: np.ndarray) -> np.ndarray:
        """``propagate`` for a constant array, from x's nonzero entries
        only: each pair p = (c, m) and nonzero x[m, v] add ``data[p] *
        x[m, v]`` at (c, v), in pair order, with one ``np.bincount``. Work
        and memory grow with pairs times nonzeros per node, not with
        pairs times x's width."""
        if x.shape[0] != self.graph.n:
            raise ShapeError(f"a graph of {self.graph.n} nodes cannot propagate {x.shape}")
        centers, members, _ = self.graph.pairs
        n, width = x.shape
        # row-major, so each node's hits are one run; numpy finds the nonzeros
        # of a bool mask several times faster than those of a float array
        hits = np.flatnonzero(x != 0)
        nodes, cols = np.divmod(hits, width)
        values = x.ravel()[hits]
        per_node = np.bincount(nodes, minlength=n)
        counts = per_node[members]  # pair p takes over node members[p]'s run
        pair = np.repeat(np.arange(members.size), counts)
        # entry k belongs to pair[k] and is hit (start of members[pair[k]]'s
        # run) + (k - start of pair[k]'s share)
        entry = np.repeat((np.cumsum(per_node) - per_node)[members] - (np.cumsum(counts) - counts),
                          counts)
        entry += np.arange(entry.size)
        out = np.bincount((centers * width)[pair] + cols[entry],
                          self.data[pair] * values[entry], minlength=n * width)
        return out.reshape(n, width)


@dataclass
class GraphOperators:
    """Constant operators derived from the graph, reused across epochs."""

    support: PairOperator   # I + A: 1 per pair, the unnormalized closed-neighborhood sum
    norm_adj: PairOperator  # Â: 1 / sqrt((d_c + 1)(d_m + 1)) per pair

    @classmethod
    def build(cls, graph: Graph) -> "GraphOperators":
        return cls(support=PairOperator(graph, np.ones(graph.pairs[1].size)),
                   norm_adj=PairOperator(graph, normalized_coefficients(graph)))


def encode_nodes(params: ModelParams, corpus: ContentCorpus, *,
                 training: bool = False,
                 dropout_lstm: float = 0.0,
                 rng: np.random.Generator | None = None) -> Tensor:
    """Bi-LSTM encode every node's token sequence in one pass.

    Returns one (total tokens x feature_dim) matrix whose rows for node i
    start at ``corpus.starts[i]``, with dropout applied in training mode.
    """
    tokens = np.fromiter(chain.from_iterable(corpus.contents), dtype=np.intp)
    seq = T.take_rows(params.embeddings, tokens)
    h = bilstm_encode(params.lstm_fwd, params.lstm_bwd, seq, corpus.starts)
    return T.dropout(h, dropout_lstm, rng, training)


def node_input_features(params: ModelParams, corpus: ContentCorpus, graph: Graph, *,
                        training: bool = False,
                        dropout_lstm: float = 0.0,
                        rng: np.random.Generator | None = None,
                        encoded: Tensor | None = None
                        ) -> tuple[Tensor, Tensor, np.ndarray, np.ndarray]:
    """The encoded token rows with their attention weights, as
    ``(encoded, weights, rows, starts)``.

    ``weights`` has one row per (pair, token): segment p, from row
    ``starts[p]``, weighs the token rows ``rows`` of node ``members[p]``
    as ``centers[p]`` aggregates it (see ``token_weights``).
    """
    if encoded is None:
        encoded = encode_nodes(params, corpus, training=training,
                               dropout_lstm=dropout_lstm, rng=rng)
    return (encoded, *token_weights(params.attention, encoded, corpus.starts, graph))


def layer1(graph: Graph, features: tuple[Tensor, Tensor, np.ndarray, np.ndarray],
           conv1_weight: Tensor, *,
           normalize: bool = False,
           operators: GraphOperators | None = None) -> Tensor:
    """First convolution: project the token rows to hidden width, then sum
    each node's weighted pair-token rows.

    ``features`` is ``node_input_features``' ``(encoded, weights, rows,
    starts)``. Each weight is scaled by its pair's coefficient: 1, with no
    degree normalization and no nonlinearity, or with ``normalize=True``
    the normalized-adjacency entry.
    """
    encoded, weights, rows, starts = features
    if operators is None:
        operators = GraphOperators.build(graph)
    mixer = operators.norm_adj if normalize else operators.support
    _, members, indptr = graph.pairs
    if starts.size != members.size:
        raise ShapeError(f"{starts.size} pair segments for a graph of {members.size} pairs")
    lengths = np.diff(starts, append=weights.rows)
    coeffs = T.constant(np.repeat(mixer.data, lengths)[:, None])
    projected = T.matmul(encoded, T.transpose(conv1_weight))
    return T.gather_segment_sum(T.mul(weights, coeffs), projected, rows, starts[indptr[:-1]])


def layer2(norm_adj: PairOperator, hidden: Tensor, conv2_weight: Tensor, *,
           training: bool = False,
           dropout_gcn: float = 0.0,
           rng: np.random.Generator | None = None) -> Tensor:
    """Second convolution: normalized aggregation of the rectified layer.

    Dropout is applied to the rectified activations (training mode only)
    before they are propagated.
    """
    active = T.dropout(T.relu(hidden), dropout_gcn, rng, training)
    return T.matmul(norm_adj.propagate(active), conv2_weight)


def classify(outputs: Tensor) -> Tensor:
    """Row-wise softmax over the class scores."""
    return T.rowwise_softmax(outputs)


def forward(params: ModelParams, graph: Graph, corpus: ContentCorpus, *,
            training: bool = False,
            dropout_lstm: float = 0.0,
            dropout_gcn: float = 0.0,
            layer1_normalize: bool = False,
            rng: np.random.Generator | None = None,
            operators: GraphOperators | None = None) -> Tensor:
    """Full forward pass producing the n x num_classes probability matrix."""
    if operators is None:
        operators = GraphOperators.build(graph)
    features = node_input_features(params, corpus, graph, training=training,
                                   dropout_lstm=dropout_lstm, rng=rng)
    hidden = layer1(graph, features, params.conv1_weight,
                    normalize=layer1_normalize, operators=operators)
    outputs = layer2(operators.norm_adj, hidden, params.conv2_weight,
                     training=training, dropout_gcn=dropout_gcn, rng=rng)
    return classify(outputs)


def loss(z: Tensor, labels: LabelMatrix, params: ModelParams | BaselineParams,
         l2_feature: float, l2_node: float) -> Tensor:
    """Cross-entropy over labeled nodes plus the two L2 penalties, as one
    taped op.

    The penalties cover exactly the two stacked LSTM gate weights (feature
    term) and the two convolution weights (node term); biases, embeddings and
    attention parameters are not regularized. Probabilities are clamped
    at 1e-12 before the log. For an output gradient g, z gets -g Y / z where
    z > 1e-12 and 0 elsewhere (Y the masked one-hot labels), and a weight W
    penalized by λ gets 2 g λ W.
    """
    if l2_feature < 0 or l2_node < 0:
        raise ConfigError("regularization weights must be non-negative")
    masked, z_data = labels.masked(), z.data
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
    """Binary n x vocab_size term-presence matrix."""
    lengths = [len(tokens) for tokens in corpus.contents]
    tokens = np.fromiter(chain.from_iterable(corpus.contents), dtype=np.intp)
    bow = np.zeros((corpus.n, vocab_size))
    bow[np.repeat(np.arange(corpus.n), lengths), tokens] = 1.0
    return bow


def baseline_gcn_forward(norm_adj: PairOperator, bow: Tensor,
                         conv1_weight: Tensor, conv2_weight: Tensor) -> Tensor:
    """Two-layer GCN on static bag-of-words features.

    Z = softmax(norm_adj @ relu(norm_adj @ bow @ W) @ W'); both layers
    use the same normalized adjacency. ``bow`` is a constant, so its
    product norm_adj @ bow is built from its nonzero entries
    (``PairOperator.propagate_constant``), as ``BaselineParams.bind``
    builds it, and carries no gradient.
    """
    return _baseline_head(norm_adj, norm_adj.propagate_constant(bow.data),
                          conv1_weight, conv2_weight)


def _baseline_head(norm_adj: PairOperator, propagated: np.ndarray,
                   conv1_weight: Tensor, conv2_weight: Tensor) -> Tensor:
    # the baseline past its constant first product norm_adj @ bow, which
    # ``BaselineParams.bind`` computes once per binding; its second layer
    # is ``layer2`` without dropout
    hidden = T.matmul(T.constant(propagated), conv1_weight)
    return classify(layer2(norm_adj, hidden, conv2_weight))


def export_attention(params: ModelParams, graph: Graph, corpus: ContentCorpus,
                     terms: Sequence[str], center: int) -> dict:
    """Inspectable attention record for one aggregating node.

    For every member of the center's closed neighborhood, lists that
    node's (token string, weight) pairs sorted by descending weight;
    the "none" variant reports the uniform weights it implies.
    """
    check_node(graph, center)
    encoded = encode_nodes(params, corpus, training=False)
    weights, _, segments = token_weights(params.attention, encoded, corpus.starts, graph)
    per_segment = np.split(weights.data[:, 0], segments[1:])
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
