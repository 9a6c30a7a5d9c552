"""End-to-end forward pass: token encoding, attention-weighted token
features for every (center, member) pair of the closed neighborhoods, two
convolution layers, classification, and the regularized loss. Also hosts
the plain two-layer GCN baseline on bag-of-words input.

Encoding and attention share one segment layout: the token rows of all
nodes form one matrix, node i's from row ``corpus.starts[i]``, so the
Bi-LSTM runs once over the whole corpus.
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
from .errors import ConfigError
from .graph import Graph, check_node, normalized_adjacency
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
        ignored; the bag-of-words input is built once per binding."""
        bow = T.constant(bag_of_words(corpus, corpus.vocab_size))

        def run(**_training_keywords) -> Tensor:
            return baseline_gcn_forward(operators.norm_adj, bow,
                                        self.conv1_weight, self.conv2_weight)

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


@dataclass
class GraphOperators:
    """Constant matrices derived from the graph, reused across epochs."""

    support: Tensor   # I + A, the unnormalized closed-neighborhood sum
    norm_adj: Tensor  # symmetrically normalized adjacency with self-loops

    @classmethod
    def build(cls, graph: Graph) -> "GraphOperators":
        return cls(support=T.constant(graph.dense(1.0)),
                   norm_adj=T.constant(normalized_adjacency(graph)))


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
                        encoded: Tensor | None = None) -> Tensor:
    """Attention-weighted token features, one row per pair of ``graph.pairs``.

    Row p mixes the token rows of node ``members[p]`` with the weights it
    gets when ``centers[p]`` aggregates it. Under "none" and "self" those
    weights do not depend on the center, so each node's row is mixed
    once and then gathered for each of its pairs.
    """
    if encoded is None:
        encoded = encode_nodes(params, corpus, training=training,
                               dropout_lstm=dropout_lstm, rng=rng)
    weights, rows, segments = token_weights(params.attention, encoded, corpus.starts, graph)
    mixed = T.gather_segment_sum(weights, encoded, rows, segments)
    return mixed if params.variant == "context" else T.take_rows(mixed, graph.pairs[1])


def layer1(graph: Graph, features: Tensor, conv1_weight: Tensor, *,
           normalize: bool = False,
           operators: GraphOperators | None = None) -> Tensor:
    """First convolution: sum each node's pair rows, then apply the weight.

    ``features`` holds one row per pair of ``graph.pairs`` (see
    ``node_input_features``). Node i sums the rows of its closed
    neighborhood with no degree normalization and no nonlinearity;
    ``normalize=True`` weighs row (i, m) by the normalized-adjacency entry
    instead.
    """
    if operators is None:
        operators = GraphOperators.build(graph)
    mixer = operators.norm_adj if normalize else operators.support
    centers, members, indptr = graph.pairs
    coeffs = T.constant(mixer.data[centers, members][:, None])  # one per pair row
    summed = T.gather_segment_sum(coeffs, features, np.arange(features.rows), indptr[:-1])
    return T.matmul(summed, T.transpose(conv1_weight))


def layer2(norm_adj: Tensor, hidden: Tensor, conv2_weight: Tensor, *,
           training: bool = False,
           dropout_gcn: float = 0.0,
           rng: np.random.Generator | None = None) -> Tensor:
    """Second convolution: normalized aggregation of the rectified layer.

    Dropout is applied to the rectified activations (training mode only)
    before the adjacency product.
    """
    active = T.dropout(T.relu(hidden), dropout_gcn, rng, training)
    return T.matmul(T.matmul(norm_adj, active), conv2_weight)


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
    """Cross-entropy over labeled nodes plus the two L2 penalties.

    The penalties cover exactly the two stacked LSTM gate weights (feature
    term) and the two convolution weights (node term); biases, embeddings and
    attention parameters are not regularized. Probabilities are clamped
    at 1e-12 before the log.
    """
    if l2_feature < 0 or l2_node < 0:
        raise ConfigError("regularization weights must be non-negative")
    masked = T.constant(labels.masked())
    total = T.scale(T.sum_all(T.mul(masked, T.safe_log(z))), -1.0)
    if l2_feature > 0:
        for w in params.feature_reg_terms():
            total = T.add(total, T.scale(T.frobenius_sq(w), l2_feature))
    if l2_node > 0:
        for w in params.node_reg_terms():
            total = T.add(total, T.scale(T.frobenius_sq(w), l2_node))
    return total


def bag_of_words(corpus: ContentCorpus, vocab_size: int) -> np.ndarray:
    """Binary n x vocab_size term-presence matrix."""
    bow = np.zeros((corpus.n, vocab_size))
    for i, tokens in enumerate(corpus.contents):
        bow[i, tokens] = 1.0
    return bow


def baseline_gcn_forward(norm_adj: Tensor, bow: Tensor,
                         conv1_weight: Tensor, conv2_weight: Tensor) -> Tensor:
    """Two-layer GCN on static bag-of-words features.

    Z = softmax(norm_adj @ relu(norm_adj @ bow @ W) @ W'); both layers
    use the same normalized adjacency.
    """
    hidden = T.relu(T.matmul(T.matmul(norm_adj, bow), conv1_weight))
    return T.rowwise_softmax(T.matmul(T.matmul(norm_adj, hidden), conv2_weight))


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
        segment = per_segment[p if params.variant == "context" else m]
        ranked = sorted(
            ({"token": terms[tok], "weight": float(w)}
             for tok, w in zip(corpus.contents[m], segment)),
            key=lambda entry: -entry["weight"])
        record["neighbors"].append({"node": corpus.node_ids[m], "weights": ranked})
    return record
