"""End-to-end forward pass: token encoding, attention-weighted neighbor
aggregation, two convolution layers, classification, and the regularized
loss. Also hosts the plain two-layer GCN baseline on bag-of-words input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, ClassVar, Sequence

import numpy as np

from . import tensor as T
from .attention import (AttentionParams, aggregate, attention_context,
                        attention_self, context_vector)
from .corpus import ContentCorpus, init_embeddings
from .errors import ShapeError
from .graph import Graph, neighborhood, normalized_adjacency
from .lstm import LstmDirectionParams, bilstm_encode
from .tensor import Tensor

# Per-center lists of (member index, aggregated feature row); the shape
# node_input_features returns under context attention, where a neighbor's
# aggregated features depend on which node is aggregating it.
PairFeatures = list[list[tuple[int, Tensor]]]


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
    def embed_dim(self) -> int:
        return self.embeddings.cols

    @property
    def feature_dim(self) -> int:
        return self.conv1_weight.cols

    @property
    def hidden_dim(self) -> int:
        return self.conv1_weight.rows

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
        return self.lstm_fwd.gate_weights() + self.lstm_bwd.gate_weights()

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
    def hidden_dim(self) -> int:
        return self.conv1_weight.cols

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
        return cls(support=T.constant(graph.adjacency + np.eye(graph.n)),
                   norm_adj=T.constant(normalized_adjacency(graph)))


def encode_nodes(params: ModelParams, corpus: ContentCorpus, *,
                 training: bool = False,
                 dropout_lstm: float = 0.0,
                 rng: np.random.Generator | None = None) -> list[Tensor]:
    """Bi-LSTM encode every node's token sequence.

    Returns one (num_tokens x feature_dim) matrix per node, with dropout
    applied to the rows in training mode.
    """
    encoded = []
    for tokens in corpus.contents:
        seq = T.take_rows(params.embeddings, tokens)
        h = bilstm_encode(params.lstm_fwd, params.lstm_bwd, seq)
        encoded.append(T.dropout(h, dropout_lstm, rng, training))
    return encoded


def node_input_features(params: ModelParams, corpus: ContentCorpus, graph: Graph, *,
                        training: bool = False,
                        dropout_lstm: float = 0.0,
                        rng: np.random.Generator | None = None,
                        encoded: list[Tensor] | None = None) -> Tensor | PairFeatures:
    """Aggregate each node's token features into node feature vectors.

    Under the "none" and "self" variants every node has one feature row
    independent of who aggregates it, so the result is a single n x
    feature_dim tensor. Under "context" a neighbor's weights depend on
    the aggregating center, so the result is a per-center list of
    (member, feature row) pairs covering each closed neighborhood.
    """
    if encoded is None:
        encoded = encode_nodes(params, corpus, training=training,
                               dropout_lstm=dropout_lstm, rng=rng)
    variant = params.variant
    if variant == "none":
        return T.stack_rows([aggregate(h, None) for h in encoded])
    if variant == "self":
        rows = []
        for h in encoded:
            weights = attention_self(h, params.attention.score_vector)
            rows.append(aggregate(h, weights))
        return T.stack_rows(rows)
    # context: weights for neighbor m are taken against center i's context;
    # the bilinear product with the context is hoisted out of the pair loop
    contexts = [context_vector(h) for h in encoded]
    bilinear = params.attention.bilinear
    per_center: PairFeatures = []
    for i in range(graph.n):
        key = T.matmul(bilinear, T.transpose(contexts[i]))
        pairs = []
        for m in neighborhood(graph, i).members:
            weights = T.rowwise_softmax(T.transpose(T.matmul(encoded[m], key)))
            pairs.append((m, aggregate(encoded[m], weights)))
        per_center.append(pairs)
    return per_center


def layer1(graph: Graph, features: Tensor | PairFeatures, conv1_weight: Tensor, *,
           normalize: bool = False,
           operators: GraphOperators | None = None) -> Tensor:
    """First convolution: sum neighbor features, then apply the weight.

    The sum runs over each node's closed neighborhood with no degree
    normalization and no nonlinearity; ``normalize=True`` switches to
    the normalized-adjacency weighting instead of the plain sum.
    """
    if operators is None:
        operators = GraphOperators.build(graph)
    mixer = operators.norm_adj if normalize else operators.support
    if isinstance(features, Tensor):
        summed = T.matmul(mixer, features)
    else:
        if len(features) != graph.n:
            raise ShapeError(f"expected {graph.n} per-center feature lists, got {len(features)}")
        rows = []
        for i, pairs in enumerate(features):
            stacked = T.stack_rows([feat for _, feat in pairs])
            if normalize:
                coeffs = T.constant([[mixer.data[i, m] for m, _ in pairs]])
                rows.append(T.matmul(coeffs, stacked))
            else:
                rows.append(T.sum_rows(stacked))
        summed = T.stack_rows(rows)
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

    The penalties cover exactly the gate weight matrices (feature term)
    and the two convolution weights (node term); biases, embeddings and
    attention parameters are not regularized. Probabilities are clamped
    at 1e-12 before the log.
    """
    if l2_feature < 0 or l2_node < 0:
        raise ValueError("regularization weights must be non-negative")
    masked = T.constant(labels.masked())
    total = T.neg(T.sum_all(T.mul(masked, T.safe_log(z))))
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
    if not 0 <= center < graph.n:
        raise IndexError(f"node index {center} out of range for n={graph.n}")
    encoded = encode_nodes(params, corpus, training=False)
    members = neighborhood(graph, center).members
    record = {"center": corpus.node_ids[center], "variant": params.variant, "neighbors": []}
    if params.variant == "context":
        center_context = context_vector(encoded[center])
    for m in members:
        if params.variant == "none":
            weights = np.full(encoded[m].rows, 1.0 / encoded[m].rows)
        elif params.variant == "self":
            weights = attention_self(encoded[m], params.attention.score_vector).data[0]
        else:
            weights = attention_context(encoded[m], center_context,
                                        params.attention.bilinear).data[0]
        tokens = corpus.contents[m]
        ranked = sorted(
            ({"token": terms[tok], "weight": float(w)} for tok, w in zip(tokens, weights)),
            key=lambda entry: -entry["weight"])
        record["neighbors"].append({"node": corpus.node_ids[m], "weights": ranked})
    return record
