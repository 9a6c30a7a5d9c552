"""Experiment configuration, the Adam-driven training loop, evaluation,
and ``run_cell``, one seeded split-train-evaluate run of a sweep."""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .corpus import ContentCorpus, DatasetSplit, split
from .errors import ConfigError, DataError, NumericError
from .graph import Graph
from .model import (BaselineParams, GraphOperators, LabelMatrix, ModelParams, check_fit,
                    init_for_variant, loss)
from .tensor import Tape, Tensor
from .util import derive_rng

VARIANTS = ("none", "self", "context", "baseline_gcn")

_TYPES = {"int": int, "str": str, "bool": bool}


def check_type(name: str, value, kind: str) -> None:
    """Raise ConfigError unless ``value`` is of ``kind``: "int", "float",
    "str" or "bool". A bool is neither an int nor a float, and a float
    (an int or a float) must be finite as a float."""
    if isinstance(value, bool):
        ok = kind == "bool"
    elif kind == "float":
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, _TYPES[kind])
    if not ok:
        what = "a finite number" if kind == "float" else f"of type {kind}"
        raise ConfigError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Hyperparameters of one training run, checked when built and immutable.

    Defaults follow the standard setup: 80-dimensional embeddings and
    token features, 40% labeled nodes, dropout 0.2 (encoder) and 0.3
    (convolution), L2 weights 5e-3 / 5e-4, Adam at 2e-3 for 200 epochs.
    ``hidden_dim`` is dataset-dependent (6 works well for citation
    graphs of roughly Citeseer's size).
    """

    embed_dim: int = 80
    feature_dim: int = 80
    hidden_dim: int = 6
    train_fraction: float = 0.4
    dropout_lstm: float = 0.2
    dropout_gcn: float = 0.3
    l2_feature: float = 5e-3
    l2_node: float = 5e-4
    lr: float = 2e-3
    epochs: int = 200
    seed: int = 0
    variant: str = "context"
    layer1_normalize: bool = False

    def validate(self) -> None:
        for f in fields(self):
            check_type(f.name, getattr(self, f.name), f.type)
        if min(self.embed_dim, self.feature_dim, self.hidden_dim) < 1:
            raise ConfigError("all dimensions must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        for name in ("dropout_lstm", "dropout_gcn"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {value}")
        if self.l2_feature < 0 or self.l2_node < 0:
            raise ConfigError("L2 weights must be non-negative")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")

    __post_init__ = validate  # every config checks itself when built

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass
class TrainHistory:
    """Per-epoch training losses plus the end-of-run test accuracy."""

    losses: list[float] = field(default_factory=list)
    test_accuracy: float = 0.0


class AdamState:
    """First/second moment accumulators and the shared step counter."""

    def __init__(self):
        self.moment1: dict[str, np.ndarray] = {}
        self.moment2: dict[str, np.ndarray] = {}
        self.step_count = 0


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


def adam_step(named_params: list[tuple[str, Tensor]], state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update from the accumulated gradients."""
    state.step_count += 1
    t = state.step_count
    scale1 = 1.0 / (1.0 - BETA1 ** t)
    scale2 = 1.0 / (1.0 - BETA2 ** t)
    for name, p in named_params:
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        elif not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        m = state.moment1.get(name)
        if m is None:
            m = state.moment1[name] = np.zeros_like(p.data)
            state.moment2[name] = np.zeros_like(p.data)
        v = state.moment2[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p.data -= lr * (m * scale1) / (np.sqrt(v * scale2) + EPS)


def init_params(config: ExperimentConfig, corpus: ContentCorpus,
                rng: np.random.Generator) -> ModelParams | BaselineParams:
    try:
        return init_for_variant(config.variant, corpus.vocab_size, corpus.num_classes,
                                config.embed_dim, config.feature_dim, config.hidden_dim, rng)
    except (MemoryError, ValueError):  # numpy refuses arrays of such sizes
        raise ConfigError("the configured dimensions are too large to hold: embed_dim "
                          f"{config.embed_dim}, feature_dim {config.feature_dim}, "
                          f"hidden_dim {config.hidden_dim}") from None


def _quiet_numerics(fn):
    """``fn`` with numpy's floating-point warnings off, for code that
    checks its values for finiteness itself and raises NumericError. The
    state is set per call, since numpy keeps it per thread and a sweep
    runs cells on worker threads."""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        with np.errstate(all="ignore"):
            return fn(*args, **kwargs)
    return run


def _node_indices(name: str, idx, n: int) -> np.ndarray:
    """``idx`` as an index array, or a ConfigError unless it is non-empty
    and every entry is a distinct int in [0, n)."""
    idx = np.asarray(list(idx))
    if not idx.size:
        raise ConfigError(f"the {name} set is empty")
    if idx.ndim != 1 or idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= n:
        raise ConfigError(f"{name} indices must be ints in [0, {n})")
    counts = np.bincount(idx)
    if counts.max() > 1:
        raise ConfigError(f"the {name} set repeats node {counts.argmax()}")
    return idx


def _accuracy(z: np.ndarray, corpus: ContentCorpus, test_idx: np.ndarray) -> float:
    """Fraction of the nodes ``test_idx`` whose argmax class in ``z`` is the label."""
    if not np.isfinite(z).all():
        raise NumericError("class probabilities are not finite")
    return float(np.mean(np.argmax(z[test_idx], axis=1) == corpus.label_array[test_idx]))


def predict(params: ModelParams | BaselineParams, graph: Graph, corpus: ContentCorpus, *,
            layer1_normalize: bool = False,
            operators: GraphOperators | None = None) -> np.ndarray:
    """Class-probability matrix in evaluation mode (dropout forced off).
    Weights for other term or class counts than the corpus's are a
    ShapeError."""
    check_fit(params, corpus)
    run = params.bind(graph, corpus, operators)
    return run(training=False, layer1_normalize=layer1_normalize).data


@_quiet_numerics
def evaluate(params: ModelParams | BaselineParams, graph: Graph, corpus: ContentCorpus,
             test_idx, *, layer1_normalize: bool = False,
             operators: GraphOperators | None = None) -> float:
    """Fraction of test nodes whose argmax class matches the label.

    Argmax ties break to the lowest class id. Always runs in evaluation
    mode regardless of how the parameters were trained.
    """
    test_idx = _node_indices("test", test_idx, corpus.n)
    return _accuracy(predict(params, graph, corpus, layer1_normalize=layer1_normalize,
                             operators=operators), corpus, test_idx)


@_quiet_numerics
def train(config: ExperimentConfig, graph: Graph, corpus: ContentCorpus,
          dataset_split: DatasetSplit) -> tuple[ModelParams | BaselineParams, TrainHistory]:
    """Full training loop: forward, loss, backward, Adam, per epoch, then
    the test accuracy from the same binding in evaluation mode.

    All parameter groups are updated jointly. Deterministic for a fixed
    config and seed: initialization and dropout draw from independent
    substreams of the master seed.
    """
    if corpus.n != graph.n:
        raise DataError(f"corpus has {corpus.n} nodes but graph has {graph.n}")
    train_idx = _node_indices("train", dataset_split.train_idx, corpus.n)
    test_idx = _node_indices("test", dataset_split.test_idx, corpus.n)
    if not set(train_idx.tolist()).isdisjoint(test_idx.tolist()):
        raise ConfigError("the train and test sets overlap")
    rng_init = derive_rng(config.seed, "init")
    rng_dropout = derive_rng(config.seed, "dropout")
    params = init_params(config, corpus, rng_init)
    named = params.named_parameters()
    labels = LabelMatrix.build(corpus.labels, corpus.num_classes, dataset_split.train_idx)
    run = params.bind(graph, corpus)
    state = AdamState()
    history = TrainHistory()
    for epoch in range(config.epochs):
        for _, p in named:
            p.zero_grad()
        with Tape() as tape:
            z = run(training=True, rng=rng_dropout,
                    dropout_lstm=config.dropout_lstm, dropout_gcn=config.dropout_gcn,
                    layer1_normalize=config.layer1_normalize)
            epoch_loss = loss(z, labels, params, config.l2_feature, config.l2_node)
            value = epoch_loss.item()
            if not np.isfinite(value):
                raise NumericError(f"training loss diverged at epoch {epoch}")
            tape.backward(epoch_loss)
        adam_step(named, state, config.lr)
        history.losses.append(value)
    z = run(training=False, layer1_normalize=config.layer1_normalize)
    history.test_accuracy = _accuracy(z.data, corpus, test_idx)
    return params, history


def run_cell(config: ExperimentConfig, graph: Graph, corpus: ContentCorpus,
             seed: int) -> float:
    """Test accuracy of one seeded run: the split and the training both
    draw from ``seed``, which replaces the config's own."""
    cell_config = replace(config, seed=seed)
    cell_split = split(corpus.n, cell_config.train_fraction, derive_rng(seed, "split"))
    _, history = train(cell_config, graph, corpus, cell_split)
    return history.test_accuracy
