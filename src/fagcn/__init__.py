"""Feature-attention graph convolutional networks for node classification
on graphs with sparse, noisy text content.

Nodes carry short token sequences; a bidirectional LSTM turns each token
into a dense semantic vector, a feature-level attention mechanism weighs
tokens per neighbor, and two graph-convolution layers aggregate the
weighted features into class predictions. A noise-intervention harness
measures robustness under token injection and replacement.
"""

__version__ = "0.1.0"

from .attention import AttentionParams
from .corpus import ContentCorpus, DatasetSplit, Vocabulary, load_corpus, split
from .errors import ConfigError, DataError, FagcnError, NumericError, ShapeError
from .graph import Graph, Neighborhood, build_graph, load_edge_list, neighborhood, normalized_adjacency
from .lstm import LstmDirectionParams, bilstm_encode, lstm_forward
from .model import BaselineParams, LabelMatrix, ModelParams, forward, loss
from .noise import inject_noise, noise_sweep, replace_noise, sweep
from .tensor import Tape, Tensor, grad_check
from .training import (AdamState, ExperimentConfig, TrainHistory, adam_step,
                       evaluate, repeat_experiment, train)

__all__ = [
    "__version__",
    "AttentionParams", "ContentCorpus", "DatasetSplit", "Vocabulary",
    "load_corpus", "split",
    "ConfigError", "DataError", "FagcnError", "NumericError", "ShapeError",
    "Graph", "Neighborhood", "build_graph", "load_edge_list", "neighborhood",
    "normalized_adjacency",
    "LstmDirectionParams", "bilstm_encode", "lstm_forward",
    "BaselineParams", "LabelMatrix", "ModelParams", "forward", "loss",
    "inject_noise", "noise_sweep", "replace_noise", "sweep",
    "Tape", "Tensor", "grad_check",
    "AdamState", "ExperimentConfig", "TrainHistory", "adam_step",
    "evaluate", "repeat_experiment", "train",
]
