"""Feature-attention graph convolutional networks for node classification
on graphs with sparse, noisy text content.

Nodes carry short token sequences; a bidirectional LSTM turns each token
into a dense semantic vector, a feature-level attention mechanism weighs
tokens per neighbor, and two graph-convolution layers aggregate the
weighted features into class predictions. A noise-intervention harness
measures robustness under token injection and replacement.
"""

__version__ = "0.1.0"

from .corpus import ContentCorpus, DatasetSplit, Vocabulary, load_corpus, split
from .errors import ConfigError, DataError, FagcnError, NumericError, ShapeError
from .graph import Graph, build_graph, load_edge_list, neighborhood, normalized_adjacency
from .model import loss
from .noise import inject_noise, noise_sweep, replace_noise, sweep
from .tensor import Tape
from .training import AdamState, ExperimentConfig, adam_step, evaluate, train

__all__ = [
    "__version__",
    "ContentCorpus", "DatasetSplit", "Vocabulary", "load_corpus", "split",
    "ConfigError", "DataError", "FagcnError", "NumericError", "ShapeError",
    "Graph", "build_graph", "load_edge_list", "neighborhood", "normalized_adjacency",
    "loss",
    "inject_noise", "noise_sweep", "replace_noise", "sweep",
    "Tape",
    "AdamState", "ExperimentConfig", "adam_step", "evaluate", "train",
]
