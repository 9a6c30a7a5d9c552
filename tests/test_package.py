"""The package root: ``import fagcn`` offers what the benchmark harness
and a caller of ``train``, ``evaluate`` and ``sweep`` need, and no more."""

import fagcn

ROOT_NAMES = [
    "__version__",
    "ContentCorpus", "DatasetSplit", "Vocabulary", "load_corpus", "split",
    "ConfigError", "DataError", "FagcnError", "NumericError", "ShapeError",
    "Graph", "build_graph", "load_edge_list", "neighborhood", "normalized_adjacency",
    "loss",
    "inject_noise", "noise_sweep", "replace_noise", "sweep",
    "Tape",
    "AdamState", "ExperimentConfig", "adam_step", "evaluate", "train",
]


def test_all_lists_the_root_names():
    assert fagcn.__all__ == ROOT_NAMES


def test_every_listed_name_resolves():
    for name in fagcn.__all__:
        assert getattr(fagcn, name) is not None, name


def test_the_internals_stay_in_their_modules():
    for name in ("AttentionParams", "Neighborhood", "LstmDirectionParams", "bilstm_encode",
                 "BaselineParams", "LabelMatrix", "ModelParams", "forward", "Tensor",
                 "grad_check", "TrainHistory"):
        assert not hasattr(fagcn, name), name
