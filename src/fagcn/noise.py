"""Content-noise interventions and ``sweep``, the one driver of seeded
experiments, over noise ratios and hyperparameters alike: a repeated
experiment is a sweep of one value.

Both protocols sample replacement/injection tokens uniformly from the
corpus's existing vocabulary, so the embedding table (and the baseline's
bag-of-words width) stay fixed across noise levels: accuracy deltas
measure content corruption, not vocabulary growth.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .corpus import ContentCorpus
from .errors import ConfigError
from .graph import Graph
from .training import ExperimentConfig, check_type, run_cell
from .util import derive_rng, round_half_up

PROTOCOLS = ("inject", "replace")
MAX_RATIO = {"inject": 1.0, "replace": 0.5}


def _check_ratio(protocol: str, ratio) -> None:
    """Raise ConfigError unless ``ratio`` is a number in [0, MAX_RATIO]."""
    check_type(f"{protocol} ratio", ratio, "float")
    if not 0.0 <= ratio <= MAX_RATIO[protocol]:
        raise ConfigError(
            f"{protocol} ratio must be in [0, {MAX_RATIO[protocol]}], got {ratio}")


def inject_noise(corpus: ContentCorpus, ratio: float, rng: np.random.Generator) -> ContentCorpus:
    """Insert round(ratio * length) random tokens into each node's content.

    Original tokens are all kept; insertion positions are uniform, so a
    node of length L grows to L + round(ratio * L).
    """
    _check_ratio("inject", ratio)
    vocab_size = corpus.vocab_size
    contents = []
    for tokens in corpus.contents:
        noisy = list(tokens)
        for _ in range(round_half_up(ratio * len(tokens))):
            position = int(rng.integers(0, len(noisy) + 1))
            noisy.insert(position, int(rng.integers(0, vocab_size)))
        contents.append(noisy)
    return dc_replace(corpus, contents=contents)


def replace_noise(corpus: ContentCorpus, ratio: float, rng: np.random.Generator) -> ContentCorpus:
    """Overwrite round(ratio * length) distinct positions per node.

    Content length is preserved. The uniform replacement draw may
    coincide with the original token; the position still counts as
    replaced, keeping per-position corruption exactly uniform.
    """
    _check_ratio("replace", ratio)
    vocab_size = corpus.vocab_size
    contents = []
    for tokens in corpus.contents:
        noisy = list(tokens)
        k = round_half_up(ratio * len(tokens))
        if k > 0:
            positions = rng.choice(len(tokens), size=k, replace=False)
            for position in positions:
                noisy[int(position)] = int(rng.integers(0, vocab_size))
        contents.append(noisy)
    return dc_replace(corpus, contents=contents)


def corrupt(corpus: ContentCorpus, protocol: str, ratio: float,
            rng: np.random.Generator) -> ContentCorpus:
    if protocol == "inject":
        return inject_noise(corpus, ratio, rng)
    if protocol == "replace":
        return replace_noise(corpus, ratio, rng)
    raise ConfigError(f"noise protocol must be one of {PROTOCOLS}, got {protocol!r}")


@dataclass(frozen=True)
class SweepRow:
    """One aggregated sweep cell, ready for CSV emission. On a parameter
    axis ``protocol`` holds the config field and ``ratio`` its value."""

    protocol: str
    ratio: float
    variant: str
    mean_accuracy: float
    std_accuracy: float
    seeds: tuple[int, ...]


# What each sweep axis varies: a config field, or the corpus by a noise protocol.
AXES = {"d_i": "embed_dim", "d_o": "feature_dim", "d_h": "hidden_dim",
        "p": "train_fraction", "noise-inject": "inject", "noise-replace": "replace"}


def _listed(name: str, items) -> list:
    """``items`` (a list, tuple, range or 1-D array) as a list; anything else,
    a set (in hash-seed order) or a mapping included, is a ConfigError."""
    if not (isinstance(items, (list, tuple, range))
            or isinstance(items, np.ndarray) and items.ndim == 1):
        raise ConfigError(f"sweep {name} must be a list, got {items!r}")
    return list(items)


def sweep(config: ExperimentConfig, graph: Graph, corpus: ContentCorpus, axis: str,
          values: list, variants: list[str], seeds: list[int],
          max_workers: int = 1) -> list[SweepRow]:
    """Train and evaluate every (value, variant, seed) cell of one axis,
    after validating every value and cell. On a noise axis all variants at
    a (value, seed) see the same corrupted corpus. Cells may run on
    ``max_workers`` worker threads (an int >= 1), each taping its own
    passes; rows come back in (value, variant) order, with the mean and
    population std of their seeds' accuracies."""
    if not isinstance(axis, str) or axis not in AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {sorted(AXES)}")
    check_type("max_workers", max_workers, "int")
    if max_workers < 1:
        raise ConfigError(f"max_workers must be >= 1, got {max_workers}")
    values, variants, seeds = map(_listed, ("values", "variants", "seeds"),
                                  (values, variants, seeds))
    if not (values and variants and seeds):
        raise ConfigError("a sweep needs at least one value, variant and seed")
    target = AXES[axis]
    noise = target in PROTOCOLS
    points = [(value, variant) for value in values for variant in variants]
    configs = [dc_replace(config, variant=variant, **({} if noise else {target: value}))
               for value, variant in points]
    for value in values if noise else ():
        _check_ratio(target, value)
    for seed in seeds:
        dc_replace(config, seed=seed)  # checks the seed

    def run(k: int, seed: int) -> float:
        value = points[k][0]
        data = corrupt(corpus, target, value, derive_rng(seed, "noise")) if noise else corpus
        return run_cell(configs[k], graph, data, seed)

    cells = [(k, seed) for k in range(len(points)) for seed in seeds]
    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            accuracies = list(pool.map(lambda cell: run(*cell), cells))
    else:
        accuracies = [run(*cell) for cell in cells]
    per_point = np.reshape(accuracies, (len(points), len(seeds)))
    return [SweepRow(protocol=target, ratio=value, variant=variant, seeds=tuple(seeds),
                     mean_accuracy=float(np.mean(a)), std_accuracy=float(np.std(a)))
            for (value, variant), a in zip(points, per_point)]


def noise_sweep(config: ExperimentConfig, graph: Graph, corpus: ContentCorpus,
                protocol: str, ratios: list[float], variants: list[str],
                seeds: list[int], max_workers: int = 1) -> list[SweepRow]:
    """``sweep`` along the ``noise-<protocol>`` axis."""
    return sweep(config, graph, corpus, f"noise-{protocol}", ratios, variants, seeds, max_workers)


def sweep_rows_to_csv(rows: list[SweepRow]) -> str:
    """Render sweep rows as CSV with 4-decimal accuracies, under a
    ``protocol,ratio`` header for a noise axis and ``axis,value`` else."""
    head = "protocol,ratio" if not rows or rows[0].protocol in PROTOCOLS else "axis,value"
    lines = [f"{head},variant,mean_accuracy,std_accuracy,seeds"]
    for r in rows:
        seed_list = ";".join(str(s) for s in r.seeds)
        lines.append(f"{r.protocol},{r.ratio:g},{r.variant},"
                     f"{r.mean_accuracy:.4f},{r.std_accuracy:.4f},{seed_list}")
    return "\n".join(lines) + "\n"
