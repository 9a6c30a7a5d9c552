"""Content-noise interventions and the sweep driver for robustness
curves.

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
from .training import ExperimentConfig, RepeatResult, run_cell
from .util import derive_rng, round_half_up

PROTOCOLS = ("inject", "replace")


@dataclass(frozen=True)
class NoiseSpec:
    """One noise-intervention cell: protocol, corruption ratio, seed."""

    protocol: str
    ratio: float
    seed: int

    def validate(self, max_inject: float = 1.0, max_replace: float = 0.5) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"noise protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        bound = max_inject if self.protocol == "inject" else max_replace
        if not 0.0 <= self.ratio <= bound:
            raise ConfigError(
                f"{self.protocol} ratio must be in [0, {bound}], got {self.ratio}")


def inject_noise(corpus: ContentCorpus, ratio: float, rng: np.random.Generator) -> ContentCorpus:
    """Insert round(ratio * length) random tokens into each node's content.

    Original tokens are all kept; insertion positions are uniform, so a
    node of length L grows to L + round(ratio * L).
    """
    if ratio < 0:
        raise ConfigError(f"inject ratio must be >= 0, got {ratio}")
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
    if not 0.0 <= ratio <= 1.0:
        raise ConfigError(f"replace ratio must be in [0, 1], got {ratio}")
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
    """One aggregated sweep cell, ready for CSV emission."""

    protocol: str
    ratio: float
    variant: str
    mean_accuracy: float
    std_accuracy: float
    seeds: tuple[int, ...]


def noise_sweep(base_config: ExperimentConfig, graph: Graph, corpus: ContentCorpus,
                protocol: str, ratios: list[float], variants: list[str],
                seeds: list[int], max_workers: int = 1) -> list[SweepRow]:
    """Train and evaluate every (ratio, variant, seed) cell.

    All variants at a given (ratio, seed) see the identical corrupted
    corpus, so rows are directly comparable. Cells are independent and
    may run on worker threads; rows come back in (ratio, variant) order
    regardless of completion order.
    """
    if not ratios:
        raise ConfigError("noise_sweep needs at least one ratio")
    if not variants:
        raise ConfigError("noise_sweep needs at least one variant")
    if not seeds:
        raise ConfigError("noise_sweep needs at least one seed")
    NoiseSpec(protocol, max(ratios), seeds[0]).validate(max_replace=1.0)
    cells = [(ratio, variant, seed)
             for ratio in ratios for variant in variants for seed in seeds]

    def run(cell: tuple[float, str, int]) -> float:
        ratio, variant, seed = cell
        noisy = corrupt(corpus, protocol, ratio, derive_rng(seed, "noise"))
        return run_cell(dc_replace(base_config, variant=variant), graph, noisy, seed)

    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            accuracies = list(pool.map(run, cells))
    else:
        accuracies = [run(cell) for cell in cells]

    by_cell = dict(zip(cells, accuracies))
    rows = []
    for ratio in ratios:
        for variant in variants:
            result = RepeatResult.of([by_cell[(ratio, variant, seed)] for seed in seeds])
            rows.append(SweepRow(protocol=protocol, ratio=ratio, variant=variant,
                                 mean_accuracy=result.mean, std_accuracy=result.std,
                                 seeds=tuple(seeds)))
    return rows


def sweep_rows_to_csv(rows: list[SweepRow]) -> str:
    """Render sweep rows as CSV with 4-decimal accuracies."""
    lines = ["protocol,ratio,variant,mean_accuracy,std_accuracy,seeds"]
    for r in rows:
        seed_list = ";".join(str(s) for s in r.seeds)
        lines.append(f"{r.protocol},{r.ratio:g},{r.variant},"
                     f"{r.mean_accuracy:.4f},{r.std_accuracy:.4f},{seed_list}")
    return "\n".join(lines) + "\n"
