"""The two kinds of benchmark run.

``run_e2e`` measures what a user waits for, with tracing off. ``run_traced``
replays the same training epochs through the public stage functions with a
span around every call, and derives the per-layer metrics from the spans.
Both check the program's outputs and count every operation in a ``Ledger``.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from fagcn import (AdamState, FagcnError, NumericError, Tape, adam_step, evaluate,
                   inject_noise, loss, neighborhood, noise_sweep, normalized_adjacency,
                   split, train)
from fagcn.model import (GraphOperators, LabelMatrix, bag_of_words, baseline_gcn_forward,
                         classify, encode_nodes, forward, layer1, layer2,
                         node_input_features)
from fagcn.tensor import constant
from fagcn.training import init_params, predict
from fagcn.util import derive_rng

from clock import ReferenceClock
from workloads import (CELL_SEEDS, SETUP_ROUND_S, SWEEP_RATIOS, SWEEP_SEEDS,
                       SWEEP_VARIANTS, Loaded, Size, Workload, config_for, shape,
                       timed_setups)


class Abort(Exception):
    """An operation raised; the run cannot go on."""


class Ledger:
    """Counts attempted and failed operations and keeps every problem seen.

    An operation is a train call, an evaluate call or a sweep cell. It
    fails when it raises a ``FagcnError`` or when any check on its output
    fails while it is open.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    @contextmanager
    def operation(self, what: str, count: int = 1):
        self.attempted += count
        seen = len(self.problems)
        try:
            yield
        except FagcnError as exc:
            self.problems.append(f"{what}: {type(exc).__name__}: {exc}")
            self.failed += count
            raise Abort(what) from exc
        if len(self.problems) > seen:
            self.failed += count


class Tracer:
    """In-memory spans: name, start, end, parent span and run id.

    A run id names one unit of work (a set-up, a training cell), so the
    spans of one cell share it. Extra per-span counts go in ``span[key]``.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = "setup"
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "run": self.run_id,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def stage(self, name: str, tape: Tape):
        """A span that also counts the Tape records made inside it."""
        before = len(tape)
        with self.span(name) as record:
            yield record
        record["records"] = len(tape) - before

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total_ms(self, name: str) -> float:
        return 1000.0 * sum(s["end"] - s["start"] for s in self.named(name))


def _check_model(ledger: Ledger, params, loaded: Loaded, corpus, test_idx,
                 accuracy: float, layer1_normalize: bool) -> None:
    """Output checks on a trained model: probabilities and accuracy."""
    z = predict(params, loaded.graph, corpus, layer1_normalize=layer1_normalize,
                operators=loaded.operators)
    ledger.check(bool(np.isfinite(z).all()), "predict returned non-finite probabilities")
    ledger.check(bool(np.all(np.abs(z.sum(axis=1) - 1.0) <= 1e-9)),
                 "predict rows do not sum to 1 within 1e-9")
    labels = np.asarray(corpus.labels)[list(test_idx)]
    recomputed = float(np.mean(np.argmax(z[list(test_idx)], axis=1) == labels))
    ledger.check(recomputed == accuracy,
                 f"accuracy {accuracy} disagrees with argmax of predict ({recomputed})")


@dataclass
class Cell:
    """One seeded split + train + evaluate, as timed without tracing."""

    losses: list[float]
    accuracy: float
    train_s: float
    eval_s: list[float]


def _elapsed(clock: ReferenceClock | None, kind: str, started: float) -> float:
    """Seconds since ``started``, scaled by ``clock`` when there is one."""
    seconds = time.perf_counter() - started
    return clock.scaled(kind, seconds) if clock else seconds


def train_cell(ledger: Ledger, config, loaded: Loaded, corpus, eval_repeats: int,
               expected: Cell | None = None, clock: ReferenceClock | None = None) -> Cell:
    """train() once, then evaluate() the trained params ``eval_repeats`` times.

    With ``expected`` given, the losses must repeat those of that earlier
    call with the same seed. With a ``clock`` the times are scaled by it.
    """
    cell_split = split(corpus.n, config.train_fraction, derive_rng(config.seed, "split"))
    with ledger.operation("train"):
        started = time.perf_counter()
        params, history = train(config, loaded.graph, corpus, cell_split)
        train_s = _elapsed(clock, "train", started)
        ledger.check(len(history.losses) == config.epochs
                     and all(math.isfinite(v) for v in history.losses),
                     f"train losses are not {config.epochs} finite values: {history.losses}")
        _check_model(ledger, params, loaded, corpus, cell_split.test_idx,
                     history.test_accuracy, config.layer1_normalize)
        if expected is not None:
            ledger.check(history.losses == expected.losses,
                         "repeated train() with one seed gave different losses")
    eval_s = []
    for _ in range(eval_repeats):
        with ledger.operation("evaluate"):
            started = time.perf_counter()
            accuracy = evaluate(params, loaded.graph, corpus, cell_split.test_idx,
                                layer1_normalize=config.layer1_normalize,
                                operators=loaded.operators)
            eval_s.append(_elapsed(clock, "evaluate", started))
            ledger.check(accuracy == history.test_accuracy,
                         f"evaluate gave {accuracy}, train reported {history.test_accuracy}")
    return Cell(history.losses, history.test_accuracy, train_s, eval_s)


def sweep_grid(seed: int) -> list[tuple[float, str, int]]:
    """Cells of the sweep in noise_sweep's own order."""
    return [(ratio, variant, seed + k) for ratio in SWEEP_RATIOS
            for variant in SWEEP_VARIANTS for k in range(SWEEP_SEEDS)]


def run_sweep(ledger: Ledger, config, loaded: Loaded, seed: int, workers: int,
              clock: ReferenceClock | None = None) -> tuple[list, list[float]]:
    """The sweep grid as one timed noise_sweep call per ratio.

    Per-ratio calls are short enough for the reference passes around each
    to track a shared host's speed. Returns the rows of every call and each
    call's duration; the caller holds the ledger operation.
    """
    rows, walls = [], []
    for ratio in SWEEP_RATIOS:
        started = time.perf_counter()
        rows += noise_sweep(config, loaded.graph, loaded.corpus, "inject", [ratio],
                            list(SWEEP_VARIANTS), [seed + k for k in range(SWEEP_SEEDS)],
                            max_workers=workers)
        walls.append(_elapsed(clock, "sweep", started))
    ledger.check(len(rows) == len(SWEEP_RATIOS) * len(SWEEP_VARIANTS),
                 f"noise_sweep returned {len(rows)} rows")
    ledger.check(all(0.0 <= r.mean_accuracy <= 1.0 for r in rows),
                 "noise_sweep accuracy outside [0, 1]")
    return rows, walls


def reference_corpus(workload: Workload, loaded: Loaded, seed: int):
    """The corpus train() sees: the sweep's first noisy corpus, else the clean one."""
    if workload.variant != "sweep":
        return loaded.corpus
    return inject_noise(loaded.corpus, SWEEP_RATIOS[0], derive_rng(seed, "noise"))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_e2e(workload: Workload, size: Size, seed: int, seconds: float, paths,
            workers: int, ledger: Ledger) -> tuple[dict, dict]:
    """Time set-up, train, evaluate and sweep calls for about ``seconds``.

    Each round loads the workload again, then trains ``cells_per_round``
    cells and, on the sweep workload, runs the sweep once; the cells
    cycle through ``CELL_SEEDS`` config seeds and a seed's second cell must
    repeat its first one's losses. A round starts only while the last one
    would still fit in ``seconds``, after at least one round per seed
    when test accuracy comes from these cells.

    Call times are medians over the run, each scaled by the reference
    passes around it (see ``clock``). Set-up repetitions are spread over
    the whole run so that no single busy spell of a shared machine decides
    their median.
    """
    base = config_for(workload, size, seed)
    grid = sweep_grid(seed)
    setup_s: list[float] = []
    cells: list[Cell] = []
    sweeps: list[tuple[list, list[float]]] = []
    loaded = None
    clock = ReferenceClock(workload.reference)
    # test_accuracy averages the first cell of every seed, unless a sweep gives it
    min_rounds = 1 if workload.variant == "sweep" else CELL_SEEDS
    started = time.perf_counter()
    last = 0.0
    while len(cells) < min_rounds or time.perf_counter() - started + last <= seconds:
        round_started = time.perf_counter()
        loaded = None
        gc.collect()
        durations, loaded = timed_setups(*paths, min_reps=1, min_seconds=SETUP_ROUND_S,
                                         clock=clock)
        setup_s += durations
        for _ in range(size.cells_per_round):
            k = len(cells) % CELL_SEEDS
            config = replace(base, seed=seed + k)
            cells.append(train_cell(ledger, config, loaded,
                                    reference_corpus(workload, loaded, config.seed),
                                    size.eval_repeats,
                                    cells[k] if len(cells) >= CELL_SEEDS else None, clock))
        if workload.variant == "sweep":
            with ledger.operation("noise_sweep", count=len(grid)):
                sweeps.append(run_sweep(ledger, base, loaded, seed, workers, clock))
                ledger.check(sweeps[-1][0] == sweeps[0][0], "repeated noise_sweep rows differ")
        last = time.perf_counter() - round_started

    eval_s = [t for c in cells for t in c.eval_s]
    if sweeps:
        accuracy = float(np.mean([r.mean_accuracy for r in sweeps[0][0]]))
        per_call = len(grid) / len(SWEEP_RATIOS)
        cells_per_s = statistics.median(per_call / wall for _, walls in sweeps for wall in walls)
    else:
        accuracy = float(np.mean([c.accuracy for c in cells[:CELL_SEEDS]]))
        cells_per_s = 1.0 / statistics.median(c.train_s + sum(c.eval_s) for c in cells)
    metrics = {
        "epoch_ms": (1000.0 * statistics.median(c.train_s for c in cells) / base.epochs, "ms"),
        "eval_ms": (1000.0 * statistics.median(eval_s), "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "test_accuracy": (accuracy, "share"),
        "cells_per_s": (cells_per_s, "1/s"),
    }
    samples = {"train_calls": len(cells), "evaluate_calls": len(eval_s),
               "sweeps": len(sweeps), "setups": len(setup_s),
               "measured_s": time.perf_counter() - started,
               "train_s": [c.train_s for c in cells], "eval_s": eval_s,
               "sweep_s": [wall for _, walls in sweeps for wall in walls], "setup_s": setup_s,
               **clock.summary()}
    return metrics, {"samples": samples, "shape": shape(loaded.corpus, loaded.graph)}


def traced_train(config, graph, corpus, dataset_split, operators_for_eval, tracer: Tracer):
    """train() step by step through the public stage functions.

    Runs the same operations in the same order as ``fagcn.train``, so the
    per-epoch losses must come out identical.
    """
    config.validate()
    with tracer.span("training.train"):
        params = init_params(config, corpus, derive_rng(config.seed, "init"))
        rng = derive_rng(config.seed, "dropout")
        named = params.named_parameters()
        with tracer.span("model.GraphOperators.build"):
            operators = GraphOperators.build(graph)
        labels = LabelMatrix.build(corpus.labels, corpus.num_classes, dataset_split.train_idx)
        baseline = config.variant == "baseline_gcn"
        if baseline:
            bow = constant(bag_of_words(corpus, corpus.vocab_size))
        state = AdamState()
        losses = []
        for epoch in range(config.epochs):
            with tracer.span("epoch"):
                for _, p in named:
                    p.zero_grad()
                with Tape() as tape:
                    if baseline:
                        with tracer.stage("model.baseline_gcn_forward", tape):
                            z = baseline_gcn_forward(operators.norm_adj, bow,
                                                     params.conv1_weight, params.conv2_weight)
                    else:
                        with tracer.stage("model.encode_nodes", tape):
                            encoded = encode_nodes(params, corpus, training=True,
                                                   dropout_lstm=config.dropout_lstm, rng=rng)
                        with tracer.stage("model.node_input_features", tape):
                            features = node_input_features(params, corpus, graph, training=True,
                                                           dropout_lstm=config.dropout_lstm,
                                                           rng=rng, encoded=encoded)
                        with tracer.stage("model.layer1", tape):
                            hidden = layer1(graph, features, params.conv1_weight,
                                            normalize=config.layer1_normalize,
                                            operators=operators)
                        with tracer.stage("model.layer2", tape):
                            outputs = layer2(operators.norm_adj, hidden, params.conv2_weight,
                                             training=True, dropout_gcn=config.dropout_gcn,
                                             rng=rng)
                    with tracer.stage("model.loss", tape):
                        if not baseline:
                            z = classify(outputs)
                        epoch_loss = loss(z, labels, params, config.l2_feature, config.l2_node)
                        value = epoch_loss.item()
                    if not math.isfinite(value):
                        raise NumericError(f"traced loss diverged at epoch {epoch}")
                    with tracer.span("tensor.Tape.backward") as record:
                        record["records"] = len(tape)
                        tape.backward(epoch_loss)
                with tracer.span("training.adam_step"):
                    adam_step(named, state, config.lr)
                losses.append(value)
        with tracer.span("training.evaluate"):
            accuracy = evaluate(params, graph, corpus, dataset_split.test_idx,
                                layer1_normalize=config.layer1_normalize,
                                operators=operators_for_eval)
    return losses, accuracy


def tape_retained_mb(config, graph, corpus, dataset_split) -> float:
    """Memory the tape and activations hold after one forward pass.

    Runs its own untimed epoch on freshly initialised params, so
    tracemalloc never slows an epoch that is timed.
    """
    params = init_params(config, corpus, derive_rng(config.seed, "init"))
    operators = GraphOperators.build(graph)
    labels = LabelMatrix.build(corpus.labels, corpus.num_classes, dataset_split.train_idx)
    baseline = config.variant == "baseline_gcn"
    if baseline:
        bow = constant(bag_of_words(corpus, corpus.vocab_size))
    gc.collect()
    tracemalloc.start()
    try:
        with Tape():
            if baseline:
                z = baseline_gcn_forward(operators.norm_adj, bow,
                                         params.conv1_weight, params.conv2_weight)
            else:
                z = forward(params, graph, corpus, training=True,
                            dropout_lstm=config.dropout_lstm, dropout_gcn=config.dropout_gcn,
                            layer1_normalize=config.layer1_normalize,
                            rng=derive_rng(config.seed, "dropout"), operators=operators)
            loss(z, labels, params, config.l2_feature, config.l2_node)
            retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return retained / 2 ** 20


def run_traced(workload: Workload, size: Size, seed: int, seconds: float, paths,
               workers: int, ledger: Ledger) -> tuple[dict, dict]:
    """Per-layer metrics from spans around every public call."""
    started = time.perf_counter()
    tracer = Tracer()
    setup_s, loaded = timed_setups(*paths, tracer=tracer)
    graph, config = loaded.graph, config_for(workload, size, seed)

    tracer.run_id = "graph"
    pairs, passes = 0, []
    for _ in range(3):
        with tracer.span("graph.neighborhood") as record:
            pairs = sum(len(neighborhood(graph, i).members) for i in range(graph.n))
        passes.append(record["end"] - record["start"])
        with tracer.span("graph.normalized_adjacency"):
            normalized_adjacency(graph)

    speedup, cell_ms, inject_ms = 0.0, 0.0, 0.0
    if workload.variant == "sweep":
        accuracies = {}
        for k, (ratio, variant, cell_seed) in enumerate(sweep_grid(seed)):
            tracer.run_id = f"cell{k}"
            gc.collect()
            with tracer.span("sweep.cell"):
                with tracer.span("noise.inject_noise"):
                    noisy = inject_noise(loaded.corpus, ratio, derive_rng(cell_seed, "noise"))
                cell_config = replace(config, seed=cell_seed, variant=variant)
                with tracer.span("corpus.split"):
                    cell_split = split(noisy.n, cell_config.train_fraction,
                                       derive_rng(cell_seed, "split"))
                with ledger.operation("traced sweep cell"):
                    _, accuracies[(ratio, variant, cell_seed)] = traced_train(
                        cell_config, graph, noisy, cell_split, loaded.operators, tracer)
        gc.collect()
        tracer.run_id = "sweep"
        with ledger.operation("noise_sweep", count=len(accuracies)), \
                tracer.span("noise.noise_sweep"):
            rows, walls = run_sweep(ledger, config, loaded, seed, workers)
            for row in rows:
                serial = [accuracies[(row.ratio, row.variant, s)] for s in row.seeds]
                ledger.check(row.mean_accuracy == float(np.mean(serial))
                             and row.std_accuracy == float(np.std(serial)),
                             f"noise_sweep with {workers} workers gave {row.mean_accuracy} "
                             f"for ratio {row.ratio} {row.variant}; serial traced cells "
                             f"gave {serial}")
        cells = tracer.named("sweep.cell")
        speedup = sum(s["end"] - s["start"] for s in cells) / sum(walls)
        cell_ms = tracer.total_ms("sweep.cell") / len(cells)
        inject_ms = tracer.total_ms("noise.inject_noise") / len(cells)

    tracer.run_id = "reference"
    corpus = reference_corpus(workload, loaded, seed)
    with tracer.span("corpus.split"):
        ref_split = split(corpus.n, config.train_fraction, derive_rng(config.seed, "split"))
    overheads = []
    last = 0.0
    while not overheads or time.perf_counter() - started + last <= seconds:
        pair_started = time.perf_counter()
        tracer.run_id = f"reference{len(overheads)}"
        gc.collect()
        cell = train_cell(ledger, config, loaded, corpus, 0)
        gc.collect()
        with ledger.operation("traced train"):
            losses, accuracy = traced_train(config, graph, corpus, ref_split,
                                            loaded.operators, tracer)
            ledger.check(losses == cell.losses,
                         f"traced losses {losses} differ from train() losses {cell.losses}")
            ledger.check(accuracy == cell.accuracy,
                         f"traced accuracy {accuracy} differs from train() {cell.accuracy}")
        replica = tracer.named("training.train")[-1]
        overheads.append(1000.0 * ((replica["end"] - replica["start"]) - cell.train_s)
                         / config.epochs)
        last = time.perf_counter() - pair_started

    retained = tape_retained_mb(config, graph, corpus, ref_split)
    epochs = len(tracer.named("epoch"))
    records = {name: sum(s["records"] for s in tracer.named(name)) / epochs
               for name in ("model.encode_nodes", "model.node_input_features",
                            "model.layer1", "tensor.Tape.backward")}
    stats = shape(loaded.corpus, graph)
    setups = {name: statistics.median(1000.0 * (s["end"] - s["start"]) for s in tracer.named(name))
              for name in ("corpus.load_corpus", "graph.load_edge_list", "graph.build_graph")}
    operator_builds = [s for s in tracer.named("model.GraphOperators.build") if s["run"] == "setup"]
    dense = (graph.adjacency.nbytes + loaded.operators.support.data.nbytes
             + loaded.operators.norm_adj.data.nbytes)

    def per_epoch(name: str) -> float:
        return tracer.total_ms(name) / epochs

    metrics = {
        "corpus.load_ms": (setups["corpus.load_corpus"], "ms"),
        "graph.build_ms": (setups["graph.load_edge_list"] + setups["graph.build_graph"], "ms"),
        "graph.operators_ms": (statistics.median(1000.0 * (s["end"] - s["start"])
                                                 for s in operator_builds), "ms"),
        "graph.dense_mb": (dense / 2 ** 20, "MiB"),
        "corpus.tokens": (stats["tokens"], "count"),
        "corpus.pad_share": (stats["pad_share"], "share"),
        "graph.pairs": (pairs, "count"),
        "graph.neighborhood_ms": (1000.0 * statistics.median(passes), "ms"),
        "encode.fwd_ms": (per_epoch("model.encode_nodes"), "ms"),
        "encode.records": (records["model.encode_nodes"], "count"),
        "attention.fwd_ms": (per_epoch("model.node_input_features"), "ms"),
        "attention.records": (records["model.node_input_features"], "count"),
        "layer1.fwd_ms": (per_epoch("model.layer1"), "ms"),
        "layer1.records": (records["model.layer1"], "count"),
        "layer2.fwd_ms": (per_epoch("model.layer2"), "ms"),
        "bow_gcn.fwd_ms": (per_epoch("model.baseline_gcn_forward"), "ms"),
        "loss.fwd_ms": (per_epoch("model.loss"), "ms"),
        "backward.ms": (per_epoch("tensor.Tape.backward"), "ms"),
        "tape.records": (records["tensor.Tape.backward"], "count"),
        "tape.retained_mb": (retained, "MiB"),
        "adam.ms": (per_epoch("training.adam_step"), "ms"),
        "noise.inject_ms": (inject_ms, "ms"),
        "sweep.cell_ms": (cell_ms, "ms"),
        "sweep.parallel_speedup": (speedup, "x"),
        "trace.overhead_ms": (statistics.median(overheads), "ms"),
    }
    stats["pairs"] = pairs
    detail = {"samples": {"traced_epochs": epochs, "reference_pairs": len(overheads),
                          "setups": len(setup_s)},
              "shape": stats, "spans": tracer.spans}
    return metrics, detail
