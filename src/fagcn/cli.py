"""Command-line entry point for reproducible experiments.

Subcommands: ``train``, ``eval``, ``sweep``, ``export-attention``.
Every command writes its outputs atomically (no partial files on
failure) and ``train`` records a run manifest with input digests so
noise-corrupted corpora are distinguishable from clean ones.

Exit codes: 0 success; 2 input error (a bad config, sweep spec or
argument, a config or spec file that is not UTF-8 JSON, or a file that
cannot be opened, read or written); 3 data error (a malformed or
non-UTF-8 content or edge file, a malformed checkpoint, or data whose
terms or labels differ from the checkpoint's); 4 numeric failure (a
non-finite loss, gradient, checkpoint weight or class probability).
Every failure prints a single ``error:`` line on stderr instead of a
traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import replace as dc_replace

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import load_corpus, split
from .errors import ConfigError, DataError, NumericError, ShapeError
from .graph import build_graph, load_edge_list
from .model import export_attention
from .noise import sweep, sweep_rows_to_csv
from .training import ExperimentConfig, check_type, evaluate, train
from .util import atomic_write_text, derive_rng, require_ascii_ints, sha256_file

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message, file=sys.stderr)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _error_boundary(command):
    """Report the package's errors and OS errors as one ``error:`` line
    and return the documented exit code."""

    @functools.wraps(command)
    def run(*args, **kwargs) -> int:
        try:
            return command(*args, **kwargs)
        except (ConfigError, OSError) as exc:
            return _fail(str(exc), EXIT_INPUT)
        except (DataError, ShapeError) as exc:
            return _fail(str(exc), EXIT_DATA)
        except NumericError as exc:
            return _fail(str(exc), EXIT_NUMERIC)

    return run


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return data


def _load_config(path, seed_override: int | None) -> ExperimentConfig:
    config = ExperimentConfig.from_dict(_load_json(path))
    if seed_override is not None:
        config = dc_replace(config, seed=seed_override)
    return config


def _load_data(edges_path, content_path):
    corpus, vocab = load_corpus(content_path)
    graph = build_graph(corpus.node_ids, load_edge_list(edges_path))
    return graph, corpus, vocab


def _check_names(terms: list[str], labels: list[str], vocab, corpus) -> None:
    """Token and class ids follow first appearance in the content file,
    so the data must name them in the checkpoint's order."""
    if vocab.terms != terms:
        raise ShapeError(f"the data's vocabulary ({len(vocab.terms)} terms) differs from "
                         f"the checkpoint's ({len(terms)} terms) or orders it differently")
    if corpus.label_names != labels:
        raise ShapeError(f"the data's labels {corpus.label_names} differ from "
                         f"the checkpoint's {labels}")


def _history_csv(losses) -> str:
    lines = ["epoch,loss"]
    lines += [f"{epoch},{value:.17g}" for epoch, value in enumerate(losses)]
    return "\n".join(lines) + "\n"


@_error_boundary
def cmd_train(config_path, edges_path, content_path, out_dir, *,
              seed: int | None = None, quiet: bool = False) -> int:
    """Train one model and write checkpoint, history CSV, and manifest."""
    started = time.perf_counter()
    config = _load_config(config_path, seed)
    graph, corpus, vocab = _load_data(edges_path, content_path)
    run_split = split(corpus.n, config.train_fraction, derive_rng(config.seed, "split"))
    os.makedirs(out_dir, exist_ok=True)
    _say(quiet, f"training variant={config.variant} on {corpus.n} nodes, "
                f"{config.epochs} epochs")
    params, history = train(config, graph, corpus, run_split)

    checkpoint_path = os.path.join(out_dir, "model.ckpt")
    history_path = os.path.join(out_dir, "history.csv")
    manifest_path = os.path.join(out_dir, "manifest.json")
    save_checkpoint(checkpoint_path, config.to_dict(), params, vocab.terms, corpus.label_names)
    atomic_write_text(history_path, _history_csv(history.losses))
    manifest = {
        "tool": "fagcn",
        "version": __version__,
        "command": "train",
        "config": config.to_dict(),
        "seeds": [config.seed],
        "inputs": {
            "content": {"path": str(content_path), "sha256": sha256_file(content_path)},
            "edges": {"path": str(edges_path), "sha256": sha256_file(edges_path)},
        },
        "outputs": {
            "checkpoint": {"path": "model.ckpt", "sha256": sha256_file(checkpoint_path)},
            "history": {"path": "history.csv", "sha256": sha256_file(history_path)},
        },
        "test_accuracy": round(history.test_accuracy, 6),
        "wall_clock_seconds": time.perf_counter() - started,
    }
    atomic_write_text(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    _say(quiet, f"test accuracy {history.test_accuracy:.4f}; outputs in {out_dir}")
    return EXIT_OK


@_error_boundary
def cmd_eval(checkpoint_path, edges_path, content_path, split_seed: int, *,
             quiet: bool = False) -> int:
    """Evaluate a checkpoint on the test side of a seeded split."""
    config, params, terms, labels = load_checkpoint(checkpoint_path)
    graph, corpus, vocab = _load_data(edges_path, content_path)
    _check_names(terms, labels, vocab, corpus)
    run_split = split(corpus.n, config.train_fraction, derive_rng(split_seed, "split"))
    accuracy = evaluate(params, graph, corpus, run_split.test_idx,
                        layer1_normalize=config.layer1_normalize)
    print(f"accuracy={accuracy:.4f}")
    return EXIT_OK


def _spec_list(spec: dict, key: str, default, kind: str) -> list:
    items = spec.get(key, default)
    if not isinstance(items, list) or not items:
        raise ConfigError(f"sweep spec needs a non-empty {key!r} list")
    for item in items:
        check_type(f"sweep spec {key!r} entry", item, kind)
    return items


@_error_boundary
def cmd_sweep(config_path, sweep_spec_path, out_csv, *, seed: int | None = None,
              threads: int = 1, quiet: bool = False) -> int:
    """Run a sweep over one axis (noise ratio or a hyperparameter).

    The sweep spec is JSON with keys: axis (one of noise-inject,
    noise-replace, d_i, d_o, d_h, p), values (list of numbers), content
    and edges (data paths, relative to the spec file), and optional
    variants and seeds lists.

    Threads pay only with BLAS pinned (``OPENBLAS_NUM_THREADS=1``): a
    16-cell noise-inject sweep on 2 threads of a 2-vCPU host ran 1.5-2.0x
    faster than serial pinned and 1.3-1.4x slower unpinned, same CSV.
    """
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    config = _load_config(config_path, seed)
    spec = _load_json(sweep_spec_path)
    values = _spec_list(spec, "values", None, "float")
    variants = _spec_list(spec, "variants", [config.variant], "str")
    seeds = _spec_list(spec, "seeds", [config.seed], "int")
    base = os.path.dirname(os.path.abspath(sweep_spec_path))
    for key in ("content", "edges"):
        check_type(f"sweep spec {key!r} data path", spec.get(key), "str")
        if "\0" in spec[key]:
            raise ConfigError(f"sweep spec {key!r} data path contains a NUL character")
    content_path = os.path.join(base, spec["content"])
    edges_path = os.path.join(base, spec["edges"])
    graph, corpus, _ = _load_data(edges_path, content_path)

    cells = len(values) * len(variants) * len(seeds)
    _say(quiet, f"sweep axis={spec.get('axis')}: {cells} cells on {corpus.n} nodes")
    rows = sweep(config, graph, corpus, spec.get("axis"), values, variants, seeds,
                 max_workers=threads)
    atomic_write_text(out_csv, sweep_rows_to_csv(rows))
    _say(quiet, f"wrote {out_csv}")
    return EXIT_OK


@_error_boundary
def cmd_export_attention(checkpoint_path, edges_path, content_path, node_id: int,
                         out_path, *, quiet: bool = False) -> int:
    """Write the per-neighbor attention weights for one node as JSON."""
    _, params, terms, labels = load_checkpoint(checkpoint_path)
    if params.kind == "baseline":
        raise ConfigError("baseline checkpoints have no attention to export")
    graph, corpus, vocab = _load_data(edges_path, content_path)
    _check_names(terms, labels, vocab, corpus)
    try:
        center = corpus.node_ids.index(node_id)
    except ValueError:
        raise ConfigError(f"unknown node id {node_id}") from None
    record = export_attention(params, graph, corpus, vocab.terms, center)
    atomic_write_text(out_path, json.dumps(record, indent=2) + "\n")
    _say(quiet, f"wrote {out_path}")
    return EXIT_OK


def ascii_int(text: str) -> int:
    """argparse ``type`` for the integer options: ASCII ``-?[0-9]+`` only,
    so ``1_0``, ``+3`` and non-ASCII digits exit 2 as ``abc`` does."""
    return int(require_ascii_ints(text))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fagcn",
        description="Feature-attention graph convolution experiments")
    parser.add_argument("--seed", type=ascii_int, default=None,
                        help="override the config seed")
    parser.add_argument("--threads", type=ascii_int, default=1,
                        help="worker threads for sweep cells; faster only with "
                             "OPENBLAS_NUM_THREADS=1 (1.5-2.0x on 2 threads of a "
                             "2-vCPU host, 1.3-1.4x slower with BLAS unpinned)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress messages")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one model")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--edges", required=True)
    p_train.add_argument("--content", required=True)
    p_train.add_argument("--out", required=True, help="output directory")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--edges", required=True)
    p_eval.add_argument("--content", required=True)
    p_eval.add_argument("--split-seed", type=ascii_int, required=True)

    p_sweep = sub.add_parser("sweep", help="sweep one axis")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--spec", required=True, help="sweep spec JSON")
    p_sweep.add_argument("--out", required=True, help="output CSV")

    p_att = sub.add_parser("export-attention", help="dump attention weights")
    p_att.add_argument("--checkpoint", required=True)
    p_att.add_argument("--edges", required=True)
    p_att.add_argument("--content", required=True)
    p_att.add_argument("--node", type=ascii_int, required=True, help="external node id")
    p_att.add_argument("--out", required=True, help="output JSON")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "train":
        return cmd_train(args.config, args.edges, args.content, args.out,
                         seed=args.seed, quiet=args.quiet)
    if args.command == "eval":
        return cmd_eval(args.checkpoint, args.edges, args.content,
                        args.split_seed, quiet=args.quiet)
    if args.command == "sweep":
        return cmd_sweep(args.config, args.spec, args.out, seed=args.seed,
                         threads=args.threads, quiet=args.quiet)
    if args.command == "export-attention":
        return cmd_export_attention(args.checkpoint, args.edges, args.content,
                                    args.node, args.out, quiet=args.quiet)
    return EXIT_INPUT  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
