"""Self-describing binary checkpoint container.

Layout (all integers little-endian):

    bytes 0..10   magic b"FAGCNCKPT1\\n"
    bytes 11..18  uint64 header length H
    next H bytes  UTF-8 JSON header: {"kind": "model"|"baseline",
                  "config": {...}, "terms": [...], "labels": [...],
                  "tensors": [{"name", "rows", "cols"}...]}
    remainder     float64 little-endian row-major data for each tensor,
                  concatenated in header order

The header JSON is serialized with sorted keys and no whitespace, so a
checkpoint's bytes are a pure function of its contents. ``terms`` and
``labels`` are the ordered vocabulary and class names that the token and
class ids of the tensors index.

The config must be a valid ``ExperimentConfig``. Its variant names the
tensors and its dimensions, with the counts of terms and labels, fix
their shapes; ``load_checkpoint`` refuses any other. Each LSTM direction
is stored as one gate ``weight`` and one ``bias``, the forget, input,
cell and output gates side by side.
Checkpoints written with eight per-gate tensors per direction, before
that layout, fail to load with a DataError (exit 3) that lists the
missing tensors.
"""

from __future__ import annotations

import json
import struct
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .model import BaselineParams, ModelParams, init_for_variant
from .training import ExperimentConfig
from .util import atomic_write_bytes

MAGIC = b"FAGCNCKPT1\n"
DIMS = ("embed_dim", "feature_dim", "hidden_dim")  # the config keys that size the tensors


def save_checkpoint(path, config: dict, params: ModelParams | BaselineParams,
                    terms: Sequence[str], labels: Sequence[str]) -> None:
    """Serialize parameters plus the config that produced them and the
    term and label names their ids stand for."""
    named = params.named_parameters()
    header = {
        "kind": params.kind,
        "config": config,
        "terms": list(terms),
        "labels": list(labels),
        "tensors": [{"name": name, "rows": t.rows, "cols": t.cols} for name, t in named],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, struct.pack("<Q", len(blob)), blob]
    parts += [np.ascontiguousarray(t.data, dtype="<f8").tobytes() for _, t in named]
    atomic_write_bytes(path, b"".join(parts))


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _is_names(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _check_header(header, path) -> None:
    if not isinstance(header, dict):
        raise DataError(f"{path}: checkpoint header is not a JSON object")
    for key in ("kind", "config", "terms", "labels", "tensors"):
        if key not in header:
            raise DataError(f"{path}: checkpoint header missing {key!r}")
    if not isinstance(header["kind"], str) or not isinstance(header["config"], dict):
        raise DataError(f"{path}: checkpoint kind must be a string and config an object")
    if not _is_names(header["terms"]) or not _is_names(header["labels"]):
        raise DataError(f"{path}: checkpoint terms and labels must be lists of strings")
    entries = header["tensors"]
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and isinstance(e.get("name"), str)
            and _is_count(e.get("rows")) and _is_count(e.get("cols")) for e in entries):
        raise DataError(f"{path}: checkpoint tensors must be a list of "
                        "{name: string, rows: int >= 0, cols: int >= 0}")


def _read_arrays(raw: bytes, path) -> tuple[dict, dict[str, np.ndarray]]:
    if not raw.startswith(MAGIC):
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    offset = len(MAGIC)
    if len(raw) < offset + 8:
        raise DataError(f"{path}: truncated checkpoint header")
    (header_len,) = struct.unpack_from("<Q", raw, offset)
    offset += 8
    if len(raw) < offset + header_len:
        raise DataError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(raw[offset:offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: corrupt checkpoint header: {exc}") from None
    offset += header_len
    _check_header(header, path)
    arrays: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        name, rows, cols = entry["name"], entry["rows"], entry["cols"]
        if name in arrays:
            raise DataError(f"{path}: checkpoint repeats tensor {name!r}")
        nbytes = rows * cols * 8
        if len(raw) < offset + nbytes:
            raise DataError(f"{path}: checkpoint data truncated at tensor {name!r}")
        flat = np.frombuffer(raw, dtype="<f8", count=rows * cols, offset=offset)
        if not np.isfinite(flat).all():
            raise NumericError(f"{path}: tensor {name!r} holds non-finite values")
        arrays[name] = flat.reshape(rows, cols).astype(np.float64)
        offset += nbytes
    if offset != len(raw):
        raise DataError(f"{path}: {len(raw) - offset} trailing bytes after tensor data")
    return header, arrays


def load_checkpoint(path) -> tuple[ExperimentConfig, ModelParams | BaselineParams,
                                   list[str], list[str]]:
    """Read a checkpoint back into its stored config, parameters, terms
    and labels.

    The config must name every dimension and be a valid ``ExperimentConfig``.
    Its variant picks the parameter set, whose kind must be the stored
    one, and its dimensions together with the number of terms and labels
    fix the shape of every tensor. Its tensors are filled by name: every
    stored tensor must fill exactly one of them, with that shape.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    header, arrays = _read_arrays(raw, path)
    config, kind = header["config"], header["kind"]
    terms, labels = header["terms"], header["labels"]
    sizes = {"terms": len(terms), "labels": len(labels),
             **{name: config.get(name) for name in DIMS}}
    if not all(_is_count(size) and size >= 1 for size in sizes.values()):
        raise DataError(f"{path}: checkpoint sizes must be ints >= 1, got {sizes}")
    try:  # the variant names the tensors, so it has no default here
        config = ExperimentConfig.from_dict({"variant": None, **config})
    except ConfigError as exc:
        raise DataError(f"{path}: checkpoint config is invalid: {exc}") from None
    try:  # weights of the shapes the header implies, overwritten below
        params = init_for_variant(config.variant, *sizes.values(), np.random.default_rng(0))
    except (MemoryError, ValueError):  # numpy refuses arrays of such sizes
        raise DataError(f"{path}: checkpoint sizes are too large to hold: {sizes}") from None
    if params.kind != kind:
        raise DataError(f"{path}: checkpoint kind {kind!r} does not fit variant "
                        f"{config.variant!r}")
    named = dict(params.named_parameters())
    missing = sorted(set(named) - set(arrays))
    if missing:
        raise DataError(f"{path}: checkpoint is missing tensors {missing}")
    unexpected = sorted(set(arrays) - set(named))
    if unexpected:
        raise DataError(f"{path}: unexpected tensors in checkpoint: {unexpected}")
    misfits = [f"{name} is {arrays[name].shape[0]}x{arrays[name].shape[1]}, "
               f"not {tensor.rows}x{tensor.cols}"
               for name, tensor in named.items() if arrays[name].shape != tensor.shape]
    if misfits:
        raise DataError(f"{path}: checkpoint tensors do not fit its config, "
                        f"{len(terms)} terms and {len(labels)} labels: {'; '.join(misfits)}")
    for name, tensor in named.items():
        tensor.data = arrays[name]
    return config, params, terms, labels
