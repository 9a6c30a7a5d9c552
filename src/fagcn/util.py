"""Small shared helpers: rounding, seeded RNG streams, text-file lines,
file digests, atomic writes."""

from __future__ import annotations

import hashlib
import math
import os
import zlib

import numpy as np

from .errors import ConfigError


def round_half_up(x: float) -> int:
    """Round to the nearest integer, with .5 rounding up (not banker's)."""
    return int(math.floor(x + 0.5))


def derive_rng(seed: int, stream: str) -> np.random.Generator:
    """Return a generator for a named substream of a master seed.

    Every concern that consumes randomness (init, split, dropout, noise)
    gets its own stream so changing how much randomness one concern uses
    cannot perturb the others.
    """
    if seed < 0:
        raise ConfigError(f"seeds must be >= 0, got {seed}")
    tag = zlib.crc32(stream.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(tag,)))


def text_lines(path, error: type[Exception]):
    """Yield (line number, line) over a UTF-8 text file; bytes that are
    not UTF-8 raise ``error`` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def atomic_write_bytes(path, data: bytes) -> None:
    """Write a file so that it either fully appears or not at all."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
