"""Checkpoint container: roundtrips, byte determinism, corruption
detection."""

import json
import struct

import numpy as np
import pytest

from fagcn.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from fagcn.datasets import four_node_fixture
from fagcn.errors import DataError, NumericError
from fagcn.model import BaselineParams, ModelParams
from fagcn.training import ExperimentConfig


_, CORPUS, _ = four_node_fixture()
TERMS = [f"t{k}" for k in range(CORPUS.vocab_size)]  # placeholder names, one per id
LABELS = [f"c{k}" for k in range(CORPUS.num_classes)]


def model_params(variant: str = "context") -> ModelParams:
    """Weights of the shapes the default config implies."""
    c = ExperimentConfig()
    return ModelParams.init(CORPUS.vocab_size, CORPUS.num_classes, c.embed_dim,
                            c.feature_dim, c.hidden_dim, variant, np.random.default_rng(7))


def save(path, config: dict, params) -> None:
    save_checkpoint(path, config, params, TERMS, LABELS)


def edit_header(path, edit) -> None:
    """Rewrite a saved checkpoint's JSON header in place."""
    raw = path.read_bytes()
    start = len(MAGIC) + 8
    (length,) = struct.unpack_from("<Q", raw, len(MAGIC))
    header = json.loads(raw[start:start + length])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + raw[start + length:])


class TestRoundtrip:
    @pytest.mark.parametrize("variant", ["none", "self", "context"])
    def test_model_params(self, tmp_path, variant):
        path = tmp_path / "model.ckpt"
        config = ExperimentConfig(variant=variant).to_dict()
        params = model_params(variant)
        save(path, config, params)
        loaded_config, loaded, terms, labels = load_checkpoint(path)
        assert loaded_config.to_dict() == config
        assert terms == TERMS
        assert labels == LABELS
        assert isinstance(loaded, ModelParams)
        for (name_a, a), (name_b, b) in zip(params.named_parameters(),
                                            loaded.named_parameters()):
            assert name_a == name_b
            assert np.array_equal(a.data, b.data)

    def test_baseline_params(self, tmp_path):
        path = tmp_path / "baseline.ckpt"
        params = BaselineParams.init(6, 2, 4, np.random.default_rng(1))
        config = ExperimentConfig(variant="baseline_gcn", hidden_dim=4).to_dict()
        save(path, config, params)
        _, loaded, _, _ = load_checkpoint(path)
        assert isinstance(loaded, BaselineParams)
        assert np.array_equal(loaded.conv1_weight.data, params.conv1_weight.data)

    def test_bytes_are_deterministic(self, tmp_path):
        config = ExperimentConfig().to_dict()
        params = model_params()
        save(tmp_path / "a.ckpt", config, params)
        save(tmp_path / "b.ckpt", config, params)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_truncated_data(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save(path, ExperimentConfig().to_dict(), model_params())
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 16])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save(path, ExperimentConfig().to_dict(), model_params())
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(DataError, match="trailing"):
            load_checkpoint(path)

    def test_mangled_header(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save(path, ExperimentConfig().to_dict(), model_params())
        raw = bytearray(path.read_bytes())
        raw[len(MAGIC) + 8] ^= 0xFF  # first header byte
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            load_checkpoint(path)


class TestSchema:
    @pytest.mark.parametrize("edit", [
        lambda h: h["tensors"][0].pop("rows"),
        lambda h: h.update(tensors="x"),
        lambda h: h["tensors"][0].update(rows=-1),
        lambda h: h["tensors"][0].update(rows=str(h["tensors"][0]["rows"])),
        lambda h: h.update(config="x"),
        lambda h: h["tensors"].append({"name": h["tensors"][0]["name"], "rows": 0, "cols": 0}),
        lambda h: h.pop("terms"),
        lambda h: h.update(labels="c0 c1"),
        lambda h: h["terms"].__setitem__(0, 7),
        lambda h: h["terms"].pop(),
        lambda h: h["labels"].append("extra"),
        lambda h: h["config"].pop("variant"),
    ], ids=["no-rows", "tensors-not-list", "negative-rows", "string-rows",
            "config-not-object", "repeated-name", "no-terms", "labels-not-list",
            "non-string-term", "term-missing", "label-extra", "no-variant"])
    def test_malformed_header_is_data_error(self, tmp_path, edit):
        path = tmp_path / "x.ckpt"
        save(path, ExperimentConfig().to_dict(), model_params())
        edit_header(path, edit)
        with pytest.raises(DataError):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c.pop("hidden_dim"), "sizes"),
        (lambda c: c.update(embed_dim=0), "sizes"),
        (lambda c: c.update(feature_dim="80"), "sizes"),
        (lambda c: c.update(hidden_dim=True), "sizes"),
        (lambda c: c.update(embed_dim=10 ** 12), "too large"),
        (lambda c: c.update(feature_dim=10 ** 12), "too large"),
        (lambda c: c.update(hidden_dim=7), "conv1_weight is 6x80, not 7x80"),
    ], ids=["no-hidden-dim", "zero-dim", "string-dim", "bool-dim", "huge-embed-dim",
            "huge-feature-dim", "other-hidden-dim"])
    def test_config_sizes_must_fit_the_tensors(self, tmp_path, edit, message):
        path = tmp_path / "x.ckpt"
        save(path, ExperimentConfig().to_dict(), model_params())
        edit_header(path, lambda h: edit(h["config"]))
        with pytest.raises(DataError, match=message):
            load_checkpoint(path)

    def test_tensors_must_fit_the_stored_kind_and_variant(self, tmp_path):
        path = tmp_path / "x.ckpt"
        cases = [(BaselineParams.init(6, 2, 4, np.random.default_rng(1)), "self", "fit"),
                 (model_params("self"), "context", "missing"),
                 (model_params("self"), "none", "unexpected")]
        for params, variant, message in cases:
            save(path, ExperimentConfig(variant=variant).to_dict(), params)
            with pytest.raises(DataError, match=message):
                load_checkpoint(path)

    def test_non_finite_weights_are_numeric_error(self, tmp_path):
        path = tmp_path / "x.ckpt"
        params = model_params()
        params.conv1_weight.data[0, 0] = np.nan
        save(path, ExperimentConfig().to_dict(), params)
        with pytest.raises(NumericError, match="conv1_weight"):
            load_checkpoint(path)
