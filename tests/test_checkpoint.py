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


def model_params(variant: str = "context") -> ModelParams:
    _, corpus, _ = four_node_fixture()
    return ModelParams.init(corpus.vocab_size, corpus.num_classes, 4, 4, 3,
                            variant, np.random.default_rng(7))


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
        save_checkpoint(path, config, params)
        loaded_config, loaded = load_checkpoint(path)
        assert loaded_config == config
        assert isinstance(loaded, ModelParams)
        for (name_a, a), (name_b, b) in zip(params.named_parameters(),
                                            loaded.named_parameters()):
            assert name_a == name_b
            assert np.array_equal(a.data, b.data)

    def test_baseline_params(self, tmp_path):
        path = tmp_path / "baseline.ckpt"
        params = BaselineParams.init(6, 2, 4, np.random.default_rng(1))
        config = ExperimentConfig(variant="baseline_gcn").to_dict()
        save_checkpoint(path, config, params)
        _, loaded = load_checkpoint(path)
        assert isinstance(loaded, BaselineParams)
        assert np.array_equal(loaded.conv1_weight.data, params.conv1_weight.data)

    def test_bytes_are_deterministic(self, tmp_path):
        config = ExperimentConfig().to_dict()
        params = model_params()
        save_checkpoint(tmp_path / "a.ckpt", config, params)
        save_checkpoint(tmp_path / "b.ckpt", config, params)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_truncated_data(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, ExperimentConfig().to_dict(), model_params())
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 16])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, ExperimentConfig().to_dict(), model_params())
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(DataError, match="trailing"):
            load_checkpoint(path)

    def test_mangled_header(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, ExperimentConfig().to_dict(), model_params())
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
    ], ids=["no-rows", "tensors-not-list", "negative-rows", "string-rows",
            "config-not-object", "repeated-name"])
    def test_malformed_header_is_data_error(self, tmp_path, edit):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, ExperimentConfig().to_dict(), model_params())
        edit_header(path, edit)
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_tensors_must_fit_the_stored_kind_and_variant(self, tmp_path):
        path = tmp_path / "x.ckpt"
        cases = [(BaselineParams.init(6, 2, 4, np.random.default_rng(1)), "self", "fit"),
                 (model_params("self"), "context", "missing"),
                 (model_params("self"), "none", "unexpected")]
        for params, variant, message in cases:
            save_checkpoint(path, ExperimentConfig(variant=variant).to_dict(), params)
            with pytest.raises(DataError, match=message):
                load_checkpoint(path)

    def test_non_finite_weights_are_numeric_error(self, tmp_path):
        path = tmp_path / "x.ckpt"
        params = model_params()
        params.conv1_weight.data[0, 0] = np.nan
        save_checkpoint(path, ExperimentConfig().to_dict(), params)
        with pytest.raises(NumericError, match="conv1_weight"):
            load_checkpoint(path)
