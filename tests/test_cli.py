"""Command-line surface: happy paths, exit codes, and byte-level
reproducibility of file outputs."""

import json
import subprocess
import sys

import pytest

import fagcn.cli
from fagcn.checkpoint import load_checkpoint, save_checkpoint
from fagcn.cli import (cmd_eval, cmd_export_attention, cmd_sweep, cmd_train,
                       main)
from fagcn.datasets import two_cluster_fixture, write_dataset


@pytest.fixture
def dataset(tmp_path):
    graph, corpus, vocab = two_cluster_fixture()
    content_path, edges_path = write_dataset(tmp_path / "data", corpus, vocab, graph)
    return {"content": content_path, "edges": edges_path, "dir": tmp_path}


@pytest.fixture
def config_path(tmp_path):
    config = {"embed_dim": 6, "feature_dim": 6, "hidden_dim": 4,
              "train_fraction": 0.5, "dropout_lstm": 0.1, "dropout_gcn": 0.1,
              "l2_feature": 5e-3, "l2_node": 5e-4, "lr": 2e-3, "epochs": 6,
              "seed": 11, "variant": "context"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


class TestTrainCommand:
    def test_happy_path_writes_three_files(self, dataset, config_path, tmp_path):
        out = tmp_path / "run"
        code = cmd_train(config_path, dataset["edges"], dataset["content"], out,
                         quiet=True)
        assert code == 0
        for name in ("model.ckpt", "history.csv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 11
        assert 0.0 <= manifest["test_accuracy"] <= 1.0
        history = (out / "history.csv").read_text()
        assert history.startswith("epoch,loss\n")
        assert len(history.strip().split("\n")) == 1 + 6

    def test_missing_edges_file_is_input_error(self, dataset, config_path, tmp_path, capsys):
        code = cmd_train(config_path, tmp_path / "nowhere.txt", dataset["content"],
                         tmp_path / "run", quiet=True)
        assert code == 2
        assert "nowhere.txt" in capsys.readouterr().err

    def test_unknown_config_key_is_input_error(self, dataset, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"epochs": 3, "warp_speed": True}), encoding="utf-8")
        code = cmd_train(bad, dataset["edges"], dataset["content"], tmp_path / "run",
                         quiet=True)
        assert code == 2

    def test_rerun_outputs_are_byte_identical(self, dataset, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cmd_train(config_path, dataset["edges"], dataset["content"], out_a,
                         quiet=True) == 0
        assert cmd_train(config_path, dataset["edges"], dataset["content"], out_b,
                         quiet=True) == 0
        assert (out_a / "history.csv").read_bytes() == (out_b / "history.csv").read_bytes()
        assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()

    def test_seed_override_changes_outputs(self, dataset, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cmd_train(config_path, dataset["edges"], dataset["content"], out_a, quiet=True)
        cmd_train(config_path, dataset["edges"], dataset["content"], out_b,
                  seed=99, quiet=True)
        assert (out_a / "model.ckpt").read_bytes() != (out_b / "model.ckpt").read_bytes()
        manifest = json.loads((out_b / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 99


class TestEvalCommand:
    def test_roundtrip_matches_manifest(self, dataset, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        cmd_train(config_path, dataset["edges"], dataset["content"], out, quiet=True)
        manifest = json.loads((out / "manifest.json").read_text())
        code = cmd_eval(out / "model.ckpt", dataset["edges"], dataset["content"],
                        split_seed=11, quiet=True)
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert printed == f"accuracy={manifest['test_accuracy']:.4f}"

    def test_eval_is_deterministic(self, dataset, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        cmd_train(config_path, dataset["edges"], dataset["content"], out, quiet=True)
        cmd_eval(out / "model.ckpt", dataset["edges"], dataset["content"],
                 split_seed=3, quiet=True)
        first = capsys.readouterr().out
        cmd_eval(out / "model.ckpt", dataset["edges"], dataset["content"],
                 split_seed=3, quiet=True)
        assert capsys.readouterr().out == first

    def test_corrupted_checkpoint_is_data_error(self, dataset, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"FAGCNCKPT1\n" + b"\xff" * 32)
        code = cmd_eval(bad, dataset["edges"], dataset["content"], split_seed=1,
                        quiet=True)
        assert code == 3

    def test_shape_mismatch_is_data_error(self, dataset, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        cmd_train(config_path, dataset["edges"], dataset["content"], out, quiet=True)
        # same checkpoint against a corpus with a different vocabulary
        other = tmp_path / "other.tsv"
        other.write_text("0\tx\taa bb\n1\ty\tbb cc\n", encoding="utf-8")
        edges = tmp_path / "other_edges.txt"
        edges.write_text("0 1\n", encoding="utf-8")
        code = cmd_eval(out / "model.ckpt", edges, other, split_seed=1, quiet=True)
        assert code == 3
        assert "vocabulary" in capsys.readouterr().err


class TestSweepCommand:
    def write_spec(self, tmp_path, dataset, spec: dict):
        spec = {"content": str(dataset["content"]), "edges": str(dataset["edges"]),
                **spec}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return path

    def test_unknown_axis(self, dataset, config_path, tmp_path):
        spec = self.write_spec(tmp_path, dataset, {"axis": "warp", "values": [1]})
        assert cmd_sweep(config_path, spec, tmp_path / "out.csv", quiet=True) == 2

    def test_parameter_axis_rows(self, dataset, config_path, tmp_path):
        spec = self.write_spec(tmp_path, dataset, {
            "axis": "d_h", "values": [3, 4], "variants": ["self"], "seeds": [1, 2]})
        out = tmp_path / "out.csv"
        assert cmd_sweep(config_path, spec, out, quiet=True) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "axis,value,variant,mean_accuracy,std_accuracy,seeds"
        assert len(lines) == 1 + 2
        assert lines[1].startswith("hidden_dim,3,self,")

    def test_noise_axis_rows(self, dataset, config_path, tmp_path):
        spec = self.write_spec(tmp_path, dataset, {
            "axis": "noise-replace", "values": [0.0, 0.3],
            "variants": ["self", "baseline_gcn"], "seeds": [1]})
        out = tmp_path / "noise.csv"
        assert cmd_sweep(config_path, spec, out, quiet=True) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "protocol,ratio,variant,mean_accuracy,std_accuracy,seeds"
        assert len(lines) == 1 + 4
        assert lines[1].startswith("replace,0,self,")

    def test_sweep_reruns_identically(self, dataset, config_path, tmp_path):
        spec = self.write_spec(tmp_path, dataset, {
            "axis": "p", "values": [0.5], "variants": ["none"], "seeds": [4]})
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        cmd_sweep(config_path, spec, out_a, quiet=True)
        cmd_sweep(config_path, spec, out_b, quiet=True)
        assert out_a.read_bytes() == out_b.read_bytes()


class TestExportAttention:
    def test_export_record(self, dataset, config_path, tmp_path):
        out = tmp_path / "run"
        cmd_train(config_path, dataset["edges"], dataset["content"], out, quiet=True)
        target = tmp_path / "attention.json"
        code = cmd_export_attention(out / "model.ckpt", dataset["edges"],
                                    dataset["content"], 0, target, quiet=True)
        assert code == 0
        record = json.loads(target.read_text())
        assert record["center"] == 0
        assert record["variant"] == "context"
        for entry in record["neighbors"]:
            total = sum(w["weight"] for w in entry["weights"])
            assert abs(total - 1.0) < 1e-9

    def test_unknown_node_id(self, dataset, config_path, tmp_path):
        out = tmp_path / "run"
        cmd_train(config_path, dataset["edges"], dataset["content"], out, quiet=True)
        code = cmd_export_attention(out / "model.ckpt", dataset["edges"],
                                    dataset["content"], 777, tmp_path / "x.json",
                                    quiet=True)
        assert code == 2


class TestErrorBoundary:
    """Bad inputs end in one error line and the documented exit code."""

    @pytest.mark.parametrize("config_patch, spec_patch", [
        ({"epochs": "2"}, {}), ({"epochs": 2.5}, {}), ({"lr": "0.1"}, {}),
        ({"layer1_normalize": "no"}, {}), ({"seed": -1}, {}),
        ({}, {"seeds": ["x"]}), ({}, {"seeds": [1.7]}), ({}, {"seeds": [-1]}),
        ({}, {"values": [2.5]}), ({}, {"values": ["3"]}), ({}, {"values": [True]}),
        ({}, {"axis": "noise-inject", "values": ["0.3"]}), ({}, {"axis": ["d_h"]}),
        ({}, {"content": 5}),
    ])
    def test_mistyped_values_are_input_errors(self, dataset, config_path, tmp_path, capsys,
                                              config_patch, spec_patch):
        config = {**json.loads(config_path.read_text()), "epochs": 1, **config_patch}
        config_path.write_text(json.dumps(config), encoding="utf-8")
        spec = {"axis": "d_h", "values": [3], "variants": ["none"], "seeds": [1],
                "content": str(dataset["content"]), "edges": str(dataset["edges"]),
                **spec_patch}
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        assert cmd_sweep(config_path, spec_path, tmp_path / "out.csv", quiet=True) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out.csv").exists()

    def test_config_directory_is_input_error(self, dataset, tmp_path):
        assert cmd_train(tmp_path, dataset["edges"], dataset["content"], tmp_path / "run",
                         quiet=True) == 2

    def test_out_path_is_checked_before_training(self, dataset, config_path, tmp_path,
                                                 monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained although the output cannot be written")

        monkeypatch.setattr(fagcn.cli, "train", no_training)
        taken = tmp_path / "taken"
        taken.write_text("keep", encoding="utf-8")
        assert cmd_train(config_path, dataset["edges"], dataset["content"], taken,
                         quiet=True) == 2
        assert taken.read_text(encoding="utf-8") == "keep"

    @pytest.mark.parametrize("which", ["content", "edges"])
    def test_non_utf8_data_is_data_error(self, dataset, config_path, tmp_path, capsys, which):
        with open(dataset[which], "ab") as fh:
            fh.write(b"\xff\xfe\n")
        assert cmd_train(config_path, dataset["edges"], dataset["content"], tmp_path / "run",
                         quiet=True) == 3
        assert "UTF-8" in capsys.readouterr().err

    def test_non_utf8_config_and_spec_are_input_errors(self, dataset, config_path, tmp_path):
        out = tmp_path / "run"
        cmd_train(config_path, dataset["edges"], dataset["content"], out, quiet=True)
        checkpoint = out / "model.ckpt"
        assert cmd_train(checkpoint, dataset["edges"], dataset["content"], tmp_path / "again",
                         quiet=True) == 2
        assert cmd_sweep(config_path, checkpoint, tmp_path / "out.csv", quiet=True) == 2

    def test_non_finite_checkpoint_is_numeric_error(self, dataset, config_path, tmp_path):
        out = tmp_path / "run"
        cmd_train(config_path, dataset["edges"], dataset["content"], out, quiet=True)
        config, params = load_checkpoint(out / "model.ckpt")
        for _, tensor in params.named_parameters():
            tensor.data[:] = float("nan")
        save_checkpoint(out / "model.ckpt", config, params)
        assert cmd_eval(out / "model.ckpt", dataset["edges"], dataset["content"],
                        split_seed=1, quiet=True) == 4


class TestEntryPoint:
    def test_main_dispatches(self, dataset, config_path, tmp_path):
        code = main(["--quiet", "train", "--config", str(config_path),
                     "--edges", str(dataset["edges"]),
                     "--content", str(dataset["content"]),
                     "--out", str(tmp_path / "run")])
        assert code == 0

    def test_module_invocation(self, dataset, config_path, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "fagcn.cli", "--quiet", "eval",
             "--checkpoint", str(tmp_path / "missing.ckpt"),
             "--edges", str(dataset["edges"]),
             "--content", str(dataset["content"]),
             "--split-seed", "1"],
            capture_output=True, text=True)
        assert result.returncode == 2
