"""Command-line surface: happy paths, exit codes, and byte-level
reproducibility of file outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fagcn.cli
import fagcn.datasets
import fagcn.noise
import fagcn.training
from fagcn.checkpoint import load_checkpoint, save_checkpoint
from fagcn.cli import (build_parser, cmd_eval, cmd_export_attention, cmd_sweep,
                       cmd_train, main)
from fagcn.datasets import two_cluster_fixture, write_dataset


@pytest.fixture
def dataset(tmp_path):
    graph, corpus, vocab = two_cluster_fixture()
    content_path, edges_path = write_dataset(tmp_path / "data", corpus, vocab, graph)
    return {"content": content_path, "edges": edges_path, "dir": tmp_path}


def run_module(*args, **env) -> subprocess.CompletedProcess:
    """``python -m fagcn.cli *args`` in a fresh process, with the package's
    source on its path and ``env`` added to its environment."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "fagcn.cli", *map(str, args)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **env})


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

    @pytest.mark.parametrize("dims", [{"embed_dim": 10 ** 15},
                                      {"hidden_dim": 10 ** 20, "variant": "baseline_gcn"}],
                             ids=["beyond-memory", "beyond-array-limit"])
    def test_dimensions_too_large_to_hold_are_input_errors(self, dataset, tmp_path, capsys,
                                                           dims):
        # sizes beyond the address space, which numpy refuses before allocating
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"epochs": 1, **dims}), encoding="utf-8")
        code = cmd_train(big, dataset["edges"], dataset["content"], tmp_path / "run",
                         quiet=True)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: the configured dimensions are too large")
        assert err.count("\n") == 1

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


    @pytest.mark.parametrize("node_id", ["0_1", "+1", "١"])
    def test_non_ascii_integer_edge_id_is_data_error(self, dataset, config_path, tmp_path,
                                                     capsys, node_id):
        # int() reads each of these as node 1, which is in the corpus
        edges = Path(dataset["edges"])
        lines = edges.read_text(encoding="utf-8").splitlines()
        edges.write_text("\n".join(lines + [f"{node_id} 2"]) + "\n", encoding="utf-8")
        assert cmd_train(config_path, edges, dataset["content"], tmp_path / "run",
                         quiet=True) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"{edges}:{len(lines) + 1}: " in err[0]
        assert not (tmp_path / "run").exists()


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

    @pytest.mark.parametrize("command", ["eval", "export-attention"])
    @pytest.mark.parametrize("patch", [{"warp_speed": True}, {"lr": -1}, {"seed": "x"},
                                       {"train_fraction": 2}],
                             ids=["unknown-key", "negative-lr", "string-seed",
                                  "fraction-above-one"])
    def test_invalid_stored_config_is_data_error(self, dataset, config_path, tmp_path,
                                                 capsys, command, patch):
        out = tmp_path / "run"
        cmd_train(config_path, dataset["edges"], dataset["content"], out, quiet=True)
        config, params, terms, labels = load_checkpoint(out / "model.ckpt")
        save_checkpoint(out / "model.ckpt", {**config.to_dict(), **patch}, params, terms,
                        labels)
        capsys.readouterr()
        target = tmp_path / "attention.json"
        if command == "eval":
            code = cmd_eval(out / "model.ckpt", dataset["edges"], dataset["content"],
                            split_seed=1, quiet=True)
        else:
            code = cmd_export_attention(out / "model.ckpt", dataset["edges"],
                                        dataset["content"], 0, target, quiet=True)
        assert code == 3
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "config" in err[0]
        assert captured.out == "" and not target.exists()

    @pytest.mark.parametrize("name, reshape", [
        ("lstm_fwd.weight", lambda w: np.hstack((w, w[:, :1]))),
        ("lstm_bwd.bias", lambda b: np.vstack((b, b))),
        ("attention.score_vector", lambda v: np.hstack((v, v[:, :1]))),
    ], ids=["weight-extra-column", "bias-two-rows", "score-vector-wider"])
    def test_misshapen_tensor_is_data_error(self, dataset, config_path, tmp_path, capsys,
                                            name, reshape):
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config_path.write_text(json.dumps({**config, "variant": "self"}), encoding="utf-8")
        out = tmp_path / "run"
        cmd_train(config_path, dataset["edges"], dataset["content"], out, quiet=True)
        config, params, terms, labels = load_checkpoint(out / "model.ckpt")
        tensor = dict(params.named_parameters())[name]
        tensor.data = reshape(tensor.data)
        save_checkpoint(out / "model.ckpt", config.to_dict(), params, terms, labels)
        capsys.readouterr()
        assert cmd_eval(out / "model.ckpt", dataset["edges"], dataset["content"],
                        split_seed=1, quiet=True) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and name in err[0]

    def test_reordered_content_is_data_error(self, dataset, config_path, tmp_path, capsys):
        # token and label ids follow first appearance, so the same lines in
        # another order would silently remap them
        out = tmp_path / "run"
        cmd_train(config_path, dataset["edges"], dataset["content"], out, quiet=True)
        lines = Path(dataset["content"]).read_text(encoding="utf-8").splitlines(keepends=True)
        reordered = tmp_path / "reordered.tsv"
        reordered.write_text("".join(reversed(lines)), encoding="utf-8")
        capsys.readouterr()
        assert cmd_eval(out / "model.ckpt", dataset["edges"], reordered,
                        split_seed=1, quiet=True) == 3
        assert cmd_export_attention(out / "model.ckpt", dataset["edges"], reordered, 0,
                                    tmp_path / "x.json", quiet=True) == 3
        assert capsys.readouterr().err.count("checkpoint") == 2
        assert not (tmp_path / "x.json").exists()


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

    def test_replace_ratio_above_bound_is_input_error(self, dataset, config_path, tmp_path):
        spec = self.write_spec(tmp_path, dataset, {
            "axis": "noise-replace", "values": [0.3, 0.9], "variants": ["self"], "seeds": [1]})
        out = tmp_path / "noise.csv"
        assert cmd_sweep(config_path, spec, out, quiet=True) == 2
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_dimensions_too_large_to_hold_are_input_errors(self, dataset, config_path,
                                                           tmp_path, capsys, threads):
        spec = self.write_spec(tmp_path, dataset, {
            "axis": "d_h", "values": [10 ** 20], "variants": ["baseline_gcn"], "seeds": [1]})
        out = tmp_path / "out.csv"
        assert main(["--quiet", "--threads", threads, "sweep", "--config", str(config_path),
                     "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the configured dimensions are too large")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_sweep_reruns_identically(self, dataset, config_path, tmp_path):
        spec = self.write_spec(tmp_path, dataset, {
            "axis": "p", "values": [0.5], "variants": ["none"], "seeds": [4]})
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        cmd_sweep(config_path, spec, out_a, quiet=True)
        cmd_sweep(config_path, spec, out_b, quiet=True)
        assert out_a.read_bytes() == out_b.read_bytes()


    def test_threads_apply_to_parameter_axes(self, dataset, config_path, tmp_path, monkeypatch):
        spec = self.write_spec(tmp_path, dataset, {
            "axis": "d_h", "values": [3, 4], "variants": ["self", "none"], "seeds": [1, 2]})
        serial, threaded = tmp_path / "serial.csv", tmp_path / "threaded.csv"
        assert main(["--quiet", "sweep", "--config", str(config_path), "--spec", str(spec),
                     "--out", str(serial)]) == 0
        pools = []
        pool_class = fagcn.noise.ThreadPoolExecutor

        def recording_pool(max_workers):
            pools.append(max_workers)
            return pool_class(max_workers=max_workers)

        monkeypatch.setattr(fagcn.noise, "ThreadPoolExecutor", recording_pool)
        assert main(["--quiet", "--threads", "2", "sweep", "--config", str(config_path),
                     "--spec", str(spec), "--out", str(threaded)]) == 0
        assert pools == [2]
        assert threaded.read_bytes() == serial.read_bytes()


    @pytest.mark.parametrize("axis, values, variants, seeds", [
        ("d_h", [3, 4], ["self", "bogus"], [1, 2]),
        ("d_h", [4, 0], ["self"], [1, 2]),
        ("p", [0.4, 1.5], ["self"], [1, 2]),
        ("d_h", [3], ["self"], [1, -1]),
        ("noise-inject", [0.0, 0.2], ["none", "bogus"], [1, 2]),
    ])
    def test_every_cell_is_validated_before_any_trains(self, dataset, config_path, tmp_path,
                                                       monkeypatch, axis, values, variants,
                                                       seeds):
        spec = self.write_spec(tmp_path, dataset, {
            "axis": axis, "values": values, "variants": variants, "seeds": seeds})
        calls = []
        real_train = fagcn.training.train

        def counting_train(*args):
            calls.append(args)
            return real_train(*args)

        monkeypatch.setattr(fagcn.training, "train", counting_train)
        out = tmp_path / "out.csv"
        assert main(["--quiet", "sweep", "--config", str(config_path), "--spec", str(spec),
                     "--out", str(out)]) == 2
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_are_input_errors(self, dataset, config_path, tmp_path,
                                                monkeypatch, threads):
        spec = self.write_spec(tmp_path, dataset, {
            "axis": "d_h", "values": [3], "variants": ["self"], "seeds": [1]})

        def no_loading(*args):
            raise AssertionError("loaded data although --threads is invalid")

        monkeypatch.setattr(fagcn.cli, "_load_data", no_loading)
        out = tmp_path / "out.csv"
        assert main(["--quiet", "--threads", threads, "sweep", "--config", str(config_path),
                     "--spec", str(spec), "--out", str(out)]) == 2
        assert not out.exists()


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

    def test_unwritable_output_leaves_no_temporary_file(self, dataset, config_path, tmp_path,
                                                        capsys):
        out = tmp_path / "run"
        (out / "model.ckpt").mkdir(parents=True)
        assert cmd_train(config_path, dataset["edges"], dataset["content"], out,
                         quiet=True) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(os.listdir(out)) == ["model.ckpt"]
        assert not list(tmp_path.rglob("*.tmp.*"))

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
        config, params, terms, labels = load_checkpoint(out / "model.ckpt")
        for _, tensor in params.named_parameters():
            tensor.data[:] = float("nan")
        save_checkpoint(out / "model.ckpt", config.to_dict(), params, terms, labels)
        assert cmd_eval(out / "model.ckpt", dataset["edges"], dataset["content"],
                        split_seed=1, quiet=True) == 4

    @pytest.mark.parametrize("command", ["train", "threaded-sweep"])
    def test_a_numeric_failure_prints_only_its_error_line(self, dataset, tmp_path, command):
        # the loss overflows in the first epoch; numpy's warnings about it
        # must not precede the error line, from a sweep's worker threads either
        config = tmp_path / "diverging.json"
        config.write_text(json.dumps({"embed_dim": 8, "feature_dim": 8, "hidden_dim": 4,
                                      "epochs": 5, "seed": 1, "lr": 1e300}), encoding="utf-8")
        if command == "train":
            args = ["train", "--config", config, "--edges", dataset["edges"],
                    "--content", dataset["content"], "--out", tmp_path / "run"]
        else:
            spec = tmp_path / "sweep.json"
            spec.write_text(json.dumps({
                "axis": "noise-inject", "values": [0, 0.5], "variants": ["self", "baseline_gcn"],
                "seeds": [1, 2], "content": str(dataset["content"]),
                "edges": str(dataset["edges"])}), encoding="utf-8")
            args = ["--threads", "2", "sweep", "--config", config, "--spec", spec,
                    "--out", tmp_path / "out.csv"]
        result = run_module("--quiet", *args, OPENBLAS_NUM_THREADS="1")
        assert result.returncode == 4
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: ")

    def test_an_overflowing_attention_export_prints_only_its_error_line(
            self, dataset, config_path, tmp_path):
        # weights of 1e300 are finite, so the checkpoint loads; the encoder
        # overflows, and its saturating gates return finite rows
        cmd_train(config_path, dataset["edges"], dataset["content"], tmp_path / "run",
                  quiet=True)
        checkpoint = tmp_path / "run" / "model.ckpt"
        config, params, terms, labels = load_checkpoint(checkpoint)
        for _, tensor in params.named_parameters():
            tensor.data[:] = 1e300
        save_checkpoint(checkpoint, config.to_dict(), params, terms, labels)
        result = run_module("--quiet", "export-attention", "--checkpoint", checkpoint,
                            "--edges", dataset["edges"], "--content", dataset["content"],
                            "--node", 0, "--out", tmp_path / "attention.json")
        assert result.returncode == 4
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: ")
        assert not (tmp_path / "attention.json").exists()


class TestDatasetsEntryPoint:
    def test_writes_a_dataset(self, tmp_path, capsys):
        assert fagcn.datasets.main([str(tmp_path / "data"), "3"]) == 0
        assert sorted(os.listdir(tmp_path / "data")) == ["content.tsv", "edges.txt"]
        assert capsys.readouterr().out.startswith("wrote ")

    @pytest.mark.parametrize("seed", ["1.5", "x", "", "-3", "+3", "1_0", "٣"])
    def test_bad_seed_is_input_error(self, tmp_path, capsys, seed):
        assert fagcn.datasets.main([str(tmp_path / "data"), seed]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "SEED" in err[0]
        assert not (tmp_path / "data").exists()

    def test_out_dir_that_cannot_be_created_is_input_error(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("keep", encoding="utf-8")
        assert fagcn.datasets.main([str(tmp_path / "taken" / "data")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert (tmp_path / "taken").read_text(encoding="utf-8") == "keep"


# argv reaching each integer option, with {} where its value goes
INT_OPTIONS = {
    "--seed": ["--seed", "{}", "train", "--config", "c", "--edges", "e",
               "--content", "t", "--out", "o"],
    "--threads": ["--threads", "{}", "sweep", "--config", "c", "--spec", "s", "--out", "o"],
    "--split-seed": ["eval", "--checkpoint", "k", "--edges", "e", "--content", "t",
                     "--split-seed", "{}"],
    "--node": ["export-attention", "--checkpoint", "k", "--edges", "e", "--content", "t",
               "--node", "{}", "--out", "o"],
}


class TestIntegerOptions:
    @pytest.mark.parametrize("value", ["1_0", "+3", "٣", "abc"])
    @pytest.mark.parametrize("option", INT_OPTIONS)
    def test_only_ascii_digits_parse(self, option, value, capsys):
        argv = [arg.format(value) for arg in INT_OPTIONS[option]]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {option}: invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["3", "-3", "007"])
    @pytest.mark.parametrize("option", INT_OPTIONS)
    def test_ascii_integers_parse_as_before(self, option, value):
        args = build_parser().parse_args([arg.format(value) for arg in INT_OPTIONS[option]])
        assert getattr(args, option[2:].replace("-", "_")) == int(value)


class TestEntryPoint:
    def test_main_dispatches(self, dataset, config_path, tmp_path):
        code = main(["--quiet", "train", "--config", str(config_path),
                     "--edges", str(dataset["edges"]),
                     "--content", str(dataset["content"]),
                     "--out", str(tmp_path / "run")])
        assert code == 0

    def test_module_invocation(self, dataset, config_path, tmp_path):
        result = run_module("--quiet", "eval", "--checkpoint", tmp_path / "missing.ckpt",
                            "--edges", dataset["edges"], "--content", dataset["content"],
                            "--split-seed", "1")
        assert result.returncode == 2
