"""Shared helpers: atomic writes leave either the whole file or nothing."""

import os

import pytest

from fagcn.util import atomic_write_bytes, atomic_write_text


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.csv"
        atomic_write_text(path, "first\n")
        atomic_write_bytes(path, b"second\n")
        assert path.read_bytes() == b"second\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_failed_replace_leaves_no_temporary_file(self, tmp_path):
        target = tmp_path / "out.csv"
        target.mkdir()
        with pytest.raises(IsADirectoryError):
            atomic_write_text(target, "rows\n")
        assert os.listdir(tmp_path) == ["out.csv"]
        assert target.is_dir() and not os.listdir(target)

    def test_failed_write_leaves_no_temporary_file(self, tmp_path):
        class Unwritable:
            def __len__(self):
                return 1

        with pytest.raises(TypeError):
            atomic_write_bytes(tmp_path / "out.bin", Unwritable())
        assert os.listdir(tmp_path) == []
