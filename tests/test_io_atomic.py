"""Durable atomic writes: fsync the data before the rename, the directory after."""

import errno
import os
import stat

import pytest

from repro.io.atomic import atomic_write_text


def _record_syncs(monkeypatch):
    """Log every fsync (file or directory, by inode) and every replace."""
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        info = os.fstat(fd)
        kind = "dir" if stat.S_ISDIR(info.st_mode) else "file"
        events.append(("fsync", kind, info.st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.stat(src).st_ino))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return events


class TestDurableAtomicWrite:
    def test_file_synced_before_replace_directory_after(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "ledger.json"
        path.write_text("old")
        events = _record_syncs(monkeypatch)
        atomic_write_text(path, "payload")
        file_ino = path.stat().st_ino
        dir_ino = tmp_path.stat().st_ino
        assert events == [
            ("fsync", "file", file_ino),
            ("replace", file_ino),
            ("fsync", "dir", dir_ino),
        ]
        assert path.read_text() == "payload"

    def test_fsync_error_leaves_destination_and_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "ledger.json"
        path.write_text("original")

        def failing_fsync(fd):
            raise OSError(errno.EIO, "simulated disk fault")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="simulated disk fault"):
            atomic_write_text(path, "replacement")
        assert path.read_text() == "original"
        assert [p.name for p in tmp_path.iterdir()] == ["ledger.json"]

    def test_fsync_error_on_a_new_file_creates_nothing(
        self, tmp_path, monkeypatch
    ):
        def failing_fsync(fd):
            raise OSError(errno.ENOSPC, "simulated full disk")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="full disk"):
            atomic_write_text(tmp_path / "status.json", "{}")
        assert list(tmp_path.iterdir()) == []
