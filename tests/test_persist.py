import os
import stat

import pytest

from adastrat import persist


def test_atomic_write_text_uses_unique_temp_files(tmp_path, monkeypatch):
    target = tmp_path / "doc.json"
    temps = []
    replace = os.replace

    def recording_replace(src, dst):
        temps.append(src)
        replace(src, dst)

    monkeypatch.setattr(persist.os, "replace", recording_replace)
    persist.atomic_write_text(target, "one\n")
    persist.atomic_write_text(target, "two\n")
    assert len(set(temps)) == 2
    assert all(os.path.dirname(t) == str(tmp_path) for t in temps)
    assert target.read_text() == "two\n"
    assert os.listdir(tmp_path) == ["doc.json"]
    # the written file gets the mode the umask gives, like any new file
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask


def test_failed_atomic_write_leaves_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "doc.json"
    target.write_text("old\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(persist.os, "replace", failing_replace)
    with pytest.raises(OSError):
        persist.atomic_write_text(target, "new\n")
    assert target.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["doc.json"]
