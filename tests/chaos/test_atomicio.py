"""Atomic-write idiom under fire: SIGKILL at every failpoint.

The unit half checks the happy-path contracts (replace semantics,
orphan sweep, rename-to-trash deletion).  The crash half re-runs a
small writer in a *subprocess* with ``REPRO_CHAOS=<site>.<sub>=kill``
armed for each :data:`repro.chaos.WRITE_SUBPOINTS` stage and asserts
the invariant that justifies the whole module: after the kill, the
destination holds either the complete old value or the complete new
value — never a torn hybrid — and a sweep-and-retry converges.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro import atomicio, chaos

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_child(code, chaos_spec=None, log_path=None):
    """Run ``code`` in a fresh interpreter; returns the CompletedProcess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    env.pop(chaos.ENV_VAR, None)
    if chaos_spec is not None:
        env[chaos.ENV_VAR] = chaos_spec
    if log_path is not None:
        env[chaos.LOG_ENV] = str(log_path)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )


class TestAtomicWriteUnit:
    def test_bytes_roundtrip(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomicio.atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"
        assert list(tmp_path.iterdir()) == [path]  # no leftover temp

    def test_replace_existing(self, tmp_path):
        path = tmp_path / "doc.json"
        atomicio.atomic_write_json(path, {"v": 1})
        atomicio.atomic_write_json(path, {"v": 2})
        assert json.loads(path.read_text()) == {"v": 2}

    def test_durable_false_still_atomic(self, tmp_path):
        path = tmp_path / "stats.json"
        atomicio.atomic_write_json(path, {"n": 3}, durable=False)
        assert json.loads(path.read_text()) == {"n": 3}

    def test_merge_json_keeps_other_sections(self, tmp_path):
        path = tmp_path / "BENCH.json"
        atomicio.merge_json(path, {"a": 1, "b": {"x": 1}})
        atomicio.merge_json(path, {"b": {"y": 2}, "c": 3}, durable=False)
        assert json.loads(path.read_text()) == {"a": 1, "b": {"y": 2}, "c": 3}
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("old", ["{torn", "[1, 2]", None])
    def test_merge_json_treats_unreadable_as_empty(self, tmp_path, old):
        path = tmp_path / "BENCH.json"
        if old is not None:
            path.write_text(old)
        atomicio.merge_json(path, {"a": 1})
        assert json.loads(path.read_text()) == {"a": 1}

    def test_merge_json_error_leaves_old_file(self, tmp_path):
        path = tmp_path / "BENCH.json"
        atomicio.merge_json(path, {"a": 1})
        with chaos.chaos("bench.merge.payload=err"):
            with pytest.raises(OSError):
                atomicio.merge_json(path, {"b": 2}, site="bench.merge")
        assert json.loads(path.read_text()) == {"a": 1}

    def test_writer_error_leaves_old_value(self, tmp_path):
        path = tmp_path / "doc.txt"
        atomicio.atomic_write_text(path, "old")
        with chaos.chaos("site.payload=err"):
            with pytest.raises(OSError):
                atomicio.atomic_write_text(path, "new", site="site")
        assert path.read_text() == "old"
        assert list(tmp_path.iterdir()) == [path]

    def test_enospc_at_fsync_leaves_old_value(self, tmp_path):
        path = tmp_path / "doc.txt"
        atomicio.atomic_write_text(path, "old")
        with chaos.chaos("site.fsync=enospc"):
            with pytest.raises(OSError) as excinfo:
                atomicio.atomic_write_text(path, "new", site="site")
        assert excinfo.value.errno == __import__("errno").ENOSPC
        assert path.read_text() == "old"

    def test_dir_writer_error_leaves_old_dir(self, tmp_path):
        target = tmp_path / "entry"

        def good(tmp):
            (tmp / "a.txt").write_text("v1")

        def bad(tmp):
            (tmp / "a.txt").write_text("v2")
            raise OSError("disk on fire")

        atomicio.atomic_write_dir(target, good)
        with pytest.raises(OSError):
            atomicio.atomic_write_dir(target, bad)
        assert (target / "a.txt").read_text() == "v1"
        assert list(tmp_path.iterdir()) == [target]

    def test_replace_dir_over_populated_destination(self, tmp_path):
        src = tmp_path / ".tmp-new"
        dst = tmp_path / "final"
        src.mkdir()
        (src / "f").write_text("new")
        dst.mkdir()
        (dst / "f").write_text("old")
        (dst / "extra").write_text("old-only")
        atomicio.replace_dir(src, dst)
        assert (dst / "f").read_text() == "new"
        assert not (dst / "extra").exists()
        assert not src.exists()

    def test_sweep_orphans(self, tmp_path):
        for name in (".tmp-abc", ".ckpt-x", ".old-y-1", ".publish-z"):
            (tmp_path / name).mkdir()
        (tmp_path / ".doc.json.tmp-99").write_text("torn")
        (tmp_path / ".trash-gone-1").mkdir()
        (tmp_path / "real").mkdir()
        removed = atomicio.sweep_orphans(tmp_path)
        assert removed == 6
        assert [p.name for p in tmp_path.iterdir()] == ["real"]

    def test_sweep_missing_dir_is_zero(self, tmp_path):
        assert atomicio.sweep_orphans(tmp_path / "nope") == 0

    def test_remove_dir_is_atomic_to_readers(self, tmp_path):
        target = tmp_path / "entry"
        target.mkdir()
        (target / "payload").write_text("x")
        assert atomicio.remove_dir(target) is True
        assert not target.exists()
        # Nothing half-deleted or dot-prefixed left behind.
        assert list(tmp_path.iterdir()) == []

    def test_remove_dir_missing_returns_false(self, tmp_path):
        assert atomicio.remove_dir(tmp_path / "never-existed") is False


WRITE_FILE_CHILD = """
from repro import atomicio
atomicio.atomic_write_text({path!r}, "NEW" * 1000, site="site")
"""

WRITE_DIR_CHILD = """
from pathlib import Path
from repro import atomicio

def writer(tmp):
    (tmp / "a.txt").write_text("NEW")
    (tmp / "b.txt").write_text("NEW")

atomicio.atomic_write_dir(Path({path!r}), writer, site="site")
"""


class TestKillAtEveryFailpoint:
    @pytest.mark.parametrize("subpoint", chaos.WRITE_SUBPOINTS)
    def test_file_write_survives_kill(self, tmp_path, subpoint):
        path = tmp_path / "doc.txt"
        atomicio.atomic_write_text(path, "OLD")
        log = tmp_path / "chaos.log"
        if subpoint == "payload":
            # The torn write: half the bytes land on disk, then SIGKILL.
            spec = "site.payload=partial:0.5"
        else:
            spec = f"site.{subpoint}=kill"
        result = run_child(
            WRITE_FILE_CHILD.format(path=str(path)), chaos_spec=spec,
            log_path=log,
        )
        assert result.returncode == -signal.SIGKILL, result.stderr
        # The kill really happened at the armed failpoint.
        assert log.read_text().startswith(f"site.{subpoint} ")
        content = path.read_text()
        assert content in ("OLD", "NEW" * 1000), f"torn write visible: {content[:40]!r}"
        if subpoint in ("setup", "payload", "fsync", "rename"):
            assert content == "OLD"  # promotion never happened
        # Recovery: sweep the orphan, rewrite, converge.
        atomicio.sweep_orphans(tmp_path)
        atomicio.atomic_write_text(path, "NEW" * 1000, site="site")
        assert path.read_text() == "NEW" * 1000
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "chaos.log", "doc.txt",
        ]

    @pytest.mark.parametrize("subpoint", chaos.WRITE_SUBPOINTS)
    def test_dir_write_survives_kill(self, tmp_path, subpoint):
        target = tmp_path / "entry"

        def old_writer(tmp):
            (tmp / "a.txt").write_text("OLD")
            (tmp / "b.txt").write_text("OLD")

        atomicio.atomic_write_dir(target, old_writer)
        result = run_child(
            WRITE_DIR_CHILD.format(path=str(target)),
            chaos_spec=f"site.{subpoint}=kill",
        )
        assert result.returncode == -signal.SIGKILL, result.stderr
        # Invariant: both files agree — the entry is entirely old or
        # entirely new, never one of each.
        values = {(target / n).read_text() for n in ("a.txt", "b.txt")}
        assert len(values) == 1, f"hybrid directory state: {values}"
        # Recovery: sweep orphans and rewrite.
        atomicio.sweep_orphans(tmp_path)

        def new_writer(tmp):
            (tmp / "a.txt").write_text("NEW")
            (tmp / "b.txt").write_text("NEW")

        atomicio.atomic_write_dir(target, new_writer)
        assert (target / "a.txt").read_text() == "NEW"
        assert [p.name for p in tmp_path.iterdir()] == ["entry"]
