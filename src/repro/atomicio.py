"""Crash-safe filesystem writes: the one atomic-write idiom for the repo.

Every durable artifact this system produces — cache entries, training
checkpoints, published model versions, stats snapshots, run manifests —
must survive a process dying at *any* instruction.  The idiom that
guarantees it is always the same three steps:

1. write the complete payload into a **dot-prefixed temp** sibling
   (same filesystem, so the rename below is atomic);
2. **fsync** the payload (and, for directories, every file in it) so
   the bytes are durable before they become visible;
3. **``os.replace``** the temp over the final name — readers see either
   the old complete state or the new complete state, never a hybrid —
   then fsync the parent directory so the rename itself is durable.

This module is that idiom, written once, instrumented with
:mod:`repro.chaos` failpoints so the chaos suite can kill the process at
every stage and prove the invariant.  Call sites pass a ``site`` name
(``"cache.store"``, ``"ckpt.save"``, ...); the writers emit the
``<site>.<subpoint>`` failpoints listed in
:data:`repro.chaos.WRITE_SUBPOINTS`.

A kill before the rename leaves only a dot-prefixed orphan; a kill after
leaves a complete result plus (at worst) the same orphan.  Orphans are
reclaimed by :func:`sweep_orphans`, which writers run *before* creating
new temps — the directory converges instead of accumulating junk.

``durable=False`` skips the fsyncs (atomicity without the flush cost)
for files whose loss on power-cut is acceptable — per-second stats
snapshots, benchmark reports — while keeping the torn-write protection.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Optional, Tuple, Union

from . import chaos

PathLike = Union[str, Path]

#: Glob patterns of in-flight / discarded temp entries this module (and
#: its pre-existing idioms around the repo) may leave behind on a crash.
ORPHAN_PATTERNS: Tuple[str, ...] = (
    ".*.tmp-*",      # atomic_write_bytes temps
    ".tmp-*",        # atomic_write_dir + pipeline cache temps
    ".ckpt-*",       # train-state checkpoint temps
    ".old-*",        # replace_dir displaced-backup dirs
    ".publish-*",    # registry publish temps
    ".trash-*",      # rename-to-trash deletion staging
)


def fsync_dir(path: PathLike) -> None:
    """fsync a directory so a rename inside it survives power loss.

    Best-effort: some filesystems (and all of Windows) refuse directory
    fds; atomicity never depends on this, only post-crash durability of
    the rename itself.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def sweep_orphans(
    directory: PathLike, patterns: Iterable[str] = ORPHAN_PATTERNS
) -> int:
    """Delete leftover temp/trash entries under ``directory``.

    Safe to call any time by the directory's single logical writer:
    every pattern is dot-prefixed, and dot-prefixed names are never part
    of the committed state (readers skip them by contract).  Returns the
    number of entries removed.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return 0
    removed = 0
    for pattern in patterns:
        for stale in directory.glob(pattern):
            try:
                if stale.is_dir():
                    shutil.rmtree(stale, ignore_errors=True)
                else:
                    stale.unlink()
                removed += 1
            except OSError:
                continue
    return removed


# ----------------------------------------------------------------------
# Single-file atomic writes
# ----------------------------------------------------------------------
def atomic_write_bytes(
    path: PathLike, data: bytes, site: str = "write", durable: bool = True
) -> Path:
    """Atomically replace ``path`` with ``data`` (tmp → fsync → rename).

    ``site`` names the chaos failpoints this write emits
    (``<site>.setup`` … ``<site>.after``); ``durable=False`` skips the
    fsyncs but keeps the all-or-nothing rename.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    chaos.failpoint(site + ".setup")
    try:
        with open(tmp, "wb") as fh:
            fraction = chaos.partial_fraction(site + ".payload")
            if fraction is not None:
                # Torn-write injection: put a real prefix on disk, make
                # it durable, then die — exactly what power loss during
                # a non-atomic in-place write would leave behind.
                fh.write(data[: int(len(data) * fraction)])
                fh.flush()
                os.fsync(fh.fileno())
                chaos.tear(site + ".payload")
            fh.write(data)
            chaos.failpoint(site + ".payload")
            fh.flush()
            if durable and chaos.fsync_enabled(site + ".fsync"):
                os.fsync(fh.fileno())
        chaos.failpoint(site + ".rename")
        os.replace(tmp, path)
        chaos.failpoint(site + ".after")
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    if durable:
        fsync_dir(path.parent)
    return path


def atomic_write_text(
    path: PathLike, text: str, site: str = "write", durable: bool = True
) -> Path:
    """:func:`atomic_write_bytes` for UTF-8 text."""
    return atomic_write_bytes(path, text.encode("utf-8"), site=site, durable=durable)


def atomic_write_json(
    path: PathLike,
    value: Any,
    site: str = "write",
    durable: bool = True,
    **dump_kwargs: Any,
) -> Path:
    """:func:`atomic_write_bytes` for a JSON document."""
    return atomic_write_text(
        path, json.dumps(value, **dump_kwargs), site=site, durable=durable
    )


def merge_json(
    path: PathLike,
    sections: Dict[str, Any],
    site: str = "write",
    durable: bool = True,
    **dump_kwargs: Any,
) -> Path:
    """Read-merge-write: set ``sections`` in the JSON object at ``path``.

    Other top-level keys are kept; a missing, torn or non-object file
    counts as empty.  The write is :func:`atomic_write_json`, so a run
    that stops early leaves the previous complete file, never a torn one.
    """
    try:
        current = json.loads(Path(path).read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError):
        current = {}
    if not isinstance(current, dict):
        current = {}
    current.update(sections)
    return atomic_write_json(path, current, site=site, durable=durable, **dump_kwargs)


# ----------------------------------------------------------------------
# Directory-granularity atomic writes
# ----------------------------------------------------------------------
def fsync_tree(directory: PathLike) -> None:
    """fsync every file under ``directory`` (pre-rename durability)."""
    directory = Path(directory)
    for child in sorted(directory.rglob("*")):
        if not child.is_file():
            continue
        fd = os.open(str(child), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def replace_dir(src: Path, dst: Path) -> None:
    """``os.replace`` for directories, tolerating a populated ``dst``.

    POSIX ``rename`` refuses a non-empty destination directory, so an
    existing ``dst`` is first renamed aside (atomic), then ``src`` is
    promoted (atomic), then the displaced backup is dropped.  A crash
    between the two renames leaves a recoverable state: the backup is a
    dot-prefixed orphan and ``src`` is still a complete temp — the next
    sweep-and-retry converges.
    """
    try:
        os.replace(src, dst)
    except OSError:
        backup = dst.parent / f".old-{dst.name}-{os.getpid()}"
        shutil.rmtree(backup, ignore_errors=True)
        os.replace(dst, backup)
        os.replace(src, dst)
        shutil.rmtree(backup, ignore_errors=True)


def atomic_write_dir(
    path: PathLike,
    writer: Callable[[Path], None],
    site: str = "write",
    durable: bool = True,
    tmp_prefix: Optional[str] = None,
) -> Path:
    """Atomically (re)create the directory ``path`` via ``writer(tmp)``.

    ``writer`` populates a fresh dot-prefixed temp directory (same
    parent); the temp is fsynced file-by-file and promoted over ``path``
    with :func:`replace_dir`.  Emits the standard ``<site>.*``
    failpoints: ``setup`` after the temp exists, ``payload`` after the
    writer ran, ``fsync`` at the durability point, ``rename`` just
    before promotion, ``after`` just after.  On any failure the temp is
    removed and the previous ``path`` (if any) is untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(
        tempfile.mkdtemp(prefix=tmp_prefix or f".tmp-{path.name[:16]}-", dir=path.parent)
    )
    try:
        chaos.failpoint(site + ".setup")
        writer(tmp)
        chaos.failpoint(site + ".payload")
        if durable and chaos.fsync_enabled(site + ".fsync"):
            fsync_tree(tmp)
        chaos.failpoint(site + ".rename")
        replace_dir(tmp, path)
        chaos.failpoint(site + ".after")
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if durable:
        fsync_dir(path.parent)
    return path


# ----------------------------------------------------------------------
# Crash-safe deletion
# ----------------------------------------------------------------------
def remove_dir(path: PathLike) -> bool:
    """Delete a directory without ever exposing a half-deleted state.

    ``shutil.rmtree`` on a live directory deletes files one by one — a
    concurrent reader can observe an entry whose marker file still
    exists but whose payload is already gone (a *half-visible* entry).
    Renaming the directory to a dot-prefixed trash name first makes the
    deletion atomic from every reader's point of view: the entry is
    either fully there or fully absent.  The trash is then removed (and
    would be reclaimed by :func:`sweep_orphans` after a crash anyway).
    Returns False when ``path`` did not exist (e.g. a concurrent
    deleter won the rename).
    """
    path = Path(path)
    trash = path.parent / f".trash-{path.name}-{os.getpid()}"
    try:
        os.replace(path, trash)
    except FileNotFoundError:
        return False
    except OSError:
        # Cross-device or exotic failure: fall back to direct removal.
        shutil.rmtree(path, ignore_errors=True)
        return True
    shutil.rmtree(trash, ignore_errors=True)
    return True
