"""Crash- and rsync-safe file writes.

Every durable artifact of a sweep — result-store entries and
``repro sweep --output`` files — goes through
:func:`atomic_write_text`: the payload is written to a ``.tmp-*`` file
in the destination directory, fsync'd, and ``os.replace``d into place.
A reader (or an ``rsync`` of the directory) therefore only ever observes
either the previous complete file or the new complete file, never a
partially written one — the property the distributed shard-and-merge
workflow (:mod:`repro.eval.distributed`) and the long-running result
service (:mod:`repro.eval.serve`) rely on when cache directories are
copied between hosts or read mid-run.

Two distinct failure modes are covered:

* **Killed writer** (process dies): ``os.replace`` is atomic, so the
  destination keeps its previous complete content and the temp file is
  skippable debris.
* **Power loss** (whole host dies): rename atomicity is a *metadata*
  property — without an ``fsync`` of the temp file the journal can
  commit the rename before the data blocks hit disk, leaving a
  zero-length or garbage entry under the *new* name after recovery.
  The temp file is therefore fsync'd before the rename, and the
  directory is fsync'd (best-effort: some platforms/filesystems refuse
  to open directories) afterwards so the rename itself is durable.

Temp files are dot-prefixed so the store's directory scan
(:meth:`repro.eval.cache.ResultStore.scan`) can tell debris a killed
writer left behind from entries; :func:`is_temp_file` names the
convention once.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

#: Prefix of in-flight temp files (dot-prefixed: entry scans skip them).
TEMP_PREFIX = ".tmp-"


def is_temp_file(path: "Path | str") -> bool:
    """Whether ``path`` is an in-flight/abandoned atomic-write temp file."""
    return Path(path).name.startswith(TEMP_PREFIX)


def fsync_dir(directory: "Path | str") -> None:
    """Best-effort fsync of a directory (makes a rename in it durable).

    Directory fds are a POSIX affordance: some platforms (Windows) and
    filesystems refuse to open or fsync them, and a store that cannot
    persist the rename record is still correct after a crash — the
    entry is merely recomputed.  So every failure here is swallowed.
    """
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(directory, flags)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: "Path | str", text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8; readers see no partial file.

    The temp file lives in ``path``'s directory (``os.replace`` must not
    cross filesystems).  On any failure — including the writer dying
    mid-write — the destination keeps its previous content; the temp
    file is removed when this code still runs, and is skippable debris
    (see :func:`is_temp_file`) when it does not.  ``OSError`` propagates:
    callers decide whether a failed write is fatal (a sweep's
    ``--output`` file) or best-effort (a cache entry).

    The temp file is fsync'd before the rename and the directory after
    it, extending the contract from "killed writer" to "power loss":
    without the data fsync a crash shortly after :func:`os.replace` can
    surface a zero-length file under the destination name once the
    journal replays.
    """
    path = Path(path)
    handle, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=TEMP_PREFIX, suffix=path.suffix or ".part")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as tmp:
            tmp.write(text)
            # mkstemp creates 0600; give the replaced file the ordinary
            # umask-governed mode instead — shard stores and sweep
            # outputs are exactly the files other users/uids read off a
            # shared or rsync'd directory.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(tmp.fileno(), 0o666 & ~umask)
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass        # already replaced, or the directory vanished
        raise
    fsync_dir(path.parent)
