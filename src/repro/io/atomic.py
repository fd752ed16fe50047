"""Atomic, durable file writes shared by every persistence layer.

The fleet ledger, the fleet store's templates, the work-queue runtime's
task and result files — every on-disk artifact that another process (or
a crashed run's successor) may read concurrently is written the same
way: to a temp file in the destination directory, fsynced, then
``os.replace``\\ d into place, and the directory fsynced after the
rename.  A reader therefore only ever sees a complete file or no file,
never a torn one, and a power loss after the write returns cannot bring
back an empty file or the old one.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union

__all__ = ["atomic_write_text"]


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` atomically and durably.

    The temp file lands in the destination directory so the final
    ``os.replace`` is a same-filesystem rename — atomic on POSIX.  Its
    data is fsynced before the rename (so the rename never points at
    blocks that are not on disk yet) and the directory is fsynced after
    it (so the rename itself survives a power loss).  On any failure
    before the rename the temp file is removed and the destination is
    left untouched.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="ascii") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
