"""Atomic text output: write to a sibling temp file, then rename over the target."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def write_text_atomic(path: str | Path, text: str, encoding: str = "utf-8") -> None:
    """Replace ``path`` with ``text`` in one rename. The file gets the mode a
    plain ``open`` would give it (0o666 less the umask), not mkstemp's 0600.
    A killed process never leaves a half-written target; with no fsync, the
    write is not made durable against power loss."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent) if str(path.parent) else ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding=encoding) as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
