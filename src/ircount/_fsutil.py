"""Atomic text output: write to a sibling temp file, then rename over the target."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

_SLICE = 2**20  # characters encoded at a time: 1 MiB of ASCII text


def write_text_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text``, UTF-8 encoded, in one rename. The
    text is encoded in 1 MiB slices, so the call holds one copy of it, not
    two. The file gets the mode a plain ``open`` would give it (0o666 less
    the umask, applied by the kernel), not mkstemp's 0600. A killed process
    never leaves a half-written target; with no fsync, the write is not
    made durable against power loss. An ``OSError`` comes back as one of
    the same type that names ``path``, not the temp file, which is removed
    if this call created it."""
    path = Path(path)
    tmp = None
    try:
        name = path.parent / f"tmp{os.urandom(8).hex()}.tmp"
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for start in range(0, len(text), _SLICE):
                fh.write(text[start:start + _SLICE])
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise type(exc)(exc.errno, exc.strerror, str(path)) from exc
        raise
