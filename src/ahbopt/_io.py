"""Number and JSON formatting and atomic file writes shared by every writer."""

from __future__ import annotations

import json
import os


def fmt(value) -> str:
    # 17 significant digits round-trip any double exactly.
    return f"{float(value):.17g}"


def json_text(payload) -> str:
    """The one JSON layout every written or printed document uses."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def atomic_write(path, text) -> None:
    """Write ``text`` to ``path`` through a temporary file in the same
    directory and a rename, so a crash cannot leave a partial file there.

    The temporary file is created with mode 0o666 and the process umask
    applies, so the result has the mode a plain ``open`` would give it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-write-{os.urandom(8).hex()}")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
