"""JSON formatting, JSON decoding and atomic file writes shared by every
reader and writer."""

from __future__ import annotations

import json
import os
import re


def json_text(payload) -> str:
    """The one JSON layout every written or printed document uses. JSON has
    no infinity, so +-inf is written 1e999 / -1e999: strict JSON numbers
    that decoders read back as +-inf."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if "Infinity" not in text:
        return text
    # the indent puts each value on a line of its own, after its key if it
    # has one, and a string's newlines are escaped, so a line that ends in a
    # bare Infinity is a number
    return re.sub(r'^( *(?:"(?:[^"\\]|\\.)*": )?-?)Infinity(,?)$', r"\g<1>1e999\2", text,
                  flags=re.MULTILINE)


def json_value(text):
    """Decode one JSON document. Nesting too deep for the decoder raises
    the ``JSONDecodeError`` that any other malformed text raises."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, 0) from None


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
