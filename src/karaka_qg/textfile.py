"""Input files opened as UTF-8 text, with decode errors that name a line."""

from __future__ import annotations

import codecs
import io
from contextlib import contextmanager


@contextmanager
def open_utf8(path, error, newline=None):
    """The file at path opened for reading as UTF-8 text.

    A byte sequence that is not UTF-8 raises ``error`` with the message
    ``PATH:LINE: not valid UTF-8``. The line is worked out only then, so
    reading a well-formed file costs nothing extra. A byte order mark at
    the start raises ``error`` too, rather than joining the first line.
    """
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            if fh.buffer.peek(3).startswith(codecs.BOM_UTF8):
                raise error(f"{path}:1: file starts with a byte order mark; save it without one")
            yield fh
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                line = _first_bad_line(raw.read())
            raise error(f"{path}:{line}: not valid UTF-8") from None


def _first_bad_line(data: bytes) -> int:
    """Line of the first byte that is not UTF-8, with lines split as text mode splits them."""
    start = len(data)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        start = exc.start
    good = data[:start].decode("utf-8")
    return io.StringIO(good, newline=None).read().count("\n") + 1
