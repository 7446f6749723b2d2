"""Input files read as UTF-8 text, with decode errors that name a line."""

from __future__ import annotations

from contextlib import contextmanager


@contextmanager
def open_utf8(path, error, newline=None):
    """The lines of the file at path, read once as UTF-8 text.

    Each line is checked as its caller reaches it, so a fault on an earlier
    line is raised first. A byte sequence that is not UTF-8 raises
    ``error`` with the message ``PATH:LINE: not valid UTF-8``. A byte order
    mark at the start raises ``error`` too, rather than joining the first
    line. Lines are split as text mode splits them, so a pipe reads as a
    file does.
    """
    with open(path, encoding="utf-8", errors="surrogateescape", newline=newline) as fh:
        yield _checked_lines(fh, path, error)


def _checked_lines(fh, path, error):
    """The lines of fh, each checked before it is yielded."""
    for line_no, line in enumerate(fh, start=1):
        if not line.isascii():
            if line_no == 1 and line.startswith("\ufeff"):
                raise error(f"{path}:1: file starts with a byte order mark; save it without one")
            try:
                # A byte that is not UTF-8 was read as a lone surrogate, which no text holds.
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise error(f"{path}:{line_no}: not valid UTF-8") from None
        yield line
