"""One text, one key and one line count per file content.

Every reader of PHP source (the record pass's include fold, the
whole-project call-edge pass, the scan's detector, the include context
and ``analyze_file``) reads a file's bytes, parses their
:func:`source_text` (UTF-8 with U+FFFD for invalid bytes, and universal
newlines: what a text-mode ``open`` gives), keys them by
:func:`content_key`, so a key always names one text, and counts their
:func:`line_count`, whether the file is then parsed or skipped.  A
string handed to the detector or the AST store stands for its UTF-8
encoding (:func:`content_bytes`).
"""

from __future__ import annotations

import hashlib

#: the content key of a file that cannot be read
MISSING = "missing"


def content_key(data: bytes) -> str:
    """The key of one content: the SHA-256 of its bytes, in hex."""
    return hashlib.sha256(data).hexdigest()


def content_bytes(source: str | bytes) -> bytes:
    """A file's bytes as read, or a string's UTF-8 encoding (a lone
    surrogate passes through, and decodes to U+FFFD)."""
    return source if isinstance(source, bytes) \
        else source.encode("utf-8", "surrogatepass")


def source_text(data: bytes) -> str:
    """The text every reader parses from a content's bytes."""
    text = data.decode("utf-8", "replace")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def line_count(data: bytes) -> int:
    """Lines of :func:`source_text` of *data*, counted on the bytes (the
    decoder never folds a newline or carriage-return byte into U+FFFD)."""
    lines = data.count(b"\n") + 1
    returns = data.count(b"\r")
    if returns:
        lines += returns - data.count(b"\r\n")
    return lines
