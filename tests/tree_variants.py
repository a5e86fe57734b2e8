"""Byte-level variants of a PHP tree: CRLF and CR-only line endings, and
bytes that are not valid UTF-8.

Real applications ship sources like these; the synthetic corpora and the
demo app are LF and valid UTF-8.  A variant changes no finding: the
finding fingerprints are line-free, and the invalid bytes sit in a
comment.  So a scan of a variant must report the fingerprints of the
original, and its prefilter on/off reports must be identical.

Run as a script to write one variant::

    python tests/tree_variants.py examples/demo_app .bench/demo_app-cr cr
"""

from __future__ import annotations

import os
import sys

#: variant name -> the rewrite of one file's bytes
VARIANTS = {
    "crlf": lambda data: data.replace(b"\n", b"\r\n"),
    "cr": lambda data: data.replace(b"\n", b"\r"),
    "invalid-utf8": lambda data: data.replace(
        b"<?php", b"<?php /* caf\xe9 \xff\xfe */", 1),
}


def write_variant(src: str, dst: str, variant: str) -> str:
    """Copy the tree *src* to *dst* with every file rewritten by
    *variant* (a :data:`VARIANTS` name); returns *dst*."""
    rewrite = VARIANTS[variant]
    for dirpath, _dirnames, filenames in os.walk(src):
        out = os.path.join(dst, os.path.relpath(dirpath, src))
        os.makedirs(out, exist_ok=True)
        for name in filenames:
            with open(os.path.join(dirpath, name), "rb") as f:
                data = f.read()
            with open(os.path.join(out, name), "wb") as f:
                f.write(rewrite(data))
    return dst


if __name__ == "__main__":
    write_variant(*sys.argv[1:])
