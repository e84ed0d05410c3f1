"""Write the committed v2 store images and the answers they must give.

The same three crashed stores as :mod:`make_v1_fixtures` (512-byte
L-blocks; the stream was flushed and the manifest written, but the store
was never closed), written by a checkout whose files are format v2 (the
superblock's ``"format"`` is ``"chronicledb-repro-v2"``): reserved flank
slots name their level and predecessor, and every C-block is deflated
whole.  The answers are what that checkout returns after reopening a
copy of each image.

Usage, from the root of a v2-writing checkout::

    PYTHONPATH=src python tests/storage/fixtures/make_v2_fixtures.py OUT

writes ``OUT/<name>/`` (the store) and ``OUT/<name>.json`` (answers);
the committed images live in ``tests/storage/fixtures/v2``.
"""

from __future__ import annotations

import os
import sys

_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
)
if _ROOT not in sys.path:  # run as a script from the checkout's root
    sys.path.insert(0, _ROOT)

from tests.storage.fixtures.make_v1_fixtures import (  # noqa: E402
    IMAGES,
    QUERIES,
    answers,
    main,
)

__all__ = ["IMAGES", "QUERIES", "answers"]

if __name__ == "__main__":
    main(sys.argv[1])
