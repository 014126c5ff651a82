"""The bits of training and encoding, pinned by ``scripts/bit_digest.py``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import bit_digest  # noqa: E402

# Recorded before untaped packed encoding was spread over threads; any
# change that keeps every bit leaves it as it is.
PINNED = "ab88fd2a5cbeaf3c442f6e525fd8f490204ab836a99f4a8717f76c31bc10a1c4"


def test_bit_digest_is_pinned():
    assert bit_digest.digest() == PINNED
