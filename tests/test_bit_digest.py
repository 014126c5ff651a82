"""The bits of training and encoding, pinned by ``scripts/bit_digest.py``."""

import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import bit_digest  # noqa: E402
from lsrkit import autodiff as ad  # noqa: E402

# Recorded before untaped packed encoding was spread over threads; any
# change that keeps every bit leaves it as it is.
PINNED = "ab88fd2a5cbeaf3c442f6e525fd8f490204ab836a99f4a8717f76c31bc10a1c4"


def test_bit_digest_is_pinned():
    assert bit_digest.digest() == PINNED


def test_encoding_bits_do_not_depend_on_the_cpu_count(monkeypatch):
    """The packed batches of 8 at encode scale, and the one-sequence
    encodes whose four vocabulary blocks spread over the CPUs, give one set
    of bits on one CPU, on three and on the process's own count."""

    def encoding():
        h = hashlib.sha256()
        bit_digest._encoding(h)
        return h.hexdigest()

    default = encoding()
    with ThreadPoolExecutor(2) as pool:
        monkeypatch.setattr(ad, "_CPUS", 3)
        monkeypatch.setattr(ad, "_POOL", pool)
        three_way = encoding()
    monkeypatch.setattr(ad, "_POOL", None)
    assert encoding() == three_way == default
