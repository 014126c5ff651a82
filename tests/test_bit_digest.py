"""The bits of training and encoding, pinned by ``scripts/bit_digest.py``."""

import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import bit_digest  # noqa: E402
from lsrkit import model as model_module  # noqa: E402

# Recorded with the v1 index code, once the digest hashed what load_index
# reads back rather than the index file's bytes; any change that keeps
# every bit of training, encoding and index contents leaves it as it is.
PINNED = "b1dd2de2768da5c5ccfb12a19e195d18fe133bd3534cd071c41873874219b0d7"


def test_bit_digest_is_pinned():
    assert bit_digest.digest() == PINNED


def test_encoding_bits_do_not_depend_on_the_cpu_count(monkeypatch):
    """The packed batches of 8 at encode scale, whose pair units spread over
    the CPUs, and the one-sequence encodes, whose four vocabulary blocks run
    in the calling thread, give one set of bits on one CPU, on three and on
    the process's own count."""

    def encoding():
        h = hashlib.sha256()
        bit_digest._encoding(h)
        return h.hexdigest()

    default = encoding()
    with ThreadPoolExecutor(2) as pool:
        monkeypatch.setattr(model_module, "_CPUS", 3)
        monkeypatch.setattr(model_module, "_POOL", pool)
        three_way = encoding()
    monkeypatch.setattr(model_module, "_CPUS", 1)
    assert encoding() == three_way == default
