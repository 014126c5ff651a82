#!/usr/bin/env python3
"""Regenerate the committed CLI fixture under tests/data/.

Writes the small corpus/queries/qrels/triplets files, the toy training
config, the vocabulary, and the golden TREC run file produced by the full
CLI pipeline (train -> encode -> index -> search). The task, config and
pipeline are defined once in tests/toytask.py. Deterministic; rerunning
must reproduce the committed bytes.

    PYTHONPATH=src python3 scripts/make_fixture.py
"""

import pathlib
import shutil
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tests"))

import toytask  # noqa: E402
from lsrkit.cli import main  # noqa: E402

DATA = REPO / "tests" / "data"


def main_():
    DATA.mkdir(parents=True, exist_ok=True)
    toytask.write_fixture_inputs(DATA)
    argv = ["build-vocab", "--corpus", str(DATA / "corpus.tsv"), "--output", str(DATA / "vocab.txt")]
    if main(argv) != 0:
        raise SystemExit(f"command failed: {argv}")
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copyfile(toytask.run_pipeline(DATA, tmp)["run"], DATA / "golden_run.txt")
    print("fixture written to", DATA)


if __name__ == "__main__":
    main_()
