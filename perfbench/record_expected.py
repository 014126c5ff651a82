"""Record the values each workload must reproduce exactly, per seed.

    python3 perfbench/record_expected.py --seeds 0-31

Runs every workload once per seed, with one pass, and writes
``perfbench/expected.json``, which ``run.py`` checks every run against.
Rerun it only on purpose: when a change to lsrkit is meant to change
these values (training arithmetic, encoding, search or evaluation), and
say so in that change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile

import run  # sets one BLAS thread before numpy loads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    args = parser.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    seeds = range(first, last + 1)
    if run.REFERENCE_SEED not in seeds:
        run.fail_setup(f"the seeds must include the reference seed {run.REFERENCE_SEED}")

    run.load_program()
    import workloads

    table = {}
    run.OUT_DIR.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="record-", dir=run.OUT_DIR)
    try:
        for name, (workload, *_) in workloads.WORKLOADS.items():
            table[name] = {}
            for seed in seeds:
                ctx = workloads.Context(name, seed, 1, tmpdir)
                workload(ctx)
                if ctx.outcomes.failed:
                    print(f"{name} seed {seed}: {ctx.outcomes.messages}", file=sys.stderr)
                    return 1
                table[name][str(seed)] = ctx.exact
                print(f"{name} seed {seed}: {json.dumps(ctx.exact, sort_keys=True)}", flush=True)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    run.EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
