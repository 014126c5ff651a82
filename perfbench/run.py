"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload train-variants --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; lsrkit is imported from ``src/``
of that checkout and nowhere else. With ``--trace 0`` the last line of
standard output is a JSON object holding every end-to-end metric named in
BENCHMARK.json; with ``--trace 1`` the workload runs once untraced and
once with timing spans installed around lsrkit's public functions, and
the JSON holds every per-layer metric, including the tracing overhead;
each of the two gets half of ``--seconds``.
Values that must repeat exactly are compared with those committed in
``expected.json``. A failed output check makes ``correct`` false and the
exit code 1.
"""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread; set before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from stats import Outcomes  # noqa: E402
from tracer import Tracer, self_times, wrapper_seconds  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
EXPECTED = BENCH_DIR / "expected.json"
# Checked in place of a seed that expected.json does not list.
REFERENCE_SEED = 1
MODULES = ("text", "autodiff", "backbones", "heads", "training", "model", "index", "evaluation")


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import lsrkit from this checkout's src/, or exit 2 without a result."""
    package = ROOT / "src" / "lsrkit"
    if not (package / "__init__.py").is_file():
        fail_setup(f"no lsrkit sources under {package.relative_to(ROOT)}")
    sys.path.insert(0, str(ROOT / "src"))
    import lsrkit

    if Path(lsrkit.__file__).resolve().parent != package.resolve():
        fail_setup(f"imported lsrkit from {lsrkit.__file__}, not from this checkout")
    return lsrkit


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail_setup(f"cannot read BENCHMARK.json: {exc}")


def settings(args, lsrkit) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "lsrkit": lsrkit.__version__,
        "src_lines": src_lines,
    }


def compare_exact(outcomes: Outcomes, got: dict, want: dict, source: str) -> None:
    got = json.loads(json.dumps(got))
    for key in sorted(want.keys() | got.keys()):
        outcomes.check(
            got.get(key) == want.get(key),
            f"{key} = {got.get(key)!r}, {source} gives {want.get(key)!r}",
        )


def check_expected(ctx, run, new_context) -> None:
    """Compare the values in ``ctx.exact`` with those committed for its seed.

    For a seed that expected.json does not list, a one-pass run of
    REFERENCE_SEED is checked instead, so every run checks the program's
    arithmetic against a committed value.
    """
    table = json.loads(EXPECTED.read_text(encoding="utf-8"))[ctx.workload]
    if str(ctx.seed) in table:
        compare_exact(ctx.outcomes, ctx.exact, table[str(ctx.seed)],
                      f"{EXPECTED.name} for seed {ctx.seed}")
        return
    reference = new_context(REFERENCE_SEED, 1, setups=1)
    run(reference)
    ctx.outcomes.merge(reference.outcomes)
    compare_exact(ctx.outcomes, reference.exact, table[str(REFERENCE_SEED)],
                  f"{EXPECTED.name} for reference seed {REFERENCE_SEED}")


def module_self_ms(spans) -> dict:
    out = {f"{m}.self_ms": 0.0 for m in MODULES}
    for span, own in zip(spans, self_times(spans)):
        out[f"{span.name.split('.', 1)[0]}.self_ms"] += 1000.0 * own
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lsrkit = load_program()
    spec = load_spec()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail_setup(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    run, layers, pass_seconds, setups = workloads.WORKLOADS[args.workload]
    budget = args.seconds / 2 if args.trace else args.seconds
    passes = max(1, round(budget / pass_seconds))
    OUT_DIR.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    record = settings(args, lsrkit)
    record["passes"] = passes
    print("settings " + json.dumps(record, sort_keys=True), flush=True)

    def new_context(seed, passes, tracer=None, setups=setups):
        return workloads.Context(args.workload, seed, passes, tmpdir, tracer, setups=setups)

    try:
        ctx = new_context(args.seed, passes)
        start = time.perf_counter()
        e2e = run(ctx)
        untraced_s = time.perf_counter() - start
        check_expected(ctx, run, new_context)
        if args.trace:
            plain = ctx
            tracer = Tracer(args.workload)
            tracer.install(workloads.trace_targets())
            try:
                ctx = new_context(args.seed, passes, tracer)
                run(ctx)
            finally:
                tracer.remove()
            compare_exact(ctx.outcomes, ctx.exact, plain.exact, "the untraced pass")
            ctx.outcomes.merge(plain.outcomes)
            measured = layers(tracer.spans, ctx.facts)
            measured.update(module_self_ms(tracer.spans))
            # The traced pass minus the untraced one would be swamped by the
            # machine's run-to-run swings; the wrappers' own cost is not.
            per_call = wrapper_seconds()
            measured["trace.spans"] = len(tracer.spans)
            measured["trace.wrapper_us"] = 1e6 * per_call
            measured["trace.overhead_pct"] = 100.0 * len(tracer.spans) * per_call / untraced_s
            trace_file = OUT_DIR / f"trace-{args.workload}.jsonl"
            tracer.write_jsonl(trace_file)
            print(f"spans {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
            declared = spec["per_layer"]
        else:
            measured = e2e
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    names = {m["name"] for m in declared}
    unknown = sorted(set(measured) - names)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    idle = sorted(names - set(measured))
    if idle:
        print(f"no work on {args.workload} (reported as 0): {' '.join(idle)}")
    metrics = {}
    for m in declared:
        value = measured.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']} {value!r} {m['unit']}")
    for name, n in sorted(ctx.samples.items()):
        print(f"samples {name} {n}")
    outcome = ctx.outcomes
    for message in outcome.messages:
        print(f"FAILED {message}")
    print(f"failed {outcome.failed} of {outcome.attempted} operations "
          f"({outcome.failure_ratio:.2%})")
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
