#!/usr/bin/env python3
"""Time two checkouts against each other in alternating benchmark pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload train-variants \\
        --seeds 71-80 --seconds 20

For each seed, ``perfbench/run.py --trace 0`` runs once in each checkout:
the parent goes first in the first pair, the change in the second, and so
on. The last JSON line each run prints is its result. For every end-to-end
metric that the change's ``BENCHMARK.json`` declares (the file is only
read), the script prints each side's median and quartiles and in how many
pairs the change was better, in the metric's declared direction, and each
side's failed and attempted operations summed over its runs (a change whose
failed share grows is worse whatever its timings), and each side's
``src_lines`` from the ``settings`` line every run prints first. One
``SETTINGS DIFFER`` line names the host settings (python, numpy, BLAS,
``OPENBLAS_NUM_THREADS``, CPU count) in which the sides' runs differ.
A run that reports ``correct: false`` is listed, and so is one that
prints no result, with its exit code and the last line of its stderr; a
pair without both results is left out of the figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HOST_SETTINGS = ("python", "numpy", "blas", "OPENBLAS_NUM_THREADS", "nproc")


def seed_list(tokens: list[str]) -> list[int]:
    """Seeds from tokens such as ``7`` and ``71-80`` (both ends included)."""
    seeds = []
    for token in tokens:
        first, _, last = token.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), numpy's linear interpolation."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """One row per declared metric over (parent, change) metric-value pairs.

    ``metrics`` are BENCHMARK.json's ``end_to_end`` entries; a row holds each
    side's quartiles, the change's wins and the pair count. A pair missing
    the metric on either side does not count.
    """
    rows = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        both = [(p[name], c[name]) for p, c in pairs if name in p and name in c]
        wins = sum((c < p) if lower else (c > p) for p, c in both)
        rows.append({
            "name": name,
            "unit": m["unit"],
            "better": m["better"],
            "parent": quartiles([p for p, _ in both]) if both else None,
            "change": quartiles([c for _, c in both]) if both else None,
            "wins": wins,
            "pairs": len(both),
        })
    return rows


def format_row(row: dict) -> str:
    if not row["pairs"]:
        return f"{row['name']}: no pair reported it"
    (p1, p2, p3), (c1, c2, c3) = row["parent"], row["change"]
    delta = 100.0 * (c2 - p2) / p2 if p2 else float("nan")
    return (f"{row['name']} ({row['unit']}, {row['better']} is better): "
            f"parent {p2:.6g} [{p1:.6g}, {p3:.6g}] -> change {c2:.6g} [{c1:.6g}, {c3:.6g}] "
            f"({delta:+.2f}%), change better in {row['wins']}/{row['pairs']}")


def format_operations(side: str, results: list[dict]) -> str:
    """A side's failed and attempted operations, summed over its results."""
    failed = sum(r.get("failed", 0) for r in results)
    attempted = sum(r.get("attempted", 0) for r in results)
    share = f"{failed / attempted:.4%}" if attempted else "no operation"
    return f"{side}: {failed} of {attempted} operations failed ({share}) in {len(results)} runs"


def format_settings(settings: dict[str, list[dict]]) -> list[str]:
    """Each side's ``src_lines`` over its runs' settings records, then one
    ``SETTINGS DIFFER`` line if the sides ran under other host settings."""
    def values(side, key):
        return "/".join(sorted({str(record.get(key)) for record in settings[side]}))

    lines = [f"{side}: src_lines {values(side, 'src_lines')}" for side in settings]
    differ = [f"{key} {values('parent', key)} vs {values('change', key)}"
              for key in HOST_SETTINGS if values("parent", key) != values("change", key)]
    if differ:
        lines.append("SETTINGS DIFFER: " + "; ".join(differ))
    return lines


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> tuple[dict | None, dict, str]:
    """The last JSON object ``perfbench/run.py`` prints in ``checkout``, or
    None and the run's exit code and last stderr line; and the record of its
    ``settings`` line, or {} if it printed none."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    settings = next((json.loads(line.partition(" ")[2]) for line in lines
                     if line.startswith("settings {")), {})
    for line in reversed(lines):
        if line.startswith("{"):
            return json.loads(line), settings, ""
    last = (done.stderr.strip().splitlines() or ["(empty)"])[-1]
    return None, settings, f"no result, exit code {done.returncode}, stderr: {last}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds, or ranges such as 71-80")
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"parent": args.parent, "change": args.change}
    pairs, bad = [], []
    ran, settings = {"parent": [], "change": []}, {"parent": [], "change": []}
    for i, seed in enumerate(seed_list(args.seeds)):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        results = {}
        for side in order:
            result, record, note = run_once(sides[side], args.workload, seed, args.seconds)
            settings[side].append(record)
            if result is None or not result.get("correct"):
                bad.append(f"{side} seed {seed}: " + (note if result is None else
                    f"correct: false ({result.get('failed')} of {result.get('attempted')} failed)"))
            if result is not None:
                ran[side].append(result)
            results[side] = result
            print(f"seed {seed} {side}: " + (note if result is None else json.dumps(
                {k: v["value"] for k, v in result["metrics"].items()})), flush=True)
        if all(results.values()):
            pairs.append(tuple({k: v["value"] for k, v in results[side]["metrics"].items()}
                               for side in ("parent", "change")))
    print(f"\n{args.workload}: {len(pairs)} pairs")
    for row in summarize(pairs, spec["end_to_end"]):
        print(format_row(row))
    for side, results in ran.items():
        print(format_operations(side, results))
    for line in format_settings(settings):
        print(line)
    for line in bad:
        print(f"NOT CORRECT {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
