"""The summary of ``scripts/bench_pairs.py``, on fixed numbers; nothing is benchmarked."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import bench_pairs  # noqa: E402

METRICS = [
    {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def test_summary_counts_wins_in_each_metrics_direction():
    parent = [17.1, 17.3, 17.0, 17.2, 16.9]
    change = [16.0, 17.4, 16.1, 15.9, 16.2]  # lower in 4 of 5 pairs
    pairs = [
        ({"latency_ms_p50": p, "throughput_per_s": 1000.0 / p, "setup_s": 0.04},
         {"latency_ms_p50": c, "throughput_per_s": 1000.0 / c, "setup_s": 0.04})
        for p, c in zip(parent, change)
    ]
    pairs.append(({"setup_s": 0.05}, {"setup_s": 0.03}))  # a pair missing the others
    latency, throughput, setup = bench_pairs.summarize(pairs, METRICS)
    assert (latency["wins"], latency["pairs"]) == (4, 5)
    assert (throughput["wins"], throughput["pairs"]) == (4, 5)
    assert (setup["wins"], setup["pairs"]) == (1, 6)  # ties are no wins
    for row, values in ((latency, parent), (throughput, [1000.0 / p for p in parent])):
        np.testing.assert_allclose(row["parent"], np.percentile(values, [25, 50, 75]), rtol=1e-12)
    assert latency["change"] == (16.0, 16.1, 16.2)
    assert "change better in 4/5" in bench_pairs.format_row(latency)


def test_a_metric_no_pair_reports_has_no_figures():
    (row,) = bench_pairs.summarize([({}, {"setup_s": 1.0})], METRICS[2:])
    assert row["pairs"] == 0 and row["parent"] is None
    assert bench_pairs.format_row(row) == "setup_s: no pair reported it"


def test_seed_ranges_include_both_ends():
    assert bench_pairs.seed_list(["3", "71-74"]) == [3, 71, 72, 73, 74]
    assert bench_pairs.quartiles([2.5]) == (2.5, 2.5, 2.5)
