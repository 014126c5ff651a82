"""The summary of ``scripts/bench_pairs.py``, on fixed numbers; nothing is benchmarked."""

import subprocess
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


def test_claim_rule_needs_nine_tenths_of_pairs_and_a_gain_beyond_the_parents_spread():
    """Parent quartiles 122.5 and 167.5 are 45 apart. Nine of ten pairs
    won with a median gain of exactly 45 is no claim; 46 is one; a median
    gain of 46 won in eight of ten pairs is none."""
    parent = [100.0, 110.0, 120.0, 130.0, 140.0, 150.0, 160.0, 170.0, 180.0, 190.0]

    def claim(gain, lost, better="higher"):
        change = [90.0] * lost + [p + gain for p in parent[lost:]]
        sign = 1.0 if better == "higher" else -1.0
        pairs = [({"m": sign * p}, {"m": sign * c}) for p, c in zip(parent, change)]
        (row,) = bench_pairs.summarize(pairs, [{"name": "m", "unit": "1/s", "better": better}])
        return bench_pairs.format_claim(row)

    assert claim(45.0, 1) == ("  claim rule does not hold: better in 9/10 pairs (at least 9/10), "
                              "median gain 45 <= parent quartile distance 45")
    assert claim(46.0, 1) == ("  claim rule holds: better in 9/10 pairs (at least 9/10), "
                              "median gain 46 > parent quartile distance 45")
    assert claim(46.0, 1, better="lower") == claim(46.0, 1)
    assert claim(46.0, 2).startswith(
        "  claim rule does not hold: better in 8/10 pairs (not at least 9/10), median gain 46 >")
    (empty,) = bench_pairs.summarize([], METRICS[:1])
    assert bench_pairs.format_claim(empty) == "  claim rule does not hold: no pair"


def test_seed_ranges_include_both_ends():
    assert bench_pairs.seed_list(["3", "71-74"]) == [3, 71, 72, 73, 74]
    assert bench_pairs.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_operations_are_summed_over_a_sides_runs():
    runs = [{"failed": 0, "attempted": 400}, {"failed": 3, "attempted": 200}]
    assert bench_pairs.format_operations("change", runs) == (
        "change: 3 of 600 operations failed (0.5000%) in 2 runs")
    assert bench_pairs.format_operations("parent", []) == (
        "parent: 0 of 0 operations failed (no operation) in 0 runs")


def test_a_run_without_a_result_reports_its_exit_code_and_last_stderr_line(monkeypatch):
    def run(command, **kwargs):
        return subprocess.CompletedProcess(command, 1, "warming up\n",
                                           "Traceback (most recent call last):\nKeyError: 'x'\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs.run_once(Path("."), "encode-long", 7, 1.0) == (
        None, {}, "no result, exit code 1, stderr: KeyError: 'x'")


def test_a_run_reports_its_last_json_line(monkeypatch):
    def run(command, **kwargs):
        return subprocess.CompletedProcess(command, 0, '{"correct": false}\n{"correct": true}\n', "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs.run_once(Path("."), "encode-long", 7, 1.0) == ({"correct": True}, {}, "")


HOST = {"python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas 0.3.31",
        "OPENBLAS_NUM_THREADS": "1", "nproc": 2}


def test_a_run_reports_its_settings_line_even_without_a_result(monkeypatch):
    stdout = 'settings {"src_lines": 2640, "nproc": 2}\nsettings of no JSON\n'

    def run(command, **kwargs):
        return subprocess.CompletedProcess(command, 1, stdout, "KeyError: 'x'\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs.run_once(Path("."), "encode-long", 7, 1.0) == (
        None, {"src_lines": 2640, "nproc": 2}, "no result, exit code 1, stderr: KeyError: 'x'")


def test_summary_quotes_each_sides_src_lines_and_no_difference_on_one_host():
    settings = {"parent": [{**HOST, "src_lines": 2666}] * 2,
                "change": [{**HOST, "src_lines": 2640}] * 2}
    assert bench_pairs.format_settings(settings) == [
        "parent: src_lines 2666", "change: src_lines 2640"]


def test_host_settings_that_differ_are_named_on_one_line():
    settings = {"parent": [{**HOST, "src_lines": 2666}, {**HOST, "src_lines": 2666, "nproc": 4}],
                "change": [{**HOST, "numpy": "2.4.5", "src_lines": 2640}, {}]}
    assert bench_pairs.format_settings(settings) == [
        "parent: src_lines 2666",
        "change: src_lines 2640/None",
        "SETTINGS DIFFER: python 3.11.7 vs 3.11.7/None; numpy 2.4.6 vs 2.4.5/None; "
        "blas scipy-openblas 0.3.31 vs None/scipy-openblas 0.3.31; "
        "OPENBLAS_NUM_THREADS 1 vs 1/None; nproc 2/4 vs 2/None",
    ]
