"""BENCH_trajectory.json: one row of benchmark medians per change, in order,
named in the terms of BENCHMARK.json."""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(name: str):
    return json.loads((ROOT / name).read_text())


def test_rows_rise_and_name_only_benchmark_metrics():
    spec = load("BENCHMARK.json")
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    rows = load("BENCH_trajectory.json")["rows"]
    numbers = [row["pr"] for row in rows]
    assert rows and all(p < q for p, q in zip(numbers, numbers[1:])), numbers
    for row in rows:
        assert row["pairs"] > 0 and row["seconds"] > 0 and isinstance(row["gain_claimed"], bool)
        assert row["medians"] and set(row["medians"]) <= workloads, row["pr"]
        for workload, medians in row["medians"].items():
            assert medians and set(medians) <= metrics, (row["pr"], workload)
            for pair in medians.values():
                assert len(pair) == 2 and all(isinstance(v, (int, float)) and v > 0 for v in pair), (row["pr"], pair)
