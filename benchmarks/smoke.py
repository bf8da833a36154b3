#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes; exits non-zero on a failure.

    python3 benchmarks/smoke.py

For every workload it runs the tiny variant untraced and traced, and asserts:
the output checks pass, every metric named in BENCHMARK.json is emitted with
the unit given there (and no other metric), counts are whole numbers, and for
every span the self times of its children sum to no more than its duration.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run as bench

REPO = os.path.dirname(bench.BENCH_DIR)


def check_spans(tracer) -> None:
    self_times = tracer.self_times()
    children = [0.0] * len(tracer.spans)
    for (_, _, _, parent), self_s in zip(tracer.spans, self_times):
        if parent is not None:
            children[parent] += self_s
    for (name, start, end, _), child_self in zip(tracer.spans, children):
        assert child_self <= end - start, (name, child_self, end - start)
    assert all(s >= 0.0 for s in self_times), "negative self time"


def check_metrics(metrics: dict, expected: list) -> None:
    units = {m["name"]: m["unit"] for m in expected}
    assert set(metrics) == set(units), sorted(set(metrics) ^ set(units))
    for name, metric in metrics.items():
        assert metric["unit"] == units[name], (name, metric["unit"], units[name])
        assert isinstance(metric["value"], (int, float)), (name, metric["value"])
        if metric["unit"] in ("count", "bytes"):
            assert isinstance(metric["value"], int), (name, metric["value"])


def main() -> int:
    bench.pin_blas_threads()
    sys.path.insert(0, os.path.join(REPO, "src"))
    import workloads

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

    work_root = os.path.join(bench.BENCH_DIR, ".work")
    os.makedirs(work_root, exist_ok=True)
    for name, (_, tiny) in workloads.WORKLOADS.items():
        for trace in (False, True):
            with tempfile.TemporaryDirectory(dir=work_root) as workdir:
                run = workloads.measure(tiny, tiny, 1, 0.0, trace, workdir)
            assert not run["checker"].errors, run["checker"].errors
            metrics = bench.metrics_for(run, trace)
            check_metrics(metrics, spec["per_layer" if trace else "end_to_end"])
            if trace:
                check_spans(run["tracer"])
            else:
                assert all(m["value"] > 0 for m in metrics.values()), metrics
        print(f"ok {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
