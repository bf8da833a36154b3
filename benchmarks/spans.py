"""In-memory spans around the public functions of the fogas modules.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (or None). Functions are patched where their callers look them
up: ``harness`` and ``cli`` bind names such as ``collect_dataset`` at import,
so every fogas module attribute that *is* the original function is replaced,
and all of them are restored when tracing ends. Nothing inside ``src/`` is
edited.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager

# (module, function) pairs timed in the traced run; the span is "module.function".
TRACED = [
    ("linmdp", "load_mdp"),
    ("data", "collect_dataset"),
    ("data", "build_covariance"),
    ("data", "save_dataset"),
    ("data", "load_dataset"),
    ("solver", "run_fogas"),
    ("solver", "save_run"),
    ("solver", "load_run"),
    ("oracle", "evaluate_policy"),
    ("oracle", "solve_optimal"),
    ("diagnostics", "build_comparators"),
    ("diagnostics", "player_regrets"),
    ("diagnostics", "gap_estimation_error"),
    ("diagnostics", "duality_gap_report"),
    ("harness", "behavior_policy"),
    ("harness", "mean_iterate_suboptimality"),
    ("harness", "run_cell"),
    ("harness", "run_sweep"),
]


class Tracer:
    """Spans and exact counts of one traced workload pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children.

        Spans are strictly nested on one thread, so children never overlap.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (number of spans, summed self time in seconds)."""
        out: dict[str, tuple[int, float]] = {}
        for (name, *_), self_s in zip(self.spans, self.self_times()):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + self_s)
        return out


def _after_call(tracer: Tracer, name: str, args, result) -> None:
    """Exact counts and the grouping span, taken at the layer boundary."""
    if name == "data.collect_dataset" or name == "data.load_dataset":
        dataset = result
        if name == "data.collect_dataset":
            # the (n, X) transition-row block and its cumsum, 8 bytes each
            tracer.count(name + ".bytes_computed", 16 * len(dataset) * dataset.num_states)
        else:
            tracer.count("data.rows_io", len(dataset))
        # cached on the dataset; timed here so run_fogas self time excludes it
        with tracer.span("data.next_state_groups"):
            dataset.next_state_groups
    elif name == "data.save_dataset":
        tracer.count("data.rows_io", len(args[0]))
    elif name == "solver.run_fogas":
        tracer.count("solver.iters", result.config.T)
    elif name == "solver.save_run":
        tracer.count("solver.run_file_bytes", os.path.getsize(args[1]))
    elif name == "oracle.evaluate_policy":
        mdp = args[0]
        tracer.count(name + ".bytes_computed", 8 * mdp.num_states ** 2 * mdp.num_actions)


def _wrap(tracer: Tracer, name: str, func):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = func(*args, **kwargs)
            _after_call(tracer, name, args, result)
        return result

    return traced


@contextmanager
def instrumented(tracer: Tracer):
    """Patch every binding of each TRACED function in the loaded fogas modules."""
    modules = [m for key, m in list(sys.modules.items()) if key == "fogas" or key.startswith("fogas.")]
    patched = []
    try:
        for module_name, func_name in TRACED:
            original = getattr(sys.modules["fogas." + module_name], func_name)
            wrapper = _wrap(tracer, f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in patched:
            setattr(module, attr, original)
