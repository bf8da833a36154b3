"""The benchmark's workloads, their output checks and their metrics.

Each workload is a closed loop with one client: the next pass starts when the
previous one has returned. A pass is one ``harness.run_sweep`` call, or one
``collect -> solve -> diagnose`` chain through ``fogas.cli.main``. The MDP of
each workload is fixed (generator seed 0): with auto-tuning, T depends on the
MDP through its feature bound R, so a seed-drawn MDP would change the amount
of work per pass. ``--seed`` draws the sample and solver seeds instead.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import time
import traceback
import warnings
from dataclasses import dataclass

import numpy as np

from fogas import cli, diagnostics, harness, linmdp
from hostspeed import SpeedProbe
from spans import Tracer, instrumented

warnings.filterwarnings("ignore", message="auto-tuned run with T=")

SETUP_REPEATS = 3
# Fresh-interpreter imports per run. The host's speed drifts over seconds, so
# they are spread evenly over the run rather than made one after another.
IMPORT_REPEATS = 7

# Per-layer metrics taken from the span self times, in seconds.
LAYER_SPANS = [
    "linmdp.load_mdp",
    "data.collect_dataset",
    "data.next_state_groups",
    "data.build_covariance",
    "data.save_dataset",
    "data.load_dataset",
    "solver.run_fogas",
    "solver.save_run",
    "solver.load_run",
    "oracle.evaluate_policy",
    "oracle.solve_optimal",
    "diagnostics.build_comparators",
    "diagnostics.player_regrets",
    "diagnostics.gap_estimation_error",
    "diagnostics.duality_gap_report",
    "harness.behavior_policy",
    "harness.mean_iterate_suboptimality",
    "harness.run_cell",
    "cli.collect",
    "cli.solve",
    "cli.diagnose",
]
# Exact counts kept by spans.Tracer.count.
LAYER_COUNTS = [
    "data.collect_dataset.bytes_computed",
    "data.rows_io",
    "solver.iters",
    "solver.run_file_bytes",
    "oracle.evaluate_policy.bytes_computed",
]


@dataclass
class Outcome:
    """One pass: its wall time, its stage times and one entry per operation.

    An operation is ``(key, error message or None, mean-iterate suboptimality
    or None, tuple of its output values)``; the key names the same operation
    in every pass of a run. In an untraced pass, ``elapsed`` excludes the
    host-speed probe's own time and ``ref`` is ``elapsed`` in units of the
    probe's reference computation.
    """

    elapsed: float
    stages: dict
    ops: list
    ref: float = 0.0


@dataclass(frozen=True)
class Sweep:
    """``harness.run_sweep`` over n_values x num_seeds cells on one MDP file."""

    states: int
    actions: int
    dim: int
    behavior: str
    sampling_mode: str
    n_values: tuple
    num_seeds: int
    fogas: dict
    reference: str
    gamma: float = 0.9

    def seeds(self, seed: int) -> tuple:
        rng = np.random.default_rng(seed)
        return tuple(int(s) for s in rng.integers(0, 2**31 - 1, size=self.num_seeds))

    def setup(self, workdir: str) -> None:
        mdp = linmdp.generate_linear_mdp(self.states, self.actions, self.dim, self.gamma, 0)
        linmdp.save_mdp(mdp, os.path.join(workdir, "mdp.json"))

    def run_pass(self, workdir: str, seeds: tuple, tracer: Tracer | None) -> Outcome:
        config = harness.ExperimentConfig(
            mdp={"path": os.path.join(workdir, "mdp.json")},
            behavior=self.behavior,
            sampling_mode=self.sampling_mode,
            n_values=self.n_values,
            seeds=seeds,
            fogas=dict(self.fogas),
        )
        start = time.perf_counter()
        records = harness.run_sweep(config)
        elapsed = time.perf_counter() - start
        ops = []
        for rec in records:
            values = (rec.coverage_ratio, rec.suboptimality, rec.mean_suboptimality,
                      rec.wall_time_ms)
            key = f"n={rec.n},seed={rec.seed}"
            error = None
            if rec.status != "ok":
                error = f"{key}: status {rec.status}"
            elif not all(math.isfinite(v) for v in values):
                error = f"{key}: non-finite value in {values}"
            ops.append((key, error, rec.mean_suboptimality, (rec.T,) + values[:3]))
        return Outcome(elapsed, {"sweep_s": elapsed}, ops)


@dataclass(frozen=True)
class Chain:
    """``fogas.cli.main``: generate (set-up), then collect, solve, diagnose."""

    states: int
    actions: int
    dim: int
    n: int
    T: int
    reference: str
    gamma: float = 0.9

    def seeds(self, seed: int) -> tuple:
        rng = np.random.default_rng(seed)
        return tuple(int(s) for s in rng.integers(0, 2**31 - 1, size=2))

    def setup(self, workdir: str) -> None:
        code, message = _call_cli(
            ["generate", "--states", str(self.states), "--actions", str(self.actions),
             "--dim", str(self.dim), "--gamma", str(self.gamma), "--seed", "0",
             "--out", os.path.join(workdir, "mdp.json")]
        )
        if code != 0:
            raise RuntimeError(f"generate exited with {code}: {message}")

    def run_pass(self, workdir: str, seeds: tuple, tracer: Tracer | None) -> Outcome:
        mdp, data, run, gap = (os.path.join(workdir, name) for name in
                               ("mdp.json", "data.csv", "run.json", "gap.csv"))
        for path in (data, run, gap):
            if os.path.exists(path):
                os.remove(path)
        collect_seed, solve_seed = seeds
        commands = [
            ("collect", ["collect", "--mdp", mdp, "--n", str(self.n),
                         "--seed", str(collect_seed), "--out", data]),
            ("solve", ["solve", "--mdp", mdp, "--data", data, "--auto-tune",
                       "--T", str(self.T), "--seed", str(solve_seed),
                       "--record-trajectory", "--out", run]),
            ("diagnose", ["diagnose", "--mdp", mdp, "--data", data, "--run", run,
                          "--out", gap]),
        ]
        stages, ops = {}, []
        start = time.perf_counter()
        for label, argv in commands:
            command_start = time.perf_counter()
            with tracer.span(f"cli.{label}") if tracer else contextlib.nullcontext():
                code, message = _call_cli(argv)
            stages[f"{label}_cmd_s"] = time.perf_counter() - command_start
            error = None if code == 0 else f"{label} exited with {code}: {message}"
            ops.append([label, error, None, ()])
        elapsed = time.perf_counter() - start
        if ops[-1][1] is None:
            try:
                ops[-1][1:] = _check_gap_report(gap)
            except (OSError, ValueError, KeyError) as e:
                ops[-1][1] = f"diagnose: unreadable gap report: {e!r}"
        return Outcome(elapsed, stages, [tuple(op) for op in ops])


def _call_cli(argv: list) -> tuple[int, str]:
    """Run one CLI command in-process; its output is captured, not printed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
    except Exception:
        return 1, traceback.format_exc(limit=3).strip()
    return code, err.getvalue().strip()


def _check_gap_report(path: str) -> tuple[str | None, float, tuple]:
    """The CLI runs with check_identities=False, so the benchmark checks them.

    Returns the error, the mean-iterate suboptimality and the whole row.
    """
    with open(path) as f:
        header, row = f.read().split()[:2]
    report = dict(zip(header.split(","), (float(v) for v in row.split(","))))
    result = (report["suboptimality"], tuple(report.values()))
    if not all(math.isfinite(v) for v in report.values()):
        return (f"diagnose: non-finite value in {report}",) + result
    if report["decomposition_residual"] > diagnostics.DECOMPOSITION_TOL:
        return (f"diagnose: decomposition residual {report['decomposition_residual']:.3e}"
                f" > {diagnostics.DECOMPOSITION_TOL}",) + result
    if report["identity_residual"] > diagnostics.IDENTITY_TOL:
        return (f"diagnose: identity residual {report['identity_residual']:.3e}"
                f" > {diagnostics.IDENTITY_TOL}",) + result
    return (None,) + result


# name -> (measured workload, tiny variant of it used for warm-up and smoke tests)
WORKLOADS = {
    "sweep-small": (
        Sweep(states=5, actions=3, dim=4, behavior="uniform", sampling_mode="uniform",
              n_values=(256, 16384), num_seeds=4,
              fogas={"auto_tune": True, "T_cap": 20000}, reference="interp"),
        Sweep(states=5, actions=3, dim=4, behavior="uniform", sampling_mode="uniform",
              n_values=(64,), num_seeds=1, fogas={"auto_tune": True, "T": 20},
              reference="interp"),
    ),
    "sweep-large-state": (
        Sweep(states=1000, actions=4, dim=8, behavior="eps:0.5",
              sampling_mode="occupancy", n_values=(20000,), num_seeds=2,
              fogas={"auto_tune": True, "T": 20}, reference="memory"),
        Sweep(states=30, actions=4, dim=8, behavior="eps:0.5",
              sampling_mode="occupancy", n_values=(200,), num_seeds=1,
              fogas={"auto_tune": True, "T": 5}, reference="memory"),
    ),
    "cli-chain": (
        Chain(states=100, actions=4, dim=8, n=50000, T=2000, reference="interp"),
        Chain(states=10, actions=4, dim=8, n=200, T=20, reference="interp"),
    ),
}


class Checker:
    """Failed operations with their messages. The outputs of each operation,
    mean-iterate suboptimality included, must repeat bit for bit in every
    pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []
        self._first: dict[str, tuple] = {}

    def add(self, outcome: Outcome, prefix: str = "") -> None:
        for key, error, _, values in outcome.ops:
            key = prefix + key
            self.attempted += 1
            first = self._first.setdefault(key, values)
            if error is None and first != values:
                error = f"{key}: outputs {values!r} differ from {first!r} in an earlier pass"
            if error is not None:
                self.errors.append(error)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer self times (s), counts and the derived per-iteration costs."""
    totals = tracer.totals()
    metrics = {f"{name}.s": totals.get(name, (0, 0.0))[1] for name in LAYER_SPANS}
    metrics.update({name: tracer.counts.get(name, 0) for name in LAYER_COUNTS})
    for name in ("oracle.evaluate_policy", "oracle.solve_optimal"):
        metrics[f"{name}.calls"] = totals.get(name, (0, 0.0))[0]
    calls = metrics["oracle.evaluate_policy.calls"]
    metrics["oracle.evaluate_policy.us_per_call"] = (
        1e6 * metrics["oracle.evaluate_policy.s"] / calls if calls else 0.0
    )
    # run_fogas self time already excludes its covariance span, and the
    # grouping is timed right after collection or loading, outside the loop.
    iters = metrics["solver.iters"]
    metrics["solver.us_per_iter"] = (
        1e6 * metrics["solver.run_fogas.s"] / iters if iters else 0.0
    )
    return metrics


def measure(workload, tiny, seed: int, seconds: float, trace: bool, workdir: str,
            fresh_import=None) -> dict:
    """Set up ``SETUP_REPEATS`` times, then run passes for ``seconds``.

    A pass is not started when the median pass so far would end it past the
    deadline. With ``trace`` the passes alternate between untraced and traced,
    so the tracing overhead is measured in the same run; at least one of each
    runs. ``tiny`` is a small variant of ``workload`` used as its warm-up.
    ``fresh_import``, when given, returns one fresh interpreter's import time;
    it is called ``IMPORT_REPEATS`` times between passes, spread evenly over
    the run, and the deadline moves by the time those calls take.
    """
    seeds, tiny_seeds = workload.seeds(seed), tiny.seeds(seed)
    tiny_dir = os.path.join(workdir, "warmup")
    os.makedirs(tiny_dir, exist_ok=True)
    checker = Checker()

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(workdir)
        tiny.setup(tiny_dir)
        warm = tiny.run_pass(tiny_dir, tiny_seeds, None)
        setup_times.append(time.perf_counter() - start)
        checker.add(warm, prefix="warmup:")

    plain: list[Outcome] = []
    traced: list[Outcome] = []
    layers: list[dict] = []
    import_times: list[float] = []
    last_tracer = None
    deadline = time.perf_counter() + seconds

    def catch_up(done: bool) -> None:
        """Bring the imports up to the share of the run gone by so far."""
        nonlocal deadline
        if fresh_import is None:
            return
        # the deadline has moved by the imports' time, so this share excludes it
        share = 1.0 if done or seconds <= 0 else 1.0 + (time.perf_counter() - deadline) / seconds
        while len(import_times) < math.ceil(IMPORT_REPEATS * share):
            call_start = time.perf_counter()
            import_times.append(fresh_import())
            deadline += time.perf_counter() - call_start

    while True:
        if trace and len(traced) < len(plain):
            tracer = Tracer()
            with instrumented(tracer):
                outcome = workload.run_pass(workdir, seeds, tracer)
            traced.append(outcome)
            layers.append(layer_metrics(tracer))
            last_tracer = tracer
        else:
            with SpeedProbe(workload.reference) as probe:
                outcome = workload.run_pass(workdir, seeds, None)
            outcome.elapsed -= probe.probe_s
            outcome.ref = outcome.elapsed / probe.ref_s
            plain.append(outcome)
        checker.add(outcome)
        typical = median([p.elapsed for p in plain + traced])
        if time.perf_counter() + typical > deadline and (traced or not trace):
            break
        catch_up(done=False)
    catch_up(done=True)

    return {
        "seeds": seeds,
        "setup_times": setup_times,
        "import_times": import_times,
        "plain": plain,
        "traced": traced,
        "layers": layers,
        "tracer": last_tracer,
        "checker": checker,
    }


def median(values) -> float:
    return float(statistics.median(values))


def pass_subopt(outcome: Outcome) -> float | None:
    """Median mean-iterate suboptimality over the operations of one pass."""
    values = [s for _, error, s, _ in outcome.ops if error is None and s is not None]
    return median(values) if values else None
