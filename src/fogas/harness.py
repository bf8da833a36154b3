"""Experiment harness: configs, behavior policies, seed sweeps, CSV records."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .data import OfflineDataset, build_covariance, collect_dataset
from .diagnostics import score_iterates
from .linmdp import LinearMdp, TabularPolicy, generate_linear_mdp, load_mdp, uniform_policy
from .oracle import evaluate_policy, solve_optimal
from .solver import FogasConfig, FogasRun, run_fogas_batch, theoretical_min_iterations

RESULTS_HEADER = "mdp_id,n,seed,T,coverage_ratio,suboptimality,mean_suboptimality,wall_time_ms,status"


def behavior_policy(mdp: LinearMdp, spec: str) -> TabularPolicy:
    """Parse a behavior spec: "uniform" or "eps:<v>" (epsilon-uniform mix of
    the oracle-optimal policy; eps:0 is exactly the optimal policy)."""
    if spec == "uniform":
        return uniform_policy(mdp.num_states, mdp.num_actions)
    if spec.startswith("eps:"):
        eps = float(spec[4:])
        if not 0.0 <= eps <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {eps}")
        pi_star, _ = solve_optimal(mdp)
        mix = (1.0 - eps) * pi_star.probs + eps / mdp.num_actions
        return TabularPolicy(mix)
    raise ValueError(f"unknown behavior spec {spec!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a grid of sample sizes crossed with seeds on a single MDP."""

    mdp: dict  # {"path": ...} or generator params
    behavior: str = "uniform"
    sampling_mode: str = "uniform"
    n_values: tuple = (256, 1024, 4096, 16384)
    seeds: tuple = tuple(range(10))
    fogas: dict = field(default_factory=lambda: {"auto_tune": True})

    _KNOWN_KEYS = {
        "mdp", "behavior", "sampling_mode", "n_values", "seeds", "fogas",
    }
    _GENERATOR_KEYS = ("states", "actions", "dim", "gamma")

    def __post_init__(self):
        if "path" not in self.mdp:
            missing = [key for key in self._GENERATOR_KEYS if key not in self.mdp]
            if missing:
                raise ValueError(
                    f"mdp config needs a path or the generator keys; missing {missing}"
                )
            for key, low in (("states", 1), ("actions", 1), ("dim", 1), ("seed", 0)):
                value = self.mdp.get(key, 0)
                if not _is_int(value) or value < low:
                    raise ValueError(f"mdp {key} must be an integer >= {low}, got {value!r}")
            gamma = self.mdp["gamma"]
            if isinstance(gamma, bool) or not isinstance(gamma, Real) or not 0.0 < gamma < 1.0:
                raise ValueError(f"mdp gamma must lie in (0, 1), got {gamma!r}")
        if len(self.seeds) == 0:
            raise ValueError("seeds list must be nonempty")
        if not all(_is_int(seed) and seed >= 0 for seed in self.seeds):
            raise ValueError(f"seeds must be integers >= 0, got {self.seeds!r}")
        if len(self.n_values) == 0:
            raise ValueError("n_values list must be nonempty")
        if not all(_is_int(n) and n >= 1 for n in self.n_values):
            raise ValueError(f"n values must be integers >= 1, got {self.n_values!r}")
        if self.sampling_mode not in ("occupancy", "uniform"):
            raise ValueError(f"unknown sampling_mode {self.sampling_mode!r}")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as f:
            doc = json.load(f)
        unknown = set(doc) - cls._KNOWN_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key in ("n_values", "seeds"):
            if key in doc:
                doc[key] = tuple(doc[key])
        return cls(**doc)

    def load_mdp(self) -> LinearMdp:
        if "path" in self.mdp:
            return load_mdp(self.mdp["path"])
        return generate_linear_mdp(
            num_states=self.mdp["states"],
            num_actions=self.mdp["actions"],
            dim=self.mdp["dim"],
            gamma=float(self.mdp["gamma"]),
            seed=self.mdp.get("seed", 0),
        )


@dataclass(frozen=True)
class ExperimentRecord:
    n: int
    seed: int
    T: int
    coverage_ratio: float
    suboptimality: float
    mean_suboptimality: float
    wall_time_ms: float
    status: str = "ok"
    message: str = ""  # the exception message of a failed cell; not a CSV column

    def csv_row(self) -> str:
        return ",".join(
            [
                "mdp",  # the mdp_id column: one MDP per sweep
                str(self.n),
                str(self.seed),
                str(self.T),
                repr(self.coverage_ratio),
                repr(self.suboptimality),
                repr(self.mean_suboptimality),
                f"{self.wall_time_ms:.3f}",
                self.status,
            ]
        )


def _is_int(value) -> bool:
    """An int or numpy integer, not a bool: a float or bool is never truncated."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _iteration_count(fogas_spec: dict, key: str, default: int | None = None) -> int:
    value = fogas_spec.get(key, default)
    if not _is_int(value) or value < 1:
        raise ValueError(f"{key} must be an integer >= 1, got {value!r}")
    return int(value)


def resolve_iterations(mdp: LinearMdp, n: int, fogas_spec: dict) -> int:
    """T from the config dict: explicit value, or the theoretical minimum
    (rounded up) capped by "T_cap" when auto-tuning. Both must be integers >= 1."""
    cap = _iteration_count(fogas_spec, "T_cap", 20000)
    if fogas_spec.get("T") is not None:
        return _iteration_count(fogas_spec, "T")
    delta = float(fogas_spec.get("delta", 0.05))
    if not 0.0 < delta < 1.0:  # checked here too: t_min divides by log(1/delta)
        raise ValueError("delta must lie in (0, 1)")
    t_min = int(np.ceil(theoretical_min_iterations(mdp, n=n, delta=delta)))
    return max(1, min(t_min, cap))


def fogas_config_from_spec(
    mdp: LinearMdp, n: int, seed: int, fogas_spec: dict, record_trajectory: bool = True
) -> FogasConfig:
    known = {"auto_tune", "T", "T_cap", "delta", "alpha", "rho", "eta", "beta", "d_theta"}
    unknown = set(fogas_spec) - known
    if unknown:
        raise ValueError(f"unknown fogas config keys: {sorted(unknown)}")
    return FogasConfig(
        T=resolve_iterations(mdp, n, fogas_spec),
        seed=seed,
        auto_tune=bool(fogas_spec.get("auto_tune", True)),
        delta=float(fogas_spec.get("delta", 0.05)),
        alpha=fogas_spec.get("alpha"),
        rho=fogas_spec.get("rho"),
        eta=fogas_spec.get("eta"),
        beta=fogas_spec.get("beta"),
        d_theta=fogas_spec.get("d_theta"),
        record_trajectory=record_trajectory,
    )


def mean_iterate_suboptimality(mdp: LinearMdp, run: FogasRun, rho_star: float) -> float:
    """(1/T) sum_t (rho(pi*) - rho(pi_t)), exact returns from the oracle."""
    if run.trajectory is None:
        raise ValueError("run was not recorded with record_trajectory")
    rho_ts = score_iterates(mdp, run.trajectory, run.config.alpha)[1]
    return float(np.mean(rho_star - rho_ts))


def score_run(
    mdp: LinearMdp,
    dataset: OfflineDataset,
    run: FogasRun,
    start: float,
) -> ExperimentRecord:
    """Score a finished run against the oracle.

    ``start`` is the ``time.perf_counter()`` reading the wall time counts from.
    The mean-iterate suboptimality is NaN when the run has no trajectory.
    """
    _, star_eval = solve_optimal(mdp)
    out_eval = evaluate_policy(mdp, run.output_policy)
    mean_sub = float("nan")
    if run.trajectory is not None:
        mean_sub = mean_iterate_suboptimality(mdp, run, star_eval.return_value)
    cov = build_covariance(dataset, run.config.beta)
    return ExperimentRecord(
        n=len(dataset),
        seed=run.config.seed,
        T=run.config.T,
        coverage_ratio=cov.weighted_sq_norm(star_eval.lambda_pi),
        suboptimality=star_eval.return_value - out_eval.return_value,
        mean_suboptimality=mean_sub,
        wall_time_ms=(time.perf_counter() - start) * 1000.0,
    )


def run_group(
    mdp: LinearMdp,
    behavior: TabularPolicy,
    sampling_mode: str,
    n: int,
    seeds: list[int],
    fogas_spec: dict,
) -> list[tuple[ExperimentRecord, FogasRun] | Exception]:
    """The cells (n, seed) of one sample size, their ascent loops run as one batch.

    Collects each seed's data, runs ``run_fogas_batch`` once and scores each
    run. Returns, per seed, ``(record, run)`` or the exception that ended the
    seed in collection, the loop or scoring. A record's wall time is its own
    collection and scoring plus an equal share of the batch's loop time.
    """
    results: list = [None] * len(seeds)
    cells = []  # (slot, dataset, config, collection seconds)
    for slot, seed in enumerate(seeds):
        start = time.perf_counter()
        try:
            dataset = collect_dataset(
                mdp, behavior, n=n, sampling_mode=sampling_mode, seed=seed
            )
            config = fogas_config_from_spec(mdp, n, seed, fogas_spec)
        except Exception as e:  # this cell's error; the others still run
            results[slot] = e
            continue
        cells.append((slot, dataset, config, time.perf_counter() - start))
    if not cells:
        return results

    start = time.perf_counter()
    runs = run_fogas_batch(mdp, [c[1] for c in cells], [c[2] for c in cells])
    loop_share = (time.perf_counter() - start) / len(cells)

    for (slot, dataset, _, collect_s), run in zip(cells, runs):
        if isinstance(run, Exception):
            results[slot] = run
            continue
        # Backdate the start so the record counts collection and the loop share.
        start = time.perf_counter() - collect_s - loop_share
        try:
            record = score_run(mdp, dataset, run, start)
            results[slot] = (record, run)
        except Exception as e:
            results[slot] = e
    return results


def run_cell(
    mdp: LinearMdp,
    behavior: TabularPolicy,
    sampling_mode: str,
    n: int,
    seed: int,
    fogas_spec: dict,
) -> tuple[ExperimentRecord, FogasRun]:
    """One (n, seed) cell: collect data, run the solver, score against the oracle.

    The one-seed case of ``run_group``; a failure raises.
    """
    (result,) = run_group(mdp, behavior, sampling_mode, n, [seed], fogas_spec)
    if isinstance(result, Exception):
        raise result
    return result


def run_sweep(config: ExperimentConfig) -> list[ExperimentRecord]:
    """Run the full grid in (n, seed) order; failures become per-row error records.

    The seeds of one n run as one batch (``run_group``): they share T, which
    depends only on n and the MDP.
    """
    mdp = config.load_mdp()
    behavior = behavior_policy(mdp, config.behavior)
    seeds = [int(seed) for seed in config.seeds]
    records = []
    for n in config.n_values:
        results = run_group(mdp, behavior, config.sampling_mode, int(n), seeds, config.fogas)
        for seed, result in zip(seeds, results):
            if isinstance(result, Exception):  # exit code handled by caller
                records.append(ExperimentRecord(
                    n=int(n), seed=seed, T=0,
                    coverage_ratio=float("nan"), suboptimality=float("nan"),
                    mean_suboptimality=float("nan"), wall_time_ms=0.0,
                    status=f"error:{type(result).__name__}", message=str(result),
                ))
            else:
                records.append(result[0])
    return records


def write_records(records: list[ExperimentRecord], path) -> None:
    with open(path, "w") as f:
        f.write(RESULTS_HEADER + "\n")
        for rec in records:
            f.write(rec.csv_row() + "\n")


def summarize_by_n(records: list[ExperimentRecord]) -> dict[int, float]:
    """Median mean-iterate suboptimality per sample size (successful rows only)."""
    by_n: dict[int, list[float]] = {}
    for rec in records:
        if rec.status == "ok":
            by_n.setdefault(rec.n, []).append(rec.mean_suboptimality)
    return {n: float(np.median(vals)) for n, vals in sorted(by_n.items())}
