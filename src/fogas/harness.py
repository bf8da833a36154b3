"""Experiment harness: configs, behavior policies, seed sweeps, CSV records."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .data import SAMPLING_MODES, OfflineDataset, build_covariance, collect_dataset
from .diagnostics import score_iterates
from .linmdp import (
    LinearMdp,
    TabularPolicy,
    _check_path,
    _is_int,
    check_generator_args,
    generate_linear_mdp,
    load_mdp,
    uniform_policy,
)
from .oracle import evaluate_policy
from .solver import FogasConfig, FogasRun, run_fogas

# The results CSV's header; each column names an ExperimentRecord attribute.
RESULTS_HEADER = "mdp_id,n,seed,T,coverage_ratio,suboptimality,mean_suboptimality,wall_time_ms,status"


def _behavior_epsilon(spec: str) -> float | None:
    """Parse a behavior spec: None for "uniform", v for "eps:<v>", v in [0, 1]."""
    if spec == "uniform":
        return None
    try:
        eps = float(spec[4:] if isinstance(spec, str) and spec.startswith("eps:") else "nan")
    except ValueError:  # not a number after "eps:"
        eps = float("nan")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f'behavior must be "uniform" or "eps:<v>" with v in [0, 1], got {spec!r}')
    return eps


def behavior_policy(mdp: LinearMdp, spec: str) -> TabularPolicy:
    """The behavior policy of a spec: "uniform" or "eps:<v>" (epsilon-uniform
    mix of the oracle-optimal policy; eps:0 is exactly the optimal policy)."""
    eps = _behavior_epsilon(spec)
    if eps is None:
        return uniform_policy(mdp.num_states, mdp.num_actions)
    pi_star, _ = mdp.optimal
    mix = (1.0 - eps) * pi_star.probs + eps / mdp.num_actions
    return TabularPolicy(mix)


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a grid of sample sizes crossed with seeds on a single MDP.
    A bad value fails here, through the check of the function that uses it."""

    mdp: dict  # {"path": ...} or generator params
    behavior: str = "uniform"
    sampling_mode: str = "uniform"
    n_values: tuple = (256, 1024, 4096, 16384)
    seeds: tuple = tuple(range(10))
    fogas: dict = field(default_factory=lambda: {"auto_tune": True})

    _GENERATOR_KEYS = ("states", "actions", "dim", "gamma")
    # Every FogasConfig field but those each cell sets itself.
    _FOGAS_KEYS = {f.name for f in fields(FogasConfig)} - {"seed", "record_trajectory"}

    def __post_init__(self):
        for key in ("mdp", "fogas"):
            if not isinstance(getattr(self, key), dict):
                raise ValueError(f"{key} must be an object, got {getattr(self, key)!r}")
        for key in ("n_values", "seeds"):
            if not isinstance(getattr(self, key), (list, tuple)):
                raise ValueError(f"{key} must be a list, got {getattr(self, key)!r}")
            object.__setattr__(self, key, tuple(getattr(self, key)))
        kind, allowed = (("path", {"path"}) if "path" in self.mdp
                         else ("generator", {*self._GENERATOR_KEYS, "seed"}))
        unknown = set(self.mdp) - allowed
        if unknown:
            raise ValueError(f"unknown keys in a {kind} mdp spec: {sorted(unknown)}")
        if "path" in self.mdp:
            _check_path("mdp path", self.mdp["path"])
        else:
            missing = [key for key in self._GENERATOR_KEYS if key not in self.mdp]
            if missing:
                raise ValueError(
                    f"mdp config needs a path or the generator keys; missing {missing}"
                )
            try:
                check_generator_args(**self.mdp)
            except ValueError as e:
                raise ValueError(f"mdp {e}") from None
        if len(self.seeds) == 0:
            raise ValueError("seeds list must be nonempty")
        if not all(_is_int(seed) and seed >= 0 for seed in self.seeds):
            raise ValueError(f"seeds must be integers >= 0, got {self.seeds!r}")
        if len(self.n_values) == 0:
            raise ValueError("n_values list must be nonempty")
        if not all(_is_int(n) and n >= 1 for n in self.n_values):
            raise ValueError(f"n values must be integers >= 1, got {self.n_values!r}")
        _behavior_epsilon(self.behavior)  # checks the spec
        if self.sampling_mode not in SAMPLING_MODES:
            raise ValueError(f"unknown sampling_mode {self.sampling_mode!r}")
        unknown = set(self.fogas) - self._FOGAS_KEYS
        if unknown:
            raise ValueError(f"unknown fogas config keys: {sorted(unknown)}")
        FogasConfig(**{"auto_tune": True, **self.fogas})  # checks the values

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as f:
            doc = json.load(f)
        if not isinstance(doc, dict):
            raise ValueError(f"a sweep config must be a JSON object, got {type(doc).__name__}")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "mdp" not in doc:
            raise ValueError("a sweep config needs an mdp spec")
        return cls(**doc)

    def load_mdp(self) -> LinearMdp:
        if "path" in self.mdp:
            return load_mdp(self.mdp["path"])
        spec = self.mdp
        return generate_linear_mdp(spec["states"], spec["actions"], spec["dim"], spec["gamma"],
                                   spec.get("seed", 0))


@dataclass(frozen=True)
class ExperimentRecord:
    mdp_id = "mdp"  # one MDP per sweep; a class constant, not a field
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
        return ",".join(str(getattr(self, column)) for column in RESULTS_HEADER.split(","))


def mean_iterate_suboptimality(mdp: LinearMdp, run: FogasRun, rho_star: float) -> float:
    """(1/T) sum_t (rho(pi*) - rho(pi_t)), exact returns from the oracle."""
    if run.trajectory is None:
        raise ValueError("run was not recorded with record_trajectory")
    rho_ts = score_iterates(mdp, run.trajectory, run.config.alpha, values=False)[1]
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
    _, star_eval = mdp.optimal
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


def run_cell(
    mdp: LinearMdp,
    behavior: TabularPolicy,
    sampling_mode: str,
    n: int,
    seed: int,
    fogas_spec: dict,
) -> tuple[ExperimentRecord, FogasRun]:
    """One (n, seed) cell: collect data, run the solver, score against the oracle.

    The record's wall time is the whole cell's; a failure raises.
    """
    start = time.perf_counter()
    config = FogasConfig(**{"auto_tune": True, **fogas_spec}, seed=seed, record_trajectory=True)
    dataset = collect_dataset(mdp, behavior, n=n, sampling_mode=sampling_mode, seed=seed)
    run = run_fogas(mdp, dataset, config)
    return score_run(mdp, dataset, run, start), run


def run_sweep(config: ExperimentConfig) -> list[ExperimentRecord]:
    """Run the full grid in (n, seed) order, one ``run_cell`` per cell; a failed
    cell becomes an error record."""
    mdp = config.load_mdp()
    behavior = behavior_policy(mdp, config.behavior)
    records = []
    for n in config.n_values:
        for seed in config.seeds:
            try:
                record, _ = run_cell(mdp, behavior, config.sampling_mode, int(n), int(seed),
                                     config.fogas)
            except Exception as e:  # exit code handled by caller
                record = ExperimentRecord(
                    n=int(n), seed=int(seed), T=0,
                    coverage_ratio=float("nan"), suboptimality=float("nan"),
                    mean_suboptimality=float("nan"), wall_time_ms=0.0,
                    status=f"error:{type(e).__name__}", message=str(e),
                )
            records.append(record)
    return records


def check_results_file(path) -> None:
    """Raise ValueError unless ``path`` is missing, empty or starts with the results header."""
    try:
        with open(path, errors="replace") as f:
            first = f.readline().rstrip("\n")
    except FileNotFoundError:
        return
    if first and first != RESULTS_HEADER:
        raise ValueError(f"{path} is not a results CSV: its first line is not {RESULTS_HEADER}")


def write_records(records: list[ExperimentRecord], path, append: bool = False) -> None:
    """Replace ``path`` with the rows, or append them; an empty file gets the
    header first, and a last line that lacks its newline gets it first."""
    with open(path, "ab+" if append else "wb+") as f:
        size = f.tell()  # in append mode the writes go to the end, wherever it reads
        f.seek(max(size - 1, 0))
        last = f.read(1)  # b"" for an empty file
        head = RESULTS_HEADER + "\n" if not size else "" if last == b"\n" else "\n"
        f.write((head + "".join(rec.csv_row() + "\n" for rec in records)).encode())


def summarize_by_n(records: list[ExperimentRecord]) -> dict[int, float]:
    """Median mean-iterate suboptimality per sample size (successful rows only)."""
    by_n: dict[int, list[float]] = {}
    for rec in records:
        if rec.status == "ok":
            by_n.setdefault(rec.n, []).append(rec.mean_suboptimality)
    return {n: float(np.median(vals)) for n, vals in sorted(by_n.items())}
