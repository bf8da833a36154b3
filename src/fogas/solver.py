"""Feature-occupancy gradient ascent (FOGAS).

Per iteration: the value-parameter player best-responds over a Euclidean ball,
the policy takes an entropy-regularized mirror ascent step stored in
cumulative-parameter form, and the feature occupancy takes a stabilized,
covariance-preconditioned ascent step. The solver only ever evaluates policies
and value functions at the sites: the initial state and the observed next
states; everything over the full state space lives in the oracle and
diagnostics.

The loop runs in C, one call per run, in ``_kernel.c``, which ``_native``
builds on first use. Its numpy specification, one function per step, is in
``tests/conftest.py``, and the tests hold the kernel to it.
"""

from __future__ import annotations

import ctypes
import math
import warnings
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import _native
from .data import OfflineDataset, PsiHat, estimate_psi
from .linmdp import (
    LinearMdp,
    TabularPolicy,
    _check_int,
    _is_real,
    _readonly,
    read_arrays,
    softmax_from_logit_param,
    write_arrays,
)

# A best-response direction no longer than this is a tie: theta_t is the origin.
BEST_RESPONSE_TIE_TOL = 1e-14
# Logits within 700 - ln A of zero need no max-shift: exp overflows past 709.78.
SOFTMAX_LOGIT_LIMIT = 700.0


@dataclass(frozen=True)
class FogasConfig:
    """Solver hyperparameters, and the one place a run's schedule is resolved.

    ``resolved`` fills, from the MDP features and the sample count, what is
    left as None: T becomes the theoretical minimum iteration count (rounded
    up) capped by ``T_cap``, d_theta the canonical radius sqrt(d)/(1-gamma),
    and, with ``auto_tune`` set, the rates come from the theoretical schedule
    (without it, all four must be given). Explicitly set values always win,
    which is how the stabilization ablation (rho=0) is run.
    """

    T: int | None = None
    T_cap: int = 20000
    seed: int = 0
    auto_tune: bool = False
    delta: float = 0.05
    alpha: float | None = None
    rho: float | None = None
    eta: float | None = None
    beta: float | None = None
    d_theta: float | None = None
    record_trajectory: bool = False

    def __post_init__(self):
        for name, low in (("T", 1), ("T_cap", 1), ("seed", 0)):
            if name != "T" or self.T is not None:
                _check_int(name, getattr(self, name), low)
        for name in ("auto_tune", "record_trajectory"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if not (_is_real(self.delta) and 0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")
        for name in ("alpha", "rho", "eta", "beta", "d_theta"):
            val = getattr(self, name)
            if not (val is None or _is_real(val)):
                raise ValueError(f"{name} must be a number, got {val!r}")
            if val is not None and not math.isfinite(val):
                raise ValueError(f"{name} is not finite")
        for name in ("alpha", "eta", "beta", "d_theta"):
            val = getattr(self, name)
            if val is not None and val <= 0:
                raise ValueError(f"{name} must be positive")
        if self.rho is not None and self.rho < 0:
            raise ValueError("rho must be >= 0")
        if not self.auto_tune and None in (self.alpha, self.rho, self.eta, self.beta):
            raise ValueError("all of alpha, rho, eta, beta must be set unless auto_tune")

    def resolved(self, mdp: LinearMdp, n: int) -> "FogasConfig":
        """The config with T, d_theta and (auto_tune only) the rates filled."""
        t_min = theoretical_min_iterations(mdp, n=n, delta=self.delta)
        T = max(1, min(math.ceil(t_min), self.T_cap)) if self.T is None else self.T
        unset = [k for k in ("alpha", "rho", "eta", "beta") if getattr(self, k) is None]
        if unset and T < t_min:
            warnings.warn(
                f"auto-tuned run with T={T} below the theoretical minimum "
                f"{t_min:.0f}; proceeding anyway",
                stacklevel=2,
            )
        rates = theoretical_rates(mdp, n=n, T=T, delta=self.delta) if unset else {}
        d_theta = canonical_d_theta(mdp) if self.d_theta is None else self.d_theta
        return replace(self, T=T, d_theta=d_theta, **{k: rates[k] for k in unset})


def canonical_d_theta(mdp: LinearMdp) -> float:
    """sqrt(d)/(1-gamma), the theta-ball radius of the theoretical schedule."""
    return float(np.sqrt(mdp.dim) / (1.0 - mdp.gamma))


def theoretical_rates(mdp: LinearMdp, n: int, T: int, delta: float) -> dict:
    """The four rates alpha, beta, rho, eta of the theoretical schedule, as a dict."""
    d = mdp.dim
    gamma = mdp.gamma
    R = mdp.feature_bound
    A = mdp.num_actions
    log_A = np.log(A) if A > 1 else 1.0  # degenerate single-action case
    return {
        "beta": R**2 / (d * T),
        "alpha": float(np.sqrt(2.0 * (1.0 - gamma) ** 2 * log_A / (R**2 * d * T))),
        "rho": float(
            gamma
            * np.sqrt(320.0 * d**2 * np.log(2.0 * T / delta) / ((1.0 - gamma) ** 2 * n))
        ),
        "eta": float(np.sqrt((1.0 - gamma) ** 2 / (27.0 * R**2 * d**2 * T))),
    }


def theoretical_min_iterations(mdp: LinearMdp, n: int, delta: float) -> float:
    """Minimum iteration count the analysis asks for: 2 R^2 n ln(A) / ln(1/delta)."""
    log_A = np.log(mdp.num_actions) if mdp.num_actions > 1 else 1.0
    return 2.0 * mdp.feature_bound**2 * n * log_A / np.log(1.0 / delta)


def gradient_norm_bound(config: FogasConfig, mdp: LinearMdp) -> float:
    """Deterministic upper bound on ||Lambda g||^2 in the Lambda^{-1} norm."""
    d, R, gamma = mdp.dim, mdp.feature_bound, mdp.gamma
    D = config.d_theta
    return (
        6.0 * config.beta * (d + D**2)
        + 3.0 * d * (1.0 + R * D) ** 2
        + 3.0 * gamma**2 * d * R**2 * D**2
    )


@dataclass(frozen=True)
class FogasTrajectory:
    """Per-iteration record of a run; index t-1 holds iteration t's quantities.

    ``theta_bars[t-1]`` is the cumulative parameter after iteration t, so the
    policy in force at iteration t+1 is sigma(alpha * Phi @ theta_bars[t-1]);
    iteration 1 runs the uniform policy (cumulative parameter zero).
    """

    lambdas: np.ndarray  # (T, d), lambda_1..lambda_T
    thetas: np.ndarray  # (T, d)
    theta_bars: np.ndarray  # (T, d), theta_bar_1..theta_bar_T
    phi_mu_hats: np.ndarray  # (T, d)
    g_lambdas: np.ndarray  # (T, d)
    grad_sq_norms: np.ndarray  # (T,), g^T Lambda g per iteration

    def __post_init__(self):
        # Read-only views, not copies: a recorded run's fields share one table.
        for f in fields(self):
            view = np.asarray(getattr(self, f.name), dtype=np.float64).view()
            view.flags.writeable = False
            object.__setattr__(self, f.name, view)


@dataclass(frozen=True)
class FogasRun:
    config: FogasConfig  # fully resolved
    chosen_index: int  # J in {1..T}
    lambda_final: np.ndarray
    theta_bar_final: np.ndarray
    output_param: np.ndarray  # alpha * theta_bar_{J-1}
    output_policy: TabularPolicy
    trajectory: FogasTrajectory | None


def shift_free_iterations(config: FogasConfig, mdp: LinearMdp) -> int:
    """How many iterations, from the first, take their softmax without the
    max-shift: alpha (t-1) d_theta R bounds every logit of iteration t, since
    ||theta_bar_{t-1}|| <= (t-1) d_theta, and within 700 - ln A of zero neither
    an exp nor a sum of A of them overflows. On the schedule the bound only
    reaches sqrt(2 ln A T)."""
    growth = mdp.feature_bound * (config.alpha * config.d_theta)
    steps = (SOFTMAX_LOGIT_LIMIT - math.log(mdp.num_actions)) / growth if growth else math.inf
    return config.T if steps >= config.T else math.floor(steps) + 1


def run_fogas(mdp: LinearMdp, dataset: OfflineDataset, config: FogasConfig) -> FogasRun:
    """Run the full ascent loop and return the randomized-index output policy.

    The returned policy is the iterate in force at the drawn iteration J, i.e.
    the softmax of alpha times the cumulative parameter after J-1 updates. An
    iterate that leaves the finite numbers raises ``FloatingPointError``.

    A recorded run writes one (T+1, 5d+1) table: row t holds lambda_{t+1},
    theta_bar_t, theta_t, mu-hat's features, g_t and g_t^T Lambda g_t; row 0
    holds lambda_1 = theta_bar_0 = 0. The trajectory is read-only views into it.

    A dataset whose state count, action count or feature width differs from
    the MDP's raises ValueError before anything reaches the kernel.
    """
    for name, theirs, ours in (("num_states", dataset.num_states, mdp.num_states),
                               ("num_actions", dataset.num_actions, mdp.num_actions),
                               ("feature width", dataset.features.shape[1], mdp.dim)):
        if theirs != ours:
            raise ValueError(f"the dataset's {name} is {theirs}, but the MDP's is {ours}")
    cfg = config.resolved(mdp, len(dataset))
    psi_hat = estimate_psi(dataset, cfg.beta)
    T, d = cfg.T, mdp.dim
    chosen = int(np.random.default_rng(cfg.seed).integers(1, T + 1))
    out, finite = np.empty((3, d)), (ctypes.c_int * 3)()
    table = None
    if cfg.record_trajectory:
        table = np.empty((T + 1, 5 * d + 1))
        table[0] = 0.0
    failed_at = _ascend(mdp, cfg, psi_hat, chosen, out, finite, table)
    if failed_at:
        raise FloatingPointError(
            f"non-finite iterate at iteration {failed_at} (lambda finite: "
            f"{bool(finite[0])}, theta_bar finite: {bool(finite[1])}, "
            f"gradient finite: {bool(finite[2])})")
    lam, theta_bar, output_param = out
    return FogasRun(
        config=cfg,
        chosen_index=chosen,
        lambda_final=_readonly(lam),
        theta_bar_final=_readonly(theta_bar),
        output_param=_readonly(output_param),
        output_policy=softmax_from_logit_param(mdp, output_param),
        trajectory=None if table is None else FogasTrajectory(
            lambdas=table[:-1, :d],
            thetas=table[1:, 2 * d:3 * d],
            theta_bars=table[1:, d:2 * d],
            phi_mu_hats=table[1:, 3 * d:4 * d],
            g_lambdas=table[1:, 4 * d:5 * d],
            grad_sq_norms=table[1:, 5 * d],
        ),
    )


def _ascend(mdp: LinearMdp, cfg: FogasConfig, psi_hat: PsiHat, chosen: int,
            out: np.ndarray, finite, table: np.ndarray | None) -> int:
    """The run's one kernel call; returns the iteration that failed, or 0.

    The 1+k sites are x0 and the observed next states, padded with zero
    columns to m, a multiple of ``_native.VECTOR_PAD``. Their features are
    gathered straight into the kernel's (A, d, m) layout, and the estimator
    columns into W = gamma C, (d, m), zero at x0 and in the padding. Both,
    and the kernel's work, are parts of one 64-byte-aligned block
    (``_native.empty``).
    """
    A, d = mdp.num_actions, mdp.dim
    k = len(psi_hat.observed_states)
    m = -(-(1 + k) // _native.VECTOR_PAD) * _native.VECTOR_PAD
    sites = np.full(m, mdp.x0)
    sites[1:1 + k] = psi_hat.observed_states
    # m is a multiple of 8, so each part starts a cache line.
    block = _native.empty(((A * d + d + A + d + 2) * m,))
    phi_sites = block[:A * d * m].reshape(A, d, m)
    weights = block[A * d * m:(A + 1) * d * m].reshape(d, m)
    work = block[(A + 1) * d * m:]
    phi_sites[...] = mdp.phi[(A * sites + np.arange(A)[:, None])[:, None], np.arange(d)[:, None]]
    phi_sites[:, :, 1 + k:] = 0.0
    weights.fill(0.0)
    np.multiply(psi_hat.columns, mdp.gamma, out=weights[:, 1:1 + k])
    omega, lambda_mat = (np.ascontiguousarray(a, dtype=np.float64)
                         for a in (mdp.omega, psi_hat.covariance.lambda_mat))
    return _native._kernel().fogas_ascend(
        cfg.T, A, d, m, phi_sites.ctypes.data, weights.ctypes.data, omega.ctypes.data,
        lambda_mat.ctypes.data, 1.0 - mdp.gamma, cfg.alpha, cfg.eta,
        1.0 / (1.0 + cfg.rho * cfg.eta), cfg.d_theta, BEST_RESPONSE_TIE_TOL,
        shift_free_iterations(cfg, mdp), chosen, work.ctypes.data, out.ctypes.data, finite,
        None if table is None else table.ctypes.data,
    )


# Run-file entries: the config's fields as scalars, typed by the first type of
# their annotation (an ``int | None`` T is int64), then the arrays, whose
# shapes ``load_run`` checks against the config's T and the MDP's d.
_RUN_ENTRIES = {
    **{f"config.{f.name}": ({"int": np.int64, "bool": np.bool_}.get(f.type.split(" |")[0],
                                                                   np.float64), 0)
       for f in fields(FogasConfig)},
    "chosen_index": (np.int64, 0),
    **dict.fromkeys(("lambda_final", "theta_bar_final", "output_param"), (np.float64, 1)),
    **{f.name: (np.float64, 2) for f in fields(FogasTrajectory)},
    "grad_sq_norms": (np.float64, 1),
}


def save_run(run: FogasRun, path) -> None:
    """Write a run as a "fogas-run/1" archive (``write_arrays``) at ``path``: the
    resolved config's fields as scalars, J, the final parameters and the
    trajectory's arrays, with no rows if it was not recorded; floats
    round-trip bit for bit. A run whose trajectory is kept or not against its
    config's ``record_trajectory`` raises ValueError, since ``load_run`` would
    refuse the file."""
    if (run.trajectory is not None) != run.config.record_trajectory:
        raise ValueError(f"the run's trajectory is {'' if run.trajectory else 'not '}kept, "
                         f"but its config has record_trajectory={run.config.record_trajectory}")
    d = len(run.lambda_final)
    trajectory = run.trajectory or FogasTrajectory(*[np.empty((0, d))] * 5, np.empty(0))
    write_arrays(
        path, "run",
        **{f"config.{key}": np.asarray(value, dtype=_RUN_ENTRIES[f"config.{key}"][0])
           for key, value in asdict(run.config).items()},
        chosen_index=run.chosen_index,
        lambda_final=run.lambda_final,
        theta_bar_final=run.theta_bar_final,
        output_param=run.output_param,
        **{f.name: getattr(trajectory, f.name) for f in fields(FogasTrajectory)},
    )


def load_run(path, mdp: LinearMdp) -> FogasRun:
    """Read a run file written by ``save_run``; a malformed file raises ValueError.

    J must lie in [1, T], and every array must match the config's T and the
    MDP's dimension d; the trajectory's arrays have T rows when the config's
    ``record_trajectory`` is set and none when it is not.
    """
    with read_arrays(path, "run", _RUN_ENTRIES) as arrays:
        config = FogasConfig(**{key.removeprefix("config."): arr.item()
                                for key, arr in arrays.items() if key.startswith("config.")})
        T, d = config.T, mdp.dim
        chosen_index = int(arrays["chosen_index"])
        if not 1 <= chosen_index <= T:
            raise ValueError(f"chosen_index {chosen_index} outside [1, {T}]")
        rows = T if config.record_trajectory else 0
        shapes = {**dict.fromkeys(("lambda_final", "theta_bar_final", "output_param"), (d,)),
                  **{f.name: (rows, d) for f in fields(FogasTrajectory)},
                  "grad_sq_norms": (rows,)}
        for name, shape in shapes.items():
            if arrays[name].shape != shape:
                raise ValueError(f"{name} has shape {arrays[name].shape}, expected {shape}")
        trajectory = FogasTrajectory(*(arrays[f.name] for f in fields(FogasTrajectory)))
        return FogasRun(
            config=config,
            chosen_index=chosen_index,
            lambda_final=_readonly(arrays["lambda_final"]),
            theta_bar_final=_readonly(arrays["theta_bar_final"]),
            output_param=_readonly(arrays["output_param"]),
            output_policy=softmax_from_logit_param(mdp, arrays["output_param"]),
            trajectory=trajectory if config.record_trajectory else None,
        )
