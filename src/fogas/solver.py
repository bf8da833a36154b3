"""Feature-occupancy gradient ascent (FOGAS).

Per iteration: the value-parameter player best-responds over a Euclidean ball,
the policy takes an entropy-regularized mirror ascent step stored in
cumulative-parameter form, and the feature occupancy takes a stabilized,
covariance-preconditioned ascent step. The solver only ever evaluates policies
and value functions at the initial state and the observed next states;
everything over the full state space lives in the oracle and diagnostics.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .data import Covariance, OfflineDataset, PsiHat, estimate_psi
from .linmdp import (
    LinearMdp,
    TabularPolicy,
    _readonly,
    softmax_features,
    softmax_from_logit_param,
)

BEST_RESPONSE_TIE_TOL = 1e-14


@dataclass(frozen=True)
class FogasConfig:
    """Solver hyperparameters.

    With ``auto_tune`` set, any rate left as None is filled from the
    theoretical schedule (which needs the MDP features and the sample count;
    see ``resolved``). Explicitly set values always win, which is how the
    stabilization ablation (rho=0) is run.
    """

    T: int
    seed: int = 0
    auto_tune: bool = False
    delta: float = 0.05
    alpha: float | None = None
    rho: float | None = None
    eta: float | None = None
    beta: float | None = None
    d_theta: float | None = None
    record_trajectory: bool = False
    check_gradient_bound: bool = False

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        for name in ("alpha", "eta", "beta", "d_theta"):
            val = getattr(self, name)
            if val is not None and val <= 0:
                raise ValueError(f"{name} must be positive")
        if self.rho is not None and self.rho < 0:
            raise ValueError("rho must be >= 0")

    @property
    def is_resolved(self) -> bool:
        return None not in (self.alpha, self.rho, self.eta, self.beta, self.d_theta)

    def resolved(self, mdp: LinearMdp, n: int) -> "FogasConfig":
        """Fill unset rates from the theoretical schedule (auto_tune only)."""
        if self.is_resolved:
            return self
        if not self.auto_tune:
            raise ValueError(
                "all of alpha, rho, eta, beta, d_theta must be set unless auto_tune"
            )
        rates = theoretical_rates(mdp, n=n, T=self.T, delta=self.delta)
        t_min = theoretical_min_iterations(mdp, n=n, delta=self.delta)
        if self.T < t_min:
            warnings.warn(
                f"auto-tuned run with T={self.T} below the theoretical minimum "
                f"{t_min:.0f}; proceeding anyway",
                stacklevel=2,
            )
        updates = {k: v for k, v in rates.items() if getattr(self, k) is None}
        return replace(self, **updates)


def canonical_d_theta(mdp: LinearMdp) -> float:
    """sqrt(d)/(1-gamma), the theta-ball radius of the theoretical schedule."""
    return float(np.sqrt(mdp.dim) / (1.0 - mdp.gamma))


def theoretical_rates(mdp: LinearMdp, n: int, T: int, delta: float) -> dict:
    """The full hyperparameter schedule as a dict of concrete rates."""
    d = mdp.dim
    gamma = mdp.gamma
    R = mdp.feature_bound
    A = mdp.num_actions
    log_A = np.log(A) if A > 1 else 1.0  # degenerate single-action case
    return {
        "d_theta": canonical_d_theta(mdp),
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
        for f in fields(self):
            object.__setattr__(self, f.name, _readonly(getattr(self, f.name)))


@dataclass(frozen=True)
class FogasRun:
    config: FogasConfig  # fully resolved
    chosen_index: int  # J in {1..T}
    lambda_final: np.ndarray
    theta_bar_final: np.ndarray
    output_param: np.ndarray  # alpha * theta_bar_{J-1}
    output_policy: TabularPolicy
    trajectory: FogasTrajectory | None


def best_response_theta(g: np.ndarray, d_theta: float) -> np.ndarray:
    """Minimizer of <theta, g> over the ball of radius d_theta.

    Returns the origin on a tie (g numerically zero), which leaves the
    cumulative policy parameter, and hence the policy, unchanged.
    """
    g = np.asarray(g, dtype=np.float64)
    norm = np.linalg.norm(g)
    if norm <= BEST_RESPONSE_TIE_TOL:
        return np.zeros_like(g)
    return -d_theta * g / norm


def mu_hat_features(
    psi_hat: PsiHat,
    gamma: float,
    features_x0: np.ndarray,
    features_next: np.ndarray,
    lam: np.ndarray,
) -> np.ndarray:
    """Feature expectation of the estimated occupancy mu-hat at (lambda, pi).

    ``features_x0`` is sum_a pi(a|x0) phi(x0,a) and row j of ``features_next``
    the same sum at ``psi_hat.observed_states[j]``. With C = Lambda^{-1} Sigma / n
    the estimator's columns, this equals
    (1-gamma) * features_x0 + gamma * features_next^T C^T lambda.
    """
    lam = np.asarray(lam, dtype=np.float64)
    return (1.0 - gamma) * features_x0 + gamma * features_next.T @ (psi_hat.columns.T @ lam)


def lambda_gradient(
    omega: np.ndarray,
    psi_hat: PsiHat,
    v_next: np.ndarray,
    theta: np.ndarray,
    gamma: float,
) -> np.ndarray:
    """omega + gamma * PsiHat v - theta, the ascent direction for lambda.

    ``v_next`` holds v at ``psi_hat.observed_states``, the only states PsiHat
    reads.
    """
    return np.asarray(omega) + gamma * psi_hat.columns @ np.asarray(v_next) \
        - np.asarray(theta)


def lambda_update(
    lambda_t: np.ndarray, g: np.ndarray, cov: Covariance, eta: float, rho: float
) -> np.ndarray:
    """Closed form of the stabilized, preconditioned mirror ascent step.

    Exact argmax of <lambda, g> - ||lambda - lambda_t||^2_{Lambda^{-1}}/(2 eta)
    - rho/2 * ||lambda||^2_{Lambda^{-1}}.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if rho < 0:
        raise ValueError("rho must be >= 0")
    lambda_t = np.asarray(lambda_t, dtype=np.float64)
    return (lambda_t + eta * cov.lambda_mat @ np.asarray(g)) / (1.0 + rho * eta)


def run_fogas(mdp: LinearMdp, dataset: OfflineDataset, config: FogasConfig) -> FogasRun:
    """Run the full ascent loop and return the randomized-index output policy.

    The returned policy is the iterate in force at the drawn iteration J, i.e.
    the softmax of alpha times the cumulative parameter after J-1 updates.
    """
    cfg = config.resolved(mdp, len(dataset))
    T, d, gamma = cfg.T, mdp.dim, mdp.gamma

    psi_hat = estimate_psi(dataset, cfg.beta)
    cov = psi_hat.covariance
    # Row 0: the initial state; rows 1..k: the observed next states.
    phi_sites = mdp.phi_by_state[np.concatenate(([mdp.x0], psi_hat.observed_states))]
    grad_bound = gradient_norm_bound(cfg, mdp) + 1e-8

    J = int(np.random.default_rng(cfg.seed).integers(1, T + 1))

    lam = np.zeros(d)
    theta_bar = np.zeros(d)
    output_param = None
    traj = None
    if cfg.record_trajectory:
        traj = {f.name: np.empty((T, d)) for f in fields(FogasTrajectory)}
        traj["grad_sq_norms"] = np.empty(T)

    for t in range(1, T + 1):
        scaled = cfg.alpha * theta_bar  # policy in force at iteration t
        if t == J:
            output_param = scaled
        features = softmax_features(phi_sites, scaled)

        # Value-parameter step: best response to the estimated feature occupancy.
        phimu = mu_hat_features(psi_hat, gamma, features[0], features[1:], lam)
        theta = best_response_theta(phimu - lam, cfg.d_theta)

        # Policy step in cumulative form.
        theta_bar = theta_bar + theta

        # Feature-occupancy step; v_{theta_t, pi_t} is read at observed next states.
        g = lambda_gradient(mdp.omega, psi_hat, features[1:] @ theta, theta, gamma)
        grad_sq = float(g @ (cov.lambda_mat @ g))
        if cfg.check_gradient_bound and grad_sq > grad_bound:
            raise AssertionError(
                f"gradient norm bound violated at iteration {t}: "
                f"{grad_sq:.6g} > {grad_bound:.6g}"
            )
        lam_next = lambda_update(lam, g, cov, cfg.eta, cfg.rho)

        if not (
            np.all(np.isfinite(lam_next))
            and np.all(np.isfinite(theta_bar))
            and np.all(np.isfinite(g))
        ):
            raise FloatingPointError(
                f"non-finite iterate at iteration {t} "
                f"(lambda finite: {bool(np.all(np.isfinite(lam_next)))}, "
                f"theta_bar finite: {bool(np.all(np.isfinite(theta_bar)))}, "
                f"gradient finite: {bool(np.all(np.isfinite(g)))})"
            )

        if traj is not None:  # values in FogasTrajectory field order
            for buf, value in zip(traj.values(), (lam, theta, theta_bar, phimu, g, grad_sq)):
                buf[t - 1] = value
        lam = lam_next

    return FogasRun(
        config=cfg,
        chosen_index=J,
        lambda_final=_readonly(lam),
        theta_bar_final=_readonly(theta_bar),
        output_param=_readonly(output_param),
        output_policy=softmax_from_logit_param(mdp, output_param),
        trajectory=None if traj is None else FogasTrajectory(**traj),
    )


def save_run(run: FogasRun, path) -> None:
    """Serialize a run (config echo, J, output parameter, optional trajectory)."""
    doc = {
        "config": asdict(run.config),
        "chosen_index": run.chosen_index,
        "lambda_final": run.lambda_final.tolist(),
        "theta_bar_final": run.theta_bar_final.tolist(),
        "output_param": run.output_param.tolist(),
    }
    if run.trajectory is not None:
        doc["trajectory"] = {
            f.name: getattr(run.trajectory, f.name).tolist()
            for f in fields(FogasTrajectory)
        }
    with open(path, "w") as f:
        f.write(json.dumps(doc))  # one call: the C encoder
        f.write("\n")


def _float_array(block: dict, key: str, shape: tuple) -> np.ndarray:
    arr = _readonly(np.array(block[key], dtype=np.float64))
    if arr.shape != shape:
        raise ValueError(f"{key} has shape {arr.shape}, expected {shape}")
    return arr


def load_run(path, mdp: LinearMdp) -> FogasRun:
    """Read a run file written by ``save_run``; a malformed file raises ValueError.

    The config must be resolved and every array must match its T and the
    MDP's dimension d.
    """
    with open(path) as f:
        doc = json.load(f)
    d = mdp.dim
    try:
        config = FogasConfig(**doc["config"])
        if not config.is_resolved:
            raise ValueError("config has unset rates")
        T = config.T
        chosen_index = int(doc["chosen_index"])
        if not 1 <= chosen_index <= T:
            raise ValueError(f"chosen_index {chosen_index} outside [1, {T}]")
        trajectory = None
        if "trajectory" in doc:
            block = doc["trajectory"]
            shapes = {f.name: (T, d) for f in fields(FogasTrajectory)}
            shapes["grad_sq_norms"] = (T,)
            if set(block) != set(shapes):
                raise ValueError(f"trajectory fields must be {sorted(shapes)}")
            trajectory = FogasTrajectory(
                **{key: _float_array(block, key, shape) for key, shape in shapes.items()}
            )
        output_param = _float_array(doc, "output_param", (d,))
        return FogasRun(
            config=config,
            chosen_index=chosen_index,
            lambda_final=_float_array(doc, "lambda_final", (d,)),
            theta_bar_final=_float_array(doc, "theta_bar_final", (d,)),
            output_param=output_param,
            output_policy=softmax_from_logit_param(mdp, output_param),
            trajectory=trajectory,
        )
    except KeyError as e:
        raise ValueError(f"run file {path} lacks the entry {e}") from None
    except (TypeError, ValueError) as e:
        raise ValueError(f"run file {path}: {e}") from None
