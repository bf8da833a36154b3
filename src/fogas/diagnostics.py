"""Trajectory diagnostics: dynamic duality gap, player regrets, and the
gap-estimation error, together with the exact decomposition identities.

Unlike the solver, these tools touch the whole state space: they materialize
all T iterate policies as (T, X, A) tables and score them with one batched
call to the rank-d oracle. Their memory grows as T*X*(A+d) and no X x X
array is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import OfflineDataset, PsiHat, estimate_psi
from .linmdp import LinearMdp, TabularPolicy, _stable_softmax_rows
from .oracle import evaluate_policies, evaluate_policy, solve_optimal
from .solver import FogasRun, FogasTrajectory

DECOMPOSITION_TOL = 1e-8
IDENTITY_TOL = 1e-8
D_THETA_MATCH_RTOL = 1e-12


def v_of_theta_policy(mdp: LinearMdp, probs: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """v(x) = sum_a pi(a|x) <theta, phi(x,a)> over the full state space."""
    q_lin = (mdp.phi @ np.asarray(theta)).reshape(mdp.num_states, mdp.num_actions)
    return (probs * q_lin).sum(axis=1)


def eval_f(mdp: LinearMdp, lam: np.ndarray, policy, theta: np.ndarray) -> float:
    """The reduced Lagrangian at (lambda, pi, theta), using the true Psi."""
    lam = np.asarray(lam, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    probs = policy.table().probs
    v = v_of_theta_policy(mdp, probs, theta)
    return float(
        (1.0 - mdp.gamma) * v[mdp.x0]
        + lam @ (mdp.omega + mdp.gamma * mdp.psi @ v - theta)
    )


def eval_f_hat(
    mdp: LinearMdp, psi_hat: PsiHat, lam: np.ndarray, policy, theta: np.ndarray
) -> float:
    """Sample-based counterpart of the reduced Lagrangian, Psi replaced by its estimate."""
    lam = np.asarray(lam, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    probs = policy.table().probs
    v = v_of_theta_policy(mdp, probs, theta)
    return float(
        (1.0 - mdp.gamma) * v[mdp.x0]
        + lam @ (mdp.omega + mdp.gamma * psi_hat.apply(v) - theta)
    )


@dataclass(frozen=True)
class Comparators:
    """The canonical comparator points built from the oracle."""

    pi_star: TabularPolicy
    lambda_star: np.ndarray  # (d,), feature occupancy of pi_star
    rho_star: float
    theta_stars: np.ndarray  # (T, d), theta of each iterate policy
    v_stars: np.ndarray  # (T, X), exact value function of each iterate policy
    rho_ts: np.ndarray  # (T,), exact return of each iterate policy
    policy_tables: np.ndarray  # (T, X, A), materialized iterate policies


def iterate_policy_tables(
    mdp: LinearMdp, trajectory: FogasTrajectory, alpha: float
) -> np.ndarray:
    """Materialize all T iterate policies; pi_1 is uniform."""
    T, d = trajectory.thetas.shape
    params = np.vstack([np.zeros(d), alpha * trajectory.theta_bars[:-1]])  # (T, d)
    logits = np.einsum("xad,td->txa", mdp.phi_by_state, params)
    return _stable_softmax_rows(logits)


def evaluate_iterates(
    mdp: LinearMdp, trajectory: FogasTrajectory, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact evaluation of every iterate policy pi_1..pi_T in one batched call.

    Returns the policy tables (T, X, A), the q-value parameters theta^{pi_t}
    (T, d), the value functions v^{pi_t} (T, X) and the returns rho(pi_t) (T,).
    """
    tables = iterate_policy_tables(mdp, trajectory, alpha)
    theta_stars, _, v_stars, rho_ts = evaluate_policies(mdp, tables)
    return tables, theta_stars, v_stars, rho_ts


def build_comparators(
    mdp: LinearMdp,
    trajectory: FogasTrajectory,
    alpha: float,
    pi_star: TabularPolicy | None = None,
) -> Comparators:
    if pi_star is None:
        pi_star, star_eval = solve_optimal(mdp)
    else:
        star_eval = evaluate_policy(mdp, pi_star)
    tables, theta_stars, v_stars, rho_ts = evaluate_iterates(mdp, trajectory, alpha)
    return Comparators(
        pi_star=pi_star,
        lambda_star=star_eval.lambda_pi,
        rho_star=star_eval.return_value,
        theta_stars=theta_stars,
        v_stars=v_stars,
        rho_ts=rho_ts,
        policy_tables=tables,
    )


def player_regrets(
    mdp: LinearMdp, trajectory: FogasTrajectory, comparators: Comparators
) -> tuple[float, float, float]:
    """The three regret sums (pi-player, lambda-player, theta-player), undivided."""
    lam_star = comparators.lambda_star
    nu_star = (1.0 - mdp.gamma) * mdp.nu0 + mdp.gamma * mdp.psi.T @ lam_star
    pi_star_probs = comparators.pi_star.probs

    T = trajectory.thetas.shape[0]
    regret_pi = 0.0
    for t in range(T):
        q_t = (mdp.phi @ trajectory.thetas[t]).reshape(mdp.num_states, mdp.num_actions)
        diff = pi_star_probs - comparators.policy_tables[t]
        regret_pi += float(nu_star @ (diff * q_t).sum(axis=1))

    regret_lambda = float(
        np.sum((lam_star[None, :] - trajectory.lambdas) * trajectory.g_lambdas)
    )
    regret_theta = float(
        np.sum(
            (trajectory.thetas - comparators.theta_stars)
            * (trajectory.phi_mu_hats - trajectory.lambdas)
        )
    )
    return regret_pi, regret_lambda, regret_theta


def gap_estimation_error(
    mdp: LinearMdp,
    psi_hat: PsiHat,
    trajectory: FogasTrajectory,
    comparators: Comparators,
) -> float:
    """sum_t <lambda*, (Psi - PsiHat) v_t> + sum_t <lambda_t, (PsiHat - Psi) v^{pi_t}>."""
    diff = psi_hat.dense() - mdp.psi  # (d, X)
    T = trajectory.thetas.shape[0]
    err = 0.0
    for t in range(T):
        v_t = v_of_theta_policy(mdp, comparators.policy_tables[t], trajectory.thetas[t])
        err += float(-comparators.lambda_star @ (diff @ v_t))
        err += float(trajectory.lambdas[t] @ (diff @ comparators.v_stars[t]))
    return err


@dataclass(frozen=True)
class GapReport:
    """Dynamic duality gap and its exact decomposition, per-iteration scale."""

    gap: float
    regret_pi: float  # already divided by T
    regret_lambda: float
    regret_theta: float
    err_psi_scaled: float  # (gamma / T) * gap-estimation error
    decomposition_residual: float
    suboptimality_lhs: float  # (1/T) sum_t (rho(pi*) - rho(pi_t))
    identity_residual: float
    identity_asserted: bool  # False when the run used a nonstandard theta ball

    CSV_COLUMNS = (
        "gap,regret_pi,regret_lambda,regret_theta,err_psi_scaled,"
        "decomposition_residual,identity_residual,suboptimality"
    )

    def csv_row(self) -> str:
        return ",".join(
            repr(v)
            for v in (
                self.gap,
                self.regret_pi,
                self.regret_lambda,
                self.regret_theta,
                self.err_psi_scaled,
                self.decomposition_residual,
                self.identity_residual,
                self.suboptimality_lhs,
            )
        )


def duality_gap_report(
    run: FogasRun,
    mdp: LinearMdp,
    dataset: OfflineDataset,
    pi_star: TabularPolicy | None = None,
    check_identities: bool = True,
) -> GapReport:
    """Fill a GapReport from a recorded run and verify the exact identities.

    The gap/suboptimality identity is only asserted when the run used the
    canonical ball radius sqrt(d)/(1-gamma); with a manual radius the residual
    is still reported but not checked.
    """
    if run.trajectory is None:
        raise ValueError("run was not recorded with record_trajectory")
    cfg = run.config
    trajectory = run.trajectory
    comp = build_comparators(mdp, trajectory, cfg.alpha, pi_star=pi_star)
    psi_hat = estimate_psi(dataset, cfg.beta)

    T = trajectory.thetas.shape[0]
    gap = 0.0
    for t in range(T):
        gap += eval_f(mdp, comp.lambda_star, comp.pi_star, trajectory.thetas[t])
        gap -= eval_f(
            mdp,
            trajectory.lambdas[t],
            TabularPolicy(comp.policy_tables[t]),
            comp.theta_stars[t],
        )
    gap /= T

    r_pi, r_lam, r_theta = player_regrets(mdp, trajectory, comp)
    err = gap_estimation_error(mdp, psi_hat, trajectory, comp)
    err_scaled = mdp.gamma * err / T
    decomposition_residual = abs(gap - (r_pi + r_lam + r_theta) / T - err_scaled)
    suboptimality_lhs = float(np.mean(comp.rho_star - comp.rho_ts))
    identity_residual = abs(suboptimality_lhs - gap)

    canonical_d_theta = np.sqrt(mdp.dim) / (1.0 - mdp.gamma)
    identity_asserted = bool(
        abs(cfg.d_theta - canonical_d_theta)
        <= D_THETA_MATCH_RTOL * max(1.0, canonical_d_theta)
    )
    if check_identities:
        if decomposition_residual > DECOMPOSITION_TOL:
            raise AssertionError(
                f"duality-gap decomposition residual {decomposition_residual:.3e} "
                f"exceeds {DECOMPOSITION_TOL}"
            )
        if identity_asserted and identity_residual > IDENTITY_TOL:
            raise AssertionError(
                f"gap/suboptimality identity residual {identity_residual:.3e} "
                f"exceeds {IDENTITY_TOL}"
            )
    return GapReport(
        gap=gap,
        regret_pi=r_pi / T,
        regret_lambda=r_lam / T,
        regret_theta=r_theta / T,
        err_psi_scaled=err_scaled,
        decomposition_residual=decomposition_residual,
        suboptimality_lhs=suboptimality_lhs,
        identity_residual=identity_residual,
        identity_asserted=identity_asserted,
    )
