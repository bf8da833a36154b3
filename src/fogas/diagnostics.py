"""Trajectory diagnostics: dynamic duality gap, player regrets, and the
gap-estimation error, together with the exact decomposition identities.

Unlike the solver, these tools touch the whole state space: they materialize
all T iterate policies as (T, X, A) tables and score them with one batched
call to the rank-d oracle. The reduced Lagrangian is affine in theta and in
lambda, so the sums over iterates are array algebra on the stacked iterates,
with no Python loop over t. Memory grows as T*X*(A+d) and no X x X array
is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import OfflineDataset, PsiHat, estimate_psi
from .linmdp import LinearMdp, TabularPolicy, _stable_softmax_rows
from .oracle import evaluate_policies, evaluate_policy, solve_optimal
from .solver import FogasRun, FogasTrajectory, canonical_d_theta

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
    v = v_of_theta_policy(mdp, policy.probs, theta)
    return float(
        (1.0 - mdp.gamma) * v[mdp.x0]
        + lam @ (mdp.omega + mdp.gamma * mdp.psi @ v - theta)
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


def summed_iterate_values(
    mdp: LinearMdp, tables: np.ndarray, thetas: np.ndarray
) -> np.ndarray:
    """sum_t v_{theta_t, pi_t}, shape (X,), for policy tables (T, X, A).

    Contracting over t first gives sum_t pi_t(a|x) theta_t, shape (X*A, d), so
    no (T, X, d) array is formed.
    """
    weighted = tables.reshape(len(tables), -1).T @ thetas
    q_sum = np.einsum("kd,kd->k", mdp.phi, weighted)
    return q_sum.reshape(mdp.num_states, mdp.num_actions).sum(axis=1)


def player_regrets(
    mdp: LinearMdp, trajectory: FogasTrajectory, comparators: Comparators
) -> tuple[float, float, float]:
    """The three regret sums (pi-player, lambda-player, theta-player), undivided.

    The pi-player sum is <nu*, v_{sum_t theta_t, pi*} - sum_t v_{theta_t, pi_t}>,
    since v_{theta, pi} is linear in theta.
    """
    lam_star = comparators.lambda_star
    nu_star = (1.0 - mdp.gamma) * mdp.nu0 + mdp.gamma * mdp.psi.T @ lam_star
    thetas = trajectory.thetas
    v_comparator = v_of_theta_policy(mdp, comparators.pi_star.probs, thetas.sum(axis=0))
    v_iterates = summed_iterate_values(mdp, comparators.policy_tables, thetas)
    regret_pi = float(nu_star @ (v_comparator - v_iterates))
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
    v_sum = summed_iterate_values(mdp, comparators.policy_tables, trajectory.thetas)
    return float(
        -comparators.lambda_star @ (diff @ v_sum)
        + np.sum(trajectory.lambdas * (comparators.v_stars @ diff.T))
    )


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
    # f is affine in theta: the comparator side at the mean theta. The iterate
    # side f(lambda_t, pi_t, theta^{pi_t}) reads v^{pi_t} from the oracle.
    f_star = eval_f(mdp, comp.lambda_star, comp.pi_star, trajectory.thetas.mean(axis=0))
    f_iterates = (1.0 - mdp.gamma) * comp.v_stars[:, mdp.x0] + np.sum(
        trajectory.lambdas
        * (mdp.omega + mdp.gamma * (comp.v_stars @ mdp.psi.T) - comp.theta_stars),
        axis=1,
    )
    gap = f_star - float(np.mean(f_iterates))

    r_pi, r_lam, r_theta = player_regrets(mdp, trajectory, comp)
    err = gap_estimation_error(mdp, psi_hat, trajectory, comp)
    err_scaled = mdp.gamma * err / T
    decomposition_residual = abs(gap - (r_pi + r_lam + r_theta) / T - err_scaled)
    suboptimality_lhs = float(np.mean(comp.rho_star - comp.rho_ts))
    identity_residual = abs(suboptimality_lhs - gap)

    radius = canonical_d_theta(mdp)
    identity_asserted = bool(
        abs(cfg.d_theta - radius) <= D_THETA_MATCH_RTOL * max(1.0, radius)
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
