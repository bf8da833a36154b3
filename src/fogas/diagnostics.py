"""Trajectory diagnostics: dynamic duality gap, player regrets, and the
gap-estimation error, together with the exact decomposition identities.

Unlike the solver, these tools touch the whole state space, but every score
they need of the T iterate policies is a reduction over the states with d or
fewer columns per iterate. ``score_iterates`` streams the iterates in blocks
of t and the states in chunks of x, so its scratch stays within about
``SAMPLE_CHUNK_BYTES`` and it keeps O(T*d + X*d) results; no array has both
the T axis and the X axis. The reduced Lagrangian is affine in theta and in
lambda, so the sums over iterates are array algebra on these reductions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import OfflineDataset, PsiHat, estimate_psi
from .linmdp import (
    SAMPLE_CHUNK_BYTES,
    LinearMdp,
    TabularPolicy,
    action_major_phi,
    action_major_softmax,
)
from .oracle import solve_flow
from .solver import FogasRun, FogasTrajectory

DECOMPOSITION_TOL = 1e-8
IDENTITY_TOL = 1e-8


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


def score_iterates(
    mdp: LinearMdp, trajectory: FogasTrajectory, alpha: float, *, values: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Exact evaluation of every iterate policy, reduced over the states.

    Per block of iterates and chunk of states, one GEMM forms the logits and
    one GEMM against K[(a,x)] = psi(x) phi(x,a)^T adds to Psi Phi_pi; one
    ``solve_flow`` call per block gives theta^{pi_t}, rho(pi_t) and
    Psi v^{pi_t}, and a second pass over the chunks reads v^{pi_t}. K takes at
    most a quarter of ``SAMPLE_CHUNK_BYTES``, and a block's two action-major
    (A, states, B) tables and its (B, d, d) stacks at most half. Returns
    theta^{pi_t} (T, d), rho(pi_t) (T,), Psi v^{pi_t} (T, d),
    sum_t v_{theta_t, pi_t} (X,) and sum_t lambda_t (v^{pi_t})^T (d, X).
    With ``values=False`` the last two are None, and neither their products
    nor the second pass are made; the first three do not change.
    """
    X, A, d = mdp.num_states, mdp.num_actions, mdp.dim
    T = len(trajectory.thetas)
    states = max(1, min(X, SAMPLE_CHUNK_BYTES // (32 * A * d * d)))
    block = max(1, min(T, SAMPLE_CHUNK_BYTES // (32 * (states * A + 2 * d * d))))
    chunks = [slice(lo, min(lo + states, X)) for lo in range(0, X, states)]
    params = np.vstack([np.zeros(d), alpha * trajectory.theta_bars[:-1]])  # pi_1 uniform
    theta_stars, psi_vs, rho_ts = np.empty((T, d)), np.empty((T, d)), np.empty(T)
    v_sum, lambda_v = (np.zeros(X), np.zeros((d, X))) if values else (None, None)

    # Each table-sized array is dropped before the next one is made.
    for lo in range(0, T, block):
        t = slice(lo, min(lo + block, T))
        B = t.stop - lo
        psi_phi = np.zeros((B, d * d))
        for c in chunks:
            probs = None
            phi_c = action_major_phi(mdp, c)
            probs = action_major_softmax(phi_c, params[t])  # (A, states of c, B)
            phi_c = phi_c.reshape(-1, d)  # row a * (states of c) + x
            rows = probs.reshape(-1, B)
            kernel = np.tile(mdp.psi[:, c].T, (A, 1))[:, :, None] * phi_c[:, None, :]
            psi_phi += rows.T @ kernel.reshape(-1, d * d)
            del kernel
            if values:
                weighted = rows @ trajectory.thetas[t]  # sum_t pi_t theta_t
                v_sum[c] += np.einsum("kd,kd->k", phi_c, weighted).reshape(A, -1).sum(axis=0)
            if c.start <= mdp.x0 < c.stop:  # Phi_pi[x0], (B, d)
                phi_x0 = probs[:, mdp.x0 - c.start].T @ mdp.phi_by_state[mdp.x0]
        theta, rho_ts[t], psi_vs[t] = solve_flow(mdp, psi_phi.reshape(B, d, d), phi_x0)
        theta_stars[t] = theta
        for c in chunks if values else ():
            phi_c = action_major_phi(mdp, c)
            if len(chunks) > 1:
                probs = None
                probs = action_major_softmax(phi_c, params[t])
            q = phi_c.reshape(-1, d) @ theta.T  # (A * states of c, B)
            q *= probs.reshape(-1, B)
            v = q.reshape(A, -1, B).sum(axis=0)  # v^{pi_t} on c, (states of c, B)
            lambda_v[:, c] += trajectory.lambdas[t].T @ v.T
            del q, v
        del probs
    return theta_stars, rho_ts, psi_vs, v_sum, lambda_v


@dataclass(frozen=True)
class Comparators:
    """The canonical comparator points built from the oracle, and the
    reductions of the iterates they are compared against (``score_iterates``)."""

    pi_star: TabularPolicy
    lambda_star: np.ndarray  # (d,), feature occupancy of pi_star
    rho_star: float
    theta_stars: np.ndarray  # (T, d), theta of each iterate policy
    rho_ts: np.ndarray  # (T,), exact return of each iterate policy
    psi_vs: np.ndarray  # (T, d), Psi v^{pi_t}
    v_sum: np.ndarray  # (X,), sum_t v_{theta_t, pi_t}
    lambda_v: np.ndarray  # (d, X), sum_t lambda_t (v^{pi_t})^T


def build_comparators(mdp: LinearMdp, trajectory: FogasTrajectory, alpha: float) -> Comparators:
    pi_star, star_eval = mdp.optimal
    return Comparators(
        pi_star, star_eval.lambda_pi, star_eval.return_value,
        *score_iterates(mdp, trajectory, alpha),
    )


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
    regret_pi = float(nu_star @ (v_comparator - comparators.v_sum))
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
    """sum_t <lambda*, (Psi - PsiHat) v_t> + sum_t <lambda_t, (PsiHat - Psi) v^{pi_t}>.

    The second sum is <PsiHat - Psi, sum_t lambda_t (v^{pi_t})^T>, so it takes
    any estimate from the iterates' one (d, X) reduction.
    """
    diff = psi_hat.dense() - mdp.psi  # (d, X)
    return float(
        -comparators.lambda_star @ (diff @ comparators.v_sum)
        + np.sum(diff * comparators.lambda_v)
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
    identity_residual: float
    suboptimality: float  # (1/T) sum_t (rho(pi*) - rho(pi_t))

    # The gap-report CSV's header; each column names a field.
    CSV_COLUMNS = ("gap,regret_pi,regret_lambda,regret_theta,err_psi_scaled,"
                   "decomposition_residual,identity_residual,suboptimality")

    def csv_row(self) -> str:
        return ",".join(repr(getattr(self, column)) for column in self.CSV_COLUMNS.split(","))


def duality_gap_report(
    run: FogasRun,
    mdp: LinearMdp,
    dataset: OfflineDataset,
    check_identities: bool = True,
) -> GapReport:
    """Fill a GapReport from a recorded run and verify the exact identities.

    Both identities hold at every theta-ball radius, so ``check_identities``
    asserts both for any run. The gap/suboptimality one needs no particular
    radius because f(lambda*, pi*, theta) = <lambda*, omega> = rho(pi*) for
    every theta (lambda* meets pi*'s flow constraint) and
    f(lambda_t, pi_t, theta^{pi_t}) = rho(pi_t) for every lambda_t.
    """
    if run.trajectory is None:
        raise ValueError("run was not recorded with record_trajectory")
    cfg = run.config
    trajectory = run.trajectory
    comp = build_comparators(mdp, trajectory, cfg.alpha)
    psi_hat = estimate_psi(dataset, cfg.beta)

    T = trajectory.thetas.shape[0]
    # f is affine in theta: the comparator side at the mean theta. The iterate
    # side f(lambda_t, pi_t, theta^{pi_t}) has (1-gamma) v^{pi_t}(x0) = rho(pi_t)
    # and reads Psi v^{pi_t} from the oracle.
    f_star = eval_f(mdp, comp.lambda_star, comp.pi_star, trajectory.thetas.mean(axis=0))
    f_iterates = comp.rho_ts + np.sum(
        trajectory.lambdas
        * (mdp.omega + mdp.gamma * comp.psi_vs - comp.theta_stars),
        axis=1,
    )
    gap = f_star - float(np.mean(f_iterates))

    r_pi, r_lam, r_theta = player_regrets(mdp, trajectory, comp)
    err = gap_estimation_error(mdp, psi_hat, trajectory, comp)
    err_scaled = mdp.gamma * err / T
    decomposition_residual = abs(gap - (r_pi + r_lam + r_theta) / T - err_scaled)
    suboptimality = float(np.mean(comp.rho_star - comp.rho_ts))
    identity_residual = abs(suboptimality - gap)
    if check_identities:
        # Written so that a NaN residual fails the check.
        if not decomposition_residual <= DECOMPOSITION_TOL:
            raise AssertionError(
                f"duality-gap decomposition residual {decomposition_residual:.3e} "
                f"exceeds {DECOMPOSITION_TOL}"
            )
        if not identity_residual <= IDENTITY_TOL:
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
        identity_residual=identity_residual,
        suboptimality=suboptimality,
    )
