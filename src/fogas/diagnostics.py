"""Trajectory diagnostics: dynamic duality gap, player regrets, and the
gap-estimation error, together with the exact decomposition identities.

Unlike the solver, these tools touch the whole state space, but every score
they need of the T iterate policies is a reduction over the states with d or
fewer columns per iterate. ``score_iterates`` computes them in the C kernel,
in blocks of iterates whose scratch stays within about ``SAMPLE_CHUNK_BYTES``,
and keeps O(T*d + X*d) results; no array has both the T axis and the X axis.
The reduced Lagrangian is affine in theta and in lambda, so the sums over
iterates are array algebra on these reductions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from .data import OfflineDataset, PsiHat, estimate_psi
from .linmdp import SAMPLE_CHUNK_BYTES, LinearMdp, TabularPolicy
from .solver import FogasRun, FogasTrajectory

DECOMPOSITION_TOL = 1e-8
IDENTITY_TOL = 1e-8
# The scorer's lane blocks are multiples of SCORE_PAD (as in _kernel.c), so
# every exp runs in a full vector of the widest build, and at most
# SCORE_LANES long: a block's scratch then stays within a core's L2 cache.
SCORE_PAD = 8
SCORE_LANES = 128


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

    One call of the C kernel ``fogas_score_iterates`` (``_kernel.c``) walks
    the iterates in blocks of lanes (see ``SCORE_PAD``), whose scratch stays
    within about ``SAMPLE_CHUNK_BYTES``. Per block and state it forms each
    iterate's softmax and Phi_pi(x), and adds psi(x) Phi_pi(x)^T to its
    Psi Phi_pi; one Gaussian elimination over all lanes of the block then
    solves each iterate's flow system (one tabular policy is solved by numpy
    in ``oracle.evaluate_policy`` instead). Its specification is
    ``reference_score_iterates`` in ``tests/conftest.py``. Returns
    theta^{pi_t} (T, d), rho(pi_t) (T,), Psi v^{pi_t} (T, d),
    sum_t v_{theta_t, pi_t} (X,) and sum_t lambda_t (v^{pi_t})^T (d, X).
    With ``values=False`` the last two are None, and neither they nor the
    kernel's second pass over the states are made; the first three do not
    change. An exactly singular I - gamma Psi Phi_pi raises
    ``np.linalg.LinAlgError``.
    """
    X, A, d = mdp.num_states, mdp.num_actions, mdp.dim
    T = len(trajectory.thetas)
    kernel = _native._kernel()
    lane_floats = kernel.fogas_score_lane_floats(A, d)
    lanes = SCORE_PAD * max(1, min(-(-T // SCORE_PAD), SCORE_LANES // SCORE_PAD,
                                   SAMPLE_CHUNK_BYTES // (8 * SCORE_PAD * lane_floats)))
    params = np.vstack([np.zeros(d), alpha * trajectory.theta_bars[:-1]])  # pi_1 uniform
    out = np.empty((T, 2 * d + 1))  # rows (theta^{pi_t}, Psi v^{pi_t}, rho(pi_t))
    work = np.empty(lanes * lane_floats + SCORE_PAD)
    v_sum = lambda_v = None
    value_args = [None] * 4  # thetas, lambdas, v_sum and lambda_v, or NULL
    if values:
        thetas, lambdas = (np.ascontiguousarray(a, dtype=np.float64)
                           for a in (trajectory.thetas, trajectory.lambdas))
        v_sum, lambda_v = np.zeros(X), np.zeros((d, X))
        value_args = [a.ctypes.data for a in (thetas, lambdas, v_sum, lambda_v)]
    singular = kernel.fogas_score_iterates(
        T, X, A, d, lanes, mdp.phi.ctypes.data, mdp.psi.ctypes.data, mdp.omega.ctypes.data,
        mdp.gamma, mdp.x0, params.ctypes.data, work.ctypes.data, out.ctypes.data, *value_args)
    if singular:
        raise np.linalg.LinAlgError(f"Singular matrix: I - gamma Psi Phi_pi of pi_{singular}")
    return out[:, :d], out[:, 2 * d], out[:, d:2 * d], v_sum, lambda_v


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
