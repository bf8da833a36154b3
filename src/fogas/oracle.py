"""Exact ground-truth solvers on the rank-d structure P = Phi Psi.

Every policy evaluation reduces to d x d systems: with the policy features
Phi_pi[x] = sum_a pi(a|x) phi(x,a) and M = I - gamma Psi Phi_pi, the q-value
parameter is theta_pi = M^{-1} omega and the feature occupancy is
lambda_pi = M^{-T} (1-gamma) Phi_pi[x0]. M is invertible for gamma < 1 because
the nonzero spectrum of Psi Phi_pi is that of the stochastic kernel P_pi.
Values and occupancies over the full state space follow in O(X*A*d), so no
X x X array is ever formed. ``evaluate_policy`` scores one policy; the
iterates of a run are scored in blocks by ``diagnostics.score_iterates``,
which shares the d x d solve ``solve_flow``. The optimal policy comes from
value iteration through Phi (Psi v), and the relaxed-LP feasibility check
materializes the exact occupancy measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PolicyEvaluation:
    """Exact evaluation of one policy: values, occupancies, and feature forms.

    ``theta_pi`` is the q-value parameter omega + gamma * Psi v, ``lambda_pi``
    the feature occupancy Phi^T mu, and ``return_value`` the normalized return.
    """

    q: np.ndarray  # (X*A,)
    v: np.ndarray  # (X,)
    theta_pi: np.ndarray  # (d,)
    mu: np.ndarray  # (X*A,)
    nu: np.ndarray  # (X,)
    lambda_pi: np.ndarray  # (d,)
    return_value: float


def solve_flow(mdp, psi_phi_pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """theta_pi = M^{-1} omega, M = I - gamma Psi Phi_pi, for one d x d
    Psi Phi_pi or a (T, d, d) stack of them. Returns theta_pi, (d,) or (T, d),
    and M."""
    M = np.eye(mdp.dim) - mdp.gamma * psi_phi_pi
    return np.linalg.solve(M, mdp.omega[:, None])[..., 0], M


def evaluate_policy(mdp, policy) -> PolicyEvaluation:
    """Exact values and occupancies of one policy, from its features Phi_pi
    (X, d) and two d x d solves: ``solve_flow`` for theta_pi, M^T for lambda_pi."""
    X, A = mdp.num_states, mdp.num_actions
    probs = policy.probs
    if probs.shape != (X, A):
        raise ValueError(f"policy table must have shape ({X}, {A}), got {probs.shape}")
    gamma = mdp.gamma
    phi_pi = np.einsum("xa,xad->xd", probs, mdp.phi_by_state)  # (X, d)
    theta_pi, M = solve_flow(mdp, mdp.psi @ phi_pi)
    start = (1.0 - gamma) * phi_pi[mdp.x0]
    lambda_pi = np.linalg.solve(M.T, start)
    # Flow: nu = (1-gamma) nu0 + gamma Psi^T lambda, then mu = pi o nu.
    nu = gamma * (mdp.psi.T @ lambda_pi)
    nu[mdp.x0] += 1.0 - gamma
    return PolicyEvaluation(
        q=mdp.phi @ theta_pi,
        v=phi_pi @ theta_pi,
        theta_pi=theta_pi,
        mu=(probs * nu[:, None]).ravel(),
        nu=nu,
        lambda_pi=lambda_pi,
        return_value=float(start @ theta_pi),
    )


def solve_optimal(mdp, tol: float = 1e-10):
    """Value iteration to sup-norm gap tol*(1-gamma)/(2*gamma), then greedy.

    Each sweep applies the kernel in factored form, q <- r + gamma Phi (Psi v).
    Returns the greedy deterministic policy (ties broken by lowest action
    index) together with its exact evaluation.
    """
    from .linmdp import TabularPolicy

    if tol <= 0:
        raise ValueError("tol must be positive")
    X, A = mdp.num_states, mdp.num_actions
    r = mdp.rewards
    gamma = mdp.gamma
    # Stop when successive q iterates differ by at most this much; the greedy
    # policy is then tol-optimal on the normalized return scale.
    gap = tol * (1.0 - gamma) / (2.0 * gamma) if gamma > 0 else tol

    # With a stochastic kernel, sweep k+1 moves q by at most gamma^k * max|r|,
    # so the gap is reached within `sweeps` sweeps; the cap doubles that to
    # leave room for roundoff.
    r_max = float(np.abs(r).max())
    sweeps = np.ceil(np.log(gap / r_max) / np.log(gamma)) if r_max > gap else 0
    max_sweeps = 2 * int(sweeps) + 10

    q = np.zeros(X * A)
    for _ in range(max_sweeps):
        v = q.reshape(X, A).max(axis=1)
        q_next = r + gamma * (mdp.phi @ (mdp.psi @ v))
        converged = np.abs(q_next - q).max() <= gap
        q = q_next
        if converged:
            break
    else:
        raise RuntimeError(
            f"value iteration did not converge within {max_sweeps} sweeps; "
            "the transition kernel is not stochastic"
        )

    greedy = q.reshape(X, A).argmax(axis=1)  # argmax takes the lowest index on ties
    probs = np.zeros((X, A))
    probs[np.arange(X), greedy] = 1.0
    policy = TabularPolicy(probs)
    return policy, evaluate_policy(mdp, policy)


def relaxed_lp_feasibility(mdp, policy, lam: np.ndarray | None = None) -> dict:
    """Residuals of the two feature-occupancy LP constraints at (mu^pi, lambda).

    With lambda = Phi^T mu^pi (the default) both residuals vanish up to solver
    precision, reflecting the correspondence between the relaxed and original
    feasible sets.
    """
    X, A = mdp.num_states, mdp.num_actions
    ev = evaluate_policy(mdp, policy)
    if lam is None:
        lam = ev.lambda_pi
    lam = np.asarray(lam, dtype=np.float64)
    flow = ev.mu.reshape(X, A).sum(axis=1) - (1.0 - mdp.gamma) * mdp.nu0 \
        - mdp.gamma * (mdp.psi.T @ lam)
    lam_res = lam - mdp.phi.T @ ev.mu
    return {
        "flow_residual": float(np.abs(flow).max()),
        "lambda_residual": float(np.abs(lam_res).max()),
    }
