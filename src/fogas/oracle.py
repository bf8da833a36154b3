"""Exact tabular ground-truth solvers.

Everything here is allowed to touch the full state space: value functions and
occupancy measures come from direct dense linear solves, the optimal policy
from value iteration, and the relaxed-LP feasibility check materializes the
exact occupancy measure. Intended for desk-scale MDPs (X*A up to ~1e4).
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


def _policy_table(policy) -> np.ndarray:
    return policy.table().probs


def evaluate_policy(mdp, policy) -> PolicyEvaluation:
    """Solve the Bellman equation and flow condition exactly for one policy."""
    X, A = mdp.num_states, mdp.num_actions
    probs = _policy_table(policy)
    if probs.shape != (X, A):
        raise ValueError(f"policy table must have shape ({X}, {A}), got {probs.shape}")
    P = mdp.transition_matrix  # (X*A, X)
    r = mdp.rewards

    # State-to-state kernel and reward under the policy.
    P_pi = (probs[:, :, None] * P.reshape(X, A, X)).sum(axis=1)  # (X, X)
    r_pi = (probs * r.reshape(X, A)).sum(axis=1)

    gamma = mdp.gamma
    v = np.linalg.solve(np.eye(X) - gamma * P_pi, r_pi)
    q = r + gamma * P @ v
    theta_pi = mdp.omega + gamma * mdp.psi @ v

    # Flow: nu = (1-gamma) nu0 + gamma P_pi^T nu, then mu = pi o nu.
    nu = np.linalg.solve(np.eye(X) - gamma * P_pi.T, (1.0 - gamma) * mdp.nu0)
    mu = (probs * nu[:, None]).ravel()
    lambda_pi = mdp.phi.T @ mu
    return PolicyEvaluation(
        q=q,
        v=v,
        theta_pi=theta_pi,
        mu=mu,
        nu=nu,
        lambda_pi=lambda_pi,
        return_value=float(mu @ r),
    )


def solve_optimal(mdp, tol: float = 1e-10):
    """Value iteration to sup-norm gap tol*(1-gamma)/(2*gamma), then greedy.

    Returns the greedy deterministic policy (ties broken by lowest action
    index) together with its exact evaluation.
    """
    from .linmdp import TabularPolicy

    if tol <= 0:
        raise ValueError("tol must be positive")
    X, A = mdp.num_states, mdp.num_actions
    P = mdp.transition_matrix
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
        q_next = r + gamma * P @ v
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
