"""Exact ground-truth solvers on the rank-d structure P = Phi Psi.

Every policy evaluation reduces to d x d systems: with the policy features
Phi_pi[x] = sum_a pi(a|x) phi(x,a) and M = I - gamma Psi Phi_pi, the q-value
parameter is theta_pi = M^{-1} omega and the feature occupancy is
lambda_pi = M^{-T} (1-gamma) Phi_pi[x0]. M is invertible for gamma < 1 because
the nonzero spectrum of Psi Phi_pi is that of the stochastic kernel P_pi.
Values and occupancies over the full state space follow in O(X*A*d), so no
X x X array is ever formed. The optimal policy comes from value iteration
through Phi (Psi v), and the relaxed-LP feasibility check materializes the
exact occupancy measure.
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
    """theta_pi = M^{-1} omega, M = I - gamma Psi Phi_pi, for a (T, d, d) stack
    of Psi Phi_pi. Returns theta_pi (T, d) and M."""
    M = np.eye(mdp.dim) - mdp.gamma * psi_phi_pi
    return np.linalg.solve(M, mdp.omega[:, None])[..., 0], M


def evaluate_policies(
    mdp, tables: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact evaluation of T policies at once, ``tables`` of shape (T, X, A).

    One einsum forms the policy features and one batched d x d solve per
    equation gives theta_pi and lambda_pi. Returns theta_pi (T, d),
    lambda_pi (T, d), the value functions v (T, X) and the returns (T,).
    """
    X, A = mdp.num_states, mdp.num_actions
    tables = np.asarray(tables, dtype=np.float64)
    if tables.shape[1:] != (X, A):
        raise ValueError(
            f"policy tables must have shape (T, {X}, {A}), got {tables.shape}"
        )
    gamma = mdp.gamma
    phi_pi = np.einsum("txa,xad->txd", tables, mdp.phi_by_state)  # (T, X, d)
    theta_pi, M = solve_flow(mdp, mdp.psi @ phi_pi)
    start = (1.0 - gamma) * phi_pi[:, mdp.x0]  # (T, d)
    lambda_pi = np.linalg.solve(M.transpose(0, 2, 1), start[..., None])[..., 0]
    v = np.einsum("txd,td->tx", phi_pi, theta_pi)
    return theta_pi, lambda_pi, v, np.einsum("td,td->t", start, theta_pi)


def evaluate_policy(mdp, policy) -> PolicyEvaluation:
    """Exact values and occupancies of one policy: ``evaluate_policies`` at T=1."""
    probs = policy.probs
    theta_pi, lambda_pi, v, returns = evaluate_policies(mdp, probs[None])
    # Flow: nu = (1-gamma) nu0 + gamma Psi^T lambda, then mu = pi o nu.
    nu = mdp.gamma * (mdp.psi.T @ lambda_pi[0])
    nu[mdp.x0] += 1.0 - mdp.gamma
    return PolicyEvaluation(
        q=mdp.phi @ theta_pi[0],
        v=v[0],
        theta_pi=theta_pi[0],
        mu=(probs * nu[:, None]).ravel(),
        nu=nu,
        lambda_pi=lambda_pi[0],
        return_value=float(returns[0]),
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
