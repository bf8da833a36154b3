"""Exact ground-truth solvers on the rank-d structure P = Phi Psi.

Every policy evaluation reduces to d x d systems: with the policy features
Phi_pi[x] = sum_a pi(a|x) phi(x,a) and M = I - gamma Psi Phi_pi, the q-value
parameter is theta_pi = M^{-1} omega and the feature occupancy is
lambda_pi = M^{-T} (1-gamma) Phi_pi[x0]. M is invertible for gamma < 1 because
the nonzero spectrum of Psi Phi_pi is that of the stochastic kernel P_pi.
Values and occupancies over the full state space follow in O(X*A*d), so no
X x X array is ever formed.

``solve_flow`` is the one entry to these solves: one call of the C kernel
``fogas_solve_flow`` (``_kernel.c``) solves a block of them by Gaussian
elimination with partial pivoting. Its specification, numpy's LAPACK solve,
is ``reference_solve_flow`` in ``tests/conftest.py``. ``evaluate_policy``
scores one policy with one call (theta_pi on M, lambda_pi on M^T); the
iterates of a run are scored by ``diagnostics.score_iterates``, whose kernel
solves their systems with the same elimination. ``solve_optimal`` finds the
optimal policy by policy iteration, one ``evaluate_policy`` and one greedy
step per round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native

# Policy iteration switches an action only on a gain above SWITCH_TOL * (1+|q|),
# so roundoff alone cannot make it cycle; MAX_ROUNDS caps it all the same (the
# generated MDPs take 2-3 rounds). A normalized return is a mix of rewards, so
# one outside [min r, max r] by more than RETURN_SLACK * (1 + max|r|) marks a
# kernel that is not stochastic.
SWITCH_TOL = 1e-12
MAX_ROUNDS = 1000
RETURN_SLACK = 1e-9


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
    lambda_pi: np.ndarray  # (d,)
    return_value: float


def solve_flow(mdp, operators: np.ndarray, phi_x0: np.ndarray,
               rhs: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flow solves of a block of B policies, in one kernel call.

    For each d x d operator P_b of ``operators`` (B, d, d) and row b of
    ``phi_x0`` and ``rhs`` (B, d each; omega in every row by default):
    theta_b = (I - gamma P_b)^{-1} rhs_b, rho_b = (1-gamma) <phi_x0_b,
    theta_b> and P_b theta_b. With P_b = Psi Phi_{pi_b} and phi_x0_b =
    Phi_{pi_b}[x0] these are theta^{pi_b}, the return rho(pi_b) and
    Psi v^{pi_b}; with P_b transposed and rhs_b = (1-gamma) Phi_pi[x0],
    theta_b is lambda_pi. Returns theta (B, d), rho (B,) and P theta (B, d).
    An exactly singular I - gamma P_b raises ``np.linalg.LinAlgError``.
    """
    B, d = phi_x0.shape
    if rhs is None:
        rhs = np.repeat(mdp.omega[None], B, axis=0)
    operators, phi_x0, rhs = (np.ascontiguousarray(a, dtype=np.float64)
                              for a in (operators, phi_x0, rhs))
    if operators.shape != (B, d, d) or rhs.shape != (B, d):
        raise ValueError(f"operators {operators.shape} and rhs {rhs.shape} do not match "
                         f"phi_x0 {phi_x0.shape}")
    out = np.empty(B * (2 * d + 1) + d * d)  # rows (theta_b, P_b theta_b, rho_b), scratch
    singular = _native._kernel().fogas_solve_flow(
        B, d, operators.ctypes.data, mdp.gamma, rhs.ctypes.data, phi_x0.ctypes.data,
        out.ctypes.data)
    if singular:
        raise np.linalg.LinAlgError(f"Singular matrix: I - gamma P_b at b = {singular - 1}")
    rows = out[:B * (2 * d + 1)].reshape(B, 2 * d + 1)
    return rows[:, :d], rows[:, 2 * d], rows[:, d:2 * d]


def evaluate_policy(mdp, policy) -> PolicyEvaluation:
    """Exact values and occupancies of one policy, from its features Phi_pi
    (X, d) and one ``solve_flow`` call: M for theta_pi, M^T for lambda_pi."""
    X, A = mdp.num_states, mdp.num_actions
    probs = policy.probs
    if probs.shape != (X, A):
        raise ValueError(f"policy table must have shape ({X}, {A}), got {probs.shape}")
    gamma = mdp.gamma
    phi_pi = np.einsum("xa,xad->xd", probs, mdp.phi_by_state)  # (X, d)
    psi_phi, phi_x0 = mdp.psi @ phi_pi, phi_pi[mdp.x0]
    (theta_pi, lambda_pi), (return_value, _), _ = solve_flow(
        mdp, np.array([psi_phi, psi_phi.T]), np.array([phi_x0, phi_x0]),
        np.array([mdp.omega, (1.0 - gamma) * phi_x0]))
    # Flow: nu = (1-gamma) nu0 + gamma Psi^T lambda, then mu = pi o nu.
    nu = gamma * (mdp.psi.T @ lambda_pi)
    nu[mdp.x0] += 1.0 - gamma
    return PolicyEvaluation(
        q=mdp.phi @ theta_pi,
        v=phi_pi @ theta_pi,
        theta_pi=theta_pi,
        mu=(probs * nu[:, None]).ravel(),
        lambda_pi=lambda_pi,
        return_value=float(return_value),
    )


def solve_optimal(mdp):
    """Howard policy iteration (Howard 1960; Puterman 1994, sec. 6.4).

    Starts from action 0 in every state. Each round evaluates the current
    deterministic policy exactly, q = Phi theta_pi = r + gamma Phi Psi v^pi,
    and switches a state to its lowest-index greedy action only where that
    gains more than SWITCH_TOL * (1 + |q|). Stops when no state switches and
    returns the policy together with its exact evaluation.

    Raises RuntimeError if a policy's normalized return leaves [min r, max r],
    which a stochastic kernel rules out, or if the rounds reach MAX_ROUNDS.
    """
    from .linmdp import TabularPolicy

    X, A = mdp.num_states, mdp.num_actions
    r = mdp.rewards
    slack = RETURN_SLACK * (1.0 + float(np.abs(r).max()))
    lowest, highest = r.min() - slack, r.max() + slack
    states = np.arange(X)
    actions = np.zeros(X, dtype=np.intp)
    for _ in range(MAX_ROUNDS):
        probs = np.zeros((X, A))
        probs[states, actions] = 1.0
        policy = TabularPolicy(probs)
        ev = evaluate_policy(mdp, policy)
        if not lowest <= ev.return_value <= highest:
            raise RuntimeError(
                f"policy iteration did not converge: a policy's return "
                f"{ev.return_value:.6g} lies outside the reward range; "
                "the transition kernel is not stochastic"
            )
        q = ev.q.reshape(X, A)
        current = q[states, actions]
        greedy = q.argmax(axis=1)  # argmax takes the lowest index on ties
        switch = q[states, greedy] > current + SWITCH_TOL * (1.0 + np.abs(current))
        if not switch.any():
            return policy, ev
        actions = np.where(switch, greedy, actions)
    raise RuntimeError(f"policy iteration did not converge within {MAX_ROUNDS} rounds")
