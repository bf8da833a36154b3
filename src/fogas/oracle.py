"""Exact ground-truth solvers on the rank-d structure P = Phi Psi.

Every policy evaluation reduces to d x d systems: with the policy features
Phi_pi[x] = sum_a pi(a|x) phi(x,a) and M = I - gamma Psi Phi_pi, the q-value
parameter is theta_pi = M^{-1} omega and the feature occupancy is
lambda_pi = M^{-T} (1-gamma) Phi_pi[x0]. M is invertible for gamma < 1 because
the nonzero spectrum of Psi Phi_pi is that of the stochastic kernel P_pi.
Values and occupancies over the full state space follow in O(X*A*d), so no
X x X array is ever formed.

``evaluate_policy`` scores one policy with one batched numpy solve, theta_pi
on M and lambda_pi on M^T. The T softmax iterates of a run are scored by
``diagnostics.score_iterates`` instead, whose C kernel solves their systems
lane by lane in a block. ``solve_optimal`` finds the optimal policy by policy
iteration, one ``evaluate_policy`` and one greedy step per round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def evaluate_policy(mdp, policy) -> PolicyEvaluation:
    """Exact values and occupancies of one policy, from its features Phi_pi
    (X, d) and one batched solve: M for theta_pi, M^T for lambda_pi. An
    exactly singular M raises ``np.linalg.LinAlgError``."""
    X, A = mdp.num_states, mdp.num_actions
    probs = policy.probs
    if probs.shape != (X, A):
        raise ValueError(f"policy table must have shape ({X}, {A}), got {probs.shape}")
    gamma = mdp.gamma
    phi_pi = np.einsum("xa,xad->xd", probs, mdp.phi_by_state)  # (X, d)
    phi_x0 = phi_pi[mdp.x0]
    M = np.eye(mdp.dim) - gamma * (mdp.psi @ phi_pi)
    theta_pi, lambda_pi = np.linalg.solve(
        np.array([M, M.T]), np.array([mdp.omega, (1.0 - gamma) * phi_x0])[..., None])[..., 0]
    # Flow: nu = (1-gamma) nu0 + gamma Psi^T lambda, then mu = pi o nu.
    nu = gamma * (mdp.psi.T @ lambda_pi)
    nu[mdp.x0] += 1.0 - gamma
    return PolicyEvaluation(
        q=mdp.phi @ theta_pi,
        v=phi_pi @ theta_pi,
        theta_pi=theta_pi,
        mu=(probs * nu[:, None]).ravel(),
        lambda_pi=lambda_pi,
        return_value=float((1.0 - gamma) * (phi_x0 @ theta_pi)),
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
