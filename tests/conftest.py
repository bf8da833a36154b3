"""Shared fixtures: a default environment, datasets, and one recorded run."""

import warnings

import numpy as np
import pytest

import fogas

# Auto-tuned short runs deliberately sit below the theoretical minimum
# iteration count; the warning is expected and checked once in test_solver.
warnings.filterwarnings("ignore", message="auto-tuned run with T=")


@pytest.fixture(scope="session")
def default_mdp():
    return fogas.generate_linear_mdp(
        num_states=5, num_actions=3, dim=4, gamma=0.9, seed=0
    )


@pytest.fixture(scope="session")
def default_dataset(default_mdp):
    behavior = fogas.uniform_policy(5, 3)
    return fogas.collect_dataset(
        default_mdp, behavior, n=512, sampling_mode="uniform", seed=7
    )


@pytest.fixture(scope="session")
def recorded_run(default_mdp, default_dataset):
    """A short auto-tuned run with the full trajectory kept."""
    config = fogas.FogasConfig(T=50, seed=3, auto_tune=True, record_trajectory=True)
    return fogas.run_fogas(default_mdp, default_dataset, config)


def random_mdp(rng_seed, num_states=5, num_actions=3, dim=4, gamma=0.9):
    return fogas.generate_linear_mdp(num_states, num_actions, dim, gamma, rng_seed)


def random_policy(num_states, num_actions, rng):
    probs = rng.dirichlet(np.ones(num_actions), size=num_states)
    return fogas.TabularPolicy(probs)


def dense_evaluate_policy(mdp, probs):
    """Reference oracle: X x X linear solves on the dense kernel P_pi.

    Returns the fields of ``fogas.oracle.PolicyEvaluation`` as a dict.
    """
    X, A = mdp.num_states, mdp.num_actions
    P = mdp.transition_matrix  # (X*A, X)
    r = mdp.rewards
    gamma = mdp.gamma
    P_pi = (probs[:, :, None] * P.reshape(X, A, X)).sum(axis=1)  # (X, X)
    r_pi = (probs * r.reshape(X, A)).sum(axis=1)
    v = np.linalg.solve(np.eye(X) - gamma * P_pi, r_pi)
    nu = np.linalg.solve(np.eye(X) - gamma * P_pi.T, (1.0 - gamma) * mdp.nu0)
    mu = (probs * nu[:, None]).ravel()
    return {
        "q": r + gamma * P @ v,
        "v": v,
        "theta_pi": mdp.omega + gamma * mdp.psi @ v,
        "mu": mu,
        "nu": nu,
        "lambda_pi": mdp.phi.T @ mu,
        "return_value": float(mu @ r),
    }


def dense_greedy_policy(mdp, sweeps=2000):
    """Reference value iteration on the dense kernel; greedy action per state."""
    X, A = mdp.num_states, mdp.num_actions
    q = np.zeros(X * A)
    for _ in range(sweeps):
        q = mdp.rewards + mdp.gamma * mdp.transition_matrix @ q.reshape(X, A).max(axis=1)
    return q.reshape(X, A).argmax(axis=1)
