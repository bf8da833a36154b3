"""Exact tabular solvers checked against independent oracles:
Monte-Carlo occupancy estimates, brute-force policy sampling, explicit
matrix inverses, and the dense X x X reference solver.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fogas
from fogas import oracle
from fogas.data import Covariance
from fogas.oracle import evaluate_policy, solve_optimal

from conftest import (
    dense_evaluate_policy,
    dense_kernel,
    dense_greedy_policy,
    random_mdp,
    random_policy,
    relaxed_lp_feasibility,
)


def constant_reward_mdp(c, gamma=0.9, seed=0):
    """d=1 forces phi = 1 everywhere, so r is the constant omega."""
    base = fogas.generate_linear_mdp(4, 2, 1, gamma=gamma, seed=seed)
    return fogas.LinearMdp(
        num_states=4, num_actions=2, dim=1,
        phi=base.phi, psi=base.psi, omega=np.array([c]), gamma=gamma, x0=0,
    )


class TestEvaluatePolicy:
    def test_zero_reward(self):
        mdp = constant_reward_mdp(0.0)
        ev = evaluate_policy(mdp, fogas.uniform_policy(4, 2))
        assert np.allclose(ev.v, 0.0)
        assert np.allclose(ev.q, 0.0)
        assert ev.return_value == 0.0

    def test_constant_reward_geometric_series(self):
        c = 0.4
        mdp = constant_reward_mdp(c)
        ev = evaluate_policy(mdp, fogas.uniform_policy(4, 2))
        assert np.allclose(ev.v, c / (1.0 - mdp.gamma), atol=1e-10)
        assert abs(ev.return_value - c) <= 1e-10

    def test_structural_invariants_random_policies(self):
        rng = np.random.default_rng(0)
        for i in range(30):
            mdp = random_mdp(i)
            policy = random_policy(5, 3, rng)
            ev = evaluate_policy(mdp, policy)
            P, r = dense_kernel(mdp), mdp.rewards
            assert np.abs(ev.q - (r + mdp.gamma * P @ ev.v)).max() <= 1e-10
            v_from_q = (policy.probs * ev.q.reshape(5, 3)).sum(axis=1)
            assert np.abs(ev.v - v_from_q).max() <= 1e-10
            flow = ev.mu.reshape(5, 3).sum(axis=1) \
                - (1.0 - mdp.gamma) * mdp.nu0 - mdp.gamma * P.T @ ev.mu
            assert np.abs(flow).max() <= 1e-10
            assert ev.mu.min() >= -1e-12
            assert abs(ev.mu.sum() - 1.0) <= 1e-10
            assert abs(ev.return_value - ev.mu @ r) <= 1e-10
            assert abs(ev.return_value - (1.0 - mdp.gamma) * ev.v[mdp.x0]) <= 1e-10

    def test_q_is_linear_in_theta_pi(self):
        rng = np.random.default_rng(1)
        for i in range(20):
            mdp = random_mdp(100 + i)
            ev = evaluate_policy(mdp, random_policy(5, 3, rng))
            assert np.abs(ev.q - mdp.phi @ ev.theta_pi).max() <= 1e-8

    def test_theta_pi_norm_bound(self):
        rng = np.random.default_rng(2)
        for i in range(100):
            mdp = random_mdp(200 + i)
            ev = evaluate_policy(mdp, random_policy(5, 3, rng))
            bound = np.sqrt(mdp.dim) / (1.0 - mdp.gamma)
            assert np.linalg.norm(ev.theta_pi) <= bound + 1e-8

    def test_occupancy_against_monte_carlo(self, default_mdp):
        """Discounted occupancy equals the distribution of (x_K, a_K) where
        K is geometric with success probability 1-gamma; simulate directly."""
        rng = np.random.default_rng(12345)
        policy = fogas.uniform_policy(5, 3)
        ev = evaluate_policy(default_mdp, policy)

        n_rollouts = 200_000
        horizons = rng.geometric(1.0 - default_mdp.gamma, size=n_rollouts) - 1
        states = np.full(n_rollouts, default_mdp.x0)
        counts = np.zeros(15)
        remaining = np.arange(n_rollouts)
        step = 0
        P = dense_kernel(default_mdp)
        while len(remaining):
            done = remaining[horizons[remaining] == step]
            if len(done):
                acts = rng.integers(0, 3, size=len(done))
                np.add.at(counts, states[done] * 3 + acts, 1.0)
                remaining = remaining[horizons[remaining] != step]
            if not len(remaining):
                break
            acts = rng.integers(0, 3, size=len(remaining))
            rows = P[states[remaining] * 3 + acts]
            u = rng.random(len(remaining))
            states[remaining] = (u[:, None] < np.cumsum(rows, axis=1)).argmax(axis=1)
            step += 1

        freq = counts / n_rollouts
        se = np.sqrt(np.clip(ev.mu * (1 - ev.mu), 1e-12, None) / n_rollouts)
        assert np.all(np.abs(freq - ev.mu) <= 4.0 * se + 1e-4)

    def test_singular_raises(self):
        """X = A = d = 1 with phi = 1, psi = 2 and gamma = 1/2: M = 1 - 1/2 * 2
        is exactly 0, and numpy's solve raises rather than return an inf."""
        mdp = fogas.LinearMdp(num_states=1, num_actions=1, dim=1, phi=np.ones((1, 1)),
                              psi=np.full((1, 1), 2.0), omega=np.ones(1), gamma=0.5, x0=0)
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            evaluate_policy(mdp, fogas.uniform_policy(1, 1))


class TestLowRankAgainstDense:
    """The rank-d oracle against X x X solves on the dense kernel."""

    @given(
        st.integers(1, 6),
        st.integers(1, 3),
        st.integers(1, 4),
        st.floats(0.5, 0.95),
        st.integers(0, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_fields_match_dense_reference(self, X, A, d, gamma, seed):
        d = min(d, X * A)
        mdp = fogas.generate_linear_mdp(X, A, d, gamma, seed)
        mdp = fogas.LinearMdp(
            num_states=X, num_actions=A, dim=d, phi=mdp.phi, psi=mdp.psi,
            omega=mdp.omega, gamma=gamma, x0=seed % X,
        )
        policy = random_policy(X, A, np.random.default_rng(seed))
        ev = evaluate_policy(mdp, policy)
        for name, expected in dense_evaluate_policy(mdp, policy.probs).items():
            got = getattr(ev, name)
            assert np.shape(got) == np.shape(expected), name
            assert np.abs(got - expected).max() <= 1e-10, name

    def test_table_shape_checked(self, default_mdp):
        with pytest.raises(ValueError, match="shape"):
            evaluate_policy(default_mdp, fogas.uniform_policy(4, 3))


class TestSolveOptimal:
    def test_greedy_matches_dense_value_iteration(self):
        for seed in range(20):
            for X, A, d in ((5, 3, 4), (40, 4, 6)):
                mdp = fogas.generate_linear_mdp(X, A, d, gamma=0.9, seed=seed)
                policy, _ = solve_optimal(mdp)
                assert np.array_equal(
                    policy.probs.argmax(axis=1), dense_greedy_policy(mdp)
                )

    def test_one_state_argmax(self):
        mdp = fogas.LinearMdp(
            num_states=1, num_actions=2, dim=2,
            phi=np.eye(2), psi=np.ones((2, 1)),
            omega=np.array([0.3, 0.8]), gamma=0.9, x0=0,
        )
        policy, ev = solve_optimal(mdp)
        assert policy.probs[0, 1] == 1.0
        assert abs(ev.return_value - 0.8) <= 1e-10

    def test_zero_reward_optimum(self):
        mdp = constant_reward_mdp(0.0)
        _, ev = solve_optimal(mdp)
        assert abs(ev.return_value) <= 1e-10

    def test_beats_random_policies(self):
        mdp = fogas.generate_linear_mdp(4, 3, 4, gamma=0.9, seed=42)
        _, star = solve_optimal(mdp)
        rng = np.random.default_rng(7)
        for _ in range(1000):
            ev = evaluate_policy(mdp, random_policy(4, 3, rng))
            assert star.return_value >= ev.return_value - 1e-10

    def test_tie_break_deterministic(self):
        # Identical feature rows make the actions tie bitwise.
        mdp = fogas.LinearMdp(
            num_states=1, num_actions=3, dim=1,
            phi=np.ones((3, 1)), psi=np.ones((1, 1)),
            omega=np.array([0.5]), gamma=0.9, x0=0,
        )
        policy, _ = solve_optimal(mdp)
        assert np.all(policy.probs == [[1.0, 0.0, 0.0]])

    def test_slow_discount_converges_under_cap(self):
        _, star = solve_optimal(random_mdp(0, gamma=0.99))
        assert np.isfinite(star.return_value)

    @pytest.mark.parametrize("gamma", [0.5, 0.9, 0.99])
    def test_bellman_optimality_at_scale(self, gamma):
        """Past the dense reference: at X=2000 the returned q is a fixed point
        of the Bellman optimality operator and no action beats the chosen one
        by more than the switch threshold 1e-12 * (1 + |q|)."""
        mdp = fogas.generate_linear_mdp(2000, 4, 8, gamma, 0)
        policy, ev = solve_optimal(mdp)
        q = ev.q.reshape(2000, 4)
        backup = mdp.rewards + gamma * (mdp.phi @ (mdp.psi @ q.max(axis=1)))
        assert np.abs(ev.q - backup).max() <= 1e-9 * np.abs(ev.q).max()
        chosen = q[np.arange(2000), policy.probs.argmax(axis=1)]
        assert np.all(q.max(axis=1) - chosen <= 1e-12 * (1.0 + np.abs(chosen)))

    def test_round_cap_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_ROUNDS", 1)
        mdp = fogas.generate_linear_mdp(40, 4, 6, gamma=0.9, seed=0)
        with pytest.raises(RuntimeError, match="did not converge within 1 rounds"):
            solve_optimal(mdp)

    def test_non_contracting_kernel_raises(self):
        # p(x|x) = 1.5 is not a distribution: the policy's normalized return,
        # -0.143, leaves [min r, max r] = [0.5, 0.5], which policy iteration
        # reports instead of returning.
        mdp = fogas.LinearMdp(
            num_states=1, num_actions=1, dim=1,
            phi=np.ones((1, 1)), psi=np.full((1, 1), 1.5),
            omega=np.array([0.5]), gamma=0.9, x0=0,
        )
        with pytest.raises(RuntimeError, match="did not converge"):
            solve_optimal(mdp)


def coverage_ratio(lambda_star, mat):
    return Covariance(beta=1.0, lambda_mat=mat).weighted_sq_norm(lambda_star)


class TestCoverageRatio:
    """||lambda*||^2 in the Lambda^{-1} norm, as the harness scores it."""

    def test_zero_vector(self):
        assert coverage_ratio(np.zeros(3), np.eye(3)) == 0.0

    def test_identity_covariance(self):
        assert abs(coverage_ratio(np.array([3.0, 4.0]), np.eye(2)) - 25.0) <= 1e-12

    def test_against_explicit_inverse(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = rng.normal(size=(4, 4))
            mat = A @ A.T + 0.5 * np.eye(4)
            lam = rng.normal(size=4)
            expected = lam @ np.linalg.inv(mat) @ lam
            assert abs(coverage_ratio(lam, mat) - expected) <= 1e-10

    def test_non_pd_rejected(self):
        with pytest.raises(ValueError):
            coverage_ratio(np.ones(2), -np.eye(2))


class TestRelaxedLpFeasibility:
    def test_exact_occupancy_is_feasible(self, default_mdp):
        res = relaxed_lp_feasibility(default_mdp, fogas.uniform_policy(5, 3))
        assert res["flow_residual"] <= 1e-9
        assert res["lambda_residual"] <= 1e-9

    def test_perturbed_lambda_residual(self, default_mdp):
        policy = fogas.uniform_policy(5, 3)
        lam = evaluate_policy(default_mdp, policy).lambda_pi.copy()
        lam[1] += 0.1
        res = relaxed_lp_feasibility(default_mdp, policy, lam=lam)
        assert abs(res["lambda_residual"] - 0.1) <= 1e-12

    def test_random_pairs(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for i in range(200):
            mdp = random_mdp(300 + i)
            res = relaxed_lp_feasibility(mdp, random_policy(5, 3, rng))
            worst = max(worst, res["flow_residual"], res["lambda_residual"])
        assert worst <= 1e-9
