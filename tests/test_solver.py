"""The ascent loop and its closed-form updates, checked against dense
materializations, finite differences, and random feasible points."""

import time
import tracemalloc
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fogas
from fogas.data import build_covariance, collect_dataset, estimate_psi
from fogas.linmdp import action_major_phi, action_major_softmax
from fogas import solver
from fogas.solver import (
    FogasConfig,
    FogasTrajectory,
    best_response_theta,
    gradient_norm_bound,
    lambda_gradient,
    lambda_update,
    load_run,
    mu_hat_features,
    occupancy_operator,
    run_fogas,
    run_fogas_batch,
    save_run,
    site_weights,
    theoretical_min_iterations,
)

from conftest import (
    edit_archive,
    iterate_params,
    iterate_policy_tables,
    psi_hat_apply,
    random_mdp,
    random_policy,
    read_archive,
    reference_ascend,
)


def one_state_bandit():
    """Two arms with rewards (1, 0); the simplest nontrivial instance."""
    return fogas.LinearMdp(
        num_states=1, num_actions=2, dim=2,
        phi=np.eye(2), psi=np.ones((2, 1)),
        omega=np.array([1.0, 0.0]), gamma=0.9, x0=0,
    )


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FogasConfig(T=0)
        for T in (2.5, float("inf")):
            with pytest.raises(ValueError, match="T must be an integer"):
                FogasConfig(T=T)
        with pytest.raises(ValueError):
            FogasConfig(T=5, delta=1.5)
        with pytest.raises(ValueError):
            FogasConfig(T=5, eta=-1.0)
        with pytest.raises(ValueError):
            FogasConfig(T=5, rho=-0.1)
        for name in ("alpha", "rho", "eta", "beta", "d_theta"):
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ValueError, match=f"{name} is not finite"):
                    FogasConfig(T=5, **{name: value})

    def test_manual_mode_requires_all_rates(self, default_mdp):
        cfg = FogasConfig(T=5, alpha=0.1, eta=0.1, beta=0.1, d_theta=1.0)
        with pytest.raises(ValueError, match="auto_tune"):
            cfg.resolved(default_mdp, n=100)

    def test_auto_tune_fills_schedule(self, default_mdp):
        cfg = FogasConfig(T=100, auto_tune=True).resolved(default_mdp, n=10_000)
        d, gamma, R = 4, 0.9, default_mdp.feature_bound
        assert cfg.d_theta == np.sqrt(d) / (1.0 - gamma)
        assert cfg.beta == R**2 / (d * 100)
        assert cfg.alpha > 0 and cfg.eta > 0 and cfg.rho > 0

    def test_explicit_override_survives_auto_tune(self, default_mdp):
        # rho=0 must stay zero: this is how the stabilization ablation runs.
        cfg = FogasConfig(T=100, auto_tune=True, rho=0.0).resolved(default_mdp, 1000)
        assert cfg.rho == 0.0
        assert cfg.alpha > 0

    def test_warns_below_minimum_iterations(self, default_mdp):
        t_min = theoretical_min_iterations(default_mdp, n=10_000, delta=0.05)
        assert t_min > 50
        with pytest.warns(UserWarning, match="theoretical minimum"):
            FogasConfig(T=50, auto_tune=True).resolved(default_mdp, n=10_000)


class TestBestResponse:
    def test_tie_returns_origin(self):
        assert np.all(best_response_theta(np.zeros(3), 2.0) == 0.0)

    def test_hand_computed(self):
        theta = best_response_theta(np.array([3.0, 4.0]), 1.0)
        assert np.allclose(theta, [-0.6, -0.8], atol=1e-15)

    def test_beats_random_feasible_points(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = rng.normal(size=4)
            theta = best_response_theta(g, 2.0)
            assert abs(np.linalg.norm(theta) - 2.0) <= 1e-12
            candidates = rng.normal(size=(1000, 4))
            norms = np.linalg.norm(candidates, axis=1, keepdims=True)
            candidates *= 2.0 * rng.random((1000, 1)) / norms
            assert np.all(theta @ g <= candidates @ g + 1e-12)


class TestLambdaUpdate:
    def test_zero_everything(self, default_dataset):
        cov = build_covariance(default_dataset, beta=0.1)
        out, grad_sq = lambda_update(np.zeros(4), np.zeros(4), cov.lambda_mat, eta=1.0,
                                      contraction=0.5)
        assert np.all(out == 0.0)
        assert grad_sq == 0.0

    def test_hand_arithmetic(self):
        from fogas.data import Covariance
        cov = Covariance(beta=1.0, lambda_mat=np.eye(2))
        out, grad_sq = lambda_update(np.array([1.0, 0.0]), np.array([1.0, 1.0]),
                                     cov.lambda_mat, eta=1.0, contraction=0.5)
        assert np.allclose(out, [1.0, 0.5], atol=1e-15)
        assert grad_sq == 2.0

    def test_first_order_condition(self, default_dataset):
        cov = build_covariance(default_dataset, beta=0.1)
        rng = np.random.default_rng(1)
        for _ in range(20):
            lam_t = rng.normal(size=4)
            g = rng.normal(size=4)
            eta = float(rng.uniform(0.01, 2.0))
            rho = float(rng.uniform(0.0, 2.0))
            lam_next, _ = lambda_update(lam_t, g, cov.lambda_mat, eta, 1.0 / (1.0 + rho * eta))
            foc = -g + cov.solve(lam_next - lam_t) / eta + rho * cov.solve(lam_next)
            assert np.abs(foc).max() <= 1e-9

    def test_matches_numeric_maximizer(self):
        """d=2: compare the closed form against a derivative-free maximizer of
        the displayed proximal objective."""
        from scipy.optimize import minimize
        from fogas.data import Covariance
        rng = np.random.default_rng(2)
        for _ in range(25):
            A = rng.normal(size=(2, 2))
            mat = A @ A.T + 0.5 * np.eye(2)
            cov = Covariance(beta=0.5, lambda_mat=0.5 * (mat + mat.T))
            inv = np.linalg.inv(cov.lambda_mat)
            lam_t = rng.normal(size=2)
            g = rng.normal(size=2)
            eta = float(rng.uniform(0.05, 1.0))
            rho = float(rng.uniform(0.0, 1.0))

            def neg_objective(lam):
                d = lam - lam_t
                return -(lam @ g - d @ inv @ d / (2 * eta)
                         - rho * (lam @ inv @ lam) / 2.0)

            closed, _ = lambda_update(lam_t, g, cov.lambda_mat, eta, 1.0 / (1.0 + rho * eta))
            res = minimize(neg_objective, lam_t, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-14,
                                    "maxiter": 10_000})
            assert np.abs(closed - res.x).max() <= 1e-6


def site_operator(mdp, psi_hat, probs, gamma=0.9):
    """(M, (1-gamma) f_x0) of a policy table, through the loop's helpers on the
    sites of one estimator."""
    sites, weights = site_weights(mdp.x0, gamma, [psi_hat])
    block = occupancy_operator(weights[0], probs[sites].T, action_major_phi(mdp, sites))
    return block[:-1], block[-1]


class TestMuHatFeatures:
    def test_zero_lambda(self, default_mdp, default_dataset):
        psi_hat = estimate_psi(default_dataset, beta=0.1)
        policy = fogas.uniform_policy(5, 3)
        operator, x0_term = site_operator(default_mdp, psi_hat, policy.probs)
        out = mu_hat_features(np.zeros(4), operator, x0_term)
        expected = 0.1 * policy.probs[0] @ default_mdp.phi_by_state[0]
        assert np.abs(out - expected).max() <= 1e-14

    def test_single_sample_hand_instance(self):
        mdp = one_state_bandit()
        ds = collect_dataset(mdp, fogas.uniform_policy(1, 2), n=1,
                             sampling_mode="uniform", seed=0)
        psi_hat = estimate_psi(ds, beta=1.0)
        lam = np.array([0.2, -0.3])
        operator, x0_term = site_operator(mdp, psi_hat, fogas.uniform_policy(1, 2).probs)
        out = mu_hat_features(lam, operator, x0_term)
        # Hand evaluation: X' is the single state, pi uniform over e1, e2.
        mean_phi = np.array([0.5, 0.5])
        inner = ds.features[0] @ np.linalg.solve(psi_hat.covariance.lambda_mat, lam)
        expected = 0.1 * mean_phi + 0.9 * mean_phi * inner
        assert np.abs(out - expected).max() <= 1e-12

    def test_against_dense_materialization(self, default_mdp):
        rng = np.random.default_rng(3)
        ds = collect_dataset(default_mdp, fogas.uniform_policy(5, 3), n=128,
                             sampling_mode="uniform", seed=4)
        psi_hat = estimate_psi(ds, beta=0.2)
        for _ in range(10):
            lam = rng.normal(size=4)
            policy = random_policy(5, 3, rng)
            nu_hat = 0.1 * default_mdp.nu0 + 0.9 * psi_hat.dense().T @ lam
            mu_hat = (policy.probs * nu_hat[:, None]).ravel()
            expected = default_mdp.phi.T @ mu_hat
            operator, x0_term = site_operator(default_mdp, psi_hat, policy.probs)
            out = mu_hat_features(lam, operator, x0_term)
            assert np.abs(out - expected).max() <= 1e-10


class TestLambdaGradient:
    def test_theta_omega_zero_value(self, default_mdp):
        # A value of zero at the next states: the operator term M theta vanishes.
        g = lambda_gradient(default_mdp.omega, np.zeros((4, 4)), default_mdp.omega)
        assert np.abs(g).max() <= 1e-15

    def test_zero_gamma_limit(self, default_dataset, default_mdp):
        psi_hat = estimate_psi(default_dataset, beta=0.1)
        theta = np.array([0.1, 0.2, 0.3, 0.4])
        operator, _ = site_operator(default_mdp, psi_hat,
                                    fogas.uniform_policy(5, 3).probs, gamma=0.0)
        g = lambda_gradient(default_mdp.omega, operator, theta)
        assert np.abs(g - (default_mdp.omega - theta)).max() <= 1e-15

    def test_matches_finite_difference(self, default_mdp):
        """Danskin direction: g should be the gradient of the concave value
        lambda -> min_theta f-hat, away from best-response ties."""
        ds = collect_dataset(default_mdp, fogas.uniform_policy(5, 3), n=64,
                             sampling_mode="uniform", seed=8)
        psi_hat = estimate_psi(ds, beta=0.3)
        d_theta = 2.0
        rng = np.random.default_rng(9)
        policy = random_policy(5, 3, rng)
        probs = policy.probs
        operator, x0_term = site_operator(default_mdp, psi_hat, probs)

        def value(lam):
            phimu = mu_hat_features(lam, operator, x0_term)
            theta = best_response_theta(phimu - lam, d_theta)
            q = (default_mdp.phi @ theta).reshape(5, 3)
            v = (probs * q).sum(axis=1)
            return float(0.1 * v[default_mdp.x0]
                         + lam @ (default_mdp.omega + 0.9 * psi_hat_apply(psi_hat, v) - theta))

        for _ in range(5):
            lam = rng.normal(size=4)
            phimu = mu_hat_features(lam, operator, x0_term)
            if np.linalg.norm(phimu - lam) <= 1e-6:
                continue
            theta = best_response_theta(phimu - lam, d_theta)
            g = lambda_gradient(default_mdp.omega, operator, theta)
            for k in range(4):
                e = np.zeros(4)
                e[k] = 1e-5
                fd = (value(lam + e) - value(lam - e)) / 2e-5
                assert abs(g[k] - fd) <= 1e-4


class TestRunFogas:
    def test_t1_returns_uniform(self, default_mdp, default_dataset):
        run = run_fogas(default_mdp, default_dataset,
                        FogasConfig(T=1, seed=0, auto_tune=True))
        assert run.chosen_index == 1
        assert np.all(run.output_param == 0.0)
        assert np.allclose(run.output_policy.probs, 1.0 / 3.0)

    def test_bit_identical_determinism(self, default_mdp, default_dataset):
        cfg = FogasConfig(T=40, seed=17, auto_tune=True, record_trajectory=True)
        a = run_fogas(default_mdp, default_dataset, cfg)
        b = run_fogas(default_mdp, default_dataset, cfg)
        assert a.chosen_index == b.chosen_index
        assert np.array_equal(a.lambda_final, b.lambda_final)
        assert np.array_equal(a.theta_bar_final, b.theta_bar_final)
        assert np.array_equal(a.output_param, b.output_param)
        assert np.array_equal(a.trajectory.lambdas, b.trajectory.lambdas)
        assert np.array_equal(a.trajectory.thetas, b.trajectory.thetas)

    def test_output_policy_is_iterate_j(self, default_mdp, default_dataset):
        cfg = FogasConfig(T=30, seed=5, auto_tune=True, record_trajectory=True)
        run = run_fogas(default_mdp, default_dataset, cfg)
        expected = iterate_params(run.trajectory, run.config.alpha)[run.chosen_index - 1]
        assert np.array_equal(run.output_param, expected)

    def test_chosen_index_uniform_over_iterations(self, default_mdp, default_dataset):
        counts = np.zeros(4)
        for seed in range(400):
            run = run_fogas(default_mdp, default_dataset,
                            FogasConfig(T=4, seed=seed, auto_tune=True))
            counts[run.chosen_index - 1] += 1
        # 4 cells, 400 draws: each expected 100 with sd ~8.7.
        assert np.all(np.abs(counts - 100) <= 40)

    def test_gradient_bound_enforced(self, default_mdp, default_dataset):
        cfg = FogasConfig(T=60, seed=0, auto_tune=True, record_trajectory=True)
        run = run_fogas(default_mdp, default_dataset, cfg)
        bound = gradient_norm_bound(run.config, default_mdp)
        assert run.trajectory.grad_sq_norms.max() <= bound + 1e-8

    def test_nonfinite_abort_names_iteration(self, default_mdp, default_dataset):
        cfg = FogasConfig(T=50, seed=0, auto_tune=True, eta=1e250, d_theta=1e100)
        with pytest.raises(FloatingPointError, match="iteration"):
            run_fogas(default_mdp, default_dataset, cfg)

    def test_bandit_auto_tune_prefers_rewarding_arm(self):
        """At the theoretical schedule the policy improves on uniform for
        every seed; the stabilizer keeps the improvement modest."""
        mdp = one_state_bandit()
        beh = fogas.uniform_policy(1, 2)
        t_min = int(np.ceil(theoretical_min_iterations(mdp, n=4096, delta=0.05)))
        hits = 0
        for seed in range(10):
            ds = collect_dataset(mdp, beh, n=4096, sampling_mode="uniform",
                                 seed=seed)
            run = run_fogas(mdp, ds, FogasConfig(T=t_min, seed=seed,
                                                 auto_tune=True))
            if run.output_policy.probs[0, 0] > 0.55:
                hits += 1
        assert hits >= 8

    def test_bandit_hand_tuned_solves(self):
        """With practical rates the same instance is solved outright."""
        mdp = one_state_bandit()
        beh = fogas.uniform_policy(1, 2)
        for seed in range(10):
            ds = collect_dataset(mdp, beh, n=4096, sampling_mode="uniform",
                                 seed=seed)
            cfg = FogasConfig(T=2000, seed=seed, alpha=0.05, eta=0.1, rho=0.05,
                              beta=1e-3, d_theta=np.sqrt(2.0) / 0.1)
            run = run_fogas(mdp, ds, cfg)
            assert run.output_policy.probs[0, 0] > 0.9

    def test_runtime_scales_gently_in_n(self, default_mdp):
        """Per-iteration work is dominated by the aggregated next-state
        groups, so doubling n should not double the wall time."""
        beh = fogas.uniform_policy(5, 3)
        times = {}
        for n in (8192, 16384):
            ds = collect_dataset(default_mdp, beh, n=n,
                                 sampling_mode="uniform", seed=0)
            cfg = FogasConfig(T=300, seed=0, auto_tune=True)
            run_fogas(default_mdp, ds, cfg)  # warm up caches
            start = time.perf_counter()
            run_fogas(default_mdp, ds, cfg)
            times[n] = time.perf_counter() - start
        assert times[16384] <= 2.5 * times[8192]


class TestLoopMemory:
    def test_peak_is_bounded(self):
        """At X=1e4 (k=8386 observed next states) the loop holds one action-major
        copy of the site features, 2.1 MB, and per iteration an (S, 1+k, d)
        F_pi, 0.5 MB; the estimator and its groups take about 2 MB."""
        mdp = fogas.generate_linear_mdp(10_000, 4, 8, gamma=0.9, seed=0)
        ds = collect_dataset(mdp, fogas.uniform_policy(10_000, 4), n=20_000,
                             sampling_mode="uniform", seed=0)
        tracemalloc.start()
        try:
            run_fogas(mdp, ds, FogasConfig(T=50, seed=0, auto_tune=True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6


# Batched and solo runs differ only by roundoff: zero-padded columns change
# the summation order. Relative to each field's largest absolute value.
BATCH_RTOL = 1e-10


def assert_runs_close(batched, solo, rtol=BATCH_RTOL):
    assert batched.chosen_index == solo.chosen_index
    assert batched.config == solo.config
    pairs = [(batched.lambda_final, solo.lambda_final),
             (batched.theta_bar_final, solo.theta_bar_final),
             (batched.output_param, solo.output_param)]
    assert (batched.trajectory is None) == (solo.trajectory is None)
    if solo.trajectory is not None:
        pairs += [(getattr(batched.trajectory, f.name), getattr(solo.trajectory, f.name))
                  for f in fields(FogasTrajectory)]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def uniform_datasets(mdp, n, seeds):
    beh = fogas.uniform_policy(mdp.num_states, mdp.num_actions)
    return [collect_dataset(mdp, beh, n=n, sampling_mode="uniform", seed=s)
            for s in seeds]


# The loop and ``reference_ascend`` differ only in the order of roundoff.
REFERENCE_RTOL = 1e-12


def reference_error(error_type, mdp, dataset, config):
    with pytest.raises(error_type) as error:
        reference_ascend(mdp, dataset, config)
    return error.value


class TestRunFogasBatch:
    @given(
        mdp_seed=st.integers(0, 10**6),
        num_states=st.integers(2, 6),
        num_actions=st.integers(1, 3),
        dim=st.integers(1, 4),
        T=st.integers(1, 40),
        cells=st.lists(st.tuples(st.integers(2, 24), st.floats(0.01, 1.0)),
                       min_size=1, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_solo_runs(self, mdp_seed, num_states, num_actions, dim, T, cells):
        """Seeds with their own n, alpha and observed next states, batched,
        give each seed's solo run: the same draw J, and each run one
        ``reference_ascend`` step from its own recorded state at every t.

        Each run follows its own trajectory, not the other's: the best
        response can amplify roundoff several times per iteration, so in about
        1 of 1500 random cases two free-running loops that differ only in
        summation order drift past 1e-10 of each other.
        """
        dim = min(dim, num_states * num_actions)
        mdp = fogas.generate_linear_mdp(num_states, num_actions, dim, 0.9, mdp_seed)
        beh = fogas.uniform_policy(num_states, num_actions)
        datasets = [collect_dataset(mdp, beh, n=n, sampling_mode="uniform",
                                    seed=mdp_seed + i)
                    for i, (n, _) in enumerate(cells)]
        observed = {tuple(ds.next_state_groups[0]) for ds in datasets}
        assume(len(cells) == 1 or len(observed) > 1)
        configs = [FogasConfig(T=T, seed=mdp_seed + i, auto_tune=True, alpha=alpha,
                               record_trajectory=True)
                   for i, (_, alpha) in enumerate(cells)]
        batch = run_fogas_batch(mdp, datasets, configs)
        assert len(batch) == len(cells)
        for run, ds, cfg in zip(batch, datasets, configs):
            solo = run_fogas(mdp, ds, cfg)
            assert run.chosen_index == solo.chosen_index
            for r in (run, solo):
                assert_runs_close(r, reference_ascend(mdp, ds, cfg, follow=r.trajectory),
                                  REFERENCE_RTOL)

    def test_nonfinite_seed_leaves_batch(self, default_mdp):
        datasets = uniform_datasets(default_mdp, 256, range(3))
        configs = [FogasConfig(T=50, seed=s, auto_tune=True, record_trajectory=True)
                   for s in range(3)]
        configs[1] = replace(configs[1], eta=1e250, d_theta=1e100)
        batch = run_fogas_batch(default_mdp, datasets, configs)
        assert isinstance(batch[1], FloatingPointError)
        with pytest.raises(FloatingPointError) as solo_error:
            run_fogas(default_mdp, datasets[1], configs[1])
        assert str(batch[1]) == str(solo_error.value)
        assert str(batch[1]) == str(
            reference_error(FloatingPointError, default_mdp, datasets[1], configs[1]))
        assert "iteration" in str(batch[1])
        for s in (0, 2):
            assert_runs_close(batch[s], run_fogas(default_mdp, datasets[s], configs[s]))
            assert_runs_close(batch[s], reference_ascend(default_mdp, datasets[s], configs[s]),
                              REFERENCE_RTOL)

    @given(
        mdp_seed=st.integers(0, 10**6),
        num_states=st.integers(2, 8),
        num_actions=st.integers(1, 4),
        dim=st.integers(1, 5),
        T=st.integers(1, 30),
        x0_pick=st.integers(1, 7),
        cells=st.lists(st.tuples(st.integers(2, 32), st.floats(0.01, 1.0)),
                       min_size=1, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_loop(self, mdp_seed, num_states, num_actions, dim, T,
                                    x0_pick, cells):
        """Each step of each seed equals ``reference_ascend``, the step sequence
        without the occupancy operator, from the batch's recorded state.

        Followed, not free-running: the best response can amplify roundoff
        several times per iteration, and in about 1 of 1500 such random runs
        two free-running loops (this one and the previous one too) drift past
        1e-12 of the reference by T=30. The default-MDP cases of
        ``test_nonfinite_seed_leaves_batch`` and ``test_failed_seeds_keep_slots``
        compare free-running. Every run stays within its gradient norm bound.
        """
        dim = min(dim, num_states * num_actions)
        mdp = fogas.generate_linear_mdp(num_states, num_actions, dim, 0.9, mdp_seed)
        mdp = replace(mdp, x0=1 + (x0_pick - 1) % (num_states - 1))
        beh = fogas.uniform_policy(num_states, num_actions)
        datasets = [collect_dataset(mdp, beh, n=n, sampling_mode="uniform",
                                    seed=mdp_seed + i)
                    for i, (n, _) in enumerate(cells)]
        configs = [FogasConfig(T=T, seed=mdp_seed + i, auto_tune=True, alpha=alpha,
                               record_trajectory=True)
                   for i, (_, alpha) in enumerate(cells)]
        for run, ds, cfg in zip(run_fogas_batch(mdp, datasets, configs), datasets, configs):
            assert_runs_close(run, reference_ascend(mdp, ds, cfg, follow=run.trajectory),
                              REFERENCE_RTOL)
            assert run.trajectory.grad_sq_norms.max() <= \
                gradient_norm_bound(run.config, mdp) + 1e-8

    def test_setup_failure_fills_only_its_slot(self, default_mdp):
        datasets = uniform_datasets(default_mdp, 128, range(2))
        configs = [FogasConfig(T=20, seed=0, auto_tune=True),
                   FogasConfig(T=20, seed=1, alpha=0.1)]  # manual, rates unset
        batch = run_fogas_batch(default_mdp, datasets, configs)
        assert isinstance(batch[1], ValueError) and "auto_tune" in str(batch[1])
        assert_runs_close(batch[0], run_fogas(default_mdp, datasets[0], configs[0]))

    @pytest.mark.parametrize("setup_slot, loop_slot", [(0, 2), (1, 0)])
    def test_failed_seeds_keep_slots(self, default_mdp, setup_slot, loop_slot):
        """A batch of 4: one seed fails setup and one goes non-finite in the
        loop; the other two match their solo runs and the reference. With
        (1, 0) the seed that fails in the loop holds row 0 of the batch."""
        datasets = uniform_datasets(default_mdp, 256, range(4))
        configs = [FogasConfig(T=50, seed=s, auto_tune=True, record_trajectory=True)
                   for s in range(4)]
        configs[setup_slot] = FogasConfig(T=50, seed=setup_slot, alpha=0.1,
                                          record_trajectory=True)  # rates unset
        configs[loop_slot] = replace(configs[loop_slot], eta=1e250, d_theta=1e100)
        batch = run_fogas_batch(default_mdp, datasets, configs)
        assert isinstance(batch[setup_slot], ValueError)
        assert "auto_tune" in str(batch[setup_slot])
        assert isinstance(batch[loop_slot], FloatingPointError)
        assert str(batch[loop_slot]) == str(reference_error(
            FloatingPointError, default_mdp, datasets[loop_slot], configs[loop_slot]))
        for s in set(range(4)) - {setup_slot, loop_slot}:
            assert_runs_close(batch[s], run_fogas(default_mdp, datasets[s], configs[s]))
            assert_runs_close(batch[s], reference_ascend(default_mdp, datasets[s], configs[s]),
                              REFERENCE_RTOL)

    def test_shared_fields_required(self, default_mdp):
        datasets = uniform_datasets(default_mdp, 64, range(2))
        for other in (FogasConfig(T=21, auto_tune=True),
                      FogasConfig(T=20, auto_tune=True, record_trajectory=True)):
            with pytest.raises(ValueError, match="share T"):
                run_fogas_batch(default_mdp, datasets,
                                [FogasConfig(T=20, auto_tune=True), other])
        with pytest.raises(ValueError):
            run_fogas_batch(default_mdp, datasets, [FogasConfig(T=20, auto_tune=True)])

    def test_step_helpers_row_by_row(self, default_mdp):
        """Each row of a stacked helper call equals the one-seed call."""
        psi_hats = [estimate_psi(ds, beta=0.1)
                    for ds in uniform_datasets(default_mdp, 512, (3, 4))]
        assert all(len(p.observed_states) == 5 for p in psi_hats)
        sites, weights = site_weights(default_mdp.x0, 0.9, psi_hats)
        phi_sites = action_major_phi(default_mdp, sites)
        lambda_mat = np.stack([p.covariance.lambda_mat for p in psi_hats])
        rng = np.random.default_rng(5)
        params, lam, theta = (rng.normal(size=(2, 4)) for _ in range(3))
        eta, rho, d_theta = np.array([[0.1], [0.3]]), np.array([[0.5], [0.0]]), \
            np.array([[2.0], [0.5]])
        contraction = 1.0 / (1.0 + rho * eta)
        probs = action_major_softmax(phi_sites, params)
        block = occupancy_operator(weights, probs, phi_sites)
        phimu = mu_hat_features(lam, block[:, :-1], block[:, -1])
        g = lambda_gradient(default_mdp.omega, block[:, :-1], theta)
        stacked = (probs, block, phimu,
                   best_response_theta(phimu - lam, d_theta), g,
                   *lambda_update(lam, g, lambda_mat, eta, contraction))
        for s, p in enumerate(psi_hats):
            pr = action_major_softmax(phi_sites, params[s])
            bl = occupancy_operator(site_weights(default_mdp.x0, 0.9, [p])[1][0],
                                    pr, phi_sites)
            ph = mu_hat_features(lam[s], bl[:-1], bl[-1])
            gs = lambda_gradient(default_mdp.omega, bl[:-1], theta[s])
            single = (pr, bl, ph, best_response_theta(ph - lam[s], d_theta[s, 0]), gs,
                      *lambda_update(lam[s], gs, p.covariance.lambda_mat, eta[s, 0],
                                     contraction[s, 0]))
            for got, want in zip(stacked, single):
                assert np.abs(got[s] - want).max() <= 1e-13 * np.abs(want).max()

    def test_best_response_ties_per_row(self):
        theta = best_response_theta(np.array([[0.0, 0.0], [3.0, 4.0]]),
                                    np.array([[2.0], [1.0]]))
        assert np.all(theta[0] == 0.0)
        assert np.allclose(theta[1], [-0.6, -0.8], atol=1e-15)


def shift_flags(monkeypatch):
    """The ``shift`` argument of every softmax the loop takes, in order."""
    flags = []

    def recording(phi_states, scaled_param, out=None, shift=True):
        flags.append(shift)
        return action_major_softmax(phi_states, scaled_param, out=out, shift=shift)

    monkeypatch.setattr(solver, "action_major_softmax", recording)
    return flags


class TestShiftFreeSoftmax:
    """The loop's softmax skips its max-shift while alpha (t-1) d_theta R, a
    bound on every logit, stays within 700 - ln A, and shifts after that."""

    def test_fallback_keeps_large_logits_finite(self, default_mdp, default_dataset,
                                                monkeypatch):
        """alpha d_theta R passes the limit at once, and the logits pass exp's
        overflow point (about 709.78) within the run: every softmax from t=2
        on is shifted, and each step matches the reference."""
        flags = shift_flags(monkeypatch)
        cfg = FogasConfig(T=30, seed=0, auto_tune=True, alpha=50.0, record_trajectory=True)
        run = run_fogas(default_mdp, default_dataset, cfg)
        bound = run.config.alpha * run.config.d_theta * default_mdp.feature_bound
        assert bound > 700.0
        assert flags == [False] + [True] * 29
        logits = default_mdp.phi @ (run.config.alpha * run.trajectory.theta_bars.T)
        assert np.abs(logits).max() > 710.0
        for f in fields(FogasTrajectory):
            assert np.all(np.isfinite(getattr(run.trajectory, f.name)))
        assert_runs_close(run, reference_ascend(default_mdp, default_dataset, cfg,
                                                follow=run.trajectory), REFERENCE_RTOL)

    def test_switch_mid_run(self, default_mdp, default_dataset, monkeypatch):
        """With alpha set so that the bound reaches the limit halfway, the
        first 21 softmaxes skip the shift and the other 19 take it; both
        halves match the reference step by step."""
        flags = shift_flags(monkeypatch)
        d_theta = fogas.canonical_d_theta(default_mdp)
        limit = 700.0 - np.log(default_mdp.num_actions)
        alpha = limit / (20.5 * d_theta * default_mdp.feature_bound)  # (t-1) = 20.5 at the limit
        cfg = FogasConfig(T=40, seed=1, auto_tune=True, alpha=alpha, record_trajectory=True)
        run = run_fogas(default_mdp, default_dataset, cfg)
        assert flags == [False] * 21 + [True] * 19
        assert_runs_close(run, reference_ascend(default_mdp, default_dataset, cfg,
                                                follow=run.trajectory), REFERENCE_RTOL)


class TestRecordedRuns:
    @pytest.mark.parametrize("alpha", [None, 50.0])
    def test_recording_changes_no_result(self, default_mdp, alpha):
        """A batch run without its trajectory gives bit for bit the results of
        the same run with it, for the schedule's alpha and for one whose
        softmaxes are shifted."""
        datasets = uniform_datasets(default_mdp, 256, range(3))
        configs = [FogasConfig(T=60, seed=s, auto_tune=True, alpha=alpha) for s in range(3)]
        plain = run_fogas_batch(default_mdp, datasets, configs)
        recorded = run_fogas_batch(default_mdp, datasets,
                                   [replace(c, record_trajectory=True) for c in configs])
        for a, b in zip(plain, recorded):
            assert a.trajectory is None and b.trajectory is not None
            assert a.chosen_index == b.chosen_index
            for name in ("lambda_final", "theta_bar_final", "output_param"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_trajectories_are_read_only_views_of_one_table(self, default_mdp):
        """Every field of every seed's trajectory is a read-only view into one
        table, which holds the trajectories and one more row (lambda_1 and
        theta_bar_0): nothing is copied per seed."""
        S, T, d = 3, 20, default_mdp.dim
        datasets = uniform_datasets(default_mdp, 256, range(S))
        runs = run_fogas_batch(default_mdp, datasets, [
            FogasConfig(T=T, seed=s, auto_tune=True, record_trajectory=True) for s in range(S)])
        arrays = [getattr(run.trajectory, f.name) for run in runs for f in fields(FogasTrajectory)]
        table = arrays[0].base
        for arr in arrays:
            assert arr.base is table and np.shares_memory(arr, table)
            assert not arr.flags.writeable
        assert table.nbytes == sum(arr.nbytes for arr in arrays) + 8 * (5 * S * d + S)
        for arr in (runs[1].trajectory.lambdas, runs[2].trajectory.grad_sq_norms):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    @pytest.mark.filterwarnings("ignore:auto-tuned run with T=1")
    def test_single_iteration(self, default_mdp, default_dataset):
        """At T=1 a recorded run has a one-row trajectory, lambda_1 = 0 and
        theta_bar_1 = theta_1, and an unrecorded run has none."""
        config = FogasConfig(T=1, seed=0, auto_tune=True)
        assert run_fogas(default_mdp, default_dataset, config).trajectory is None
        run = run_fogas(default_mdp, default_dataset, replace(config, record_trajectory=True))
        trajectory = run.trajectory
        for f in fields(FogasTrajectory):
            assert len(getattr(trajectory, f.name)) == 1, f.name
        assert np.all(trajectory.lambdas == 0.0)
        assert np.array_equal(trajectory.theta_bars, trajectory.thetas)
        assert np.array_equal(trajectory.theta_bars[0], run.theta_bar_final)

    def test_recorded_peak_is_bounded(self, default_mdp):
        """A recorded S=4, T=5000 batch holds its trajectories once. Its
        tracemalloc peak is at most the table's (T+1)(5Sd + S) floats (3.36 MB
        at d=4) plus 512 KiB for the estimators, the loop's arrays and the
        output policies; a copy of the trajectories would add 3.36 MB. The
        bound was set before the test first ran. A two-iteration run first
        fills the datasets' and the MDP's cached arrays and numpy's lazy
        imports, which would otherwise count."""
        S, T, d = 4, 5000, default_mdp.dim
        datasets = uniform_datasets(default_mdp, 1024, range(S))
        configs = [FogasConfig(T=T, seed=s, auto_tune=True, record_trajectory=True)
                   for s in range(S)]
        run_fogas_batch(default_mdp, datasets, [replace(c, T=2) for c in configs])
        tracemalloc.start()
        try:
            runs = run_fogas_batch(default_mdp, datasets, configs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(run.trajectory is not None for run in runs)
        assert peak <= 8 * (T + 1) * (5 * S * d + S) + 2**19


class TestRunSerialization:
    def test_archive_entries(self, recorded_run, tmp_path):
        """The file is an .npz archive of the config's fields as scalars, J, the
        final parameters and the trajectory's arrays, which have no rows when
        the trajectory was not recorded, and nothing else."""
        path = tmp_path / "run.npz"
        expected = {
            **{f"config.{k}": v for k, v in asdict(recorded_run.config).items()},
            "chosen_index": recorded_run.chosen_index,
            "lambda_final": recorded_run.lambda_final,
            "theta_bar_final": recorded_run.theta_bar_final,
            "output_param": recorded_run.output_param,
        }
        for trajectory in (recorded_run.trajectory, None):
            save_run(replace(recorded_run, trajectory=trajectory), path)
            entries = read_archive(path)
            assert entries.pop("kind") == "fogas-run/1"
            for f in fields(FogasTrajectory):
                value = entries.pop(f.name)
                if trajectory is None:
                    assert value.shape == (0, 4)[:value.ndim]
                else:
                    assert np.array_equal(value, getattr(trajectory, f.name))
            assert set(entries) == set(expected)
            for name, value in expected.items():
                assert np.array_equal(entries[name], value), name

    @pytest.mark.parametrize("field, edit", [
        ("lambdas", lambda doc: doc["lambdas"][3].__setitem__(1, float("nan"))),
        ("grad_sq_norms", lambda doc: doc["grad_sq_norms"].__setitem__(0, float("inf"))),
        ("lambda_final", lambda doc: doc["lambda_final"].__setitem__(0, float("-inf"))),
        ("config.alpha", lambda doc: doc.update({"config.alpha": np.array(float("nan"))})),
    ])
    def test_nonfinite_numbers_rejected(self, recorded_run, default_mdp, tmp_path,
                                        field, edit):
        """A NaN or an infinity in any float entry, the config's rates included,
        is named by the loader."""
        path = tmp_path / "run.npz"
        save_run(recorded_run, path)
        edit_archive(path, edit)
        with pytest.raises(ValueError, match=f"{field} is not finite"):
            load_run(path, default_mdp)

    def test_round_trip(self, default_mdp, default_dataset, tmp_path):
        cfg = FogasConfig(T=20, seed=2, auto_tune=True, record_trajectory=True)
        run = run_fogas(default_mdp, default_dataset, cfg)
        path = tmp_path / "run.npz"
        save_run(run, path)
        loaded = load_run(path, default_mdp)
        assert loaded.chosen_index == run.chosen_index
        assert np.array_equal(loaded.output_param, run.output_param)
        assert np.array_equal(loaded.lambda_final, run.lambda_final)
        assert np.array_equal(loaded.trajectory.lambdas, run.trajectory.lambdas)
        assert loaded.config == run.config

    def test_round_trip_without_trajectory(self, default_mdp, default_dataset,
                                           tmp_path):
        run = run_fogas(default_mdp, default_dataset,
                        FogasConfig(T=10, seed=1, auto_tune=True))
        path = tmp_path / "run.npz"
        save_run(run, path)
        assert load_run(path, default_mdp).trajectory is None


class TestTrajectoryStepIdentities:
    @given(
        mdp_seed=st.integers(0, 10**6),
        num_states=st.integers(1, 6),
        num_actions=st.integers(1, 4),
        dim=st.integers(1, 4),
        T=st.integers(1, 25),
        alpha=st.floats(0.01, 1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_recorded_steps_obey_update_identities(
        self, mdp_seed, num_states, num_actions, dim, T, alpha
    ):
        """Every recorded iterate follows from the previous one through the
        step helpers; this pins the index bookkeeping the diagnostics use."""
        dim = min(dim, num_states * num_actions)
        mdp = fogas.generate_linear_mdp(num_states, num_actions, dim, 0.9, mdp_seed)
        ds = collect_dataset(mdp, fogas.uniform_policy(num_states, num_actions),
                             n=32, sampling_mode="uniform", seed=mdp_seed)
        cfg = FogasConfig(T=T, seed=mdp_seed, auto_tune=True, alpha=alpha,
                          record_trajectory=True)
        run = run_fogas(mdp, ds, cfg)
        cfg, tr = run.config, run.trajectory
        psi_hat = estimate_psi(ds, cfg.beta)
        sites, weights = site_weights(mdp.x0, mdp.gamma, [psi_hat])
        phi_sites = action_major_phi(mdp, sites)
        tables = iterate_policy_tables(mdp, tr, cfg.alpha)
        params = iterate_params(tr, cfg.alpha)

        for t in range(T):
            probs = action_major_softmax(phi_sites, params[t])
            block = occupancy_operator(weights[0], probs, phi_sites)
            phimu = mu_hat_features(tr.lambdas[t], block[:-1], block[-1])
            assert np.abs(tr.phi_mu_hats[t] - phimu).max() <= 1e-12
            g = lambda_gradient(mdp.omega, block[:-1], tr.thetas[t])
            assert np.abs(tr.g_lambdas[t] - g).max() <= 1e-12
            if t + 1 == T:
                break
            lam_next, _ = lambda_update(tr.lambdas[t], tr.g_lambdas[t],
                                        psi_hat.covariance.lambda_mat, cfg.eta,
                                        1.0 / (1.0 + cfg.rho * cfg.eta))
            assert np.abs(tr.lambdas[t + 1] - lam_next).max() <= 1e-12
            # Cumulative form equals the multiplicative mirror-ascent step.
            boost = np.exp(cfg.alpha * (mdp.phi @ tr.thetas[t]))
            table = tables[t] * boost.reshape(num_states, num_actions)
            table /= table.sum(axis=1, keepdims=True)
            assert np.abs(tables[t + 1] - table).max() <= 1e-12
