"""Duality-gap machinery: the reduced Lagrangian in both displayed forms,
player regrets against oracle comparators, and the exact decomposition and
gap/suboptimality identities on recorded runs."""

import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fogas
from fogas.data import PsiHat, build_covariance, collect_dataset, estimate_psi
from fogas.diagnostics import (
    build_comparators,
    duality_gap_report,
    eval_f,
    gap_estimation_error,
    player_regrets,
    score_iterates,
    v_of_theta_policy,
)
from fogas.oracle import evaluate_policy, solve_optimal
from fogas.solver import FogasConfig, FogasTrajectory, run_fogas

from conftest import (
    eval_f_hat,
    evaluate_iterates,
    iterate_params,
    iterate_policy_tables,
    looped_gap_terms,
    random_mdp,
    random_policy,
    reference_score_iterates,
)


def exact_psi_hat(mdp, dataset, beta):
    """A PsiHat whose dense form is the true Psi (injected estimator)."""
    cov = build_covariance(dataset, beta)
    return PsiHat(
        num_states=mdp.num_states,
        observed_states=np.arange(mdp.num_states),
        columns=mdp.psi,
        covariance=cov,
    )


class TestEvalF:
    def test_at_oracle_lambda_equals_return(self, default_mdp):
        rng = np.random.default_rng(0)
        policy = random_policy(5, 3, rng)
        ev = evaluate_policy(default_mdp, policy)
        for _ in range(10):
            theta = rng.normal(size=4)
            f = eval_f(default_mdp, ev.lambda_pi, policy, theta)
            assert abs(f - ev.return_value) <= 1e-10

    def test_zero_theta(self, default_mdp):
        rng = np.random.default_rng(1)
        lam = rng.normal(size=4)
        policy = fogas.uniform_policy(5, 3)
        f = eval_f(default_mdp, lam, policy, np.zeros(4))
        assert abs(f - lam @ default_mdp.omega) <= 1e-12

    def test_dual_forms_agree(self, default_mdp):
        """The value-function form against the occupancy form
        <lambda, omega> + <theta, Phi^T mu_{lambda,pi} - lambda>."""
        rng = np.random.default_rng(2)
        for _ in range(10):
            lam = rng.normal(size=4)
            theta = rng.normal(size=4)
            policy = random_policy(5, 3, rng)
            f = eval_f(default_mdp, lam, policy, theta)
            nu_lam = 0.1 * default_mdp.nu0 + 0.9 * default_mdp.psi.T @ lam
            mu_lam = (policy.probs * nu_lam[:, None]).ravel()
            alt = lam @ default_mdp.omega \
                + theta @ (default_mdp.phi.T @ mu_lam - lam)
            assert abs(f - alt) <= 1e-10


class TestEvalFHat:
    def test_zero_lambda_ignores_data(self, default_mdp, default_dataset):
        rng = np.random.default_rng(3)
        psi_hat = estimate_psi(default_dataset, beta=0.1)
        theta = rng.normal(size=4)
        policy = random_policy(5, 3, rng)
        f_hat = eval_f_hat(default_mdp, psi_hat, np.zeros(4), policy, theta)
        v = v_of_theta_policy(default_mdp, policy.probs, theta)
        assert abs(f_hat - 0.1 * v[default_mdp.x0]) <= 1e-12

    def test_injected_true_psi(self, default_mdp, default_dataset):
        rng = np.random.default_rng(4)
        psi_hat = exact_psi_hat(default_mdp, default_dataset, beta=0.1)
        for _ in range(5):
            lam = rng.normal(size=4)
            theta = rng.normal(size=4)
            policy = random_policy(5, 3, rng)
            f_hat = eval_f_hat(default_mdp, psi_hat, lam, policy, theta)
            f = eval_f(default_mdp, lam, policy, theta)
            assert abs(f_hat - f) <= 1e-12

    def test_estimation_identity(self, default_mdp, default_dataset):
        rng = np.random.default_rng(5)
        psi_hat = estimate_psi(default_dataset, beta=0.1)
        diff = psi_hat.dense() - default_mdp.psi
        for _ in range(10):
            lam = rng.normal(size=4)
            theta = rng.normal(size=4)
            policy = random_policy(5, 3, rng)
            v = v_of_theta_policy(default_mdp, policy.probs, theta)
            f_hat = eval_f_hat(default_mdp, psi_hat, lam, policy, theta)
            f = eval_f(default_mdp, lam, policy, theta)
            assert abs(f_hat - f - 0.9 * lam @ (diff @ v)) <= 1e-10


class TestPlayerRegrets:
    def test_pi_regret_zero_against_itself(self, default_mdp, default_dataset):
        run = run_fogas(default_mdp, default_dataset,
                        FogasConfig(T=1, seed=0, auto_tune=True,
                                    record_trajectory=True))
        comp = replace(build_comparators(default_mdp, run.trajectory, run.config.alpha),
                       pi_star=fogas.uniform_policy(5, 3))
        r_pi, _, _ = player_regrets(default_mdp, run.trajectory, comp)
        assert abs(r_pi) <= 1e-12  # pi_1 is uniform, comparator is uniform

    def test_theta_regret_nonpositive(self, recorded_run, default_mdp):
        comp = build_comparators(default_mdp, recorded_run.trajectory,
                                 recorded_run.config.alpha)
        _, _, r_theta = player_regrets(default_mdp, recorded_run.trajectory, comp)
        assert r_theta <= 1e-9

    def test_lambda_regret_bound(self, recorded_run, default_mdp,
                                 default_dataset):
        """Numeric check of the per-round stabilized mirror ascent bound."""
        from fogas.solver import gradient_norm_bound
        cfg = recorded_run.config
        traj = recorded_run.trajectory
        comp = build_comparators(default_mdp, traj, cfg.alpha)
        _, r_lam, _ = player_regrets(default_mdp, traj, comp)
        cov = build_covariance(default_dataset, cfg.beta)
        T = traj.thetas.shape[0]
        lam_star_sq = cov.weighted_sq_norm(comp.lambda_star)
        iterate_sq = sum(cov.weighted_sq_norm(traj.lambdas[t]) for t in range(T))
        C = gradient_norm_bound(cfg, default_mdp)
        rhs = ((1.0 / (2 * cfg.eta * T) + cfg.rho / 2.0) * lam_star_sq
               + cfg.eta * C / 2.0
               - cfg.rho / (2.0 * T) * iterate_sq)
        assert r_lam / T <= rhs + 1e-6

    def test_pi_regret_bound(self, recorded_run, default_mdp):
        cfg = recorded_run.config
        comp = build_comparators(default_mdp, recorded_run.trajectory, cfg.alpha)
        r_pi, _, _ = player_regrets(default_mdp, recorded_run.trajectory, comp)
        T = recorded_run.trajectory.thetas.shape[0]
        R = default_mdp.feature_bound
        rhs = np.log(3.0) / (cfg.alpha * T) \
            + cfg.alpha * R**2 * cfg.d_theta**2 / 2.0
        assert r_pi / T <= rhs + 1e-9


class TestGapEstimationError:
    def test_injected_true_psi_is_zero(self, recorded_run, default_mdp,
                                       default_dataset):
        psi_hat = exact_psi_hat(default_mdp, default_dataset,
                                recorded_run.config.beta)
        comp = build_comparators(default_mdp, recorded_run.trajectory,
                                 recorded_run.config.alpha)
        err = gap_estimation_error(default_mdp, psi_hat,
                                   recorded_run.trajectory, comp)
        assert abs(err) <= 1e-10

    def test_matches_direct_dense_evaluation(self, recorded_run, default_mdp,
                                             default_dataset):
        cfg = recorded_run.config
        traj = recorded_run.trajectory
        psi_hat = estimate_psi(default_dataset, cfg.beta)
        comp = build_comparators(default_mdp, traj, cfg.alpha)
        err = gap_estimation_error(default_mdp, psi_hat, traj, comp)

        dense_diff = psi_hat.dense() - default_mdp.psi
        tables, _, v_stars, _ = evaluate_iterates(default_mdp, traj, cfg.alpha)
        direct = 0.0
        T = traj.thetas.shape[0]
        for t in range(T):
            v_t = v_of_theta_policy(default_mdp, tables[t], traj.thetas[t])
            direct += comp.lambda_star @ ((default_mdp.psi - psi_hat.dense()) @ v_t)
            direct += traj.lambdas[t] @ (dense_diff @ v_stars[t])
        assert abs(err - direct) <= 1e-10


class TestLoopFreeAgainstLoops:
    @given(
        X=st.integers(1, 6),
        A=st.integers(1, 3),
        d=st.integers(1, 4),
        gamma=st.floats(0.5, 0.95),
        T=st.integers(1, 20),
        d_theta=st.one_of(st.none(), st.floats(0.1, 10.0)),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_per_iterate_loops(self, X, A, d, gamma, T, d_theta, seed):
        """Gap, regrets and estimation error against the per-iterate
        reference, with the canonical or a manual radius, for the estimated
        and the injected true Psi-hat; the gap/suboptimality identity holds at
        either radius."""
        d = min(d, X * A)
        base = fogas.generate_linear_mdp(X, A, d, gamma, seed)
        mdp = fogas.LinearMdp(
            num_states=X, num_actions=A, dim=d, phi=base.phi, psi=base.psi,
            omega=base.omega, gamma=gamma, x0=seed % X,
        )
        ds = collect_dataset(mdp, fogas.uniform_policy(X, A), n=32,
                             sampling_mode="uniform", seed=seed)
        run = run_fogas(mdp, ds, FogasConfig(T=T, seed=seed, auto_tune=True,
                                             d_theta=d_theta,
                                             record_trajectory=True))
        cfg, traj = run.config, run.trajectory
        comp = build_comparators(mdp, traj, cfg.alpha)
        report = duality_gap_report(run, mdp, ds, check_identities=False)
        assert report.identity_residual <= 1e-8

        psi_hat = estimate_psi(ds, cfg.beta)
        gap, r_pi, r_lam, r_theta, err = looped_gap_terms(mdp, psi_hat, traj, comp,
                                                          cfg.alpha)
        got = (report.gap, report.regret_pi, report.regret_lambda,
               report.regret_theta, report.err_psi_scaled)
        want = (gap / T, r_pi / T, r_lam / T, r_theta / T, gamma * err / T)
        assert np.abs(np.subtract(got, want)).max() <= 1e-10
        assert np.abs(np.subtract(player_regrets(mdp, traj, comp),
                                  (r_pi, r_lam, r_theta))).max() <= 1e-10

        for psi_hat in (psi_hat, exact_psi_hat(mdp, ds, cfg.beta)):
            err = looped_gap_terms(mdp, psi_hat, traj, comp, cfg.alpha)[4]
            assert abs(gap_estimation_error(mdp, psi_hat, traj, comp) - err) <= 1e-10


class TestIteratePolicies:
    def test_first_iterate_uniform(self, recorded_run, default_mdp):
        tables = iterate_policy_tables(default_mdp, recorded_run.trajectory,
                                       recorded_run.config.alpha)
        assert np.allclose(tables[0], 1.0 / 3.0)

    def test_later_iterates_match_cumulative_parameter(self, recorded_run,
                                                       default_mdp):
        traj = recorded_run.trajectory
        alpha = recorded_run.config.alpha
        tables = iterate_policy_tables(default_mdp, traj, alpha)
        params = iterate_params(traj, alpha)
        for t in (5, 20, 49):
            direct = fogas.softmax_from_logit_param(default_mdp, params[t])
            assert np.abs(tables[t] - direct.probs).max() <= 1e-12

    def test_batched_evaluation_matches_per_policy(self, recorded_run, default_mdp):
        """The streamed scores against one oracle call per iterate policy."""
        mdp, traj = default_mdp, recorded_run.trajectory
        alpha = recorded_run.config.alpha
        thetas, rhos, psi_vs, v_sum, lambda_v = score_iterates(mdp, traj, alpha)
        assert thetas.shape == psi_vs.shape == (50, 4) and rhos.shape == (50,)
        assert v_sum.shape == (5,) and lambda_v.shape == (4, 5)
        tables = iterate_policy_tables(mdp, traj, alpha)
        for t in range(tables.shape[0]):
            ev = evaluate_policy(mdp, fogas.TabularPolicy(tables[t]))
            assert np.abs(thetas[t] - ev.theta_pi).max() <= 1e-12
            assert np.abs(psi_vs[t] - mdp.psi @ ev.v).max() <= 1e-12
            assert abs(rhos[t] - ev.return_value) <= 1e-12
            v_sum -= v_of_theta_policy(mdp, tables[t], traj.thetas[t])
            lambda_v -= np.outer(traj.lambdas[t], ev.v)
        assert np.abs(v_sum).max() <= 1e-12
        assert np.abs(lambda_v).max() <= 1e-12


class TestGapReport:
    def test_identities_on_recorded_run(self, recorded_run, default_mdp,
                                        default_dataset):
        report = duality_gap_report(recorded_run, default_mdp, default_dataset)
        assert report.decomposition_residual <= 1e-8
        assert report.identity_residual <= 1e-8

    def test_zero_reward_gap_vanishes(self):
        base = random_mdp(50)
        mdp = fogas.LinearMdp(
            num_states=5, num_actions=3, dim=4,
            phi=base.phi, psi=base.psi, omega=np.zeros(4), gamma=0.9, x0=0,
        )
        ds = collect_dataset(mdp, fogas.uniform_policy(5, 3), n=128,
                             sampling_mode="uniform", seed=0)
        run = run_fogas(mdp, ds, FogasConfig(T=20, seed=0, auto_tune=True,
                                             record_trajectory=True))
        report = duality_gap_report(run, mdp, ds)
        assert abs(report.gap) <= 1e-10

    def test_manual_radius_asserts_identity(self, default_mdp, default_dataset):
        """Both identities hold at any theta-ball radius, and both are asserted."""
        cfg = FogasConfig(T=20, seed=0, auto_tune=True, d_theta=1.0,
                          record_trajectory=True)
        run = run_fogas(default_mdp, default_dataset, cfg)
        report = duality_gap_report(run, default_mdp, default_dataset,
                                    check_identities=True)
        assert report.decomposition_residual <= 1e-8
        assert report.identity_residual <= 1e-8

    def test_suboptimality_side_of_identity(self, recorded_run, default_mdp,
                                            default_dataset):
        report = duality_gap_report(recorded_run, default_mdp, default_dataset)
        _, star = solve_optimal(default_mdp)
        tables = iterate_policy_tables(default_mdp, recorded_run.trajectory,
                                       recorded_run.config.alpha)
        total = 0.0
        for t in range(tables.shape[0]):
            ev = evaluate_policy(default_mdp, fogas.TabularPolicy(tables[t]))
            total += star.return_value - ev.return_value
        assert abs(report.suboptimality - total / tables.shape[0]) <= 1e-12

    def test_nan_decomposition_residual_fails(self, recorded_run, default_mdp,
                                              default_dataset):
        traj = recorded_run.trajectory
        lambdas = traj.lambdas.copy()
        lambdas[7, 2] = np.nan
        run = replace(recorded_run, trajectory=replace(traj, lambdas=lambdas))
        with pytest.raises(AssertionError, match="decomposition residual nan"):
            duality_gap_report(run, default_mdp, default_dataset)

    def test_nan_identity_residual_fails(self, recorded_run, default_mdp,
                                         default_dataset, monkeypatch):
        """A NaN optimal return leaves the decomposition finite and makes only
        the gap/suboptimality identity residual NaN."""
        build = fogas.diagnostics.build_comparators
        monkeypatch.setattr(fogas.diagnostics, "build_comparators",
                            lambda *a, **k: replace(build(*a, **k), rho_star=np.nan))
        with pytest.raises(AssertionError, match="identity residual nan"):
            duality_gap_report(recorded_run, default_mdp, default_dataset)
        report = duality_gap_report(recorded_run, default_mdp, default_dataset,
                                    check_identities=False)
        assert report.decomposition_residual <= 1e-8

    def test_csv_row_matches_columns(self, recorded_run, default_mdp,
                                     default_dataset):
        """The header is the one ``benchmarks/workloads.py`` reads by column
        name, and its row holds every field, each reading back exactly."""
        from fogas.diagnostics import GapReport
        assert GapReport.CSV_COLUMNS == (
            "gap,regret_pi,regret_lambda,regret_theta,err_psi_scaled,"
            "decomposition_residual,identity_residual,suboptimality")
        report = duality_gap_report(recorded_run, default_mdp, default_dataset)
        row = zip(GapReport.CSV_COLUMNS.split(","), report.csv_row().split(","))
        assert {column: float(value) for column, value in row} == asdict(report)


class TestScoreIterates:
    @pytest.mark.parametrize("budget", [1, 3072])
    def test_blocks_match_one_block(self, budget, monkeypatch):
        """X=7, A=3, d=4 and T=11 walked in blocks of 1 iterate and 1 state
        (budget 1 byte) or 2 iterates and 2 states (3072 bytes), with x0 in a
        middle chunk, against one block of all iterates and all states."""
        base = fogas.generate_linear_mdp(7, 3, 4, 0.9, 4)
        mdp = fogas.LinearMdp(num_states=7, num_actions=3, dim=4, phi=base.phi,
                              psi=base.psi, omega=base.omega, gamma=0.9, x0=3)
        ds = collect_dataset(mdp, fogas.uniform_policy(7, 3), n=64,
                             sampling_mode="uniform", seed=1)
        run = run_fogas(mdp, ds, FogasConfig(T=11, seed=1, auto_tune=True,
                                             record_trajectory=True))
        monkeypatch.setattr(fogas.diagnostics, "SAMPLE_CHUNK_BYTES", 1 << 40)
        whole = score_iterates(mdp, run.trajectory, run.config.alpha)
        monkeypatch.setattr(fogas.diagnostics, "SAMPLE_CHUNK_BYTES", budget)
        blocked = score_iterates(mdp, run.trajectory, run.config.alpha)
        for got, want in zip(blocked, whole, strict=True):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("budget", [1, 3072])
    def test_values_false_matches_full_pass(self, budget, monkeypatch):
        """Without the values, theta^{pi_t}, rho(pi_t) and Psi v^{pi_t} are
        bit-equal to the full pass's, in blocks of either budget of
        ``test_blocks_match_one_block``."""
        base = fogas.generate_linear_mdp(7, 3, 4, 0.9, 4)
        mdp = fogas.LinearMdp(num_states=7, num_actions=3, dim=4, phi=base.phi,
                              psi=base.psi, omega=base.omega, gamma=0.9, x0=3)
        ds = collect_dataset(mdp, fogas.uniform_policy(7, 3), n=64,
                             sampling_mode="uniform", seed=1)
        run = run_fogas(mdp, ds, FogasConfig(T=11, seed=1, auto_tune=True,
                                             record_trajectory=True))
        monkeypatch.setattr(fogas.diagnostics, "SAMPLE_CHUNK_BYTES", budget)
        full = score_iterates(mdp, run.trajectory, run.config.alpha)
        *scores, v_sum, lambda_v = score_iterates(mdp, run.trajectory, run.config.alpha,
                                                  values=False)
        assert v_sum is None and lambda_v is None
        for got, want in zip(scores, full[:3], strict=True):
            np.testing.assert_array_equal(got, want)

    def test_scratch_is_aligned(self, recorded_run, default_mdp, monkeypatch):
        """Over 20 calls each way, each after a kept array of another size has
        moved the heap, the work array reaches ``fogas_score_iterates`` at a
        multiple of 64 bytes. The kernel assumes no alignment: 8 bytes off
        one, every score keeps its bits."""
        traj, alpha = recorded_run.trajectory, recorded_run.config.alpha
        modes = (True, False)
        want = {values: score_iterates(default_mdp, traj, alpha, values=values)
                for values in modes}
        lib, works = fogas._native._kernel(), []

        class Recording:
            def __getattr__(self, name):
                return getattr(lib, name)

            def fogas_score_iterates(self, *args):
                works.append(args[11])
                return lib.fogas_score_iterates(*args)

        monkeypatch.setattr(fogas._native, "_kernel", Recording)
        kept = []
        for values in modes:
            for i in range(20):
                kept.append(np.empty(1000 + 2 * i + values))
                score_iterates(default_mdp, traj, alpha, values=values)
        assert len(works) == 40
        assert all(work % 64 == 0 for work in works)

        empty = fogas._native.empty

        def misaligned(shape):
            arr = empty((math.prod(shape) + 1,))[1:].reshape(shape)
            assert arr.ctypes.data % 64 == 8
            return arr

        monkeypatch.setattr(fogas._native, "empty", misaligned)
        for values in modes:
            got = score_iterates(default_mdp, traj, alpha, values=values)
            for a, b in zip(got, want[values], strict=True):
                if b is None:
                    assert a is None
                else:
                    np.testing.assert_array_equal(a, b)
        assert len(works) == 42 and all(work % 64 == 8 for work in works[40:])

    @pytest.fixture(scope="class")
    def kept_phi_run(self):
        """X=1000, A=4, d=8 and T=131, where the kept Phi_pi (X d = 8000 floats
        per lane) shrinks the lanes of ``values=True`` below the 128 of
        ``values=False``: to 56 at the default budget."""
        mdp = fogas.generate_linear_mdp(1000, 4, 8, 0.9, 0)
        lane_floats = fogas._native._kernel().fogas_score_lane_floats(1000, 4, 8, True)
        pad = fogas._native.VECTOR_PAD
        assert pad * (fogas.diagnostics.SAMPLE_CHUNK_BYTES // (8 * pad * lane_floats)) < 128
        return mdp, recorded(mdp, T=131)

    def test_kept_phi_pi_matches_recomputed(self, kept_phi_run):
        """Where the kept Phi_pi shrinks the lanes, theta^{pi_t}, rho(pi_t) and
        Psi v^{pi_t} are bit-equal between the two modes, and v_sum and
        lambda_v match the reference within 1e-12 of their scale."""
        mdp, run = kept_phi_run
        full = score_iterates(mdp, run.trajectory, run.config.alpha)
        scores = score_iterates(mdp, run.trajectory, run.config.alpha, values=False)
        for got, want in zip(scores[:3], full[:3], strict=True):
            np.testing.assert_array_equal(got, want)
        want = reference_score_iterates(mdp, run.trajectory, run.config.alpha)
        for got, ref in zip(full[3:], want[3:], strict=True):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    def test_kept_phi_pi_within_the_budget(self, kept_phi_run):
        """The tracemalloc peak of ``values=True`` at that shape stays within
        SAMPLE_CHUNK_BYTES + 128 KiB: its 56 lanes' scratch is 3.69 MB, where
        128 lanes' would be 8.43 MB."""
        mdp, run = kept_phi_run
        score_iterates(mdp, run.trajectory, run.config.alpha)  # one-time allocations first
        tracemalloc.start()
        try:
            score_iterates(mdp, run.trajectory, run.config.alpha)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= fogas.diagnostics.SAMPLE_CHUNK_BYTES + (128 << 10)

    def test_report_memory_bounded_in_T(self):
        """At X=100, A=4, d=8 the report's tracemalloc peak stays under 8 MB at
        T=2000 and grows by at most 640 bytes per iterate from T=500 to 4000;
        (T, X, A) tables alone would take 3200 bytes per iterate."""
        mdp = fogas.generate_linear_mdp(100, 4, 8, 0.9, 0)
        ds = collect_dataset(mdp, fogas.uniform_policy(100, 4), n=2000,
                             sampling_mode="uniform", seed=0)
        peaks = {}
        for T in (500, 2000, 4000):
            run = run_fogas(mdp, ds, FogasConfig(T=T, seed=0, auto_tune=True,
                                                 record_trajectory=True))
            tracemalloc.start()
            try:
                duality_gap_report(run, mdp, ds)
                peaks[T] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2000] <= 8e6
        assert (peaks[4000] - peaks[500]) / 3500 <= 640


def recorded(mdp, T, n=64, seed=1):
    """An auto-tuned T-iteration run of ``mdp`` on n uniform samples, recorded."""
    ds = collect_dataset(mdp, fogas.uniform_policy(mdp.num_states, mdp.num_actions), n=n,
                         sampling_mode="uniform", seed=seed)
    return run_fogas(mdp, ds, FogasConfig(T=T, seed=seed, auto_tune=True,
                                          record_trajectory=True))


def middle_x0_mdp():
    """The X=7, A=3, d=4 MDP of ``test_blocks_match_one_block``, x0 = 3."""
    base = fogas.generate_linear_mdp(7, 3, 4, 0.9, 4)
    return fogas.LinearMdp(num_states=7, num_actions=3, dim=4, phi=base.phi, psi=base.psi,
                           omega=base.omega, gamma=0.9, x0=3)


def random_trajectory(rng, T, d, theta_bars=None):
    """A trajectory of T iterates with random theta_t and lambda_t; with
    alpha = 1, pi_1 is uniform and pi_{t+1} the softmax of <phi(x, a),
    theta_bars[t - 1]> (random by default)."""
    rows = rng.standard_normal((5, T, d))
    if theta_bars is not None:
        rows[2] = theta_bars
    return FogasTrajectory(*rows, rng.standard_normal(T))


def gated_mdp(psi, gamma, omega=None):
    """X = d states and A = 2 actions, phi(x, 0) = e_x and phi(x, 1) = 0, x0 = 0.
    The policy of parameter p has Phi_pi = diag(sigmoid(p)), so each iterate
    has its own Psi Phi_pi = psi diag(sigmoid(p)); p = 0 gives sigmoid 1/2
    exactly, and p = 50 gives 1 exactly (exp(-50) is below 1's last bit)."""
    d = len(psi)
    phi = np.zeros((d, 2, d))
    phi[np.arange(d), 0, np.arange(d)] = 1.0
    return fogas.LinearMdp(num_states=d, num_actions=2, dim=d, phi=phi.reshape(2 * d, d),
                           psi=psi, omega=np.ones(d) if omega is None else omega,
                           gamma=gamma, x0=0)


class TestScoreIteratesSpec:
    """The kernel's scores against ``reference_score_iterates``, its numpy
    specification, within 1e-12 of each array's scale, on both paths."""

    @staticmethod
    def assert_matches_reference(mdp, trajectory, alpha):
        for values in (True, False):
            got = score_iterates(mdp, trajectory, alpha, values=values)
            want = reference_score_iterates(mdp, trajectory, alpha, values=values)
            for g, w in zip(got, want, strict=True):
                if w is None:
                    assert g is None
                    continue
                assert g.shape == w.shape
                assert np.abs(g - w).max() <= 1e-12 * max(1.0, np.abs(w).max())

    @pytest.mark.parametrize("X, A, d, T", [
        (4, 2, 1, 1), (4, 2, 1, 6), (5, 3, 4, 1), (5, 3, 4, 40), (12, 3, 8, 25),
        (30, 4, 8, 3),
    ])
    def test_policy_operators_match_reference(self, X, A, d, T):
        """Generated MDPs and T random softmax iterates, T = 1 and d = 1 included."""
        rng = np.random.default_rng(X * 100 + d * 10 + T)
        for seed in range(3):
            mdp = fogas.generate_linear_mdp(X, A, d, gamma=0.9, seed=seed)
            self.assert_matches_reference(mdp, random_trajectory(rng, T, d), 1.0)

    def test_general_matrices_match_reference(self):
        """psi = (I - M0) / gamma with M0 standard normal, so a lane's
        M = I - gamma psi diag(sigmoid(p)) is not diagonally dominant: its
        pivots move, and lanes of one block pick different rows (in the
        first column, at four or more of the seven d > 1)."""
        rng = np.random.default_rng(0)
        gamma, T = 0.9, 50
        first_pivots = []  # per d, the rows the lanes' first pivots are in
        for d in range(1, 9):
            mdp = gated_mdp((np.eye(d) - rng.standard_normal((d, d))) / gamma, gamma,
                            rng.standard_normal(d))
            traj = random_trajectory(rng, T, d, 3.0 * rng.standard_normal((T, d)))
            self.assert_matches_reference(mdp, traj, 1.0)
            sigmoid = 1.0 / (1.0 + np.exp(-iterate_params(traj, 1.0)))  # (T, d)
            M = np.eye(d) - gamma * mdp.psi * sigmoid[:, None, :]
            first_pivots.append(set(np.abs(M[:, :, 0]).argmax(axis=1)))
        assert sum(len(rows) > 1 for rows in first_pivots) >= 4

    def test_zero_first_pivot_swaps_rows(self):
        """gamma = 1/2, psi = [[4, -4], [-4, 4]] and p = 0 give M = [[0, 1],
        [1, 0]] exactly in pi_1's lane: its first pivot is in row 1. The
        other lanes' p_0 within 1e-8 of 0 leave a first pivot M_00 = 1 -
        2 sigmoid(p_0) of at most 1e-8, which only a row swap keeps from
        costing them their match with the reference."""
        rng = np.random.default_rng(1)
        mdp = gated_mdp(np.array([[4.0, -4.0], [-4.0, 4.0]]), 0.5, np.array([3.0, 5.0]))
        theta_bars = np.column_stack([rng.uniform(-1e-8, 1e-8, 9), rng.standard_normal(9)])
        traj = random_trajectory(rng, 9, 2, theta_bars)
        theta, rho, psi_v, _, _ = score_iterates(mdp, traj, 1.0)
        assert np.array_equal(theta[0], [5.0, 3.0])
        assert rho[0] == 1.25  # (1 - gamma) <Phi_pi(x0), theta> = 1/2 * 1/2 * 5
        assert np.array_equal(psi_v[0], [4.0, -4.0])
        self.assert_matches_reference(mdp, traj, 1.0)

    def test_one_state_action_and_feature(self):
        mdp = fogas.generate_linear_mdp(1, 1, 1, 0.9, 0)
        run = recorded(mdp, T=20)
        self.assert_matches_reference(mdp, run.trajectory, run.config.alpha)

    def test_x0_in_the_middle(self):
        mdp = middle_x0_mdp()
        run = recorded(mdp, T=11)
        self.assert_matches_reference(mdp, run.trajectory, run.config.alpha)

    @pytest.mark.parametrize("budget", [1, None])
    def test_T_not_a_multiple_of_the_lane_block(self, budget, default_mdp, monkeypatch):
        """T = 131 in blocks of 8 lanes (budget 1 byte) or of SCORE_LANES = 128:
        the last block holds 3 iterates and padding."""
        if budget is not None:
            monkeypatch.setattr(fogas.diagnostics, "SAMPLE_CHUNK_BYTES", budget)
        run = recorded(default_mdp, T=131)
        self.assert_matches_reference(default_mdp, run.trajectory, run.config.alpha)

    def test_logits_past_exp_range(self, recorded_run, default_mdp):
        """alpha scaled so that logits reach 2000: exp of an unshifted logit
        above ~709.8 overflows, so only the max-shift keeps the softmax finite."""
        traj = recorded_run.trajectory
        logits = np.abs(default_mdp.phi @ traj.theta_bars.T).max()
        alpha = 2000.0 / logits
        assert alpha * logits > 700
        self.assert_matches_reference(default_mdp, traj, alpha)
        assert np.all(np.isfinite(score_iterates(default_mdp, traj, alpha)[1]))

    def test_singular_flow_system_raises(self):
        """X = A = d = 1 with phi = 1, psi = 2 and gamma = 1/2: every policy's
        I - gamma Psi Phi_pi is exactly 0."""
        mdp = fogas.LinearMdp(num_states=1, num_actions=1, dim=1, phi=np.ones((1, 1)),
                              psi=np.full((1, 1), 2.0), omega=np.ones(1), gamma=0.5, x0=0)
        traj = FogasTrajectory(*[np.zeros((3, 1))] * 5, grad_sq_norms=np.zeros(3))
        for values in (True, False):
            with pytest.raises(np.linalg.LinAlgError, match="pi_1$"):
                score_iterates(mdp, traj, 1.0, values=values)

    def test_singular_lane_is_named(self):
        """psi = 2 and gamma = 1/2 in the gated form: M = 1 - sigmoid(p) is
        exactly 0 where p = 50, here in the lanes of pi_5 and pi_7 among
        regular ones. The error names pi_5, and the reference raises too."""
        rng = np.random.default_rng(2)
        mdp = gated_mdp(np.full((1, 1), 2.0), 0.5)
        theta_bars = rng.uniform(-3.0, 3.0, (9, 1))
        theta_bars[[3, 5]] = 50.0
        traj = random_trajectory(rng, 9, 1, theta_bars)
        for values in (True, False):
            with pytest.raises(np.linalg.LinAlgError, match="pi_5$"):
                score_iterates(mdp, traj, 1.0, values=values)
            with pytest.raises(np.linalg.LinAlgError):
                reference_score_iterates(mdp, traj, 1.0, values=values)

    @pytest.mark.parametrize("budget", [1, 3072, "24 lanes"])
    def test_scores_independent_of_the_lane_block(self, budget, recorded_run, default_mdp,
                                                  monkeypatch):
        """theta^{pi_t}, rho(pi_t) and Psi v^{pi_t} of the T = 50 run are
        bit-equal in blocks of 8 lanes (budgets 1 and 3072 bytes) or 24 lanes
        as in one block of 56: each lane does its own iterate's arithmetic,
        and the padded lanes send every iterate through the same vector exp."""
        traj, alpha = recorded_run.trajectory, recorded_run.config.alpha
        whole = score_iterates(default_mdp, traj, alpha)
        if budget == "24 lanes":
            budget = 24 * 8 * fogas._native._kernel().fogas_score_lane_floats(5, 3, 4, True)
        monkeypatch.setattr(fogas.diagnostics, "SAMPLE_CHUNK_BYTES", budget)
        blocked = score_iterates(default_mdp, traj, alpha)
        for got, want in zip(blocked[:3], whole[:3], strict=True):
            np.testing.assert_array_equal(got, want)
