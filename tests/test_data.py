"""Dataset collection, empirical covariance, and the ridge transition
estimator, checked against naive accumulation and generic least squares."""

import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fogas
from fogas.data import (
    Covariance,
    OfflineDataset,
    build_covariance,
    collect_dataset,
    estimate_psi,
    load_dataset,
    save_dataset,
)
from fogas.oracle import evaluate_policy

from conftest import (
    add_at_groups,
    dense_collect,
    dense_kernel,
    edit_archive,
    psi_hat_apply,
    random_mdp,
    random_policy,
    read_archive,
)


def dataset_from_rows(mdp, xs, actions, x_nexts):
    xs = np.asarray(xs)
    actions = np.asarray(actions)
    sa = xs * mdp.num_actions + actions
    return OfflineDataset(
        xs=xs,
        actions=actions,
        rewards=mdp.rewards[sa],
        x_nexts=np.asarray(x_nexts),
        features=mdp.phi[sa],
        num_states=mdp.num_states,
        num_actions=mdp.num_actions,
    )


class TestCollect:
    def test_one_state_one_action(self):
        mdp = fogas.generate_linear_mdp(1, 1, 1, gamma=0.9, seed=0)
        ds = collect_dataset(mdp, fogas.uniform_policy(1, 1), n=3,
                             sampling_mode="uniform", seed=0)
        assert len(ds) == 3
        assert np.all(ds.xs == 0) and np.all(ds.actions == 0)
        assert np.all(ds.x_nexts == 0)
        assert np.allclose(ds.rewards, mdp.rewards[0])

    def test_rewards_match_environment(self, default_mdp, default_dataset):
        sa = default_dataset.xs * 3 + default_dataset.actions
        assert np.abs(default_dataset.rewards - default_mdp.rewards[sa]).max() <= 1e-12

    def test_short_rows_never_sample_zero_mass_states(self):
        # Every kernel row is (0, 0.25, 0.25): draws u >= 0.5 fall past the
        # last cumulative sum and must land on the last state with mass.
        mdp = fogas.LinearMdp(
            num_states=3, num_actions=2, dim=1,
            phi=np.ones((6, 1)), psi=np.array([[0.0, 0.25, 0.25]]),
            omega=np.array([0.5]), gamma=0.9, x0=1,
        )
        ds = collect_dataset(mdp, fogas.uniform_policy(3, 2), n=2000,
                             sampling_mode="uniform", seed=0)
        counts = np.bincount(ds.x_nexts, minlength=3)
        assert counts[0] == 0
        assert counts[1] > 0 and counts[2] > counts[1]

    @pytest.mark.parametrize("missed_block_rows", [7, None])
    def test_missed_draws_in_blocks_match_one_block(self, missed_block_rows, monkeypatch):
        """Rows of mass 0.6 send about 40% of the draws past their total. The
        fallback that sends those to the last state with mass takes them 7
        rows at a time, or all in one block, and both give the dense draws."""
        base = random_mdp(4, num_states=40, num_actions=3, dim=5)
        mdp = fogas.LinearMdp(num_states=40, num_actions=3, dim=5, phi=0.6 * base.phi,
                              psi=base.psi, omega=base.omega, gamma=0.9, x0=base.x0)
        if missed_block_rows is not None:
            monkeypatch.setattr(fogas.data, "SAMPLE_CHUNK_BYTES", missed_block_rows * 8 * 40)
        ds = collect_dataset(mdp, fogas.uniform_policy(40, 3), n=3000,
                             sampling_mode="uniform", seed=9)
        # About 1200 misses and 45 hits land on the last state.
        assert np.count_nonzero(ds.x_nexts == 39) > 700
        # The same draws through one (n, X) inverse-CDF block.
        sa, x_next = dense_collect(mdp, fogas.uniform_policy(40, 3), n=3000,
                                   sampling_mode="uniform", seed=9)
        assert np.array_equal(ds.xs * 3 + ds.actions, sa)
        assert np.array_equal(ds.x_nexts, x_next)

    @given(
        st.integers(1, 40),
        st.integers(1, 3),
        st.integers(1, 5),
        st.sampled_from(["uniform", "occupancy"]),
        st.integers(1, 300),
        st.integers(1, 300),
        st.sampled_from([1.0, 0.6]),
        st.integers(0, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_reference_sampler(self, X, A, d, mode, n, missed_block_rows,
                                             row_mass, seed):
        # row_mass < 1 leaves rows short, so many draws miss every state.
        d = min(d, X * A)
        base = fogas.generate_linear_mdp(X, A, d, 0.9, seed)
        mdp = fogas.LinearMdp(
            num_states=X, num_actions=A, dim=d, phi=row_mass * base.phi, psi=base.psi,
            omega=base.omega, gamma=0.9, x0=seed % X,
        )
        behavior = random_policy(X, A, np.random.default_rng(seed))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fogas.data, "SAMPLE_CHUNK_BYTES", missed_block_rows * 8 * X)
            ds = collect_dataset(mdp, behavior, n=n, sampling_mode=mode, seed=seed)
        sa, x_next = dense_collect(mdp, behavior, n=n, sampling_mode=mode, seed=seed)
        assert np.array_equal(ds.xs * A + ds.actions, sa)
        assert np.array_equal(ds.x_nexts, x_next)

    @pytest.mark.parametrize("X", [1, 2, 3, 4, 7, 8, 9, 1023, 1024, 1025])
    def test_single_draws_at_step_schedule_edges(self, X):
        """The search steps 2^k, ..., 2, 1 with 2^k the largest power of two
        <= X; these X sit at the edges of that schedule. Short rows
        (row_mass 0.6) send many draws past the last state, which then has
        no mass, so a miss taken for a hit on it shows."""
        A, d = 2, min(3, 2 * X)
        base = fogas.generate_linear_mdp(X, A, d, 0.9, seed=X)
        behavior = fogas.uniform_policy(X, A)
        short_psi = base.psi.copy()
        if X > 1:
            short_psi[:, -1] = 0.0
        for row_mass, psi in ((1.0, base.psi), (0.6, short_psi)):
            mdp = fogas.LinearMdp(num_states=X, num_actions=A, dim=d, phi=row_mass * base.phi,
                                  psi=psi, omega=base.omega, gamma=0.9, x0=0)
            for seed in range(25):
                ds = collect_dataset(mdp, behavior, n=1, sampling_mode="uniform", seed=seed)
                sa, x_next = dense_collect(mdp, behavior, n=1, sampling_mode="uniform",
                                           seed=seed)
                assert np.array_equal(ds.xs * A + ds.actions, sa)
                assert np.array_equal(ds.x_nexts, x_next)

    def test_cumulative_psi_reaches_kernel_row_major(self):
        """The compiled search reads cumsum(Psi) as (X, d) row-major; the plain
        cumsum of Psi^T is Fortran-ordered, and read row-major it sends most
        draws to wrong states."""
        mdp = random_mdp(2, num_states=60, num_actions=3, dim=7)
        behavior = fogas.uniform_policy(60, 3)
        ds = collect_dataset(mdp, behavior, n=2000, sampling_mode="uniform", seed=4)
        _, x_next = dense_collect(mdp, behavior, n=2000, sampling_mode="uniform", seed=4)
        assert np.array_equal(ds.x_nexts, x_next)

    def test_scratch_memory_is_bounded(self):
        # The dense (X*A, X) kernel alone would be 288 MB at this size.
        X, A, d, n = 3000, 4, 8, 20000
        mdp = fogas.generate_linear_mdp(X, A, d, 0.9, seed=0)
        phi = mdp.phi.copy()
        phi[0] = 0.0
        phi[0, :2] = [1.5, -0.5]  # a negative weight forces the nonnegativity scan
        signed = fogas.LinearMdp(num_states=X, num_actions=A, dim=d, phi=phi,
                                 psi=mdp.psi, omega=0.5 * mdp.omega, gamma=0.9, x0=0)
        # One chunk of scratch plus a few float64 arrays of the inputs' and
        # the dataset's sizes.
        bound = fogas.data.SAMPLE_CHUNK_BYTES + 4 * 8 * (X * A + (X + n) * d)
        calls = [
            lambda: collect_dataset(mdp, fogas.uniform_policy(X, A), n=n,
                                    sampling_mode="occupancy", seed=0),
            lambda: fogas.validate_linear_mdp(mdp),
            lambda: fogas.validate_linear_mdp(signed),
        ]
        for call in calls:
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound

    def test_same_seed_identical(self, default_mdp):
        beh = fogas.uniform_policy(5, 3)
        a = collect_dataset(default_mdp, beh, n=100, sampling_mode="occupancy", seed=5)
        b = collect_dataset(default_mdp, beh, n=100, sampling_mode="occupancy", seed=5)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.x_nexts, b.x_nexts)

    def test_uniform_mode_frequencies(self, default_mdp):
        ds = collect_dataset(default_mdp, fogas.uniform_policy(5, 3), n=100_000,
                             sampling_mode="uniform", seed=1)
        sa = ds.xs * 3 + ds.actions
        counts = np.bincount(sa, minlength=15)
        p = 1.0 / 15.0
        se = np.sqrt(p * (1 - p) / len(ds))
        assert np.abs(counts / len(ds) - p).max() <= 3.0 * se

    def test_occupancy_mode_frequencies(self, default_mdp):
        beh = fogas.uniform_policy(5, 3)
        mu = evaluate_policy(default_mdp, beh).mu
        ds = collect_dataset(default_mdp, beh, n=100_000,
                             sampling_mode="occupancy", seed=2)
        sa = ds.xs * 3 + ds.actions
        freq = np.bincount(sa, minlength=15) / len(ds)
        se = np.sqrt(np.clip(mu * (1 - mu), 1e-12, None) / len(ds))
        assert np.all(np.abs(freq - mu) <= 3.5 * se)

    def test_next_states_follow_kernel(self, default_mdp):
        # Condition on one (x, a) pair and compare against its kernel row.
        ds = collect_dataset(default_mdp, fogas.uniform_policy(5, 3), n=150_000,
                             sampling_mode="uniform", seed=3)
        mask = (ds.xs == 0) & (ds.actions == 0)
        nexts = ds.x_nexts[mask]
        row = dense_kernel(default_mdp)[0]
        freq = np.bincount(nexts, minlength=5) / len(nexts)
        se = np.sqrt(np.clip(row * (1 - row), 1e-12, None) / len(nexts))
        assert np.all(np.abs(freq - row) <= 4.0 * se)

    def test_unknown_mode_rejected(self, default_mdp):
        with pytest.raises(ValueError):
            collect_dataset(default_mdp, fogas.uniform_policy(5, 3), n=10,
                            sampling_mode="rollout", seed=0)

    @pytest.mark.parametrize("X, A, d", [(30, 4, 8), (5, 3, 4), (1, 1, 1)])
    @pytest.mark.parametrize("seed", range(5))
    def test_occupancy_pairs_equal_generator_choice(self, X, A, d, seed):
        """Under eps:0 (pi*, deterministic) the pairs of the actions pi* never
        takes have no mass, so the CDF has flat runs; the pairs drawn still
        equal ``Generator.choice``'s (``dense_collect`` draws with it), and so
        do X*A = 1's zeros, and the next states drawn after them are equal."""
        from fogas.harness import behavior_policy

        mdp = fogas.generate_linear_mdp(X, A, d, 0.9, seed)
        behavior = behavior_policy(mdp, "eps:0")
        if A > 1:
            assert (evaluate_policy(mdp, behavior).mu == 0).sum() >= X * (A - 1)
        ds = collect_dataset(mdp, behavior, n=3000, sampling_mode="occupancy", seed=seed)
        sa, x_next = dense_collect(mdp, behavior, n=3000, sampling_mode="occupancy", seed=seed)
        np.testing.assert_array_equal(ds.xs * A + ds.actions, sa)
        np.testing.assert_array_equal(ds.x_nexts, x_next)

    @pytest.mark.parametrize("mass", [0.0, np.nan, np.inf])
    def test_degenerate_occupancy_rejected(self, default_mdp, mass, monkeypatch):
        """An occupancy whose total is zero or not finite raises before any draw."""
        real = evaluate_policy(default_mdp, fogas.uniform_policy(5, 3))
        monkeypatch.setattr(fogas.data, "evaluate_policy",
                            lambda mdp, policy: replace(real, mu=np.full(15, mass)))
        with pytest.raises(ValueError, match="occupancy sums to"):
            collect_dataset(default_mdp, fogas.uniform_policy(5, 3), n=10,
                            sampling_mode="occupancy", seed=0)

    @pytest.mark.parametrize("n, seed, message", [
        (0, 0, "n must be an integer >= 1, got 0"),
        (10, -1, "seed must be an integer >= 0, got -1"),
    ])
    def test_bad_n_or_seed_rejected(self, default_mdp, n, seed, message):
        with pytest.raises(ValueError) as excinfo:
            collect_dataset(default_mdp, fogas.uniform_policy(5, 3), n=n,
                            sampling_mode="uniform", seed=seed)
        assert str(excinfo.value) == message


class TestOfflineDataset:
    @pytest.mark.parametrize("shape", [(6,), (6, 4, 1)])
    def test_features_must_be_two_dimensional(self, shape):
        """A feature array that is not (n, d) is refused, even where its first
        axis has the n rows."""
        with pytest.raises(ValueError, match=re.escape(
                f"features must be (n, d), got shape {shape}")):
            OfflineDataset(xs=np.zeros(6, dtype=int), actions=np.zeros(6, dtype=int),
                           rewards=np.zeros(6), x_nexts=np.zeros(6, dtype=int),
                           features=np.zeros(shape), num_states=5, num_actions=3)


class TestCovariance:
    def test_rank_one_closed_form(self):
        mdp = random_mdp(0, num_states=2, num_actions=2, dim=4)
        ds = dataset_from_rows(mdp, [0], [0], [1])
        # Overwrite features with a basis vector for the hand-computable case.
        ds = OfflineDataset(
            xs=ds.xs, actions=ds.actions, rewards=ds.rewards, x_nexts=ds.x_nexts,
            features=np.eye(4)[:1], num_states=2, num_actions=2,
        )
        cov = build_covariance(ds, beta=1.0)
        assert np.allclose(cov.lambda_mat, np.diag([2.0, 1.0, 1.0, 1.0]))

    def test_shifted_matrix_is_psd(self, default_dataset):
        cov = build_covariance(default_dataset, beta=0.1)
        eigs = np.linalg.eigvalsh(cov.lambda_mat - 0.1 * np.eye(4))
        assert eigs.min() >= -1e-12

    def test_against_naive_accumulation(self, default_mdp):
        ds = collect_dataset(default_mdp, fogas.uniform_policy(5, 3), n=200,
                             sampling_mode="uniform", seed=9)
        cov = build_covariance(ds, beta=0.3)
        naive = 0.3 * np.eye(4)
        for i in range(len(ds)):
            naive += np.outer(ds.features[i], ds.features[i]) / len(ds)
        assert np.abs(cov.lambda_mat - naive).max() <= 1e-12

    def test_solve_matches_inverse(self, default_dataset):
        cov = build_covariance(default_dataset, beta=0.05)
        rng = np.random.default_rng(0)
        rhs = rng.normal(size=4)
        assert np.allclose(cov.solve(rhs), np.linalg.inv(cov.lambda_mat) @ rhs,
                           atol=1e-12)

    def test_invalid_beta(self, default_dataset):
        with pytest.raises(ValueError):
            build_covariance(default_dataset, beta=0.0)
        with pytest.raises(ValueError):
            Covariance(beta=-1.0, lambda_mat=np.eye(2))

    def test_not_positive_definite_rejected(self):
        cov = Covariance(beta=1.0, lambda_mat=np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError, match="positive definite"):
            cov.solve(np.ones(2))
        with pytest.raises(ValueError, match="finite"):
            Covariance(beta=1.0, lambda_mat=np.diag([np.nan, 1.0]))

    def test_gram_formed_once(self, default_mdp):
        """Two covariances of one dataset are bit-equal, and the second reads
        the dataset's cached (1/n) F^T F instead of forming it again."""
        ds = collect_dataset(default_mdp, fogas.uniform_policy(5, 3), n=500,
                             sampling_mode="uniform", seed=4)
        first = build_covariance(ds, beta=0.05).lambda_mat
        np.testing.assert_array_equal(build_covariance(ds, beta=0.05).lambda_mat, first)
        np.testing.assert_array_equal(ds.gram, (ds.features.T @ ds.features) / 500)
        assert not ds.gram.flags.writeable
        vars(ds)["gram"] = np.zeros((4, 4))
        np.testing.assert_array_equal(build_covariance(ds, beta=0.05).lambda_mat,
                                      0.05 * np.eye(4))

    def test_solve_many_columns(self, default_dataset):
        cov = build_covariance(default_dataset, beta=0.05)
        rhs = np.random.default_rng(1).normal(size=(4, 7))
        assert np.abs(cov.lambda_mat @ cov.solve(rhs) - rhs).max() <= 1e-12


def test_import_loads_no_scipy():
    """scipy is a test-only dependency: the package itself never imports it."""
    src = os.path.dirname(os.path.dirname(fogas.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import fogas, fogas.cli, sys; "
            "assert not any(m.startswith('scipy') for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestEstimatePsi:
    def test_rank_one_closed_form(self):
        mdp = random_mdp(0, num_states=3, num_actions=2, dim=4)
        ds = OfflineDataset(
            xs=np.array([0]), actions=np.array([0]),
            rewards=np.array([0.5]), x_nexts=np.array([2]),
            features=np.eye(4)[:1], num_states=3, num_actions=2,
        )
        psi_hat = estimate_psi(ds, beta=1.0)
        dense = psi_hat.dense()
        assert np.allclose(dense[:, 2], [0.5, 0, 0, 0])
        assert np.allclose(dense[:, [0, 1]], 0.0)

    def test_unobserved_columns_zero(self, default_mdp):
        ds = collect_dataset(default_mdp, fogas.uniform_policy(5, 3), n=4,
                             sampling_mode="uniform", seed=13)
        psi_hat = estimate_psi(ds, beta=0.5)
        dense = psi_hat.dense()
        unobserved = np.setdiff1d(np.arange(5), np.unique(ds.x_nexts))
        assert np.all(dense[:, unobserved] == 0.0)

    def test_column_sum_identity(self, default_dataset):
        psi_hat = estimate_psi(default_dataset, beta=0.2)
        cov = psi_hat.covariance
        total = cov.solve(default_dataset.features.sum(axis=0)) / len(default_dataset)
        assert np.abs(psi_hat.columns.sum(axis=1) - total).max() <= 1e-12

    def test_against_independent_ridge(self):
        """Each column solves its own ridge regression; recompute via a
        stacked least-squares design with the sqrt-penalty rows appended."""
        rng = np.random.default_rng(21)
        for trial in range(10):
            mdp = random_mdp(400 + trial)
            ds = collect_dataset(mdp, fogas.uniform_policy(5, 3),
                                 n=int(rng.integers(20, 100)),
                                 sampling_mode="uniform", seed=trial)
            beta = float(rng.uniform(0.05, 1.0))
            psi_hat = estimate_psi(ds, beta)
            n = len(ds)
            design = np.vstack([ds.features, np.sqrt(n * beta) * np.eye(4)])
            for x in range(5):
                target = np.concatenate([(ds.x_nexts == x).astype(float),
                                         np.zeros(4)])
                col, *_ = np.linalg.lstsq(design, target, rcond=None)
                assert np.abs(psi_hat.dense()[:, x] - col).max() <= 1e-10


class TestNextStateGroups:
    @given(
        n=st.integers(1, 200),
        X=st.integers(1, 30),
        d=st.integers(1, 6),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_add_at_reference(self, n, X, d, seed):
        """The kernel adds in the same order as np.add.at: bit-identical."""
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-8, 8, size=(n, d))
        ds = OfflineDataset(
            xs=np.zeros(n, dtype=int), actions=np.zeros(n, dtype=int),
            rewards=np.zeros(n), x_nexts=rng.integers(0, X, size=n),
            features=features, num_states=X, num_actions=1,
        )
        for got, want in zip(ds.next_state_groups, add_at_groups(ds), strict=True):
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_unobserved_states_match_unique(self):
        """States no sample reaches (0, 2, 3 and 6 of 7) get no group; the
        groups equal np.unique's, dtypes included, bit for bit."""
        x_nexts = np.array([1, 4, 4, 1, 5, 1, 4, 5])
        features = np.random.default_rng(3).normal(size=(len(x_nexts), 3))
        ds = OfflineDataset(
            xs=np.zeros(len(x_nexts), dtype=int), actions=np.zeros(len(x_nexts), dtype=int),
            rewards=np.zeros(len(x_nexts)), x_nexts=x_nexts,
            features=features, num_states=7, num_actions=1,
        )
        observed, summed = ds.next_state_groups
        assert observed.tolist() == [1, 4, 5]
        for got, want in ((observed, np.unique(x_nexts)), (summed, add_at_groups(ds)[1])):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("n, X, d, states", [
        (50000, 100, 8, "all"), (1000, 1, 4, "all"), (300, 9, 3, "last"),
    ])
    def test_fixed_cases_equal_add_at_reference(self, n, X, d, states):
        """cli-chain's n=50000, X=100, d=8; one state; and only state X - 1
        observed, the last column of the slots. Bit-identical to np.add.at."""
        rng = np.random.default_rng(n + X + d)
        x_nexts = (rng.integers(0, X, size=n) if states == "all"
                   else np.full(n, X - 1))
        ds = OfflineDataset(
            xs=np.zeros(n, dtype=int), actions=np.zeros(n, dtype=int),
            rewards=np.zeros(n), x_nexts=x_nexts,
            features=rng.normal(size=(n, d)), num_states=X, num_actions=1,
        )
        for got, want in zip(ds.next_state_groups, add_at_groups(ds), strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


class TestApplyPsiHat:
    def test_zero_vector(self, default_dataset):
        psi_hat = estimate_psi(default_dataset, beta=0.1)
        assert np.all(psi_hat_apply(psi_hat, np.zeros(5)) == 0.0)

    def test_constant_vector(self, default_dataset):
        psi_hat = estimate_psi(default_dataset, beta=0.1)
        expected = psi_hat.covariance.solve(
            default_dataset.features.sum(axis=0)) / len(default_dataset)
        assert np.abs(psi_hat_apply(psi_hat, np.ones(5)) - expected).max() <= 1e-12

    def test_matches_dense_product(self, default_dataset):
        psi_hat = estimate_psi(default_dataset, beta=0.1)
        rng = np.random.default_rng(6)
        for _ in range(10):
            v = rng.normal(size=5)
            assert np.abs(psi_hat_apply(psi_hat, v)
                          - psi_hat.dense() @ v).max() <= 1e-12

    @given(st.floats(-5, 5), st.floats(-5, 5), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b, seed):
        mdp = random_mdp(0)
        ds = collect_dataset(mdp, fogas.uniform_policy(5, 3), n=64,
                             sampling_mode="uniform", seed=0)
        psi_hat = estimate_psi(ds, beta=0.1)
        rng = np.random.default_rng(seed)
        v, w = rng.normal(size=5), rng.normal(size=5)
        lhs = psi_hat_apply(psi_hat, a * v + b * w)
        rhs = a * psi_hat_apply(psi_hat, v) + b * psi_hat_apply(psi_hat, w)
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestConsistencyTrend:
    def test_error_shrinks_with_sample_size(self, default_mdp):
        """The preconditioned estimation error of a fixed bounded value vector
        should drop as the dataset grows."""
        v = np.array([0.3, -0.7, 1.0, 0.1, -0.4])
        beh = fogas.uniform_policy(5, 3)
        errors = {256: [], 16384: []}
        for n in errors:
            for seed in range(20):
                ds = collect_dataset(default_mdp, beh, n=n,
                                     sampling_mode="uniform", seed=seed)
                psi_hat = estimate_psi(ds, beta=1e-4)
                diff = psi_hat.covariance.lambda_mat @ (
                    (psi_hat.dense() - default_mdp.psi) @ v)
                errors[n].append(
                    np.sqrt(psi_hat.covariance.weighted_sq_norm(diff)))
        assert np.median(errors[16384]) < np.median(errors[256])


def write_rows(path, body):
    """A dataset archive holding the text rows ``body`` (lines "x,a,r,x_next"),
    one entry per column, named x, a, r, x_next and then column4, column5, ...
    A column is int64 if all its texts are integers, float64 if they are
    numbers, and text otherwise; it is written by ``np.savez``."""
    rows = [line.split(",") for line in body.splitlines()]
    names = ["x", "a", "r", "x_next"] + [f"column{j}" for j in range(4, 8)]
    entries = {"kind": np.array("fogas-dataset/1")}
    for name, texts in zip(names, zip(*rows)):
        entries[name] = np.array(texts)
        for dtype in (np.float64, np.int64):
            try:
                entries[name] = np.array([dtype(t) for t in texts])
            except ValueError:
                pass
    with open(path, "wb") as f:
        np.savez(f, **entries)


class TestSerialization:
    def test_round_trip_exact(self, default_mdp, default_dataset, tmp_path):
        path = tmp_path / "data.npz"
        save_dataset(default_dataset, path)
        loaded = load_dataset(path, default_mdp)
        assert np.array_equal(loaded.xs, default_dataset.xs)
        assert np.array_equal(loaded.actions, default_dataset.actions)
        assert np.array_equal(loaded.x_nexts, default_dataset.x_nexts)
        assert np.array_equal(loaded.rewards, default_dataset.rewards)
        assert np.array_equal(loaded.features, default_dataset.features)

    def test_header(self, default_dataset, tmp_path):
        """The archive's kind entry names the format; the columns are the
        transitions' int64 indices and float64 rewards."""
        path = tmp_path / "data.npz"
        save_dataset(default_dataset, path)
        entries = read_archive(path)
        assert entries.pop("kind") == "fogas-dataset/1"
        assert {name: arr.dtype for name, arr in entries.items()} == {
            "x": np.int64, "a": np.int64, "r": np.float64, "x_next": np.int64}

    @pytest.mark.parametrize("rewards", [
        [0.1, 1.0 / 3.0, 5e-324, 1e300, -0.0, 1e-05, 123456789.125, 1.0],
        [0.0, -0.0, 0.5, 0.0, -0.0, 0.5, 1.0 / 3.0, -0.0, 1e-05, 0.0],
        np.random.default_rng(0).random(200),
    ], ids=["special-floats", "repeated-signed-zeros", "all-distinct"])
    def test_rewards_round_trip_bitwise(self, default_mdp, tmp_path, rewards):
        """Rewards keep their bits, so a subnormal stays one and -0.0 is not 0.0."""
        n = len(rewards)
        ds = OfflineDataset(
            xs=np.arange(n) % 5, actions=np.arange(n) % 3,
            rewards=np.array(rewards), x_nexts=np.arange(n)[::-1] % 5,
            features=np.zeros((n, 4)), num_states=5, num_actions=3,
        )
        path = tmp_path / "data.npz"
        save_dataset(ds, path)
        loaded = load_dataset(path, default_mdp)
        assert np.array_equal(loaded.rewards.view(np.int64), ds.rewards.view(np.int64))
        assert np.array_equal(loaded.xs, ds.xs)
        assert np.array_equal(loaded.actions, ds.actions)
        assert np.array_equal(loaded.x_nexts, ds.x_nexts)

    @pytest.mark.parametrize("body", [
        "0,0,0.5\n", "0,0,0.5,1,2\n", "0,1.5,0.5,1\n", "0,0,x,1\n", "", "\n",
        "5,0,0.5,1\n", "-1,0,0.5,1\n", "0,3,0.5,1\n", "0,0,0.5,5\n",
    ])
    def test_malformed_rows_rejected(self, default_mdp, tmp_path, body):
        """A missing or extra column, a float index, a text reward, no rows, an
        empty field and an index out of range each fail with the path named."""
        path = tmp_path / "bad.npz"
        write_rows(path, body)
        with pytest.raises(ValueError, match=str(path)):
            load_dataset(path, default_mdp)

    def test_load_streams_the_file(self, tmp_path):
        """np.load reads each column in small blocks: at n=50000 (a 1.6 MB file)
        the peak holds the columns and the (n, d) features, not a second copy."""
        mdp = fogas.generate_linear_mdp(100, 4, 8, gamma=0.9, seed=0)
        ds = collect_dataset(mdp, fogas.uniform_policy(100, 4), n=50_000,
                             sampling_mode="uniform", seed=0)
        path = tmp_path / "data.npz"
        save_dataset(ds, path)
        tracemalloc.start()
        try:
            loaded = load_dataset(path, mdp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.x_nexts, ds.x_nexts)
        assert peak <= 8e6

    def test_bad_header_rejected(self, default_mdp, default_dataset, tmp_path):
        """An archive of another kind is not read as a dataset."""
        path = tmp_path / "bad.npz"
        save_dataset(default_dataset, path)
        edit_archive(path, lambda entries: entries.update(kind=np.array("fogas-run/1")))
        with pytest.raises(ValueError, match="kind entry is 'fogas-run/1'"):
            load_dataset(path, default_mdp)
