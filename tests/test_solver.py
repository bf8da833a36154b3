"""The ascent loop and its closed-form updates: the reference step functions
of conftest checked against dense materializations, finite differences and
random feasible points, and the compiled loop checked against them."""

import ctypes
import math
import os
import resource
import shutil
import subprocess
import tempfile
import time
import tracemalloc
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fogas
from fogas.data import build_covariance, collect_dataset, estimate_psi
from fogas import _native, harness, solver
from fogas.solver import (
    FogasConfig,
    FogasTrajectory,
    gradient_norm_bound,
    load_run,
    run_fogas,
    save_run,
    theoretical_min_iterations,
)

from conftest import (
    best_response_theta,
    edit_archive,
    iterate_params,
    iterate_policy_tables,
    lambda_gradient,
    lambda_update,
    mu_hat_features,
    psi_hat_apply,
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

    def test_bool_is_not_a_real(self):
        """True is not read as a rate, radius or delta of 1, nor False as 0."""
        for name in ("delta", "alpha", "rho", "eta", "beta", "d_theta"):
            for value in (True, False):
                with pytest.raises(ValueError, match=f"^{name} must"):
                    FogasConfig(T=5, auto_tune=True, **{name: value})

    def test_integer_and_bool_fields_typed(self):
        """A bool is not an integer and a string is not a bool: neither is
        truncated or read as true."""
        for name, low in (("T", 1), ("T_cap", 1), ("seed", 0)):
            with pytest.raises(ValueError, match=f"^{name} must be an integer >= {low}, "
                                                 "got True$"):
                FogasConfig(**{name: True})
        for name in ("auto_tune", "record_trajectory"):
            with pytest.raises(ValueError, match=f"^{name} must be a bool, got 'false'$"):
                FogasConfig(**{name: "false"})

    def test_manual_mode_requires_all_rates(self):
        """The rule needs neither the MDP nor n, so the config itself checks it."""
        with pytest.raises(ValueError, match="^all of alpha, rho, eta, beta must be set "
                                             "unless auto_tune$"):
            FogasConfig(T=5, alpha=0.1, eta=0.1, beta=0.1, d_theta=1.0)

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
        out, grad_sq = lambda_update(np.zeros(4), np.zeros(4), cov.lambda_mat, eta=1.0, rho=1.0)
        assert np.all(out == 0.0)
        assert grad_sq == 0.0

    def test_hand_arithmetic(self):
        out, grad_sq = lambda_update(np.array([1.0, 0.0]), np.array([1.0, 1.0]), np.eye(2),
                                     eta=1.0, rho=1.0)
        assert np.allclose(out, [1.0, 0.5], atol=1e-15)
        assert grad_sq == 2.0

    def test_first_order_condition(self, recorded_run, default_dataset):
        """Every (lambda_t, g_t, lambda_{t+1}) the loop recorded is a stationary
        point of the proximal objective that ``lambda_update`` maximizes."""
        cfg, tr = recorded_run.config, recorded_run.trajectory
        cov = build_covariance(default_dataset, cfg.beta)
        nexts = np.vstack([tr.lambdas[1:], recorded_run.lambda_final])
        assert cfg.rho > 0 and np.abs(nexts).max() > 0
        for lam_t, g, lam_next in zip(tr.lambdas, tr.g_lambdas, nexts):
            foc = -g + cov.solve(lam_next - lam_t) / cfg.eta + cfg.rho * cov.solve(lam_next)
            assert np.abs(foc).max() <= 1e-9


def site_features(mdp, psi_hat, probs):
    """f(x) = sum_a pi(a|x) phi(x,a) at the sites, x0 then the observed next
    states of ``psi_hat``, for a policy table ``probs``: shape (1+k, d)."""
    sites = np.concatenate(([mdp.x0], psi_hat.observed_states))
    return (probs[sites, None, :] @ mdp.phi_by_state[sites])[:, 0]


class TestMuHatFeatures:
    def test_zero_lambda(self, default_mdp, default_dataset):
        psi_hat = estimate_psi(default_dataset, beta=0.1)
        policy = fogas.uniform_policy(5, 3)
        features = site_features(default_mdp, psi_hat, policy.probs)
        out = mu_hat_features(np.zeros(4), features, psi_hat.columns, 0.9)
        expected = 0.1 * policy.probs[0] @ default_mdp.phi_by_state[0]
        assert np.abs(out - expected).max() <= 1e-14

    def test_single_sample_hand_instance(self):
        mdp = one_state_bandit()
        ds = collect_dataset(mdp, fogas.uniform_policy(1, 2), n=1,
                             sampling_mode="uniform", seed=0)
        psi_hat = estimate_psi(ds, beta=1.0)
        lam = np.array([0.2, -0.3])
        features = site_features(mdp, psi_hat, fogas.uniform_policy(1, 2).probs)
        out = mu_hat_features(lam, features, psi_hat.columns, 0.9)
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
            features = site_features(default_mdp, psi_hat, policy.probs)
            out = mu_hat_features(lam, features, psi_hat.columns, 0.9)
            assert np.abs(out - expected).max() <= 1e-10


class TestLambdaGradient:
    def test_theta_omega_zero_value(self, default_mdp, default_dataset):
        # A value of zero at the next states: only omega - theta remains.
        psi_hat = estimate_psi(default_dataset, beta=0.1)
        features = np.zeros((1 + len(psi_hat.observed_states), 4))
        g = lambda_gradient(default_mdp.omega, features, psi_hat.columns, default_mdp.omega,
                            0.9)
        assert np.abs(g).max() <= 1e-15

    def test_zero_gamma_limit(self, default_dataset, default_mdp):
        psi_hat = estimate_psi(default_dataset, beta=0.1)
        theta = np.array([0.1, 0.2, 0.3, 0.4])
        features = site_features(default_mdp, psi_hat, fogas.uniform_policy(5, 3).probs)
        g = lambda_gradient(theta, features, psi_hat.columns, default_mdp.omega, 0.0)
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
        features = site_features(default_mdp, psi_hat, probs)

        def value(lam):
            phimu = mu_hat_features(lam, features, psi_hat.columns, 0.9)
            theta = best_response_theta(phimu - lam, d_theta)
            q = (default_mdp.phi @ theta).reshape(5, 3)
            v = (probs * q).sum(axis=1)
            return float(0.1 * v[default_mdp.x0]
                         + lam @ (default_mdp.omega + 0.9 * psi_hat_apply(psi_hat, v) - theta))

        for _ in range(5):
            lam = rng.normal(size=4)
            phimu = mu_hat_features(lam, features, psi_hat.columns, 0.9)
            if np.linalg.norm(phimu - lam) <= 1e-6:
                continue
            theta = best_response_theta(phimu - lam, d_theta)
            g = lambda_gradient(theta, features, psi_hat.columns, default_mdp.omega, 0.9)
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

    def test_unresolved_T_resolved_per_config(self, default_mdp):
        """A config without T resolves it from its own dataset's n."""
        for n in (64, 256):
            (ds,) = uniform_datasets(default_mdp, n, [0])
            run = run_fogas(default_mdp, ds, FogasConfig(auto_tune=True))
            t_min = theoretical_min_iterations(default_mdp, n=n, delta=0.05)
            assert run.config.T == int(np.ceil(t_min))

    def test_gradient_bound_enforced(self, default_mdp, default_dataset):
        cfg = FogasConfig(T=60, seed=0, auto_tune=True, record_trajectory=True)
        run = run_fogas(default_mdp, default_dataset, cfg)
        bound = gradient_norm_bound(run.config, default_mdp)
        assert run.trajectory.grad_sq_norms.max() <= bound + 1e-8

    def test_nonfinite_abort_names_iteration(self, default_mdp, default_dataset):
        cfg = FogasConfig(T=50, seed=0, auto_tune=True, eta=1e250, d_theta=1e100)
        with pytest.raises(FloatingPointError, match="iteration"):
            run_fogas(default_mdp, default_dataset, cfg)

    @pytest.mark.parametrize("name, value", [
        ("num_states", 7), ("num_actions", 2), ("feature width", 1)])
    def test_mismatched_dataset_is_refused(self, default_mdp, default_dataset, name, value):
        """A dataset of another MDP's shape raises before the kernel reads it:
        the kernel would read d x d floats of a 1 x 1 covariance, and a 7-state
        dataset would index past the MDP's features."""
        if name == "feature width":
            dataset = replace(default_dataset, features=default_dataset.features[:, :1])
        else:
            X, A = (7, 3) if name == "num_states" else (5, 2)
            other = fogas.generate_linear_mdp(X, A, 4, gamma=0.9, seed=1)
            dataset = collect_dataset(other, fogas.uniform_policy(X, A), n=512,
                                      sampling_mode="uniform", seed=7)
        ours = {"num_states": 5, "num_actions": 3, "feature width": 4}[name]
        with pytest.raises(ValueError, match=f"dataset's {name} is {value}, but the MDP's "
                                             f"is {ours}"):
            run_fogas(default_mdp, dataset, FogasConfig(T=5, auto_tune=True))

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
            # Each call takes well under a millisecond: the minimum of five
            # ignores a call the host delayed.
            calls = []
            for _ in range(5):
                start = time.perf_counter()
                run_fogas(default_mdp, ds, cfg)
                calls.append(time.perf_counter() - start)
            times[n] = min(calls)
        assert times[16384] <= 2.5 * times[8192]


class TestLoopMemory:
    def test_peak_is_bounded(self):
        """At X=1e4 (k=8386 observed next states, so m = 8392: the 1+k sites
        padded to a multiple of 8) the loop holds one (A, d, m) copy of the
        site features, 2.1 MB, W = gamma C, (d, m), 0.5 MB, and the kernel's
        (A + d + 2) m work floats, 0.9 MB; the estimator and its groups take
        about 2 MB."""
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


class TestLoopAlignment:
    @pytest.mark.parametrize("shape", [(13,), (3, 5), (4, 8, 104)])
    def test_empty_is_aligned(self, shape):
        for _ in range(20):  # fresh buffers land at different offsets
            arr = _native.empty(shape)
            assert arr.shape == shape
            assert arr.dtype == np.float64 and arr.flags.c_contiguous
            assert arr.ctypes.data % 64 == 0

    @staticmethod
    def recorded_ascend_args(monkeypatch, calls):
        """Run ``calls`` with ``_native._kernel()`` behind a proxy that records
        the arguments of every ``fogas_ascend`` call; returns them."""
        lib, recorded = _native._kernel(), []

        class Recording:
            def __getattr__(self, name):
                return getattr(lib, name)

            def fogas_ascend(self, *args):
                recorded.append(args)
                return lib.fogas_ascend(*args)

        monkeypatch.setattr(_native, "_kernel", Recording)
        calls()
        return recorded

    def test_loop_arrays_are_aligned(self, monkeypatch):
        """At X=100, phi, W and work reach the kernel at multiples of 64 bytes."""
        mdp = fogas.generate_linear_mdp(100, 4, 8, gamma=0.9, seed=0)
        datasets = [collect_dataset(mdp, fogas.uniform_policy(100, 4), n=n,
                                    sampling_mode="uniform", seed=n) for n in (50, 300, 5000)]
        recorded = self.recorded_ascend_args(monkeypatch, lambda: [
            run_fogas(mdp, ds, FogasConfig(T=5, seed=s, auto_tune=True, record_trajectory=rec))
            for ds in datasets for s in range(3) for rec in (False, True)])
        assert len(recorded) == 18
        for args in recorded:
            phi, weights, work = args[4], args[5], args[16]
            assert (phi % 64, weights % 64, work % 64) == (0, 0, 0)

    def test_misaligned_arrays_give_the_same_bits(self, default_mdp, default_dataset,
                                                  monkeypatch):
        """The kernel assumes no alignment: with phi, W and work 8 bytes off a
        multiple of 64, a recorded run keeps every bit."""
        config = FogasConfig(T=50, seed=3, auto_tune=True, record_trajectory=True)
        aligned = run_fogas(default_mdp, default_dataset, config)
        empty = _native.empty

        def misaligned(shape):
            arr = empty((math.prod(shape) + 1,))[1:].reshape(shape)
            assert arr.ctypes.data % 64 == 8
            return arr

        monkeypatch.setattr(_native, "empty", misaligned)
        moved = run_fogas(default_mdp, default_dataset, config)
        for name in ("lambda_final", "theta_bar_final", "output_param"):
            assert getattr(moved, name).tobytes() == getattr(aligned, name).tobytes()
        for f in fields(FogasTrajectory):
            assert (getattr(moved.trajectory, f.name).tobytes()
                    == getattr(aligned.trajectory, f.name).tobytes())


@pytest.mark.skipif(not _native._on_glibc(), reason="the thresholds are set only under glibc")
class TestFreedMemoryReuse:
    def test_cells_reuse_freed_pages(self):
        """Once the kernel has loaded, a sweep cell at sweep-large-state's shape
        allocates from the heap the cell before it freed instead of mapping
        fresh pages: at most 64 minor faults per cell, where the default
        thresholds take about 600."""
        mdp = fogas.generate_linear_mdp(1000, 4, 8, gamma=0.9, seed=0)
        behavior = harness.behavior_policy(mdp, "eps:0.5")

        def cell(seed):
            harness.run_cell(mdp, behavior, "occupancy", 20_000, seed, {"T": 20})

        for seed in range(2):
            cell(seed)
        for seed in range(2, 5):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            cell(seed)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            assert faults <= 64, f"the cell of seed {seed} took {faults} minor faults"


@pytest.fixture(scope="session")
def package_build():
    """The path of the package's build of the current ``_kernel.c``, the one
    the rest of the suite loads; built on first use if it is not cached."""
    return Path(_native._kernel()._name)


@pytest.fixture
def copying_compiler(package_build, monkeypatch):
    """A stand-in for the compiler run: it copies ``package_build`` to the
    command's output file, so a test can fill a fresh or private cache
    without compiling again. It takes only the current source."""
    source = _native._KERNEL_SOURCE.read_bytes()

    def compile_by_copy(command, input, **kwargs):
        assert input == source
        shutil.copyfile(package_build, command[command.index("-o") + 1])
        return subprocess.CompletedProcess(command, 0, b"", b"")

    monkeypatch.setattr(subprocess, "run", compile_by_copy)


class TestKernelBuild:
    """The compiled kernels are built on first use into a cache keyed by their
    source and compiler command, and loaded from there afterwards. Only
    ``test_build_replaces_stale_builds`` starts the compiler on the current
    source; the other builds copy the package's."""

    def test_warm_cache_starts_no_compiler(self, default_mdp, default_dataset, monkeypatch):
        _native._kernel()  # the build is in the cache from here on

        def no_compiler(*args, **kwargs):
            raise AssertionError(f"compiler started: {args}")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        monkeypatch.setattr(_native, "_kernel_handle", None)
        run = run_fogas(default_mdp, default_dataset, FogasConfig(T=5, auto_tune=True))
        assert np.all(np.isfinite(run.lambda_final))

    def test_changed_source_gets_new_name(self, tmp_path):
        source = _native._KERNEL_SOURCE.read_bytes()
        name = _native._kernel_path(source, tmp_path)
        assert _native._kernel_path(source, tmp_path) == name
        assert _native._kernel_path(source + b"\n", tmp_path) != name

    def test_build_replaces_stale_builds(self, monkeypatch, tmp_path):
        """A build, once moved into place, removes the cache's other
        ``_kernel-*.so`` builds and nothing else; a failed build removes
        nothing."""
        source = tmp_path / "_kernel.c"
        source.write_bytes(_native._KERNEL_SOURCE.read_bytes())
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        stale, other = cache / "_kernel-0123456789abcdef.so", cache / "_ascent-0123.so"
        for path in (stale, other):
            path.write_bytes(b"an old build")
        monkeypatch.setattr(_native, "_KERNEL_SOURCE", source)
        monkeypatch.setattr(_native, "_kernel_handle", None)
        with pytest.raises(RuntimeError, match="failed building"):
            _native._build_kernel(b"not C", cache / "_kernel-fedcba9876543210.so")
        assert sorted(cache.iterdir()) == [other, stale]
        _native._kernel()
        assert sorted(cache.iterdir()) == [other, _native._kernel_path(source.read_bytes(), cache)]

    def test_unwritable_cache_builds_privately(self, default_mdp, default_dataset, monkeypatch,
                                               tmp_path, copying_compiler):
        """Where the package's __pycache__ cannot be written, the build goes to
        a private temporary directory, and the cache gets nothing."""
        monkeypatch.setattr(_native, "_CFLAGS", _native._CFLAGS + ("-DFOGAS_UNCACHED",))
        monkeypatch.setattr(_native, "_kernel_handle", None)
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        monkeypatch.setattr(tempfile, "mkdtemp", lambda prefix: str(tmp_path))
        cache = _native._KERNEL_SOURCE.with_name("__pycache__")
        cached = set(cache.glob("_kernel-*"))
        run_fogas(default_mdp, default_dataset, FogasConfig(T=5, auto_tune=True))
        assert set(cache.glob("_kernel-*")) == cached
        source = _native._KERNEL_SOURCE.read_bytes()
        assert list(tmp_path.iterdir()) == [_native._kernel_path(source, tmp_path)]

    def test_collect_then_solve_loads_one_library(self, default_mdp, monkeypatch, tmp_path,
                                                  copying_compiler):
        """Collection and the loop share one build and one load per process."""
        monkeypatch.setattr(_native, "_CFLAGS", _native._CFLAGS + ("-DFOGAS_SHARED",))
        monkeypatch.setattr(_native, "_kernel_handle", None)
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        monkeypatch.setattr(tempfile, "mkdtemp", lambda prefix: str(tmp_path))
        loads, builds = [], []
        monkeypatch.setattr(_native.ctypes, "CDLL",
                            lambda path, cdll=ctypes.CDLL: loads.append(path) or cdll(path))
        monkeypatch.setattr(_native, "_build_kernel",
                            lambda source, path, build=_native._build_kernel:
                            builds.append(path) or build(source, path))
        ds = collect_dataset(default_mdp, fogas.uniform_policy(5, 3), n=64,
                             sampling_mode="uniform", seed=0)
        run_fogas(default_mdp, ds, FogasConfig(T=5, auto_tune=True))
        source = _native._KERNEL_SOURCE.read_bytes()
        assert builds == [_native._kernel_path(source, tmp_path)]
        assert loads == [str(builds[0])]

    def test_missing_compiler_is_named(self, default_mdp, default_dataset, monkeypatch):
        monkeypatch.setattr(_native, "_COMPILER", "fogas-no-such-cc")
        monkeypatch.setattr(_native, "_kernel_handle", None)
        with pytest.raises(RuntimeError, match="C compiler 'fogas-no-such-cc'"):
            run_fogas(default_mdp, default_dataset, FogasConfig(T=5, auto_tune=True))


# The loop and ``reference_ascend`` differ only in the order of roundoff.
REFERENCE_RTOL = 1e-12


def assert_runs_close(run, reference):
    """The same draw J and config, and every final parameter and trajectory
    field within ``REFERENCE_RTOL`` of the reference's largest absolute value."""
    assert run.chosen_index == reference.chosen_index
    assert run.config == reference.config
    pairs = [(run.lambda_final, reference.lambda_final),
             (run.theta_bar_final, reference.theta_bar_final),
             (run.output_param, reference.output_param)]
    assert (run.trajectory is None) == (reference.trajectory is None)
    if reference.trajectory is not None:
        pairs += [(getattr(run.trajectory, f.name), getattr(reference.trajectory, f.name))
                  for f in fields(FogasTrajectory)]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= REFERENCE_RTOL * np.abs(want).max()


def uniform_datasets(mdp, n, seeds):
    beh = fogas.uniform_policy(mdp.num_states, mdp.num_actions)
    return [collect_dataset(mdp, beh, n=n, sampling_mode="uniform", seed=s)
            for s in seeds]


def pad_boundary_case(num_states):
    """An (X, 3, 4) MDP and 4096 uniform samples, enough to observe every state."""
    mdp = fogas.generate_linear_mdp(num_states, 3, 4, 0.9, 0)
    return mdp, uniform_datasets(mdp, 4096, [0])[0]


def reference_error(error_type, mdp, dataset, config):
    with pytest.raises(error_type) as error:
        reference_ascend(mdp, dataset, config)
    return error.value


class TestReferenceLoop:
    @given(
        mdp_seed=st.integers(0, 10**6),
        num_states=st.integers(2, 8),
        num_actions=st.integers(1, 4),
        dim=st.integers(1, 5),
        T=st.integers(1, 30),
        x0_pick=st.integers(1, 7),
        n=st.integers(2, 32),
        alpha=st.floats(0.01, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_loop(self, mdp_seed, num_states, num_actions, dim, T,
                                    x0_pick, n, alpha):
        """Each step of a run equals ``reference_ascend``, conftest's step
        functions in a loop, from the run's recorded state.

        Followed, not free-running: the best response can amplify roundoff
        several times per iteration, and in about 1 of 1500 such random runs
        two free-running loops drift past 1e-12 of each other by T=30. The
        default-MDP cases of ``test_nonfinite_run_matches_reference`` compare
        free-running. Every run stays within its gradient norm bound.
        """
        dim = min(dim, num_states * num_actions)
        mdp = fogas.generate_linear_mdp(num_states, num_actions, dim, 0.9, mdp_seed)
        mdp = replace(mdp, x0=1 + (x0_pick - 1) % (num_states - 1))
        beh = fogas.uniform_policy(num_states, num_actions)
        ds = collect_dataset(mdp, beh, n=n, sampling_mode="uniform", seed=mdp_seed)
        cfg = FogasConfig(T=T, seed=mdp_seed, auto_tune=True, alpha=alpha,
                          record_trajectory=True)
        run = run_fogas(mdp, ds, cfg)
        assert_runs_close(run, reference_ascend(mdp, ds, cfg, follow=run.trajectory))
        assert run.trajectory.grad_sq_norms.max() <= gradient_norm_bound(run.config, mdp) + 1e-8

    def test_nonfinite_run_matches_reference(self, default_mdp):
        """A run whose iterates leave the finite numbers raises the reference's
        error, which names the iteration; the runs of the seeds beside it match
        the reference free-running."""
        datasets = uniform_datasets(default_mdp, 256, range(3))
        configs = [FogasConfig(T=50, seed=s, auto_tune=True, record_trajectory=True)
                   for s in range(3)]
        configs[1] = replace(configs[1], eta=1e250, d_theta=1e100)
        with pytest.raises(FloatingPointError) as error:
            run_fogas(default_mdp, datasets[1], configs[1])
        with pytest.warns(RuntimeWarning, match="overflow"):  # numpy's lambda step
            reference = reference_error(FloatingPointError, default_mdp, datasets[1],
                                        configs[1])
        assert str(error.value) == str(reference)
        assert "iteration" in str(error.value)
        for s in (0, 2):
            assert_runs_close(run_fogas(default_mdp, datasets[s], configs[s]),
                              reference_ascend(default_mdp, datasets[s], configs[s]))

    @pytest.mark.parametrize("num_states", [6, 7, 8, 15, 16])
    def test_matches_reference_at_pad_boundaries(self, num_states):
        """With every state observed, the m = 1 + X sites fall just below, on
        and just above a multiple of the kernel's pad (8): the zero columns
        the loop is padded with change no recorded value."""
        mdp, ds = pad_boundary_case(num_states)
        assert len(np.unique(ds.x_nexts)) == num_states  # m = 1 + X
        cfg = FogasConfig(T=40, seed=0, auto_tune=True, record_trajectory=True)
        run = run_fogas(mdp, ds, cfg)
        assert_runs_close(run, reference_ascend(mdp, ds, cfg, follow=run.trajectory))

    def test_nonfinite_padded_run_matches_reference(self):
        """At m = 9 sites, padded to 16, a run that leaves the finite numbers
        names the reference's iteration and finite flags."""
        mdp, ds = pad_boundary_case(8)
        cfg = FogasConfig(T=50, seed=0, auto_tune=True, eta=1e250, d_theta=1e100)
        with pytest.raises(FloatingPointError) as error:
            run_fogas(mdp, ds, cfg)
        with pytest.warns(RuntimeWarning, match="overflow"):  # numpy's lambda step
            reference = reference_error(FloatingPointError, mdp, ds, cfg)
        assert str(error.value) == str(reference)


def shift_free_counts(monkeypatch):
    """The count of shift-free iterations the loop is given, one per run."""
    counts = []
    count_of = solver.shift_free_iterations

    def recording(config, mdp):
        counts.append(count_of(config, mdp))
        return counts[-1]

    monkeypatch.setattr(solver, "shift_free_iterations", recording)
    return counts


class TestShiftFreeSoftmax:
    """The loop's softmax skips its max-shift while alpha (t-1) d_theta R, a
    bound on every logit, stays within 700 - ln A, and shifts after that."""

    def test_fallback_keeps_large_logits_finite(self, default_mdp, default_dataset,
                                                monkeypatch):
        """alpha d_theta R passes the limit at once, and the logits pass exp's
        overflow point (about 709.78) within the run: every softmax from t=2
        on is shifted, and each step matches the reference."""
        counts = shift_free_counts(monkeypatch)
        cfg = FogasConfig(T=30, seed=0, auto_tune=True, alpha=50.0, record_trajectory=True)
        run = run_fogas(default_mdp, default_dataset, cfg)
        bound = run.config.alpha * run.config.d_theta * default_mdp.feature_bound
        assert bound > 700.0
        assert counts == [1]  # the first shifted iteration is t=2
        logits = default_mdp.phi @ (run.config.alpha * run.trajectory.theta_bars.T)
        assert np.abs(logits).max() > 710.0
        for f in fields(FogasTrajectory):
            assert np.all(np.isfinite(getattr(run.trajectory, f.name)))
        assert_runs_close(run, reference_ascend(default_mdp, default_dataset, cfg,
                                                follow=run.trajectory))

    def test_loop_reads_the_count(self, default_mdp, default_dataset, monkeypatch):
        """The same run told that every iteration is shift-free overflows exp
        and stops: the loop skips the shift exactly where the count says."""
        monkeypatch.setattr(solver, "shift_free_iterations", lambda config, mdp: config.T)
        cfg = FogasConfig(T=30, seed=0, auto_tune=True, alpha=50.0)
        with pytest.raises(FloatingPointError, match="iteration"):
            run_fogas(default_mdp, default_dataset, cfg)

    def test_switch_mid_run(self, default_mdp, default_dataset, monkeypatch):
        """With alpha set so that the bound reaches the limit halfway, the
        first 21 softmaxes skip the shift and the other 19 take it; both
        halves match the reference step by step."""
        counts = shift_free_counts(monkeypatch)
        d_theta = fogas.canonical_d_theta(default_mdp)
        limit = 700.0 - np.log(default_mdp.num_actions)
        alpha = limit / (20.5 * d_theta * default_mdp.feature_bound)  # (t-1) = 20.5 at the limit
        cfg = FogasConfig(T=40, seed=1, auto_tune=True, alpha=alpha, record_trajectory=True)
        run = run_fogas(default_mdp, default_dataset, cfg)
        assert counts == [21]  # the first shifted iteration is t=22
        assert_runs_close(run, reference_ascend(default_mdp, default_dataset, cfg,
                                                follow=run.trajectory))


class TestRecordedRuns:
    @pytest.mark.parametrize("alpha", [None, 50.0])
    def test_recording_changes_no_result(self, default_mdp, alpha):
        """A run without its trajectory gives bit for bit the results of the
        same run with it, for the schedule's alpha and for one whose softmaxes
        are shifted."""
        for s, ds in enumerate(uniform_datasets(default_mdp, 256, range(3))):
            config = FogasConfig(T=60, seed=s, auto_tune=True, alpha=alpha)
            a = run_fogas(default_mdp, ds, config)
            b = run_fogas(default_mdp, ds, replace(config, record_trajectory=True))
            assert a.trajectory is None and b.trajectory is not None
            assert a.chosen_index == b.chosen_index
            for name in ("lambda_final", "theta_bar_final", "output_param"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_trajectories_are_read_only_views_of_one_table(self, default_mdp, default_dataset):
        """Every field of a run's trajectory is a read-only view into one
        table, which holds the trajectory and one more row (lambda_1 and
        theta_bar_0): nothing is copied."""
        T, d = 20, default_mdp.dim
        run = run_fogas(default_mdp, default_dataset,
                        FogasConfig(T=T, seed=0, auto_tune=True, record_trajectory=True))
        arrays = [getattr(run.trajectory, f.name) for f in fields(FogasTrajectory)]
        table = arrays[0].base
        assert table.flags.c_contiguous
        for arr in arrays:
            assert arr.base is table and np.shares_memory(arr, table)
            assert not arr.flags.writeable
        assert table.nbytes == sum(arr.nbytes for arr in arrays) + 8 * (5 * d + 1)
        for arr in (run.trajectory.lambdas, run.trajectory.grad_sq_norms):
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
        """A recorded T=5000 run holds its trajectory once. Its tracemalloc
        peak is at most the table's (T+1)(5d + 1) floats (0.84 MB at d=4) plus
        512 KiB for the estimator, the loop's arrays and the output policy; a
        copy of the trajectory would add 0.84 MB. The bound was set before the
        test first ran. A two-iteration run first fills the dataset's and the
        MDP's cached arrays and numpy's lazy imports, which would otherwise
        count."""
        T, d = 5000, default_mdp.dim
        (ds,) = uniform_datasets(default_mdp, 1024, [0])
        config = FogasConfig(T=T, seed=0, auto_tune=True, record_trajectory=True)
        run_fogas(default_mdp, ds, replace(config, T=2))
        tracemalloc.start()
        try:
            run = run_fogas(default_mdp, ds, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run.trajectory is not None
        assert peak <= 8 * (T + 1) * (5 * d + 1) + 2**19


class TestRunSerialization:
    def test_archive_entries(self, recorded_run, tmp_path):
        """The file is an .npz archive of the config's fields as scalars, J, the
        final parameters and the trajectory's arrays, which have no rows when
        the trajectory was not recorded, and nothing else."""
        path = tmp_path / "run.npz"
        for trajectory in (recorded_run.trajectory, None):
            run = replace(recorded_run, trajectory=trajectory, config=replace(
                recorded_run.config, record_trajectory=trajectory is not None))
            expected = {
                **{f"config.{k}": v for k, v in asdict(run.config).items()},
                "chosen_index": run.chosen_index,
                "lambda_final": run.lambda_final,
                "theta_bar_final": run.theta_bar_final,
                "output_param": run.output_param,
            }
            save_run(run, path)
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

    @pytest.mark.parametrize("chosen_index", [0, 51])
    def test_chosen_index_outside_run_rejected(self, recorded_run, default_mdp, tmp_path,
                                               chosen_index):
        path = tmp_path / "run.npz"
        save_run(recorded_run, path)
        edit_archive(path, lambda doc: doc.update(chosen_index=np.array(chosen_index)))
        with pytest.raises(ValueError) as excinfo:
            load_run(path, default_mdp)
        assert str(excinfo.value) == f"{path}: chosen_index {chosen_index} outside [1, 50]"

    def test_recorded_run_without_trajectory_rejected(self, recorded_run, default_mdp,
                                                      tmp_path):
        """A run recorded with its trajectory emptied does not load as unrecorded."""
        path = tmp_path / "run.npz"
        save_run(recorded_run, path)
        edit_archive(path, lambda doc: doc.update(
            {f.name: doc[f.name][:0] for f in fields(FogasTrajectory)}))
        with pytest.raises(ValueError) as excinfo:
            load_run(path, default_mdp)
        assert str(excinfo.value) == f"{path}: lambdas has shape (0, 4), expected (50, 4)"

    def test_unrecorded_run_claiming_trajectory_rejected(self, default_mdp,
                                                         default_dataset, tmp_path):
        run = run_fogas(default_mdp, default_dataset,
                        FogasConfig(T=10, seed=1, auto_tune=True))
        path = tmp_path / "run.npz"
        save_run(run, path)
        edit_archive(path, lambda doc: doc.update({"config.record_trajectory": np.array(True)}))
        with pytest.raises(ValueError) as excinfo:
            load_run(path, default_mdp)
        assert str(excinfo.value) == f"{path}: lambdas has shape (0, 4), expected (10, 4)"

    def test_trajectory_against_config_refused(self, recorded_run, tmp_path):
        """A run that keeps its trajectory against its config's
        record_trajectory, or drops it against it, is not written: load_run
        would refuse the file."""
        path = tmp_path / "run.npz"
        for run, kept in ((replace(recorded_run, trajectory=None), "not kept"),
                          (replace(recorded_run, config=replace(
                              recorded_run.config, record_trajectory=False)), "kept")):
            with pytest.raises(ValueError, match=f"^the run's trajectory is {kept}, but its "
                                                 "config has record_trajectory="):
                save_run(run, path)
            assert not path.exists()

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
        reference step functions; this pins the index bookkeeping the
        diagnostics use."""
        dim = min(dim, num_states * num_actions)
        mdp = fogas.generate_linear_mdp(num_states, num_actions, dim, 0.9, mdp_seed)
        ds = collect_dataset(mdp, fogas.uniform_policy(num_states, num_actions),
                             n=32, sampling_mode="uniform", seed=mdp_seed)
        cfg = FogasConfig(T=T, seed=mdp_seed, auto_tune=True, alpha=alpha,
                          record_trajectory=True)
        run = run_fogas(mdp, ds, cfg)
        cfg, tr = run.config, run.trajectory
        psi_hat = estimate_psi(ds, cfg.beta)
        tables = iterate_policy_tables(mdp, tr, cfg.alpha)

        for t in range(T):
            features = site_features(mdp, psi_hat, tables[t])
            phimu = mu_hat_features(tr.lambdas[t], features, psi_hat.columns, mdp.gamma)
            assert np.abs(tr.phi_mu_hats[t] - phimu).max() <= 1e-12
            g = lambda_gradient(tr.thetas[t], features, psi_hat.columns, mdp.omega, mdp.gamma)
            assert np.abs(tr.g_lambdas[t] - g).max() <= 1e-12
            if t + 1 == T:
                break
            lam_next, _ = lambda_update(tr.lambdas[t], tr.g_lambdas[t],
                                        psi_hat.covariance.lambda_mat, cfg.eta, cfg.rho)
            assert np.abs(tr.lambdas[t + 1] - lam_next).max() <= 1e-12
            # Cumulative form equals the multiplicative mirror-ascent step.
            boost = np.exp(cfg.alpha * (mdp.phi @ tr.thetas[t]))
            table = tables[t] * boost.reshape(num_states, num_actions)
            table /= table.sum(axis=1, keepdims=True)
            assert np.abs(tables[t + 1] - table).max() <= 1e-12
