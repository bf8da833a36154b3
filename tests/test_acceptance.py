"""Acceptance suite: exact-identity, closed-form, and trend criteria.

Each criterion prints a single PASS/FAIL line (run with ``pytest -s`` to see
all of them; failures always show theirs).
"""

import numpy as np
import pytest

import fogas
from fogas import harness
from fogas.data import build_covariance, collect_dataset, estimate_psi
from fogas.diagnostics import build_comparators, duality_gap_report, player_regrets
from fogas.oracle import evaluate_policy
from fogas.solver import FogasConfig, gradient_norm_bound, run_fogas

from conftest import (
    best_response_theta,
    dense_kernel,
    lambda_update,
    random_mdp,
    random_policy,
    relaxed_lp_feasibility,
)


def _verdict(name, ok, detail):
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def identity_runs():
    """Twenty auto-tuned short runs on random instances, fully diagnosed."""
    out = []
    for seed in range(20):
        mdp = random_mdp(1000 + seed)
        ds = collect_dataset(mdp, fogas.uniform_policy(5, 3), n=512,
                             sampling_mode="uniform", seed=seed)
        run = run_fogas(mdp, ds, FogasConfig(T=50, seed=seed, auto_tune=True,
                                             record_trajectory=True))
        report = duality_gap_report(run, mdp, ds, check_identities=False)
        out.append((mdp, ds, run, report))
    return out


def test_a1_gap_equals_average_suboptimality(identity_runs):
    worst = max(r.identity_residual for *_, r in identity_runs)
    _verdict("A1 (gap/suboptimality identity)", worst <= 1e-8,
             f"max residual {worst:.3e} over 20 instances, tol 1e-8")


def test_a2_gap_decomposition(identity_runs):
    worst = max(r.decomposition_residual for *_, r in identity_runs)
    _verdict("A2 (gap decomposition identity)", worst <= 1e-8,
             f"max residual {worst:.3e} over 20 instances, tol 1e-8")


def test_a3_theta_player_regret(identity_runs):
    worst = -np.inf
    for mdp, ds, run, report in identity_runs:
        T = run.trajectory.thetas.shape[0]
        worst = max(worst, report.regret_theta * T)
    _verdict("A3 (theta-player regret nonpositive)", worst <= 1e-9,
             f"max total regret {worst:.3e}, tol 1e-9")


def test_a4_lambda_and_pi_regret_bounds(identity_runs):
    worst_lam = -np.inf
    worst_pi = -np.inf
    for mdp, ds, run, report in identity_runs:
        cfg = run.config
        traj = run.trajectory
        T = traj.thetas.shape[0]
        comp = build_comparators(mdp, traj, cfg.alpha)
        r_pi, r_lam, _ = player_regrets(mdp, traj, comp)
        cov = build_covariance(ds, cfg.beta)
        lam_star_sq = cov.weighted_sq_norm(comp.lambda_star)
        iterate_sq = sum(cov.weighted_sq_norm(traj.lambdas[t])
                         for t in range(T))
        C = gradient_norm_bound(cfg, mdp)
        rhs_lam = ((1.0 / (2 * cfg.eta * T) + cfg.rho / 2.0) * lam_star_sq
                   + cfg.eta * C / 2.0 - cfg.rho / (2.0 * T) * iterate_sq)
        worst_lam = max(worst_lam, r_lam / T - rhs_lam)
        rhs_pi = (np.log(mdp.num_actions) / (cfg.alpha * T)
                  + cfg.alpha * mdp.feature_bound**2 * cfg.d_theta**2 / 2.0)
        worst_pi = max(worst_pi, r_pi / T - rhs_pi)
    ok = worst_lam <= 1e-6 and worst_pi <= 1e-9
    _verdict("A4 (lambda/pi regret bounds)", ok,
             f"max lambda slack {worst_lam:.3e} (tol 1e-6), "
             f"max pi slack {worst_pi:.3e} (tol 1e-9)")


def test_a5_gradient_norm_bound(identity_runs):
    worst = -np.inf
    for mdp, ds, run, report in identity_runs:
        bound = gradient_norm_bound(run.config, mdp)
        worst = max(worst, run.trajectory.grad_sq_norms.max() - bound)
    _verdict("A5 (gradient norm bound)", worst <= 1e-8,
             f"max excess {worst:.3e} over all iterations, tol 1e-8")


def test_a6_estimator_matches_ridge_oracle():
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(50):
        d = int(rng.integers(2, 7))
        X = int(rng.integers(3, 7))
        A = int(rng.integers(2, 4))
        while d > X * A:
            d = int(rng.integers(2, 7))
        mdp = fogas.generate_linear_mdp(X, A, d, gamma=0.9, seed=2000 + trial)
        n = int(rng.integers(10, 101))
        ds = collect_dataset(mdp, fogas.uniform_policy(X, A), n=n,
                             sampling_mode="uniform", seed=trial)
        beta = float(rng.uniform(0.01, 1.0))
        dense = estimate_psi(ds, beta).dense()
        design = np.vstack([ds.features, np.sqrt(n * beta) * np.eye(d)])
        for x in range(X):
            target = np.concatenate([(ds.x_nexts == x).astype(float),
                                     np.zeros(d)])
            col, *_ = np.linalg.lstsq(design, target, rcond=None)
            worst = max(worst, float(np.abs(dense[:, x] - col).max()))
    _verdict("A6 (ridge estimator vs independent oracle)", worst <= 1e-8,
             f"max column deviation {worst:.3e} over 50 datasets, tol 1e-8")


def test_a7_closed_form_updates():
    from scipy.optimize import minimize
    from fogas.data import Covariance
    rng = np.random.default_rng(1)
    worst_lam = 0.0
    best_resp_ok = True
    for _ in range(100):
        A = rng.normal(size=(2, 2))
        mat = A @ A.T + 0.3 * np.eye(2)
        cov = Covariance(beta=0.3, lambda_mat=0.5 * (mat + mat.T))
        inv = np.linalg.inv(cov.lambda_mat)
        lam_t = rng.normal(size=2)
        g = rng.normal(size=2)
        eta = float(rng.uniform(0.05, 1.0))
        rho = float(rng.uniform(0.0, 1.0))

        def neg_obj(lam):
            diff = lam - lam_t
            return -(lam @ g - diff @ inv @ diff / (2 * eta)
                     - rho * (lam @ inv @ lam) / 2.0)

        closed, _ = lambda_update(lam_t, g, cov.lambda_mat, eta, rho)
        res = minimize(neg_obj, lam_t, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14,
                                "maxiter": 10_000})
        worst_lam = max(worst_lam, float(np.abs(closed - res.x).max()))

        d_theta = float(rng.uniform(0.5, 3.0))
        theta = best_response_theta(g, d_theta)
        pts = rng.normal(size=(1000, 2))
        pts *= d_theta * rng.random((1000, 1)) / np.linalg.norm(
            pts, axis=1, keepdims=True)
        if not np.all(theta @ g <= pts @ g + 1e-12):
            best_resp_ok = False
    ok = worst_lam <= 1e-6 and best_resp_ok
    _verdict("A7 (closed-form updates)", ok,
             f"max lambda-update deviation {worst_lam:.3e} (tol 1e-6), "
             f"best response optimal vs 1000 points each: {best_resp_ok}")


def test_a8_oracle_soundness():
    rng = np.random.default_rng(2)
    worst_bellman = 0.0
    worst_flow = 0.0
    worst_consistency = 0.0
    worst_lp = 0.0
    for i in range(200):
        mdp = random_mdp(3000 + i)
        policy = random_policy(5, 3, rng)
        ev = evaluate_policy(mdp, policy)
        P, r = dense_kernel(mdp), mdp.rewards
        worst_bellman = max(worst_bellman, float(
            np.abs(ev.q - (r + mdp.gamma * P @ ev.v)).max()))
        flow = ev.mu.reshape(5, 3).sum(axis=1) \
            - (1.0 - mdp.gamma) * mdp.nu0 - mdp.gamma * P.T @ ev.mu
        worst_flow = max(worst_flow, float(np.abs(flow).max()))
        worst_consistency = max(worst_consistency, abs(
            ev.mu @ r - (1.0 - mdp.gamma) * ev.v[mdp.x0]))
        res = relaxed_lp_feasibility(mdp, policy)
        worst_lp = max(worst_lp, res["flow_residual"], res["lambda_residual"])
    ok = (worst_bellman <= 1e-10 and worst_flow <= 1e-10
          and worst_consistency <= 1e-10 and worst_lp <= 1e-9)
    _verdict("A8 (oracle soundness)", ok,
             f"Bellman {worst_bellman:.2e}, flow {worst_flow:.2e}, "
             f"return {worst_consistency:.2e} (tol 1e-10), "
             f"LP {worst_lp:.2e} (tol 1e-9), 200 pairs")


def test_a9_learning_trend(default_mdp):
    behavior = fogas.uniform_policy(5, 3)
    medians = {}
    for n in (256, 16384):
        subs = []
        for seed in range(10):
            record, _ = harness.run_cell(
                default_mdp, behavior, "uniform", n, seed,
                {"auto_tune": True, "T_cap": 20000})
            subs.append(record.mean_suboptimality)
        medians[n] = float(np.median(subs))
    ok = medians[16384] < 0.5 * medians[256]
    _verdict("A9 (learning trend, halved error at 64x data)", ok,
             f"median mean-iterate suboptimality {medians[16384]:.4f} at "
             f"n=16384 vs {medians[256]:.4f} at n=256; "
             f"required < {0.5 * medians[256]:.4f}")


def test_a10_stabilization_ablation(default_mdp):
    # Behavior mass piled on action 0 gives the poor-coverage dataset.
    probs = np.full((5, 3), 0.025)
    probs[:, 0] = 0.95
    behavior = fogas.TabularPolicy(probs)
    wins = 0
    ratios = []
    for seed in range(10):
        ds = collect_dataset(default_mdp, behavior, n=1024,
                             sampling_mode="occupancy", seed=seed)
        maxes = {}
        for stabilized in (True, False):
            cfg = FogasConfig(T=500, seed=seed, auto_tune=True,
                              rho=None if stabilized else 0.0,
                              record_trajectory=True)
            run = run_fogas(default_mdp, ds, cfg)
            cov = build_covariance(ds, run.config.beta)
            maxes[stabilized] = max(
                cov.weighted_sq_norm(lam) for lam in run.trajectory.lambdas)
        ratio = maxes[False] / maxes[True]
        ratios.append(ratio)
        wins += ratio >= 2.0
    _verdict("A10 (stabilization ablation)", wins > 5,
             f"{wins}/10 seeds with unstabilized/stabilized max iterate "
             f"norm ratio >= 2 (median ratio {np.median(ratios):.1f})")
