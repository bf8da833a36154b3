"""Shared fixtures (a default environment, datasets, one recorded run) and
the dense and per-iterate references the vectorized code is tested against.
The dense (X*A, X) kernel and the (T, X, A) iterate tables exist only here;
the package never forms them. So does the relaxed-LP feasibility check, which
only tests call.

The FOGAS step is stated here once, in numpy, one function per step:
``best_response_theta``, ``mu_hat_features``, ``lambda_gradient`` and
``lambda_update``. ``reference_ascend`` chains them into the loop. They are
the specification of the compiled loop in ``fogas/_kernel.c``: the tests
compare its recorded steps against them.

The iterate scorer ``fogas_score_iterates``, which
``fogas.diagnostics.score_iterates`` calls, is stated here too:
``reference_score_iterates``, numpy GEMMs over action-major feature tables
and, for the flow systems the kernel solves by its own elimination,
``reference_solve_flow``, numpy's LAPACK solve. It runs no kernel code."""

import warnings
from dataclasses import fields

import numpy as np
import pytest

import fogas
from fogas.data import estimate_psi
from fogas.diagnostics import eval_f, v_of_theta_policy
from fogas.linmdp import SAMPLE_CHUNK_BYTES, _stable_softmax_rows, softmax_from_logit_param
from fogas.oracle import evaluate_policy
from fogas.solver import BEST_RESPONSE_TIE_TOL, FogasRun, FogasTrajectory

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


def dense_kernel(mdp):
    """The tabular kernel P = Phi Psi, shape (X*A, X)."""
    return mdp.phi @ mdp.psi


def dense_collect(mdp, behavior, n, sampling_mode, seed):
    """Reference sampler: the draws of ``collect_dataset`` through an inverse
    CDF on gathered dense kernel rows, in one (n, X) block.

    Returns the sampled pair indices x*A + a and the next states. A draw at or
    above a row's total goes to the last state with positive mass in the row.
    """
    X, A = mdp.num_states, mdp.num_actions
    rng = np.random.default_rng(seed)
    if sampling_mode == "occupancy":
        mu = np.clip(fogas.evaluate_policy(mdp, behavior).mu, 0.0, None)
        sa = rng.choice(X * A, size=n, p=mu / mu.sum())
    else:
        sa = rng.integers(0, X * A, size=n)
    u = rng.random(n)
    rows = dense_kernel(mdp)[sa]
    hit = u[:, None] < np.cumsum(rows, axis=1)
    x_next = hit.argmax(axis=1)
    missed = np.flatnonzero(~hit[np.arange(n), x_next])
    positive = rows[missed, ::-1] > 0
    x_next[missed] = X - 1 - positive.argmax(axis=1)
    return sa, x_next


def psi_hat_apply(psi_hat, v):
    """Psi-hat @ v, reading v only at the observed next states."""
    return psi_hat.columns @ np.asarray(v, dtype=np.float64)[psi_hat.observed_states]


def eval_f_hat(mdp, psi_hat, lam, policy, theta):
    """Sample-based reduced Lagrangian: ``eval_f`` with Psi replaced by Psi-hat."""
    lam = np.asarray(lam, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    v = v_of_theta_policy(mdp, policy.probs, theta)
    return float(
        (1.0 - mdp.gamma) * v[mdp.x0]
        + lam @ (mdp.omega + mdp.gamma * psi_hat_apply(psi_hat, v) - theta)
    )


def dense_evaluate_policy(mdp, probs):
    """Reference oracle: X x X linear solves on the dense kernel P_pi.

    Returns the fields of ``fogas.oracle.PolicyEvaluation`` as a dict.
    """
    X, A = mdp.num_states, mdp.num_actions
    P = dense_kernel(mdp)  # (X*A, X)
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
        "lambda_pi": mdp.phi.T @ mu,
        "return_value": float(mu @ r),
    }


def reference_solve_flow(operators, phi_x0, gamma, rhs):
    """The flow solves of ``reference_score_iterates``: per b, theta_b =
    (I - gamma P_b)^{-1} rhs_b by ``np.linalg.solve``, rho_b = (1-gamma)
    <phi_x0_b, theta_b> and P_b theta_b, for operators (B, d, d), phi_x0
    (B, d) and rhs (B, d), or (d,) for one right-hand side in every row."""
    d = operators.shape[-1]
    theta = np.linalg.solve(np.eye(d) - gamma * operators, np.broadcast_to(
        rhs, phi_x0.shape)[..., None])[..., 0]
    return (theta, (1.0 - gamma) * np.einsum("bd,bd->b", phi_x0, theta),
            (operators @ theta[..., None])[..., 0])


def action_major_phi(mdp, states):
    """phi at ``states`` (indices or a slice), action-major: shape (A, k, d).

    A policy's softmax and its weighted sums then reduce over the action axis
    as a middle axis, which numpy runs much faster than a trailing axis of
    length A.
    """
    if isinstance(states, slice):
        states = np.arange(*states.indices(mdp.num_states))
    A = mdp.num_actions
    return mdp.phi[A * np.asarray(states) + np.arange(A)[:, None]]


def action_major_softmax(phi_states, scaled_param):
    """pi(a|x) at the states of ``phi_states`` (A, k, d, from ``action_major_phi``),
    pi the softmax of <phi(x,a), scaled_param>.

    One GEMM forms the logits. A ``scaled_param`` of shape (..., d) gives one
    policy per row and a result of shape (A, k, ...).
    """
    A, k, d = phi_states.shape
    batch = scaled_param.shape[:-1]
    logits = phi_states.reshape(A * k, d) @ scaled_param.reshape(-1, d).T
    return _stable_softmax_rows(logits.reshape(A, -1), axis=0).reshape((A, k) + batch)


def reference_score_iterates(mdp, trajectory, alpha, values=True, budget=SAMPLE_CHUNK_BYTES):
    """Reference for ``diagnostics.score_iterates``, in numpy, with the same
    returns: the iterates in blocks of t and the states in chunks of x, with
    about ``budget`` bytes of scratch.

    Per block and chunk, one GEMM forms the logits and one GEMM against
    K[(a,x)] = psi(x) phi(x,a)^T adds to Psi Phi_pi; one
    ``reference_solve_flow`` call per block gives theta^{pi_t}, rho(pi_t) and Psi v^{pi_t}, and a second
    pass over the chunks reads v^{pi_t}.
    """
    X, A, d = mdp.num_states, mdp.num_actions, mdp.dim
    T = len(trajectory.thetas)
    states = max(1, min(X, budget // (32 * A * d * d)))
    block = max(1, min(T, budget // (32 * (states * A + 2 * d * d))))
    chunks = [slice(lo, min(lo + states, X)) for lo in range(0, X, states)]
    params = iterate_params(trajectory, alpha)
    theta_stars, psi_vs, rho_ts = np.empty((T, d)), np.empty((T, d)), np.empty(T)
    v_sum, lambda_v = (np.zeros(X), np.zeros((d, X))) if values else (None, None)
    for lo in range(0, T, block):
        t = slice(lo, min(lo + block, T))
        B = t.stop - lo
        psi_phi = np.zeros((B, d * d))
        for c in chunks:
            phi_c = action_major_phi(mdp, c)
            probs = action_major_softmax(phi_c, params[t])  # (A, states of c, B)
            phi_c = phi_c.reshape(-1, d)  # row a * (states of c) + x
            rows = probs.reshape(-1, B)
            kernel = np.tile(mdp.psi[:, c].T, (A, 1))[:, :, None] * phi_c[:, None, :]
            psi_phi += rows.T @ kernel.reshape(-1, d * d)
            if values:
                weighted = rows @ trajectory.thetas[t]  # sum_t pi_t theta_t
                v_sum[c] += np.einsum("kd,kd->k", phi_c, weighted).reshape(A, -1).sum(axis=0)
            if c.start <= mdp.x0 < c.stop:  # Phi_pi[x0], (B, d)
                phi_x0 = probs[:, mdp.x0 - c.start].T @ mdp.phi_by_state[mdp.x0]
        theta, rho_ts[t], psi_vs[t] = reference_solve_flow(
            psi_phi.reshape(B, d, d), phi_x0, mdp.gamma, mdp.omega)
        theta_stars[t] = theta
        for c in chunks if values else ():
            phi_c = action_major_phi(mdp, c)
            probs = action_major_softmax(phi_c, params[t])
            q = phi_c.reshape(-1, d) @ theta.T  # (A * states of c, B)
            q *= probs.reshape(-1, B)
            v = q.reshape(A, -1, B).sum(axis=0)  # v^{pi_t} on c, (states of c, B)
            lambda_v[:, c] += trajectory.lambdas[t].T @ v.T
    return theta_stars, rho_ts, psi_vs, v_sum, lambda_v


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


def dense_greedy_policy(mdp, sweeps=2000):
    """Reference value iteration on the dense kernel; greedy action per state."""
    X, A = mdp.num_states, mdp.num_actions
    P = dense_kernel(mdp)
    q = np.zeros(X * A)
    for _ in range(sweeps):
        q = mdp.rewards + mdp.gamma * P @ q.reshape(X, A).max(axis=1)
    return q.reshape(X, A).argmax(axis=1)


def softmax_features(phi_states, scaled_param):
    """Reference: sum_a pi(a|x) phi(x,a) per state, pi the softmax of
    <phi(x,a), scaled_param>, reduced over a trailing action axis.

    ``phi_states`` stacks the (A, d) feature blocks of the states, shape
    (k, A, d); the result has shape (k, d). A ``scaled_param`` of shape (S, d)
    gives one policy per row and a result of shape (S, k, d).
    """
    k, A, d = phi_states.shape
    scaled_param = np.asarray(scaled_param, dtype=np.float64)
    logits = scaled_param @ phi_states.reshape(k * A, d).T
    probs = _stable_softmax_rows(logits.reshape(scaled_param.shape[:-1] + (k, A)))
    return (probs[..., None, :] @ phi_states)[..., 0, :]


def best_response_theta(c, d_theta):
    """theta_t, the minimizer of <theta, c> over the ball of radius d_theta,
    where c is mu-hat's features minus lambda_t. A tie (|c| at most the
    solver's ``BEST_RESPONSE_TIE_TOL``) gets the origin, which leaves the
    cumulative parameter, and so the policy, unchanged."""
    norm = np.sqrt(c @ c)
    return c * (-d_theta / (norm if norm > BEST_RESPONSE_TIE_TOL else np.inf))


def mu_hat_features(lam, features, C, gamma):
    """Feature expectation of the estimated occupancy mu-hat at (lambda, pi):
    (1-gamma) f_x0 + gamma (lambda^T C) F_next.

    ``features`` (1+k, d) holds f(x) = sum_a pi(a|x) phi(x,a) at x0, then at
    the k observed next states (F_next), and C (d, k) the estimator's columns.
    """
    return (1.0 - gamma) * features[0] + gamma * (lam @ C) @ features[1:]


def lambda_gradient(theta, features, C, omega, gamma):
    """g = omega + gamma Psi-hat v - theta, the ascent direction for lambda,
    where v = F_next theta is v_{theta, pi} at the observed next states
    (``features`` and C as in ``mu_hat_features``)."""
    return omega + gamma * C @ (features[1:] @ theta) - theta


def lambda_update(lam, g, lambda_mat, eta, rho):
    """(lambda_{t+1}, g^T Lambda g): the stabilized, preconditioned step
    (lambda_t + eta Lambda g) / (1 + rho eta), the exact argmax of
    <lambda, g> - ||lambda - lambda_t||^2_{Lambda^{-1}} / (2 eta)
    - rho/2 ||lambda||^2_{Lambda^{-1}} for eta > 0 and rho >= 0."""
    lambda_g = lambda_mat @ g
    return (lam + eta * lambda_g) / (1.0 + rho * eta), g @ lambda_g


def reference_ascend(mdp, dataset, config, follow=None):
    """Reference: one FOGAS run, the step functions above in a loop.

    Per iteration: the softmax features at x0 and the observed next states,
    mu-hat's features, the best response, the lambda-gradient, and the lambda
    step with g^T Lambda g. A non-finite iterate raises the
    ``FloatingPointError`` of ``run_fogas``, with its message.

    With ``follow``, a recorded trajectory, iteration t > 1 starts from its
    lambda_t and theta_bar_{t-1} instead of the reference's own, so each
    recorded value is one reference step from the followed run's state. The
    best response d_theta * c / |c| can amplify a roundoff difference several
    times per iteration, so two correct free-running loops may drift apart.
    """
    cfg = config.resolved(mdp, len(dataset))
    psi_hat = estimate_psi(dataset, cfg.beta)
    C, lambda_mat, gamma = psi_hat.columns, psi_hat.covariance.lambda_mat, mdp.gamma
    phi_sites = mdp.phi_by_state[np.concatenate(([mdp.x0], psi_hat.observed_states))]
    J = int(np.random.default_rng(cfg.seed).integers(1, cfg.T + 1))
    lam = theta_bar = np.zeros(mdp.dim)
    record = {f.name: [] for f in fields(FogasTrajectory)}
    for t in range(1, cfg.T + 1):
        lam_t = lam
        if follow is not None and t > 1:
            lam_t, theta_bar = follow.lambdas[t - 1], follow.theta_bars[t - 2]
        scaled = cfg.alpha * theta_bar
        if t == J:
            output_param = scaled
        features = softmax_features(phi_sites, scaled)
        phimu = mu_hat_features(lam_t, features, C, gamma)
        theta = best_response_theta(phimu - lam_t, cfg.d_theta)
        theta_bar = theta_bar + theta
        g = lambda_gradient(theta, features, C, mdp.omega, gamma)
        lam_next, grad_sq = lambda_update(lam_t, g, lambda_mat, cfg.eta, cfg.rho)
        finite = [bool(np.all(np.isfinite(a))) for a in (lam_next, theta_bar, g)]
        if not all(finite):
            raise FloatingPointError(
                f"non-finite iterate at iteration {t} "
                f"(lambda finite: {finite[0]}, theta_bar finite: {finite[1]}, "
                f"gradient finite: {finite[2]})")
        for values, value in zip(record.values(), (lam, theta, theta_bar, phimu, g, grad_sq)):
            values.append(value)
        lam = lam_next
    trajectory = None
    if cfg.record_trajectory:
        trajectory = FogasTrajectory(**{name: np.array(v) for name, v in record.items()})
    return FogasRun(config=cfg, chosen_index=J, lambda_final=lam, theta_bar_final=theta_bar,
                    output_param=output_param,
                    output_policy=softmax_from_logit_param(mdp, output_param),
                    trajectory=trajectory)


def iterate_params(trajectory, alpha):
    """Softmax parameters of the iterates pi_1..pi_T, shape (T, d): zero for
    pi_1, then alpha * theta_bar_{t-1}."""
    zero = np.zeros((1, trajectory.thetas.shape[1]))
    return np.vstack([zero, alpha * trajectory.theta_bars[:-1]])


def iterate_policy_tables(mdp, trajectory, alpha):
    """Reference: all T iterate policies as (T, X, A) tables; pi_1 is uniform."""
    logits = np.einsum("xad,td->txa", mdp.phi_by_state, iterate_params(trajectory, alpha))
    return _stable_softmax_rows(logits)


def evaluate_iterates(mdp, trajectory, alpha):
    """Reference: every iterate policy scored by its own oracle call.

    Returns the policy tables (T, X, A), theta^{pi_t} (T, d), the value
    functions v^{pi_t} (T, X) and the returns rho(pi_t) (T,).
    """
    tables = iterate_policy_tables(mdp, trajectory, alpha)
    evals = [evaluate_policy(mdp, fogas.TabularPolicy(table)) for table in tables]
    return (tables, np.array([ev.theta_pi for ev in evals]), np.array([ev.v for ev in evals]),
            np.array([ev.return_value for ev in evals]))


def read_archive(path) -> dict:
    """Every entry of an .npz archive, read by numpy's own reader."""
    with np.load(path, allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def edit_archive(path, edit) -> None:
    """Apply ``edit`` to the entries of the archive at ``path`` and write them
    back there with ``np.savez`` (which pickles object arrays)."""
    entries = read_archive(path)
    edit(entries)
    with open(path, "wb") as f:  # a handle, so np.savez adds no suffix
        np.savez(f, **entries)


def add_at_groups(dataset):
    """Reference for ``OfflineDataset.next_state_groups``: per-sample ``np.add.at``."""
    observed, inverse = np.unique(dataset.x_nexts, return_inverse=True)
    summed = np.zeros((dataset.features.shape[1], len(observed)))
    np.add.at(summed.T, inverse, dataset.features)
    return observed, summed


def looped_gap_terms(mdp, psi_hat, trajectory, comparators, alpha):
    """Reference: the duality-gap sums built one iterate at a time.

    Each term of the gap is a reduced-Lagrangian evaluation; the iterates are
    scored by ``evaluate_iterates``, and only the optimal-policy side is read
    from ``comparators``. Returns the undivided sums (gap, regret_pi,
    regret_lambda, regret_theta, err).
    """
    X, A = mdp.num_states, mdp.num_actions
    lam_star = comparators.lambda_star
    pi_star = comparators.pi_star
    nu_star = (1.0 - mdp.gamma) * mdp.nu0 + mdp.gamma * mdp.psi.T @ lam_star
    diff = psi_hat.dense() - mdp.psi
    tables, theta_stars, v_stars, _ = evaluate_iterates(mdp, trajectory, alpha)
    gap = regret_pi = regret_lambda = regret_theta = err = 0.0
    for t in range(trajectory.thetas.shape[0]):
        theta_t, lam_t = trajectory.thetas[t], trajectory.lambdas[t]
        pi_t = fogas.TabularPolicy(tables[t])
        theta_star_t = theta_stars[t]
        gap += eval_f(mdp, lam_star, pi_star, theta_t)
        gap -= eval_f(mdp, lam_t, pi_t, theta_star_t)
        q_t = (mdp.phi @ theta_t).reshape(X, A)
        regret_pi += nu_star @ ((pi_star.probs - pi_t.probs) * q_t).sum(axis=1)
        regret_lambda += (lam_star - lam_t) @ trajectory.g_lambdas[t]
        regret_theta += (theta_t - theta_star_t) @ (trajectory.phi_mu_hats[t] - lam_t)
        v_t = v_of_theta_policy(mdp, pi_t.probs, theta_t)
        err += -lam_star @ (diff @ v_t) + lam_t @ (diff @ v_stars[t])
    return gap, regret_pi, regret_lambda, regret_theta, err
