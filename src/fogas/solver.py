"""Feature-occupancy gradient ascent (FOGAS).

Per iteration: the value-parameter player best-responds over a Euclidean ball,
the policy takes an entropy-regularized mirror ascent step stored in
cumulative-parameter form, and the feature occupancy takes a stabilized,
covariance-preconditioned ascent step. The solver only ever evaluates policies
and value functions at the sites: the initial state and the observed next
states; everything over the full state space lives in the oracle and
diagnostics.

The data enter an iteration only through the d x d occupancy operator
M_t = gamma C F_{pi_t} (C the estimator's columns, F_{pi_t} the policy-weighted
features at the next states): mu-hat's features are (1-gamma) f_x0 + lambda^T M_t
and the lambda-gradient is omega + M_t theta - theta. The site features are
gathered once per run, action-major, so each softmax reduces over a middle axis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .data import OfflineDataset, PsiHat, estimate_psi
from .linmdp import (
    LinearMdp,
    TabularPolicy,
    _readonly,
    action_major_phi,
    action_major_softmax,
    read_arrays,
    softmax_from_logit_param,
    write_arrays,
)

BEST_RESPONSE_TIE_TOL = 1e-14
# Logits within 700 - ln A of zero need no max-shift: exp overflows past 709.78.
SOFTMAX_LOGIT_LIMIT = 700.0


@dataclass(frozen=True)
class FogasConfig:
    """Solver hyperparameters.

    With ``auto_tune`` set, any rate left as None is filled from the
    theoretical schedule (which needs the MDP features and the sample count;
    see ``resolved``). Explicitly set values always win, which is how the
    stabilization ablation (rho=0) is run.
    """

    T: int
    seed: int = 0
    auto_tune: bool = False
    delta: float = 0.05
    alpha: float | None = None
    rho: float | None = None
    eta: float | None = None
    beta: float | None = None
    d_theta: float | None = None
    record_trajectory: bool = False

    def __post_init__(self):
        if not isinstance(self.T, (int, np.integer)) or self.T < 1:
            raise ValueError("T must be an integer >= 1")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be an integer >= 0")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        for name in ("alpha", "rho", "eta", "beta", "d_theta"):
            val = getattr(self, name)
            if val is not None and not math.isfinite(val):
                raise ValueError(f"{name} is not finite")
        for name in ("alpha", "eta", "beta", "d_theta"):
            val = getattr(self, name)
            if val is not None and val <= 0:
                raise ValueError(f"{name} must be positive")
        if self.rho is not None and self.rho < 0:
            raise ValueError("rho must be >= 0")

    def resolved(self, mdp: LinearMdp, n: int) -> "FogasConfig":
        """Fill unset rates from the theoretical schedule (auto_tune only)."""
        if None not in (self.alpha, self.rho, self.eta, self.beta, self.d_theta):
            return self
        if not self.auto_tune:
            raise ValueError(
                "all of alpha, rho, eta, beta, d_theta must be set unless auto_tune"
            )
        rates = theoretical_rates(mdp, n=n, T=self.T, delta=self.delta)
        t_min = theoretical_min_iterations(mdp, n=n, delta=self.delta)
        if self.T < t_min:
            warnings.warn(
                f"auto-tuned run with T={self.T} below the theoretical minimum "
                f"{t_min:.0f}; proceeding anyway",
                stacklevel=2,
            )
        updates = {k: v for k, v in rates.items() if getattr(self, k) is None}
        return replace(self, **updates)


def canonical_d_theta(mdp: LinearMdp) -> float:
    """sqrt(d)/(1-gamma), the theta-ball radius of the theoretical schedule."""
    return float(np.sqrt(mdp.dim) / (1.0 - mdp.gamma))


def theoretical_rates(mdp: LinearMdp, n: int, T: int, delta: float) -> dict:
    """The full hyperparameter schedule as a dict of concrete rates."""
    d = mdp.dim
    gamma = mdp.gamma
    R = mdp.feature_bound
    A = mdp.num_actions
    log_A = np.log(A) if A > 1 else 1.0  # degenerate single-action case
    return {
        "d_theta": canonical_d_theta(mdp),
        "beta": R**2 / (d * T),
        "alpha": float(np.sqrt(2.0 * (1.0 - gamma) ** 2 * log_A / (R**2 * d * T))),
        "rho": float(
            gamma
            * np.sqrt(320.0 * d**2 * np.log(2.0 * T / delta) / ((1.0 - gamma) ** 2 * n))
        ),
        "eta": float(np.sqrt((1.0 - gamma) ** 2 / (27.0 * R**2 * d**2 * T))),
    }


def theoretical_min_iterations(mdp: LinearMdp, n: int, delta: float) -> float:
    """Minimum iteration count the analysis asks for: 2 R^2 n ln(A) / ln(1/delta)."""
    log_A = np.log(mdp.num_actions) if mdp.num_actions > 1 else 1.0
    return 2.0 * mdp.feature_bound**2 * n * log_A / np.log(1.0 / delta)


def gradient_norm_bound(config: FogasConfig, mdp: LinearMdp) -> float:
    """Deterministic upper bound on ||Lambda g||^2 in the Lambda^{-1} norm."""
    d, R, gamma = mdp.dim, mdp.feature_bound, mdp.gamma
    D = config.d_theta
    return (
        6.0 * config.beta * (d + D**2)
        + 3.0 * d * (1.0 + R * D) ** 2
        + 3.0 * gamma**2 * d * R**2 * D**2
    )


@dataclass(frozen=True)
class FogasTrajectory:
    """Per-iteration record of a run; index t-1 holds iteration t's quantities.

    ``theta_bars[t-1]`` is the cumulative parameter after iteration t, so the
    policy in force at iteration t+1 is sigma(alpha * Phi @ theta_bars[t-1]);
    iteration 1 runs the uniform policy (cumulative parameter zero).
    """

    lambdas: np.ndarray  # (T, d), lambda_1..lambda_T
    thetas: np.ndarray  # (T, d)
    theta_bars: np.ndarray  # (T, d), theta_bar_1..theta_bar_T
    phi_mu_hats: np.ndarray  # (T, d)
    g_lambdas: np.ndarray  # (T, d)
    grad_sq_norms: np.ndarray  # (T,), g^T Lambda g per iteration

    def __post_init__(self):
        # Read-only views, not copies: a recorded batch's fields share one table.
        for f in fields(self):
            view = np.asarray(getattr(self, f.name), dtype=np.float64).view()
            view.flags.writeable = False
            object.__setattr__(self, f.name, view)


@dataclass(frozen=True)
class FogasRun:
    config: FogasConfig  # fully resolved
    chosen_index: int  # J in {1..T}
    lambda_final: np.ndarray
    theta_bar_final: np.ndarray
    output_param: np.ndarray  # alpha * theta_bar_{J-1}
    output_policy: TabularPolicy
    trajectory: FogasTrajectory | None


def best_response_theta(g: np.ndarray, d_theta, out=None) -> np.ndarray:
    """Minimizer of <theta, g> over the ball of radius d_theta, per row of g.

    ``g`` has shape (..., d) and ``d_theta`` broadcasts against (..., 1). A row
    with a tie (g numerically zero) gets the origin, which leaves its
    cumulative policy parameter, and hence its policy, unchanged. ``out`` may be ``g``.
    """
    norm = np.sqrt(np.vecdot(g, g))[..., None]
    # Dividing by infinity sends a tied row to the origin.
    return np.multiply(g, -d_theta / np.where(norm > BEST_RESPONSE_TIE_TOL, norm, np.inf),
                       out=out)


def site_weights(x0: int, gamma: float, psi_hats: list[PsiHat]) -> tuple[np.ndarray, np.ndarray]:
    """The sites, x0 then the union of the observed next states, and the
    weights (S, d+1, 1+k): rows 0..d-1 of row s are gamma times the columns of
    ``psi_hats[s]``, zero at x0 and at next states it did not observe, so the
    sites stay one array for every seed; row d is 1-gamma at x0, the weight
    of f_x0 in mu-hat's features.
    """
    union = np.unique(np.concatenate([p.observed_states for p in psi_hats]))
    weights = np.zeros((len(psi_hats), psi_hats[0].dim + 1, 1 + len(union)))
    weights[:, -1, 0] = 1.0 - gamma
    for row, psi_hat in enumerate(psi_hats):
        weights[row][:-1, 1 + np.searchsorted(union, psi_hat.observed_states)] = \
            gamma * psi_hat.columns
    return np.concatenate(([x0], union)), weights


def occupancy_operator(
    weights: np.ndarray, probs: np.ndarray, phi_sites: np.ndarray, out=None, scratch=None
) -> np.ndarray:
    """The block [M; (1-gamma) f_x0^T], shape (..., d+1, d), of the operator
    M = gamma C F_pi and f_x0 = sum_a pi(a|x0) phi(x0,a).

    ``probs`` (..., A, m) is pi at the sites, ``phi_sites`` (A, m, d) their
    action-major features and ``weights`` (..., d+1, m) from ``site_weights``.
    F_pi (row j: sum_a pi(a|x_j) phi(x_j,a)) is one contraction over the
    actions, into ``scratch`` (..., m, d), and the block weights F_pi one GEMM
    per seed.
    """
    f_pi = np.einsum("...am,amd->...md", probs, phi_sites, out=scratch)
    return np.matmul(weights, f_pi, out=out)


def mu_hat_features(
    lam: np.ndarray, operator: np.ndarray, x0_term: np.ndarray, out=None
) -> np.ndarray:
    """Feature expectation of the estimated occupancy mu-hat at (lambda, pi):
    lambda^T M + (1-gamma) f_x0, where ``operator`` M is the first d rows of
    ``occupancy_operator``'s block and ``x0_term`` its last.

    With a leading seed axis, ``operator`` is (S, d, d) and the rest (S, d).
    """
    return np.add(np.vecmat(lam, operator, out=out), x0_term, out=out)


def lambda_gradient(
    omega: np.ndarray, operator: np.ndarray, theta: np.ndarray, out=None
) -> np.ndarray:
    """omega + gamma * PsiHat v - theta = omega + M theta - theta, the ascent
    direction for lambda, where v = v_{theta, pi} and M = gamma C F_pi.

    With a leading seed axis, ``operator`` is (S, d, d) and ``theta`` (S, d).
    """
    g = np.matvec(operator, theta, out=out)
    return np.subtract(np.add(g, omega, out=g), theta, out=g)


def lambda_update(
    lambda_t: np.ndarray, g: np.ndarray, lambda_mat: np.ndarray, eta, contraction,
    out=(None, None),
) -> tuple[np.ndarray, np.ndarray]:
    """Closed form of the stabilized, preconditioned mirror ascent step,
    (lambda_t + eta Lambda g) * contraction with contraction = 1/(1 + rho eta),
    and g^T Lambda g, both from one product Lambda g.

    The step is the exact argmax of <lambda, g> - ||lambda - lambda_t||^2_{Lambda^{-1}}/(2 eta)
    - rho/2 * ||lambda||^2_{Lambda^{-1}}; it needs eta > 0 and rho >= 0,
    which ``FogasConfig`` checks. ``lambda_mat`` is Lambda, (d, d); with a
    leading seed axis it is (S, d, d), ``lambda_t`` and ``g`` are (S, d), and
    ``eta`` and ``contraction`` broadcast against (S, d). ``out`` holds an
    array or None for each result.
    """
    lambda_g = np.matvec(lambda_mat, g)
    grad_sq = np.vecdot(g, lambda_g, out=out[1])
    lam_next = np.add(lambda_t, np.multiply(lambda_g, eta, out=lambda_g), out=out[0])
    return np.multiply(lam_next, contraction, out=lam_next), grad_sq


def _failed_rows(t, g, lam_next, theta_bar) -> dict:
    """Row -> error for each seed whose iteration t left the finite numbers."""
    finite = np.isfinite([lam_next, theta_bar, g]).all(axis=-1).T.tolist()  # (S, 3)
    return {row: FloatingPointError(
        f"non-finite iterate at iteration {t} (lambda finite: {f[0]}, "
        f"theta_bar finite: {f[1]}, gradient finite: {f[2]})"
    ) for row, f in enumerate(finite) if not all(f)}


def run_fogas_batch(
    mdp: LinearMdp, datasets: list[OfflineDataset], configs: list[FogasConfig]
) -> list[FogasRun | Exception]:
    """Run one ascent loop over S seeds at once: seed s runs ``configs[s]`` on
    ``datasets[s]``.

    Returns one ``FogasRun`` per seed, or the exception that ended that seed:
    a failure while resolving its config or building its estimator, or the
    ``FloatingPointError`` of a non-finite iterate. A seed that fails in the
    loop is frozen in place; the others run to T. The configs must share T and
    ``record_trajectory``; the rates may differ. Each seed's results equal
    those of its own ``run_fogas`` up to roundoff: the seeds' estimator columns
    are zero-padded to the union of their observed next states.
    """
    if len(datasets) != len(configs) or not configs:
        raise ValueError("need one dataset per config and at least one of each")
    if len({(c.T, c.record_trajectory) for c in configs}) > 1:
        raise ValueError("batched configs must share T and record_trajectory")
    results: list = [None] * len(configs)
    prepared = []
    for slot, (dataset, config) in enumerate(zip(datasets, configs)):
        try:
            cfg = config.resolved(mdp, len(dataset))
            prepared.append((slot, cfg, estimate_psi(dataset, cfg.beta)))
        except Exception as e:  # this seed's error; the others still run
            results[slot] = e
    if prepared:
        _ascend(mdp, prepared, results)
    return results


def _ascend(mdp: LinearMdp, prepared: list, results: list) -> None:
    """The ascent loop over the prepared seeds; fills their slots of ``results``.

    Prepared seed i keeps row i of every per-seed array, each allocated once,
    before the loop. A seed that fails is frozen at the origin (zero step
    sizes, lambda = theta_bar = 0), so its row stays finite and reports no
    second error.

    Iteration t writes its record into one flat frame: lambda_{t+1},
    theta_bar_t, theta_t, mu-hat's features and g_t as (S, d) blocks, then
    g_t^T Lambda g_t (S,). Two frames alternate by the parity of t, so
    lambda_t and theta_bar_{t-1} are read from the other one. A recorded run
    copies frame t into row t of a (T+1)-row table, whose row 0 holds
    lambda_1 = theta_bar_0 = 0, and each seed's trajectory is views into it.
    """
    slots, cfgs, psi_hats = zip(*prepared)
    T, S, d = cfgs[0].T, len(cfgs), mdp.dim
    record = cfgs[0].record_trajectory

    # Per-seed rates as full (S, d) rows: numpy multiplies equal shapes faster
    # than it broadcasts a column.
    alpha, eta, rho, d_theta = (np.array([[getattr(cfg, name)] * d for cfg in cfgs])
                                for name in ("alpha", "eta", "rho", "d_theta"))
    contraction, omega = 1.0 / (1.0 + rho * eta), np.tile(mdp.omega, (S, 1))
    lambda_mat = np.stack([p.covariance.lambda_mat for p in psi_hats])  # (S, d, d)
    sites, weights = site_weights(mdp.x0, mdp.gamma, psi_hats)
    phi_sites = action_major_phi(mdp, sites)  # (A, m, d), m = 1+k sites
    A, m = phi_sites.shape[:2]
    # alpha (t-1) d_theta R bounds every logit: no max-shift while it is in bounds.
    growth = mdp.feature_bound * float(np.max(alpha * d_theta))
    unshifted_steps = (SOFTMAX_LOGIT_LIMIT - math.log(A)) / growth if growth else math.inf

    chosen = [int(np.random.default_rng(c.seed).integers(1, T + 1)) for c in cfgs]
    draws: dict[int, list] = {}
    for row, J in enumerate(chosen):
        draws.setdefault(J, []).append(row)
    output_params = np.empty((S, d))

    width = 5 * S * d  # a frame's five (S, d) blocks; its last S floats hold g^T Lambda g
    frames = np.zeros((2, width + S))  # frame 0 holds lambda_1 = theta_bar_0 = 0
    views = [(*frame[:width].reshape(5, S, d), frame[width:]) for frame in frames]
    # Per parity of t, made once: frame t, lambda_t and theta_bar_{t-1} from
    # the other frame, frame t's views, and lambda_{t+1} and theta_bar_t as
    # one array for the fused finite test.
    steps = [(frames[p], *views[1 - p][:2], *views[p], frames[p, :2 * S * d])
             for p in (0, 1)]
    scaled, logits, f_pi = np.empty((S, d)), np.empty((S, A * m)), np.empty((S, m, d))
    # The block [M; (1-gamma) f_x0^T] row-major, so each of its rows, x0_term
    # among them, is one contiguous (S, d) array across the seeds.
    block = np.empty((d + 1, S, d)).transpose(1, 0, 2)
    operator, x0_term = block[:, :d], block[:, d]
    if record:
        table = np.empty((T + 1, width + S))
        table[0] = 0.0
    errors = {}  # row -> the error that ended its seed

    # A non-finite iterate is reported below, so numpy's warnings would repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, T + 1):
            (frame, lam, theta_bar_prev, lam_next, theta_bar, theta, phimu, g, grad_sq,
             tested) = steps[t & 1]
            np.multiply(alpha, theta_bar_prev, out=scaled)  # the policies in force at iteration t
            for row in draws.get(t, ()):
                output_params[row] = scaled[row]
            probs = action_major_softmax(phi_sites, scaled, out=logits,
                                         shift=t - 1 > unshifted_steps)  # (S, A, m)
            occupancy_operator(weights, probs, phi_sites, out=block, scratch=f_pi)

            # Value-parameter step: best response to the estimated feature occupancy.
            mu_hat_features(lam, operator, x0_term, out=phimu)
            best_response_theta(np.subtract(phimu, lam, out=theta), d_theta, out=theta)

            # Policy step in cumulative form.
            np.add(theta_bar_prev, theta, out=theta_bar)

            # Feature-occupancy step.
            lambda_gradient(omega, operator, theta, out=g)
            lambda_update(lam, g, lambda_mat, eta, contraction, out=(lam_next, grad_sq))

            # One fused test per iteration; a finite sum that overflowed only
            # costs the exact per-seed check. A non-finite g makes Lambda g, and
            # so lambda_next, non-finite, so g needs no sum of its own.
            if not math.isfinite(np.add.reduce(tested)):
                failed = _failed_rows(t, g, lam_next, theta_bar)
                errors.update(failed)
                if len(errors) == S:
                    break
                rows = list(failed)
                for frozen in (eta, contraction, d_theta, lam_next, theta_bar):
                    frozen[rows] = 0.0

            if record:
                table[t] = frame

    del probs, logits, f_pi  # before the output policies' (X, A) tables
    lam, theta_bar = steps[T & 1][3:5]  # lambda_{T+1} and theta_bar_T
    if record:  # (T+1, 5, S, d) and (T, S) views of the table
        history, grad_sq_norms = table[:, :width].reshape(T + 1, 5, S, d), table[1:, width:]
    for row, slot in enumerate(slots):
        if row in errors:
            results[slot] = errors[row]
            continue
        output_param = output_params[row]
        results[slot] = FogasRun(
            config=cfgs[row],
            chosen_index=chosen[row],
            lambda_final=_readonly(lam[row]),
            theta_bar_final=_readonly(theta_bar[row]),
            output_param=_readonly(output_param),
            output_policy=softmax_from_logit_param(mdp, output_param),
            trajectory=FogasTrajectory(
                lambdas=history[:-1, 0, row],
                thetas=history[1:, 2, row],
                theta_bars=history[1:, 1, row],
                phi_mu_hats=history[1:, 3, row],
                g_lambdas=history[1:, 4, row],
                grad_sq_norms=grad_sq_norms[:, row],
            ) if record else None,
        )


def run_fogas(mdp: LinearMdp, dataset: OfflineDataset, config: FogasConfig) -> FogasRun:
    """Run the full ascent loop and return the randomized-index output policy.

    The returned policy is the iterate in force at the drawn iteration J, i.e.
    the softmax of alpha times the cumulative parameter after J-1 updates.
    This is the one-seed case of ``run_fogas_batch``; a failure raises.
    """
    (result,) = run_fogas_batch(mdp, [dataset], [config])
    if isinstance(result, Exception):
        raise result
    return result


# Run-file entries: the config's fields as scalars, then the arrays, whose
# shapes ``load_run`` checks against the config's T and the MDP's d.
_RUN_ENTRIES = {
    **{f"config.{f.name}": ({"int": np.int64, "bool": np.bool_}.get(f.type, np.float64), 0)
       for f in fields(FogasConfig)},
    "chosen_index": (np.int64, 0),
    **dict.fromkeys(("lambda_final", "theta_bar_final", "output_param"), (np.float64, 1)),
    **{f.name: (np.float64, 2) for f in fields(FogasTrajectory)},
    "grad_sq_norms": (np.float64, 1),
}


def save_run(run: FogasRun, path) -> None:
    """Write a run as a "fogas-run/1" archive (``write_arrays``) at ``path``: the
    resolved config's fields as scalars, J, the final parameters and the
    trajectory's arrays, with no rows if it was not recorded; floats
    round-trip bit for bit."""
    d = len(run.lambda_final)
    trajectory = run.trajectory or FogasTrajectory(*[np.empty((0, d))] * 5, np.empty(0))
    write_arrays(
        path, "run",
        **{f"config.{key}": np.asarray(value, dtype=_RUN_ENTRIES[f"config.{key}"][0])
           for key, value in asdict(run.config).items()},
        chosen_index=run.chosen_index,
        lambda_final=run.lambda_final,
        theta_bar_final=run.theta_bar_final,
        output_param=run.output_param,
        **{f.name: getattr(trajectory, f.name) for f in fields(FogasTrajectory)},
    )


def load_run(path, mdp: LinearMdp) -> FogasRun:
    """Read a run file written by ``save_run``; a malformed file raises ValueError.

    J must lie in [1, T], and every array must match the config's T (or have
    no rows, for a trajectory not recorded) and the MDP's dimension d.
    """
    with read_arrays(path, "run", _RUN_ENTRIES) as arrays:
        config = FogasConfig(**{key.removeprefix("config."): arr.item()
                                for key, arr in arrays.items() if key.startswith("config.")})
        T, d = config.T, mdp.dim
        chosen_index = int(arrays["chosen_index"])
        if not 1 <= chosen_index <= T:
            raise ValueError(f"chosen_index {chosen_index} outside [1, {T}]")
        rows = T if len(arrays["grad_sq_norms"]) else 0
        shapes = {**dict.fromkeys(("lambda_final", "theta_bar_final", "output_param"), (d,)),
                  **{f.name: (rows, d) for f in fields(FogasTrajectory)},
                  "grad_sq_norms": (rows,)}
        for name, shape in shapes.items():
            if arrays[name].shape != shape:
                raise ValueError(f"{name} has shape {arrays[name].shape}, expected {shape}")
        trajectory = FogasTrajectory(*(arrays[f.name] for f in fields(FogasTrajectory)))
        return FogasRun(
            config=config,
            chosen_index=chosen_index,
            lambda_final=_readonly(arrays["lambda_final"]),
            theta_bar_final=_readonly(arrays["theta_bar_final"]),
            output_param=_readonly(arrays["output_param"]),
            output_policy=softmax_from_logit_param(mdp, arrays["output_param"]),
            trajectory=trajectory if rows else None,
        )
