"""Offline transition datasets, empirical feature covariance, and the
regularized least-squares transition estimator.

Collection never forms the (X*A, X) kernel: the CDF of row (x, a) is
phi(x,a)^T cumsum(Psi), so each next state is found by bisection over the
columns of cumsum(Psi) in O(d log X). The estimator aggregates transitions by
next state before solving, so building it costs at most min(n, X) SPD solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linmdp import SAMPLE_CHUNK_BYTES, LinearMdp, _readonly, read_arrays, write_arrays
from .oracle import evaluate_policy

_DATASET_ENTRIES = {"x": (np.int64, 1), "a": (np.int64, 1), "r": (np.float64, 1),
                    "x_next": (np.int64, 1)}


@dataclass(frozen=True)
class OfflineDataset:
    """n sample transitions plus the feature rows of the sampled pairs."""

    xs: np.ndarray  # (n,) int
    actions: np.ndarray  # (n,) int
    rewards: np.ndarray  # (n,)
    x_nexts: np.ndarray  # (n,) int
    features: np.ndarray  # (n, d), row i = phi(X_i, A_i)
    num_states: int
    num_actions: int

    def __post_init__(self):
        n = len(self.xs)
        if n < 1:
            raise ValueError("dataset must contain at least one transition")
        for name in ("xs", "actions", "x_nexts"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=np.int64))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "rewards", _readonly(self.rewards))
        object.__setattr__(self, "features", _readonly(self.features))
        if not (
            len(self.actions) == len(self.rewards) == len(self.x_nexts) == n
            and self.features.shape[0] == n
        ):
            raise ValueError("all dataset columns must have the same length")
        if self.xs.min() < 0 or self.xs.max() >= self.num_states:
            raise ValueError("state index out of range")
        if self.x_nexts.min() < 0 or self.x_nexts.max() >= self.num_states:
            raise ValueError("next-state index out of range")
        if self.actions.min() < 0 or self.actions.max() >= self.num_actions:
            raise ValueError("action index out of range")

    def __len__(self) -> int:
        return len(self.xs)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @cached_property
    def next_state_groups(self):
        """(unique observed next states, per-sample position, summed features).

        ``summed_features`` column j is the sum of phi_i over samples whose
        next state is ``observed_states[j]``.
        """
        counts = np.bincount(self.x_nexts, minlength=self.num_states)
        observed = np.flatnonzero(counts)
        # Sample i's position: the number of observed states below x_nexts[i].
        inverse = (np.cumsum(counts > 0) - 1)[self.x_nexts]
        summed = np.array([np.bincount(inverse, weights=column, minlength=len(observed))
                           for column in self.features.T])  # same order as np.add.at
        return observed, inverse, _readonly(summed)


@dataclass(frozen=True)
class Covariance:
    """Ridge-regularized empirical feature covariance with a cached SPD factor."""

    beta: float
    lambda_mat: np.ndarray  # (d, d)

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        mat = _readonly(self.lambda_mat)
        if not np.all(np.isfinite(mat)):
            raise ValueError("covariance matrix must be finite")
        if np.abs(mat - mat.T).max() > 1e-12:
            raise ValueError("covariance matrix must be symmetric")
        object.__setattr__(self, "lambda_mat", mat)

    @cached_property
    def _factor(self) -> np.ndarray:
        """The lower Cholesky factor L, Lambda = L L^T."""
        try:
            return np.linalg.cholesky(self.lambda_mat)
        except np.linalg.LinAlgError as e:
            raise ValueError("covariance must be positive definite") from e

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Return Lambda^{-1} rhs via the cached Cholesky factor: L^T x = L^{-1} rhs."""
        L = self._factor
        return np.linalg.solve(L.T, np.linalg.solve(L, np.asarray(rhs, dtype=np.float64)))

    def weighted_sq_norm(self, vec: np.ndarray) -> float:
        """||vec||^2 in the Lambda^{-1} norm."""
        vec = np.asarray(vec, dtype=np.float64)
        return float(vec @ self.solve(vec))


def build_covariance(dataset: OfflineDataset, beta: float) -> Covariance:
    """Lambda = beta*I + (1/n) sum_i phi_i phi_i^T; ``Covariance`` checks beta."""
    n, d = dataset.features.shape
    mat = beta * np.eye(d) + (dataset.features.T @ dataset.features) / n
    mat = 0.5 * (mat + mat.T)  # kill roundoff asymmetry from the BLAS product
    return Covariance(beta=beta, lambda_mat=mat)


@dataclass(frozen=True)
class PsiHat:
    """Sparse column representation of the least-squares transition estimate.

    Only next states that actually appear in the data carry a nonzero column;
    ``columns[:, j]`` is the estimated psi-hat of ``observed_states[j]``.
    """

    num_states: int
    observed_states: np.ndarray  # (k,) int, sorted
    columns: np.ndarray  # (d, k)
    covariance: Covariance

    def __post_init__(self):
        object.__setattr__(self, "columns", _readonly(self.columns))

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    def dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.num_states))
        out[:, self.observed_states] = self.columns
        return out


def estimate_psi(dataset: OfflineDataset, beta: float) -> PsiHat:
    """Ridge least-squares estimate (1/n) Lambda^{-1} sum_i phi_i e_{X'_i}^T.

    One SPD solve against the aggregated multi-column right-hand side; columns
    for unobserved next states are identically zero.
    """
    cov = build_covariance(dataset, beta)
    observed, _, summed = dataset.next_state_groups
    columns = cov.solve(summed) / len(dataset)
    return PsiHat(
        num_states=dataset.num_states,
        observed_states=observed,
        columns=columns,
        covariance=cov,
    )


def collect_dataset(
    mdp: LinearMdp, behavior, n: int, sampling_mode: str, seed: int
) -> OfflineDataset:
    """Sample n transitions with X' ~ p(.|X, A) and R = r(X, A).

    ``sampling_mode`` selects how the pairs (X_i, A_i) are drawn: "occupancy"
    draws them i.i.d. from the exact discounted occupancy of the behavior
    policy (via the tabular oracle), "uniform" draws them uniformly over the
    state-action space.

    X'_i is the first state whose cumulative probability
    <phi_i, cumsum(Psi)[:, x']> exceeds a uniform draw u_i, found by a
    bisection over all samples of a chunk at once. A draw at or above a row's
    total (a row summing to slightly less than 1) goes to the last state with
    positive mass in that row.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    X, A, d = mdp.num_states, mdp.num_actions, mdp.dim
    rng = np.random.default_rng(seed)
    if sampling_mode == "occupancy":
        mu = evaluate_policy(mdp, behavior).mu
        mu = np.clip(mu, 0.0, None)
        sa = rng.choice(X * A, size=n, p=mu / mu.sum())
    elif sampling_mode == "uniform":
        sa = rng.integers(0, X * A, size=n)
    else:
        raise ValueError(f"unknown sampling_mode {sampling_mode!r}")

    u = rng.random(n)
    features = mdp.phi.take(sa, axis=0)
    psi_cum = np.cumsum(mdp.psi.T, axis=0)  # (X, d): row x' gathers as one block
    # x_next counts the states whose CDF is <= u; X means the draw missed.
    x_next = np.zeros(n, dtype=np.int64)
    chunk = max(1, SAMPLE_CHUNK_BYTES // (8 * d))
    for lo in range(0, n, chunk):
        f, u_c = features[lo : lo + chunk], u[lo : lo + chunk]
        pos = x_next[lo : lo + chunk]  # a view: the steps update x_next in place
        for k in reversed(range(X.bit_length())):  # steps 2^k, ..., 2, 1 sum to >= X
            step = 1 << k
            probe = np.minimum(pos + (step - 1), X - 1)
            below = np.einsum("ij,ij->i", f, psi_cum[probe]) <= u_c
            below &= pos + step <= X
            pos += step * below
    missed = np.flatnonzero(x_next == X)
    rows_per_block = max(1, SAMPLE_CHUNK_BYTES // (8 * X))
    for lo in range(0, len(missed), rows_per_block):
        idx = missed[lo : lo + rows_per_block]
        positive = (features[idx] @ mdp.psi)[:, ::-1] > 0
        x_next[idx] = X - 1 - positive.argmax(axis=1)
    return OfflineDataset(
        xs=sa // A,
        actions=sa % A,
        rewards=mdp.rewards[sa],
        x_nexts=x_next,
        features=features,
        num_states=X,
        num_actions=A,
    )


def save_dataset(dataset: OfflineDataset, path) -> None:
    """Write the transitions as a "fogas-dataset/1" archive (``write_arrays``) at
    ``path``: int64 columns x, a, x_next and float64 rewards r, bit for bit.
    The features are not stored; ``load_dataset`` gathers them from the MDP."""
    write_arrays(path, "dataset", x=dataset.xs, a=dataset.actions, r=dataset.rewards,
                 x_next=dataset.x_nexts)


def load_dataset(path, mdp: LinearMdp) -> OfflineDataset:
    """Read a file written by ``save_dataset``; a malformed file raises ValueError."""
    with read_arrays(path, "dataset", _DATASET_ENTRIES) as table:
        xs, actions = table["x"], table["a"]
        sa = xs * mdp.num_actions + actions
        # take clips out-of-range indices into the table; OfflineDataset rejects them.
        return OfflineDataset(
            xs=xs,
            actions=actions,
            rewards=table["r"],
            x_nexts=table["x_next"],
            features=mdp.phi.take(sa, axis=0, mode="clip"),
            num_states=mdp.num_states,
            num_actions=mdp.num_actions,
        )
