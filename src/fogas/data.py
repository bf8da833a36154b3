"""Offline transition datasets, empirical feature covariance, and the
regularized least-squares transition estimator.

Collection never forms the (X*A, X) kernel: the CDF of row (x, a) is
phi(x,a)^T cumsum(Psi), so each next state is found by bisection over the
rows of cumsum(Psi)^T in O(d log X), in the compiled kernel (``_native``); the
same search with d = 1 draws the occupancy pairs from their CDF. The
estimator aggregates transitions by next state before solving, so building it
costs one SPD solve with at most min(n, X) columns; the per-next-state feature
sums take one pass over the samples in the compiled kernel, adding in sample
order as ``np.add.at`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _native
from .linmdp import (SAMPLE_CHUNK_BYTES, LinearMdp, _check_int, _readonly, read_arrays,
                     write_arrays)
from .oracle import evaluate_policy

SAMPLING_MODES = ("occupancy", "uniform")  # how ``collect_dataset`` draws the pairs

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
        if self.features.ndim != 2:
            raise ValueError(f"features must be (n, d), got shape {self.features.shape}")
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

    @cached_property
    def next_state_groups(self):
        """(unique observed next states, summed features).

        ``summed_features`` column j is the sum of phi_i over samples whose
        next state is ``observed_states[j]``, added in sample order (as
        ``np.add.at`` adds them) by one pass of ``fogas_group_next_states``.
        """
        counts = np.bincount(self.x_nexts, minlength=self.num_states)
        observed = np.flatnonzero(counts)
        # State x's column: the number of observed states below x.
        slot = np.cumsum(counts > 0, dtype=np.int64) - 1
        summed = np.zeros((self.features.shape[1], len(observed)))
        _native._kernel().fogas_group_next_states(
            len(self), summed.shape[0], summed.shape[1], self.features.ctypes.data,
            self.x_nexts.ctypes.data, slot.ctypes.data, summed.ctypes.data)
        return observed, _readonly(summed)

    @cached_property
    def gram(self) -> np.ndarray:
        """(1/n) sum_i phi_i phi_i^T, the data part of every ``build_covariance``."""
        return _readonly((self.features.T @ self.features) / len(self))


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
    """Lambda = beta*I + ``dataset.gram``; ``Covariance`` checks beta."""
    mat = beta * np.eye(dataset.features.shape[1]) + dataset.gram
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

    def dense(self) -> np.ndarray:
        out = np.zeros((self.columns.shape[0], self.num_states))
        out[:, self.observed_states] = self.columns
        return out


def estimate_psi(dataset: OfflineDataset, beta: float) -> PsiHat:
    """Ridge least-squares estimate (1/n) Lambda^{-1} sum_i phi_i e_{X'_i}^T.

    One SPD solve against the aggregated multi-column right-hand side; columns
    for unobserved next states are identically zero.
    """
    cov = build_covariance(dataset, beta)
    observed, summed = dataset.next_state_groups
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
    state-action space. n (>= 1), seed (>= 0) and the mode are checked first.
    Occupancy pairs are drawn by the search below with d = 1 over their CDF,
    as ``Generator.choice(X * A, size=n, p=mu / mu.sum())`` draws them; an
    occupancy whose total is zero or not finite raises ValueError.

    X'_i is the first state whose cumulative probability
    <phi_i, cumsum(Psi)[:, x']> exceeds a uniform draw u_i, found by a
    bisection in C, one call for all samples. A draw at or above a row's
    total (a row summing to slightly less than 1) goes to the last state with
    positive mass in that row.
    """
    _check_int("n", n, 1)
    _check_int("seed", seed, 0)
    if sampling_mode not in SAMPLING_MODES:
        raise ValueError(f"unknown sampling_mode {sampling_mode!r}")
    X, A, d = mdp.num_states, mdp.num_actions, mdp.dim
    rng = np.random.default_rng(seed)
    if sampling_mode == "occupancy":
        mu = np.clip(evaluate_policy(mdp, behavior).mu, 0.0, None)
        total = mu.sum()
        if not (np.isfinite(total) and total > 0.0):
            raise ValueError(f"the occupancy sums to {total}, not a positive number")
        cdf = np.cumsum(mu / total)
        cdf /= cdf[-1]  # as Generator.choice forms it
        u_pairs, ones, sa = rng.random(n), np.ones(n), np.empty(n, dtype=np.int64)
        _native._kernel().fogas_next_states(n, X * A, 1, ones.ctypes.data, cdf.ctypes.data,
                                            u_pairs.ctypes.data, sa.ctypes.data)
    else:
        sa = rng.integers(0, X * A, size=n)

    u = rng.random(n)
    features = mdp.phi.take(sa, axis=0)
    # (X, d), row-major: the kernel reads row x' as d contiguous floats, and
    # cumsum of the transpose would otherwise return it in Fortran order.
    psi_cum = np.cumsum(mdp.psi.T, axis=0, out=np.empty((X, d)))
    x_next = np.empty(n, dtype=np.int64)  # X where the draw missed
    _native._kernel().fogas_next_states(n, X, d, features.ctypes.data, psi_cum.ctypes.data,
                                        u.ctypes.data, x_next.ctypes.data)
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
