"""Linear MDP data types, a synthetic generator, and softmax policy machinery.

The environment is the tuple (X, A, Phi, Psi, omega, gamma, x0) where the
transition kernel factorizes as p(x'|x,a) = <phi(x,a), psi(x')> and the reward
is r(x,a) = <phi(x,a), omega>. The tabular r is derived on demand and cached;
the (X*A, X) kernel is never formed. All types are immutable after
construction.
"""

from __future__ import annotations

import io
import math
import os
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real

import numpy as np

# Structural tolerances. Identities that hold by pure algebra get the tight
# values; quantities touched by a linear solve get the looser ones.
ROW_NONNEG_TOL = 1e-10
ROW_SUM_TOL = 1e-8
REWARD_TOL = 1e-10
OMEGA_NORM_TOL = 1e-8
RANK_TOL = 1e-8
PROB_ROW_TOL = 1e-10
# Work on kernel rows (collection, the nonnegativity check) and on the feature
# rows (the feature bound) holds at most about this many bytes of scratch at a
# time, so it does not grow with n * X, X^2 or X * A.
SAMPLE_CHUNK_BYTES = 4 << 20


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class LinearMdp:
    """A finite linear MDP with a fixed initial state.

    ``phi`` has one row per state-action pair in state-major order, so row
    ``x * num_actions + a`` is the feature vector of (x, a). ``psi`` holds one
    column per state. The initial-state distribution is the delta at ``x0``.
    """

    num_states: int
    num_actions: int
    dim: int
    phi: np.ndarray  # (X*A, d)
    psi: np.ndarray  # (d, X)
    omega: np.ndarray  # (d,)
    gamma: float
    x0: int
    feature_bound: float = field(init=False, default=0.0)

    def __post_init__(self):
        X, A, d = self.num_states, self.num_actions, self.dim
        for name in ("num_states", "num_actions", "dim"):
            _check_int(name, getattr(self, name), 1)
        _check_gamma(self.gamma)
        if not 0 <= self.x0 < X:
            raise ValueError(f"x0 must be a state index in [0, {X}), got {self.x0}")
        phi = _readonly(self.phi)
        psi = _readonly(self.psi)
        omega = _readonly(self.omega)
        if phi.shape != (X * A, d):
            raise ValueError(f"phi must have shape ({X * A}, {d}), got {phi.shape}")
        if psi.shape != (d, X):
            raise ValueError(f"psi must have shape ({d}, {X}), got {psi.shape}")
        if omega.shape != (d,):
            raise ValueError(f"omega must have shape ({d},), got {omega.shape}")
        for name, arr in (("phi", phi), ("psi", psi), ("omega", omega)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "omega", omega)
        # Row norms in chunks: one call over all of phi would square a copy of it.
        rows = max(1, SAMPLE_CHUNK_BYTES // (8 * d))
        object.__setattr__(self, "feature_bound", float(max(
            np.linalg.norm(phi[lo : lo + rows], axis=1).max() for lo in range(0, X * A, rows)
        )))

    @cached_property
    def rewards(self) -> np.ndarray:
        """Derived tabular reward vector r, shape (X*A,)."""
        return _readonly(self.phi @ self.omega)

    @cached_property
    def nu0(self) -> np.ndarray:
        out = np.zeros(self.num_states)
        out[self.x0] = 1.0
        return _readonly(out)

    @cached_property
    def optimal(self):
        """(pi*, its evaluation) by ``oracle.solve_optimal``, once per MDP; read-only."""
        from .oracle import solve_optimal

        policy, evaluation = solve_optimal(self)
        for name in ("q", "v", "theta_pi", "mu", "lambda_pi"):
            getattr(evaluation, name).flags.writeable = False
        return policy, evaluation

    @property
    def phi_by_state(self) -> np.ndarray:
        """phi reshaped to (X, A, d)."""
        return self.phi.reshape(self.num_states, self.num_actions, self.dim)


def validate_linear_mdp(mdp: LinearMdp) -> list[str]:
    """Check all structural invariants; return one message per violation.

    An empty list means the MDP satisfies the linear-MDP definition within the
    stated tolerances. The kernel P = Phi Psi is read in row chunks of about
    ``SAMPLE_CHUNK_BYTES``, and not at all when Phi and Psi are entrywise
    nonnegative, since then P is too; row sums are Phi (Psi 1).
    """
    report: list[str] = []
    X, A, d = mdp.num_states, mdp.num_actions, mdp.dim

    if mdp.phi.min() < 0 or mdp.psi.min() < 0:
        rows = max(1, SAMPLE_CHUNK_BYTES // (8 * X))
        for lo in range(0, X * A, rows):
            min_entries = (mdp.phi[lo : lo + rows] @ mdp.psi).min(axis=1)
            for idx in np.flatnonzero(min_entries < -ROW_NONNEG_TOL):
                x, a = divmod(lo + int(idx), A)
                report.append(
                    f"row-nonneg violation at (x={x}, a={a}): min entry {min_entries[idx]:.3e}"
                )
    row_sums = mdp.phi @ mdp.psi.sum(axis=1)
    for idx in np.flatnonzero(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
        x, a = divmod(int(idx), A)
        report.append(
            f"row-sum violation at (x={x}, a={a}): sum {row_sums[idx]:.12g}"
        )

    r = mdp.phi @ mdp.omega
    bad = (r < -REWARD_TOL) | (r > 1.0 + REWARD_TOL)
    for idx in np.flatnonzero(bad):
        x, a = divmod(int(idx), A)
        report.append(f"reward-range violation at (x={x}, a={a}): r = {r[idx]:.12g}")

    omega_norm = float(np.linalg.norm(mdp.omega))
    if omega_norm > np.sqrt(d) + OMEGA_NORM_TOL:
        report.append(
            f"omega-norm violation: ||omega|| = {omega_norm:.12g} > sqrt(d) = {np.sqrt(d):.12g}"
        )

    sv = np.linalg.svd(mdp.phi, compute_uv=False)
    if sv[-1] <= RANK_TOL * sv[0]:
        report.append(
            f"rank violation: smallest/largest singular value = {sv[-1] / sv[0]:.3e}"
        )
    return report


def _is_int(value) -> bool:
    """An int or numpy integer, not a bool: a float or bool is never truncated."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_int(name: str, value, low: int) -> None:
    """Every integer input's rule: an integer (``_is_int``) >= ``low``."""
    if not (_is_int(value) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _is_real(value) -> bool:
    """A real number, not a bool: True is never taken for a rate of 1."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _check_path(name: str, value) -> None:
    """Every file path's rule: a str or os.PathLike; an integer would be taken
    for an open file descriptor."""
    if not isinstance(value, (str, os.PathLike)):
        raise ValueError(f"{name} must be a file path, got {value!r}")


def _check_gamma(gamma) -> None:
    """The discount's rule, for the generator and every LinearMdp."""
    if not (_is_real(gamma) and 0.0 < gamma < 1.0):
        raise ValueError(f"gamma must lie in (0, 1), got {gamma!r}")


def check_generator_args(states, actions, dim, gamma, seed=0) -> None:
    """``generate_linear_mdp``'s rules, named as the CLI flags and sweep spec keys:
    integers states, actions, dim >= 1 with dim <= states*actions, an integer
    seed >= 0 and a real gamma in (0, 1)."""
    for name, value, low in (("states", states, 1), ("actions", actions, 1), ("dim", dim, 1),
                             ("seed", seed, 0)):
        _check_int(name, value, low)
    if dim > states * actions:
        raise ValueError(f"dim ({dim}) must not exceed num_states*num_actions ({states * actions})")
    _check_gamma(gamma)


def generate_linear_mdp(
    num_states: int, num_actions: int, dim: int, gamma: float, seed: int
) -> LinearMdp:
    """Draw a random linear MDP that satisfies the definition by construction.

    Columns of Psi stack d anchor next-state distributions, and each phi(x,a)
    is drawn from the d-simplex, so every p(.|x,a) is a convex mixture of the
    anchors and hence a distribution. Rewards use omega uniform in [0,1]^d so
    <phi, omega> lands in [0,1] and ||omega|| <= sqrt(d). Feature norms are at
    most 1 under this construction; the actual maximum is recorded.
    """
    check_generator_args(num_states, num_actions, dim, gamma, seed)
    rng = np.random.default_rng(seed)
    psi = rng.dirichlet(np.ones(num_states), size=dim)  # (d, X), rows are anchors
    phi = rng.dirichlet(np.ones(dim), size=num_states * num_actions)
    omega = rng.uniform(0.0, 1.0, size=dim)
    return LinearMdp(
        num_states=num_states,
        num_actions=num_actions,
        dim=dim,
        phi=phi,
        psi=psi,
        omega=omega,
        gamma=gamma,
        x0=0,
    )


@dataclass(frozen=True)
class TabularPolicy:
    """Explicit action distributions, one row per state."""

    probs: np.ndarray  # (X, A)

    def __post_init__(self):
        probs = _readonly(self.probs)
        if probs.ndim != 2:
            raise ValueError(f"probs must be 2-d, got shape {probs.shape}")
        if probs.min() < -PROB_ROW_TOL:
            raise ValueError("policy rows must be nonnegative")
        if np.abs(probs.sum(axis=1) - 1.0).max() > PROB_ROW_TOL:
            raise ValueError("policy rows must sum to 1")
        object.__setattr__(self, "probs", probs)


def uniform_policy(num_states: int, num_actions: int) -> TabularPolicy:
    return TabularPolicy(np.full((num_states, num_actions), 1.0 / num_actions))


def _stable_softmax_rows(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax over ``axis`` in place, shifted by the maximum."""
    logits -= np.maximum.reduce(logits, axis=axis, keepdims=True)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=axis, keepdims=True)
    return logits


def softmax_from_logit_param(mdp: LinearMdp, scaled_param: np.ndarray) -> TabularPolicy:
    """The softmax policy pi(a|x) proportional to exp(<phi(x,a), scaled_param>).

    ``scaled_param`` is the mirror-ascent step size times the cumulative
    value-parameter sum. The per-state maximum logit is subtracted before
    exponentiating, so parameters with norm up to ~1e6 are safe.
    """
    scaled_param = np.asarray(scaled_param, dtype=np.float64)
    if scaled_param.shape != (mdp.dim,):
        raise ValueError(
            f"scaled_param must have shape ({mdp.dim},), got {scaled_param.shape}"
        )
    if not np.all(np.isfinite(scaled_param)):
        raise ValueError("scaled_param must be finite")
    logits = (mdp.phi @ scaled_param).reshape(mdp.num_states, mdp.num_actions)
    return TabularPolicy(_stable_softmax_rows(logits))


# Each entry's exact dtype and number of dimensions; LinearMdp checks the shapes.
_MDP_ENTRIES = {
    **dict.fromkeys(("num_states", "num_actions", "dim", "x0"), (np.int64, 0)),
    **dict.fromkeys(("phi", "psi"), (np.float64, 2)),
    "omega": (np.float64, 1),
    "gamma": (np.float64, 0),
}


def write_arrays(path, kind: str, **arrays) -> None:
    """Write ``arrays`` and a ``kind`` entry "fogas-<kind>/1" as an uncompressed
    .npz archive at exactly ``path`` (no suffix is added).

    Every member has the same fixed timestamp, so equal arrays give equal bytes.
    """
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for name, value in {"kind": f"fogas-{kind}/1", **arrays}.items():
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            with archive.open(info, "w", force_zip64=True) as f:
                np.lib.format.write_array(f, np.asarray(value), allow_pickle=False)


def _read_members(f) -> dict:
    """The bytes of each member of the zip archive ``f``, by its name without
    ".npy", each read whole and once, which checks its CRC-32. The archive's
    records are freed on return, before the caller parses the members."""
    with zipfile.ZipFile(f) as archive:
        return {info.filename.removesuffix(".npy"): archive.read(info)
                for info in archive.infolist()}


def _npy_view(name: str, raw: bytes) -> np.ndarray:
    """The array of the .npy bytes ``raw`` (member ``name``), as a read-only
    view of them: the data are not copied."""
    header = io.BytesIO(raw)  # shares raw's buffer
    version = np.lib.format.read_magic(header)
    read_header = {(1, 0): np.lib.format.read_array_header_1_0,
                   (2, 0): np.lib.format.read_array_header_2_0}.get(version)
    if read_header is None:
        raise ValueError(f"{name} has .npy format version {version}, expected 1.0 or 2.0")
    shape, fortran_order, dtype = read_header(header)
    if dtype.hasobject:
        raise ValueError("Object arrays cannot be loaded when allow_pickle=False")
    count, offset = math.prod(shape), header.tell()
    if len(raw) - offset != count * dtype.itemsize:
        raise ValueError(f"{name} holds {len(raw) - offset} bytes of data, but its header "
                         f"promises {count * dtype.itemsize}")
    return np.ndarray(shape, dtype, buffer=raw, offset=offset,
                      order="F" if fortran_order else "C")


@contextmanager
def read_arrays(path, kind: str, spec: dict):
    """Read an archive written by ``write_arrays(path, kind, ...)`` and yield its
    arrays, a dict without the kind entry.

    Each member is read whole, once (``_read_members``), and its array is a
    read-only view of those bytes (``_npy_view``), not a copy.
    ``spec`` maps each entry name to its exact dtype and number of dimensions.
    Anything else raises ValueError with ``path`` in the message: a ``path``
    that is not a file path (``_check_path``), a file that
    is not a zip archive (such as a text file), a truncated archive, a member
    that fails its CRC-32, is not .npy or holds other than the bytes its
    header promises, a pickled
    or object array, another kind, a missing or unexpected entry, a wrong dtype
    (an index stored as float is not cast), a wrong number of dimensions and a
    non-finite float. A ValueError raised in the ``with`` block, where the
    caller checks the shapes and builds its object, gets the path too.
    """
    _check_path("path", path)
    expected = f"fogas-{kind}/1"
    try:
        with open(path, "rb") as f:
            if f.read(4) != b"PK\x03\x04":  # the zip magic
                raise ValueError(f"not a {expected} archive (files of earlier versions "
                                 "are text and must be written again)")
            members = _read_members(f)
        if not all(raw.startswith(np.lib.format.MAGIC_PREFIX) for raw in members.values()):
            raise ValueError(f"not a {expected} archive: a member is not an .npy array")
        arrays = {name: _npy_view(name, raw) for name, raw in members.items()}
        kind_entry = arrays.pop("kind", None)
        found = None if kind_entry is None or kind_entry.ndim else kind_entry.item()
        if found != expected:
            raise ValueError(f"kind entry is {found!r}, expected {expected!r}")
        unexpected = sorted(set(arrays) - set(spec))
        if unexpected:
            raise ValueError(f"unexpected entries {unexpected}")
        for name, (dtype, ndim) in spec.items():
            if name not in arrays:
                raise ValueError(f"lacks the entry {name!r}")
            arr = arrays[name]
            if arr.dtype != dtype:
                raise ValueError(f"{name} has dtype {arr.dtype}, expected {np.dtype(dtype)}")
            if arr.ndim != ndim:
                raise ValueError(f"{name} has shape {arr.shape}, expected {ndim} dimensions")
            if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} is not finite")
        yield arrays
    except (zipfile.BadZipFile, EOFError, ValueError) as e:
        raise ValueError(f"{path}: {e}") from None


def save_mdp(mdp: LinearMdp, path) -> None:
    """Write the MDP as a "fogas-mdp/1" archive (``write_arrays``) at ``path``;
    floats round-trip bit for bit."""
    write_arrays(path, "mdp", **{name: np.asarray(getattr(mdp, name), dtype=dtype)
                                 for name, (dtype, _) in _MDP_ENTRIES.items()})


def load_mdp(path) -> LinearMdp:
    """Read a file written by ``save_mdp``; a malformed file raises ValueError."""
    with read_arrays(path, "mdp", _MDP_ENTRIES) as arrays:
        return LinearMdp(**{name: arr if arr.ndim else arr.item()
                            for name, arr in arrays.items()})
