"""Environment types, generator validity, and softmax policy machinery."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fogas
from fogas.linmdp import _stable_softmax_rows

from conftest import (
    action_major_phi,
    action_major_softmax,
    dense_kernel,
    random_mdp,
    read_archive,
    softmax_features,
)


class TestGenerator:
    @pytest.mark.parametrize("shape", [(5, 3, 4), (8, 2, 3), (3, 5, 5)])
    def test_generated_mdps_are_valid(self, shape):
        X, A, d = shape
        for seed in range(100):
            mdp = fogas.generate_linear_mdp(X, A, d, gamma=0.9, seed=seed)
            assert fogas.validate_linear_mdp(mdp) == []

    def test_degenerate_single_point(self):
        mdp = fogas.generate_linear_mdp(1, 1, 1, gamma=0.9, seed=0)
        assert np.allclose(mdp.phi, [[1.0]])
        assert np.allclose(mdp.psi, [[1.0]])
        assert np.allclose(dense_kernel(mdp), [[1.0]])
        assert 0.0 <= mdp.rewards[0] <= 1.0
        assert mdp.rewards[0] == mdp.omega[0]

    def test_seeded_determinism(self):
        a = fogas.generate_linear_mdp(5, 3, 4, gamma=0.9, seed=11)
        b = fogas.generate_linear_mdp(5, 3, 4, gamma=0.9, seed=11)
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.psi, b.psi)
        assert np.array_equal(a.omega, b.omega)

    def test_feature_bound_is_row_max(self, default_mdp):
        norms = np.linalg.norm(default_mdp.phi, axis=1)
        assert default_mdp.feature_bound == norms.max()
        assert default_mdp.feature_bound <= 1.0  # simplex rows

    @pytest.mark.parametrize("rows_per_chunk", [1, 7, 64])
    def test_feature_bound_chunked_bit_identical(self, rows_per_chunk, monkeypatch):
        """The bound taken over chunks of rows equals one norm over all of phi,
        bit for bit, whichever chunk holds the longest row."""
        rng = np.random.default_rng(3)
        phi = rng.normal(size=(300 * 3, 5)) * rng.uniform(0.1, 10.0, size=(900, 1))
        monkeypatch.setattr(fogas.linmdp, "SAMPLE_CHUNK_BYTES", 8 * 5 * rows_per_chunk)
        mdp = fogas.LinearMdp(num_states=300, num_actions=3, dim=5, phi=phi,
                              psi=np.full((5, 300), 1 / 300), omega=np.zeros(5),
                              gamma=0.9, x0=0)
        assert mdp.feature_bound == np.linalg.norm(phi, axis=1).max()

    def test_feature_bound_scratch_is_bounded(self):
        """At X=1e5, A=4, d=8 (phi is 24.4 MiB) the constructor's tracemalloc
        peak stays below 2 * SAMPLE_CHUNK_BYTES = 8 MiB; the squares of all of
        phi at once took 30.5 MiB."""
        X, A, d = 100_000, 4, 8
        phi = np.random.default_rng(0).random((X * A, d))
        psi, omega = np.full((d, X), 1.0 / X), np.zeros(d)
        tracemalloc.start()
        try:
            fogas.LinearMdp(num_states=X, num_actions=A, dim=d, phi=phi, psi=psi,
                            omega=omega, gamma=0.9, x0=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * fogas.linmdp.SAMPLE_CHUNK_BYTES

    def test_dim_preconditions(self):
        with pytest.raises(ValueError):
            fogas.generate_linear_mdp(2, 2, 0, gamma=0.9, seed=0)
        with pytest.raises(ValueError):
            fogas.generate_linear_mdp(2, 2, 5, gamma=0.9, seed=0)


class TestValidation:
    def test_row_sum_violation_located(self, default_mdp):
        # Rescaling one phi row scales the corresponding kernel row sum.
        phi = default_mdp.phi.copy()
        phi[7] *= 1.5  # (x=2, a=1)
        bad = fogas.LinearMdp(
            num_states=5, num_actions=3, dim=4,
            phi=phi, psi=default_mdp.psi, omega=default_mdp.omega,
            gamma=0.9, x0=0,
        )
        report = fogas.validate_linear_mdp(bad)
        assert any("row-sum" in line and "x=2" in line and "a=1" in line
                   for line in report)

    @pytest.mark.parametrize("one_row_chunks", [False, True])
    def test_row_nonneg_violation_located(self, one_row_chunks, monkeypatch):
        # Kernel row (x=2, a=1) is 1.2 * (1, 0, 0) - 0.2 * (0, 0.5, 0.5):
        # it sums to 1 but has entries -0.1; every other row is a distribution.
        if one_row_chunks:
            monkeypatch.setattr(fogas.linmdp, "SAMPLE_CHUNK_BYTES", 8 * 3)
        phi = np.array([[1.0, 0.0], [0.0, 1.0]] * 3)
        phi[5] = [1.2, -0.2]
        mdp = fogas.LinearMdp(
            num_states=3, num_actions=2, dim=2,
            phi=phi, psi=np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]]),
            omega=np.array([0.5, 0.5]), gamma=0.9, x0=0,
        )
        assert dense_kernel(mdp).min(axis=1)[5] == -0.1
        assert fogas.validate_linear_mdp(mdp) == [
            "row-nonneg violation at (x=2, a=1): min entry -1.000e-01"
        ]

    def test_omega_norm_violation(self, default_mdp):
        d = default_mdp.dim
        bad = fogas.LinearMdp(
            num_states=5, num_actions=3, dim=d,
            phi=default_mdp.phi, psi=default_mdp.psi,
            omega=np.full(d, 2.0),  # norm 2*sqrt(d)
            gamma=0.9, x0=0,
        )
        report = fogas.validate_linear_mdp(bad)
        assert any("omega-norm" in line for line in report)

    def test_reward_range_violation(self, default_mdp):
        bad = fogas.LinearMdp(
            num_states=5, num_actions=3, dim=4,
            phi=default_mdp.phi, psi=default_mdp.psi,
            omega=-default_mdp.omega - 0.5,
            gamma=0.9, x0=0,
        )
        report = fogas.validate_linear_mdp(bad)
        assert any("reward-range" in line for line in report)

    def test_rank_violation(self):
        phi = np.ones((4, 2)) * 0.5  # rank 1
        psi = np.vstack([np.full(2, 0.5), np.full(2, 0.5)])
        mdp = fogas.LinearMdp(
            num_states=2, num_actions=2, dim=2,
            phi=phi, psi=psi, omega=np.array([0.5, 0.5]), gamma=0.9, x0=0,
        )
        report = fogas.validate_linear_mdp(mdp)
        assert any("rank" in line for line in report)

    def test_shape_mismatch_raises(self, default_mdp):
        with pytest.raises(ValueError, match="phi"):
            fogas.LinearMdp(
                num_states=5, num_actions=3, dim=4,
                phi=default_mdp.phi[:-1], psi=default_mdp.psi,
                omega=default_mdp.omega, gamma=0.9, x0=0,
            )

    @pytest.mark.parametrize("name", ["phi", "psi", "omega"])
    def test_nonfinite_entries_raise(self, default_mdp, name):
        fields = {"phi": default_mdp.phi.copy(), "psi": default_mdp.psi.copy(),
                  "omega": default_mdp.omega.copy()}
        fields[name].flat[0] = np.nan
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            fogas.LinearMdp(num_states=5, num_actions=3, dim=4, gamma=0.9, x0=0,
                            **fields)


class TestSoftmaxPolicy:
    def test_zero_param_is_uniform(self, default_mdp):
        policy = fogas.softmax_from_logit_param(default_mdp, np.zeros(4))
        assert np.allclose(policy.probs, 1.0 / 3.0)

    def test_hand_computed_two_action(self):
        mdp = fogas.LinearMdp(
            num_states=1, num_actions=2, dim=2,
            phi=np.eye(2), psi=np.ones((2, 1)),
            omega=np.array([0.5, 0.5]), gamma=0.9, x0=0,
        )
        policy = fogas.softmax_from_logit_param(mdp, np.array([np.log(2.0), 0.0]))
        assert np.allclose(policy.probs, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)

    def test_shift_invariance(self, default_mdp):
        # A common feature component shifts all logits of a state equally.
        rng = np.random.default_rng(0)
        param = rng.normal(size=4)
        base = fogas.softmax_from_logit_param(default_mdp, param).probs
        logits = (default_mdp.phi @ param).reshape(5, 3) + 123.456
        shifted = _stable_softmax_rows(logits)
        assert np.abs(base - shifted).max() <= 1e-12

    def test_large_parameter_no_overflow(self, default_mdp):
        rng = np.random.default_rng(1)
        param = rng.normal(size=4)
        param *= 1e6 / np.linalg.norm(param)
        probs = fogas.softmax_from_logit_param(default_mdp, param).probs
        assert np.all(np.isfinite(probs))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_nonfinite_param_rejected(self, default_mdp):
        with pytest.raises(ValueError):
            fogas.softmax_from_logit_param(default_mdp, np.array([np.nan] * 4))

    def test_wrong_shape_param_rejected(self, default_mdp):
        with pytest.raises(ValueError, match="shape"):
            fogas.softmax_from_logit_param(default_mdp, np.zeros(3))

    @given(st.integers(min_value=0, max_value=10**6), st.floats(1e-3, 1e5))
    @settings(max_examples=25, deadline=None)
    def test_rows_sum_to_one(self, seed, scale):
        mdp = random_mdp(0)
        rng = np.random.default_rng(seed)
        param = scale * rng.normal(size=mdp.dim)
        probs = fogas.softmax_from_logit_param(mdp, param).probs
        assert probs.min() >= 0.0
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12


class TestPolicyUpdate:
    """The policy step is cumulative: the solver adds theta_t to theta_bar and
    materializes softmax(alpha * theta_bar)."""

    def test_zero_step_is_identity(self, default_mdp):
        param = np.ones(4)
        policy = fogas.softmax_from_logit_param(default_mdp, param)
        updated = fogas.softmax_from_logit_param(default_mdp, param + 0.3 * np.zeros(4))
        assert np.array_equal(updated.probs, policy.probs)

    def test_first_step_from_uniform(self, default_mdp):
        theta = np.array([0.4, -0.2, 0.1, 0.7])
        stepped = fogas.softmax_from_logit_param(default_mdp, np.zeros(4) + 0.5 * theta)
        boost = np.exp(0.5 * (default_mdp.phi @ theta)).reshape(5, 3)
        direct = boost / boost.sum(axis=1, keepdims=True)
        assert np.abs(stepped.probs - direct).max() <= 1e-15

    def test_softmax_features_match_table(self, default_mdp):
        """The action-major softmax and the reference policy-weighted features
        agree with the policy table."""
        rng = np.random.default_rng(5)
        phi_states = action_major_phi(default_mdp, np.arange(5))
        for _ in range(10):
            param = rng.normal(size=4)
            table = fogas.softmax_from_logit_param(default_mdp, param).probs
            assert np.abs(action_major_softmax(phi_states, param).T - table).max() <= 1e-15
            expected = np.einsum("xa,xad->xd", table, default_mdp.phi_by_state)
            out = softmax_features(default_mdp.phi_by_state, param)
            assert np.abs(out - expected).max() <= 1e-15


class TestTabularPolicy:
    def test_invalid_rows_rejected(self):
        with pytest.raises(ValueError):
            fogas.TabularPolicy(np.array([[0.7, 0.7]]))
        with pytest.raises(ValueError):
            fogas.TabularPolicy(np.array([[1.5, -0.5]]))

    def test_uniform_policy(self):
        policy = fogas.uniform_policy(4, 3)
        assert np.allclose(policy.probs, 1.0 / 3.0)


class TestSerialization:
    @pytest.mark.parametrize("shape", [(5, 3, 4), (1, 1, 1), (40, 6, 8)],
                             ids=["default", "single-point", "many-rows"])
    def test_archive_entries(self, tmp_path, shape):
        """The file is an .npz archive of the MDP's fields and its kind entry,
        and saving the same MDP twice gives the same bytes."""
        mdp = fogas.generate_linear_mdp(*shape, gamma=0.9, seed=0)
        path, again = tmp_path / "mdp.npz", tmp_path / "again.npz"
        fogas.save_mdp(mdp, path)
        fogas.save_mdp(mdp, again)
        assert path.read_bytes() == again.read_bytes()
        entries = read_archive(path)
        assert entries.pop("kind") == "fogas-mdp/1"
        assert set(entries) == {"num_states", "num_actions", "dim", "phi", "psi",
                                "omega", "gamma", "x0"}
        for name, value in entries.items():
            assert np.array_equal(value, getattr(mdp, name))

    def test_round_trip_exact(self, default_mdp, tmp_path):
        path = tmp_path / "mdp.npz"
        fogas.save_mdp(default_mdp, path)
        loaded = fogas.load_mdp(path)
        assert np.array_equal(loaded.phi, default_mdp.phi)
        assert np.array_equal(loaded.psi, default_mdp.psi)
        assert np.array_equal(loaded.omega, default_mdp.omega)
        assert loaded.gamma == default_mdp.gamma
        assert loaded.x0 == default_mdp.x0
