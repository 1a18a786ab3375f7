import json

import numpy as np
import pytest

from timebin import quantum
from timebin.quantum import (DensityMatrix2Q, bell_phi_plus, chsh_bounds,
                             concurrence, fidelity_to_pure,
                             measurement_operator, projector,
                             validate_density_matrix)

from conftest import (EXPERIMENT_RHO_REAL, ginibre_density_matrix,
                      random_pure_state, random_unitary, wootters_oracle)


BELL_DM = np.outer(bell_phi_plus(), bell_phi_plus().conj())


def phase_state(phi):
    """(|00> + e^{i phi}|11>)/sqrt(2), the time-bin pair at pump phase phi."""
    return np.array([1.0, 0.0, 0.0, np.exp(1j * phi)]) / np.sqrt(2)


class TestStates:
    def test_bell_phi_plus_amplitudes(self):
        np.testing.assert_allclose(bell_phi_plus(),
                                   [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])

    def test_bell_self_fidelity(self):
        assert fidelity_to_pure(BELL_DM, bell_phi_plus()) == pytest.approx(1.0)

    def test_bell_concurrence(self):
        assert concurrence(BELL_DM) == pytest.approx(1.0)

    def test_time_bin_state_zero_phase(self):
        psi = phase_state(0.0)
        assert fidelity_to_pure(np.outer(psi, psi.conj()), bell_phi_plus()) == pytest.approx(1.0)

    def test_time_bin_state_pi(self):
        # phi = pi gives (|00> - |11>)/sqrt(2), orthogonal to the target
        psi = phase_state(np.pi)
        assert fidelity_to_pure(np.outer(psi, psi.conj()), bell_phi_plus()) == \
            pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("phi", [0.3, 1.0, np.pi / 2, 2.2, 5.9])
    def test_time_bin_state_always_maximally_entangled(self, phi):
        psi = phase_state(phi)
        assert concurrence(np.outer(psi, psi.conj())) == pytest.approx(1.0)


class TestProjectors:
    @pytest.mark.parametrize("label", quantum.BASIS_LABELS)
    def test_idempotent_rank1(self, label):
        p = projector(label)
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        assert np.trace(p) == pytest.approx(1.0)
        assert np.linalg.matrix_rank(p) == 1

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            projector("Q")

    def test_measurement_operator_z0z0(self):
        np.testing.assert_allclose(measurement_operator("Z0", "Z0"),
                                   np.diag([1.0, 0, 0, 0]))

    def test_xx_on_bell_gives_half(self):
        m = measurement_operator("X+", "X+")
        p = np.real(np.trace(m @ BELL_DM))
        assert p == pytest.approx(0.5)

    def test_z0z1_on_bell_gives_zero(self):
        m = measurement_operator("Z0", "Z1")
        p = np.real(np.trace(m @ BELL_DM))
        assert p == pytest.approx(0.0, abs=1e-14)

    def test_operator_properties(self):
        m = measurement_operator("X+", "Y+")
        np.testing.assert_allclose(m, m.conj().T, atol=1e-14)
        np.testing.assert_allclose(m @ m, m, atol=1e-12)
        assert np.trace(m).real == pytest.approx(1.0)

    def test_sixteen_operators_informationally_complete(self):
        ops = [measurement_operator(a, b)
               for a in quantum.BASIS_LABELS for b in quantum.BASIS_LABELS]
        gram = np.array([[np.real(np.trace(x.conj().T @ y)) for y in ops]
                         for x in ops])
        assert np.linalg.matrix_rank(gram, tol=1e-10) == 16


class TestConcurrence:
    def test_maximally_mixed(self):
        assert concurrence(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-12)

    def test_werner_state(self):
        # closed form max(0, (3p-1)/2); cross-checked by the sqrtm oracle
        p = 0.8
        rho = p * BELL_DM + (1 - p) * np.eye(4) / 4
        assert concurrence(rho) == pytest.approx(0.7, abs=1e-12)
        assert wootters_oracle(rho) == pytest.approx(0.7, abs=1e-9)

    def test_experimental_matrix(self):
        c = concurrence(EXPERIMENT_RHO_REAL)
        assert c == pytest.approx(0.889, abs=0.02)
        assert c == pytest.approx(wootters_oracle(EXPERIMENT_RHO_REAL), abs=1e-9)

    def test_rejects_non_hermitian(self):
        m = np.eye(4) / 4 + 0j
        m[0, 1] = 0.2
        with pytest.raises(ValueError):
            concurrence(m)

    def test_rejects_negative_matrix(self):
        m = np.diag([0.7, 0.5, -0.1, -0.1]) + 0j
        with pytest.raises(ValueError):
            concurrence(m)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            rho = ginibre_density_matrix(rng)
            u = np.kron(random_unitary(rng), random_unitary(rng))
            rho2 = u @ rho @ u.conj().T
            assert abs(concurrence(rho)
                       - concurrence(rho2)) < 1e-9

    def test_product_states_separable(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            psi = np.kron(random_pure_state(rng, 2), random_pure_state(rng, 2))
            assert concurrence(np.outer(psi, psi.conj())) < 1e-7

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            c = concurrence(ginibre_density_matrix(rng))
            assert 0.0 <= c <= 1.0 + 1e-12


class TestFidelity:
    def test_experimental_matrix_closed_form(self):
        f = fidelity_to_pure(EXPERIMENT_RHO_REAL, bell_phi_plus())
        # closed form (rho11 + rho44)/2 + Re rho14
        assert f == pytest.approx((0.509 + 0.486) / 2 + 0.445, abs=1e-12)
        assert f == pytest.approx(0.9425, abs=0.0005)

    def test_maximally_mixed_uniform_overlap(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            psi = random_pure_state(rng)
            assert fidelity_to_pure(np.eye(4) / 4, psi) == pytest.approx(0.25)

    def test_range_and_unity_iff_match(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rho = ginibre_density_matrix(rng)
            psi = random_pure_state(rng)
            f = fidelity_to_pure(rho, psi)
            assert 0.0 - 1e-12 <= f <= 1.0 + 1e-12
            assert f < 1.0 - 1e-9  # a full-rank state never matches exactly
            # forward direction: rho = |psi><psi| gives exactly 1
            assert fidelity_to_pure(np.outer(psi, psi.conj()), psi) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_unnormalized_target(self):
        with pytest.raises(ValueError):
            fidelity_to_pure(np.eye(4) / 4, np.array([1.0, 1.0, 0, 0]))


class TestStacks:
    """A (..., 4, 4) stack gives one figure per matrix, a 4x4 matrix a float."""

    @staticmethod
    def stack(n=30, seed=5):
        rng = np.random.default_rng(seed)
        return np.stack([ginibre_density_matrix(rng) for _ in range(n)])

    def test_stack_equals_per_matrix(self):
        rhos = self.stack()
        psi = bell_phi_plus()
        c, f = concurrence(rhos), fidelity_to_pure(rhos, psi)
        assert c.shape == f.shape == (30,)
        assert c.tolist() == [concurrence(m) for m in rhos]
        assert f.tolist() == [fidelity_to_pure(m, psi) for m in rhos]

    def test_stack_with_one_non_positive_matrix_rejected(self):
        rhos = self.stack()
        rhos[17] = np.diag([0.7, 0.5, -0.1, -0.1])
        with pytest.raises(ValueError, match="not positive"):
            concurrence(rhos)
        with pytest.raises(ValueError, match="not positive"):
            fidelity_to_pure(rhos, bell_phi_plus())

    def test_single_matrix_gives_float(self):
        rho = self.stack(1)[0]
        assert type(concurrence(rho)) is float
        assert type(fidelity_to_pure(rho, bell_phi_plus())) is float
        assert type(concurrence(DensityMatrix2Q.from_matrix(rho))) is float


class TestChshBounds:
    def test_experimental_value(self):
        lo, hi = chsh_bounds(0.889)
        assert lo == pytest.approx(2.514, abs=0.01)
        assert hi == pytest.approx(2.676, abs=0.01)

    def test_maximal(self):
        lo, hi = chsh_bounds(1.0)
        assert lo == pytest.approx(2 * np.sqrt(2))
        assert hi == pytest.approx(2 * np.sqrt(2))

    def test_separable(self):
        assert chsh_bounds(0.0) == pytest.approx((0.0, 2.0))

    def test_ordering_and_violation_threshold(self):
        for c in np.linspace(0, 1, 101):
            lo, hi = chsh_bounds(c)
            assert lo <= hi + 1e-12
            if c > 1 / np.sqrt(2):
                assert lo > 2.0

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            chsh_bounds(bad)


class TestDensityMatrixType:
    def test_valid_construction(self):
        dm = DensityMatrix2Q.from_matrix(BELL_DM)
        assert np.trace(dm.matrix).real == pytest.approx(1.0)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix2Q.from_matrix(np.eye(4) / 3)

    @pytest.mark.parametrize("m", [np.eye(4) / 3, np.diag([0.6, 0.6, -0.1, -0.1]),
                                   np.ones((3, 3)) / 3])
    def test_direct_construction_is_validated(self, m):
        with pytest.raises(ValueError):
            DensityMatrix2Q(m)

    def test_fix_recovers_noisy_matrix(self):
        rng = np.random.default_rng(5)
        noisy = BELL_DM + 1e-6 * rng.normal(size=(4, 4))
        dm = DensityMatrix2Q.from_matrix(quantum._physical(noisy))
        assert concurrence(dm) == pytest.approx(1.0, abs=1e-4)

    def test_rejects_nan(self):
        m = np.eye(4, dtype=complex) / 4
        m[2, 2] = np.nan
        with pytest.raises(ValueError):
            DensityMatrix2Q.from_matrix(m)

    def test_stack_validation_rejects_any_bad_matrix(self):
        rng = np.random.default_rng(10)
        stack = np.stack([ginibre_density_matrix(rng) for _ in range(5)])
        validate_density_matrix(stack)
        stack[3] = np.diag([0.6, 0.6, -0.1, -0.1])
        with pytest.raises(ValueError, match="positive"):
            validate_density_matrix(stack)

    def test_json_round_trip_bit_exact(self):
        rng = np.random.default_rng(9)
        dm = DensityMatrix2Q.from_matrix(ginibre_density_matrix(rng))
        obj = json.loads(dm.to_json())
        again = DensityMatrix2Q(np.array(obj["re"]) + 1j * np.array(obj["im"]))
        assert np.array_equal(dm.matrix, again.matrix)

    def test_json_shape(self):
        dm = DensityMatrix2Q.from_matrix(np.eye(4) / 4)
        obj = json.loads(dm.to_json())
        assert np.array(obj["re"]).shape == (4, 4)
        assert np.array(obj["im"]).shape == (4, 4)
