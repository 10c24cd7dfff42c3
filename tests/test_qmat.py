import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bell_phi_plus, output_eigenvalues_closed_form, partial_trace
from fcad.channels import apply, fc_channel
from fcad.qmat import (
    DimensionMismatchError,
    NonHermitianError,
    NotDensityMatrixError,
    basis_state,
    density_eigenvalues,
    hermitian_eigenvalues,
    max_abs_diff,
    outer,
    purify,
    random_density,
    random_pure,
)

I2 = np.eye(2, dtype=complex)


class TestHermitianEigenvalues:
    def test_diagonal_input(self):
        np.testing.assert_allclose(
            hermitian_eigenvalues(np.diag([0.5, 0.5, 0.0, 0.0])), [0.5, 0.5, 0.0, 0.0]
        )

    def test_bell_state_through_channel(self):
        """Damped Bell state at eta = 1/2 has eigenvalues (1 +- sqrt(3)/2)/2."""
        out = apply(fc_channel(0.5), outer(bell_phi_plus()))
        expected = [0.9330127018922193, 0.0669872981077807, 0.0, 0.0]
        np.testing.assert_allclose(hermitian_eigenvalues(out), expected, atol=1e-12)

    def test_maximally_mixed(self):
        np.testing.assert_allclose(hermitian_eigenvalues(np.eye(4) / 4), [0.25] * 4)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_sum_equals_trace(self):
        rho = random_density(8, 7)
        assert abs(hermitian_eigenvalues(rho).sum() - np.trace(rho).real) < 1e-10

    def test_matches_closed_form_on_random_pure_states(self):
        """Eigensolver agrees with the rank-two closed form on channel outputs."""
        for i in range(100):
            rng = np.random.default_rng(np.random.SeedSequence([42, i]))
            psi = random_pure(4, rng)
            eta = float(rng.uniform())
            got = hermitian_eigenvalues(apply(fc_channel(eta), outer(psi)))
            expected = output_eigenvalues_closed_form(psi, eta)
            assert max_abs_diff(got, expected) < 1e-10


class TestPartialTrace:
    def test_product_state(self):
        rho = outer(np.kron(basis_state(2, 0), basis_state(2, 0)))
        np.testing.assert_allclose(partial_trace(rho, [2, 2], [0]), outer(basis_state(2, 0)))

    def test_dilated_full_decay_state(self):
        """Tracing the environment of the dilated |11> evolution gives
        (1-eta)|00><00| + eta|11><11|."""
        eta = 0.3
        psi = math.sqrt(eta) * np.kron(basis_state(4, 3), basis_state(4, 0)) + math.sqrt(
            1.0 - eta
        ) * np.kron(basis_state(4, 0), basis_state(4, 3))
        reduced = partial_trace(outer(psi), [4, 4], [0])
        expected = np.diag([1.0 - eta, 0.0, 0.0, eta])
        np.testing.assert_allclose(reduced, expected, atol=1e-12)

    def test_maximally_entangled_marginal(self):
        d = 4
        psi = sum(np.kron(basis_state(d, i), basis_state(d, i)) for i in range(d)) / 2.0
        np.testing.assert_allclose(partial_trace(outer(psi), [4, 4], [1]), np.eye(4) / 4, atol=1e-12)

    def test_trace_preserved(self):
        rho = random_density(8, 3)
        red = partial_trace(rho, [2, 4], [1])
        assert abs(np.trace(red) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace(np.eye(4) / 4, [2, 4], [0])


class TestPurify:
    def test_pure_input(self):
        rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        psi = purify(rho)
        np.testing.assert_allclose(partial_trace(outer(psi), [4, 4], [1]), rho, atol=1e-12)

    def test_maximally_mixed_input(self):
        psi = purify(np.eye(4) / 4)
        assert psi.shape == (16,)
        np.testing.assert_allclose(
            partial_trace(outer(psi), [4, 4], [1]), np.eye(4) / 4, atol=1e-12
        )

    def test_diagonal_round_trip(self):
        rho = np.diag([0.4, 0.25, 0.25, 0.1]).astype(complex)
        psi = purify(rho)
        assert max_abs_diff(partial_trace(outer(psi), [4, 4], [1]), rho) < 1e-10

    def test_round_trip_on_random_densities(self):
        for i in range(100):
            rho = random_density(4, np.random.SeedSequence([5, i]))
            psi = purify(rho)
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-10
            assert max_abs_diff(partial_trace(outer(psi), [4, 4], [1]), rho) < 1e-10

    def test_rejects_non_density(self):
        with pytest.raises(NotDensityMatrixError):
            purify(np.eye(4))


class TestRandomStates:
    def test_pure_normalized(self):
        assert abs(np.linalg.norm(random_pure(4, 0)) - 1.0) < 1e-12

    def test_density_valid(self):
        rho = random_density(4, 0)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_deterministic(self):
        np.testing.assert_array_equal(random_pure(4, 123), random_pure(4, 123))
        np.testing.assert_array_equal(random_density(4, 123), random_density(4, 123))

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_density_spectrum_in_range(self, seed):
        eigs = density_eigenvalues(random_density(4, seed))
        assert eigs.min() >= 0.0 and eigs.max() <= 1.0
        assert abs(eigs.sum() - 1.0) < 1e-10


class TestMaxAbsDiff:
    def test_equal_matrices(self):
        a = random_density(4, 9)
        assert max_abs_diff(a, a) == 0.0

    def test_identity_vs_zero(self):
        assert max_abs_diff(I2, np.zeros((2, 2))) == 1.0

    def test_swapped_diagonal(self):
        assert max_abs_diff(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            max_abs_diff(I2, np.eye(4))
