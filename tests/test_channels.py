import math

import numpy as np
import pytest

from conftest import bell_phi_plus, partial_trace
from fcad.channels import (
    EtaOutOfRangeError,
    QuantumChannel,
    _corner_collapse_channel,
    apply,
    check_composition,
    complementary_output,
    compose,
    degrading_map,
    fc_channel,
)
from fcad.qmat import (
    DimensionMismatchError,
    basis_state,
    hermitian_eigenvalues,
    max_abs_diff,
    outer,
    random_density,
    random_pure,
)


class TestFcChannel:
    def test_ground_state_fixed(self):
        rho = outer(basis_state(4, 0))
        np.testing.assert_allclose(apply(fc_channel(0.4), rho), rho, atol=1e-15)

    def test_double_excitation_decays(self):
        eta = 0.3
        out = apply(fc_channel(eta), outer(basis_state(4, 3)))
        np.testing.assert_allclose(out, np.diag([1.0 - eta, 0.0, 0.0, eta]), atol=1e-15)

    def test_general_pure_output_entries(self):
        """Channel output of a general pure state matches the entrywise form:
        sqrt(eta) on the |11> coherences, eta on its population, and the
        leaked (1-eta)|d|^2 added to the |00> population."""
        rng = np.random.default_rng(8)
        psi = random_pure(4, rng)
        eta = 0.62
        a, b, c, d = psi
        out = apply(fc_channel(eta), outer(psi))
        expected = np.array(
            [
                [abs(a) ** 2 + (1 - eta) * abs(d) ** 2, a * b.conj(), a * c.conj(), math.sqrt(eta) * a * d.conj()],
                [b * a.conj(), abs(b) ** 2, b * c.conj(), math.sqrt(eta) * b * d.conj()],
                [c * a.conj(), c * b.conj(), abs(c) ** 2, math.sqrt(eta) * c * d.conj()],
                [math.sqrt(eta) * d * a.conj(), math.sqrt(eta) * d * b.conj(), math.sqrt(eta) * d * c.conj(), eta * abs(d) ** 2],
            ]
        )
        assert max_abs_diff(out, expected) < 1e-14

    def test_diagonal_action(self):
        eta = 0.7
        diag = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        out = apply(fc_channel(eta), diag)
        np.testing.assert_allclose(
            out, np.diag([0.4 + 0.3 * 0.1, 0.3, 0.2, 0.7 * 0.1]), atol=1e-15
        )

    def test_output_has_two_zero_eigenvalues(self):
        for i in range(25):
            rng = np.random.default_rng(np.random.SeedSequence([21, i]))
            psi = random_pure(4, rng)
            eigs = hermitian_eigenvalues(apply(fc_channel(float(rng.uniform())), outer(psi)))
            assert eigs[2] < 1e-10 and eigs[3] < 1e-10


class TestApplyAndCompose:
    def test_apply_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            apply(fc_channel(0.5), np.eye(2) / 2)

    def test_composition_semigroup(self):
        assert check_composition(100, seed=0) < 1e-12

    def test_compose_with_identity(self):
        ch = fc_channel(0.3)
        rho = random_density(4, 2)
        assert max_abs_diff(
            apply(compose(fc_channel(1.0), ch), rho), apply(ch, rho)
        ) < 1e-15

    def test_compose_zero_transmissivity(self):
        rho = random_density(4, 3)
        assert max_abs_diff(
            apply(compose(fc_channel(0.0), fc_channel(1.0)), rho), apply(fc_channel(0.0), rho)
        ) < 1e-15

    def test_compose_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            compose(QuantumChannel(np.eye(2)[None]), fc_channel(0.5))

    def test_trace_preservation_all_channels(self):
        channels = [fc_channel(0.3), degrading_map(0.7)]
        for ch in channels:
            for i in range(25):
                rho = random_density(ch.dim_in, np.random.SeedSequence([77, i]))
                assert abs(np.trace(apply(ch, rho)).real - 1.0) < 1e-12

    def test_completeness_validation(self):
        with pytest.raises(ValueError):
            QuantumChannel(np.eye(2)[None] * 0.5)

    @pytest.mark.parametrize("kraus", [np.eye(2), np.eye(2)[None, None], np.ones(3)])
    def test_kraus_array_must_be_3d(self, kraus):
        with pytest.raises(DimensionMismatchError, match="shape"):
            QuantumChannel(kraus)

    def test_dimensions_read_off_the_shape(self):
        """A (1, 4, 2) isometry maps qubit states into 4 dimensions."""
        embed = np.zeros((1, 4, 2))
        embed[0, 0, 0] = embed[0, 3, 1] = 1.0
        ch = QuantumChannel(embed)
        assert (ch.dim_in, ch.dim_out) == (2, 4)
        out = apply(ch, np.array([[0.25, 0.5], [0.5, 0.75]]))
        np.testing.assert_array_equal(out, [[0.25, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.75]])
        with pytest.raises(DimensionMismatchError):
            apply(ch, np.eye(4) / 4)

    def test_compose_is_every_pair_of_kraus_products(self):
        """compose's Kraus array is K_a L_b for a in after, b in before, in that order."""
        after, before = fc_channel(0.3), _corner_collapse_channel()
        expected = [ka @ kb for ka in after.kraus for kb in before.kraus]
        np.testing.assert_array_equal(compose(after, before).kraus, expected)


class TestComplementaryOutput:
    def test_ground_state(self):
        rho = outer(basis_state(4, 0))
        np.testing.assert_allclose(complementary_output(0.3, rho), rho, atol=1e-15)

    def test_double_excitation(self):
        eta = 0.3
        out = complementary_output(eta, outer(basis_state(4, 3)))
        np.testing.assert_allclose(out, np.diag([eta, 0.0, 0.0, 1.0 - eta]), atol=1e-15)

    def test_matches_dilation(self):
        """Environment state equals the system-traced dilated evolution."""
        for i in range(50):
            rng = np.random.default_rng(np.random.SeedSequence([55, i]))
            eta = float(rng.uniform())
            rho = random_density(4, rng)
            ks = fc_channel(eta).kraus
            isometry = np.zeros((16, 4), dtype=complex)
            for env_index, k in zip((0, 3), ks):
                isometry += np.kron(k, basis_state(4, env_index).reshape(4, 1))
            dilated = isometry @ rho @ isometry.conj().T
            assert max_abs_diff(
                partial_trace(dilated, [4, 4], [1]), complementary_output(eta, rho)
            ) < 1e-12

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            complementary_output(0.5, np.eye(2) / 2)

    def test_stack_matches_members(self):
        """A (..., 4, 4) stack gives what each member gives alone."""
        stack = np.array([random_density(4, np.random.SeedSequence([57, i])) for i in range(6)]).reshape(2, 3, 4, 4)
        out = complementary_output(0.6, stack)
        assert out.shape == (2, 3, 4, 4)
        for idx in np.ndindex(2, 3):
            np.testing.assert_allclose(out[idx], complementary_output(0.6, stack[idx]), rtol=0, atol=1e-15)


class TestDegradingMap:
    def test_corner_collapse_matches_elementwise_table(self):
        """The ancilla construction reduces to the entrywise map keeping the
        |00>/|11> corner and folding the middle populations into |00>."""
        collapse = _corner_collapse_channel()
        for i in range(25):
            rho = random_density(4, np.random.SeedSequence([91, i]))
            out = apply(collapse, rho)
            expected = np.zeros((4, 4), dtype=complex)
            expected[0, 0] = rho[0, 0] + rho[1, 1] + rho[2, 2]
            expected[3, 3] = rho[3, 3]
            expected[0, 3] = rho[0, 3]
            expected[3, 0] = rho[3, 0]
            assert max_abs_diff(out, expected) < 1e-14

    @pytest.mark.parametrize("eta", [0.5, 0.7, 1.0])
    def test_degrades_to_environment(self, eta):
        ch = fc_channel(eta)
        dmap = degrading_map(eta)
        for i in range(100):
            rho = random_density(4, np.random.SeedSequence([61, i]))
            assert max_abs_diff(
                apply(dmap, apply(ch, rho)), complementary_output(eta, rho)
            ) < 1e-12

    def test_rejects_low_eta(self):
        with pytest.raises(EtaOutOfRangeError):
            degrading_map(0.49)

    def test_bell_state_eigenvalues(self):
        out = apply(fc_channel(0.5), outer(bell_phi_plus()))
        eigs = hermitian_eigenvalues(out)
        np.testing.assert_allclose(eigs[:2], [0.9330127018922193, 0.0669872981077807], atol=1e-12)
