import numpy as np
import pytest

from fcad.channels import EtaOutOfRangeError
from fcad.covariance import (
    check_covariance,
    check_degradability,
    check_kraus_commutation,
    symmetry_ops,
)
from fcad.qmat import basis_state, max_abs_diff


class TestSymmetryOps:
    def test_names(self):
        assert [op.name for op in symmetry_ops()] == ["R1", "R2", "R3", "SWAP"]

    def test_r1_matrix(self):
        r1 = symmetry_ops()[0].matrix
        np.testing.assert_allclose(r1, np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_r3_matrix(self):
        r3 = symmetry_ops()[2].matrix
        np.testing.assert_allclose(r3, np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_swap_action(self):
        swap = symmetry_ops()[3].matrix
        np.testing.assert_allclose(swap @ basis_state(4, 1), basis_state(4, 2))

    def test_built_once_and_read_only(self):
        first, second = symmetry_ops(), symmetry_ops()
        for a, b in zip(first, second):
            assert a.matrix is b.matrix
            assert not a.matrix.flags.writeable
            with pytest.raises(ValueError):
                a.matrix[0, 0] = 2.0

    def test_involutive_unitaries(self):
        for op in symmetry_ops():
            u = op.matrix
            assert max_abs_diff(u @ u.conj().T, np.eye(4)) < 1e-12
            assert max_abs_diff(u @ u, np.eye(4)) < 1e-12


class TestCovariance:
    def test_full_grid(self):
        """All four covariance identities hold on an eta grid with random
        mixed states."""
        for op in symmetry_ops():
            for eta in np.linspace(0.0, 1.0, 11):
                assert check_covariance(float(eta), op, n_samples=100, seed=3) < 1e-12

    def test_specific_points(self):
        ops = {op.name: op for op in symmetry_ops()}
        assert check_covariance(0.3, ops["R1"], n_samples=100, seed=0) < 1e-12
        assert check_covariance(0.9, ops["SWAP"], n_samples=100, seed=0) < 1e-12


class TestDegradability:
    @pytest.mark.parametrize("eta", np.linspace(0.50, 1.0, 11).tolist())
    def test_grid(self, eta):
        assert check_degradability(float(eta), n_samples=100, seed=5) < 1e-12

    def test_rejected_below_half(self):
        with pytest.raises(EtaOutOfRangeError):
            check_degradability(0.4, n_samples=5, seed=0)


class TestKrausCommutation:
    def test_relation_names_and_order(self):
        assert list(check_kraus_commutation()) == [
            "B0_commutes_R1", "B1_anticommutes_R1", "B0_commutes_R2", "B1_anticommutes_R2",
            "B0_commutes_R3", "B1_commutes_R3", "B0_commutes_SWAP", "B1_commutes_SWAP",
        ]

    def test_all_relations_tight(self):
        devs = check_kraus_commutation()
        assert devs, "expected at least one relation"
        for name, dev in devs.items():
            assert dev < 1e-14, f"{name} deviates by {dev}"
