import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcad.channels import apply, fc_channel
from fcad.covariance import symmetry_ops
from fcad.entropy import (
    DomainError,
    Ensemble,
    coherent_info,
    entropy_exchange,
    entropy_exchange_purified,
    h2,
    holevo,
    mutual_info,
    vn_entropy,
    xlog2,
)
from fcad.qmat import NotDensityMatrixError, basis_state, density_eigenvalues, outer, random_density, random_pure

LOG2_3 = math.log2(3.0)


class TestH2:
    def test_half(self):
        assert h2(0.5) == 1.0

    def test_endpoints(self):
        assert h2(0.0) == 0.0
        assert h2(1.0) == 0.0

    def test_quarter(self):
        assert abs(h2(0.25) - 0.8112781244591328) < 1e-15

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_range(self, x):
        assert abs(h2(x) - h2(1.0 - x)) < 1e-12
        assert -1e-15 <= h2(x) <= 1.0 + 1e-15

    def test_domain_error(self):
        with pytest.raises(DomainError):
            h2(1.5)
        with pytest.raises(DomainError):
            h2(-0.1)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            h2(float("nan"))
        with pytest.raises(DomainError):
            h2(np.array([0.5, np.nan]))

    def test_array_input(self):
        np.testing.assert_allclose(h2(np.array([0.0, 0.5, 1.0])), [0.0, 1.0, 0.0])

    def test_xlog2_convention(self):
        assert xlog2(0.0) == 0.0
        assert xlog2(1.0) == 0.0


class TestVnEntropy:
    def test_maximally_mixed(self):
        assert abs(vn_entropy(np.eye(4) / 4) - 2.0) < 1e-12

    def test_pure_state(self):
        assert vn_entropy(outer(random_pure(4, 3))) < 1e-10

    def test_damped_uniform_diagonal(self):
        """Output of the uniform diagonal at eta = 1/2 has entropy
        -0.375 log 0.375 - 0.5 log 0.25 - 0.125 log 0.125."""
        out = apply(fc_channel(0.5), np.eye(4) / 4)
        assert abs(vn_entropy(out) - 1.9056390622295662) < 1e-12

    def test_rejects_non_density(self):
        with pytest.raises(NotDensityMatrixError):
            vn_entropy(np.eye(4))


class TestEnsemble:
    def test_average_state(self):
        ens = Ensemble([0.5, 0.5], [basis_state(4, 0), basis_state(4, 3)])
        np.testing.assert_allclose(ens.average_state(), np.diag([0.5, 0.0, 0.0, 0.5]))

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            Ensemble([0.7, 0.7], [basis_state(4, 0), basis_state(4, 1)])

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError):
            Ensemble([1.0], [2.0 * basis_state(4, 0)])

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            Ensemble([1.0], [basis_state(2, 0)])


class TestHolevo:
    def test_noiseless_orthonormal(self):
        ens = Ensemble(np.full(4, 0.25), np.eye(4))
        assert abs(holevo(fc_channel(1.0), ens) - 2.0) < 1e-12

    @pytest.mark.parametrize("eta", [0.0, 0.35, 1.0])
    def test_noiseless_triple(self, eta):
        """The three undamped basis states give log2(3) at any transmissivity."""
        ens = Ensemble(np.full(3, 1.0 / 3.0), np.eye(4)[:3])
        assert abs(holevo(fc_channel(eta), ens) - LOG2_3) < 1e-12

    def test_nonnegative_and_bounded(self):
        for i in range(20):
            rng = np.random.default_rng(np.random.SeedSequence([13, i]))
            probs = rng.dirichlet(np.ones(3))
            ens = Ensemble(probs, [random_pure(4, rng) for _ in probs])
            chi = holevo(fc_channel(float(rng.uniform())), ens)
            assert -1e-10 <= chi <= 2.0 + 1e-10


def random_stack(seed, n=30):
    rng = np.random.default_rng(seed)
    return np.array([random_density(4, rng) for _ in range(n)])


class TestStackedPath:
    """apply, density_eigenvalues and vn_entropy take a (N, 4, 4) stack and
    give what they give on each member alone."""

    def test_stack_matches_members(self):
        ch = fc_channel(0.37)
        stack = random_stack(53)
        out = apply(ch, stack)
        eigs = density_eigenvalues(out)
        entropies = vn_entropy(out)
        assert out.shape == (30, 4, 4) and eigs.shape == (30, 4) and entropies.shape == (30,)
        for k, rho in enumerate(stack):
            np.testing.assert_allclose(out[k], apply(ch, rho), rtol=0, atol=1e-15)
            np.testing.assert_allclose(eigs[k], density_eigenvalues(out[k]), rtol=0, atol=1e-15)
            assert abs(entropies[k] - vn_entropy(out[k])) < 1e-14

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[0.5, 0.1], [0.0, 0.5]]),  # not Hermitian
            np.diag([1.5, -0.5]),  # negative eigenvalue
            np.eye(2),  # trace 2
        ],
    )
    def test_one_bad_member_fails_the_stack(self, bad):
        stack = random_stack(59, 5)
        stack[3] = np.zeros((4, 4))
        stack[3][:2, :2] = bad
        with pytest.raises(NotDensityMatrixError):
            density_eigenvalues(stack)
        with pytest.raises(NotDensityMatrixError):
            vn_entropy(stack)

    def test_holevo_matches_per_state_loop(self):
        for i in range(50):
            rng = np.random.default_rng(np.random.SeedSequence([61, i]))
            ch = fc_channel(float(rng.uniform()))
            probs = rng.dirichlet(np.ones(6))
            probs[rng.uniform(size=6) < 0.3] = 0.0
            if probs.sum() == 0.0:
                probs[0] = 1.0
            probs /= probs.sum()
            states = [random_pure(4, rng) for _ in probs]
            avg = sum(p * outer(s) for p, s in zip(probs, states))
            oracle = vn_entropy(apply(ch, avg)) - sum(
                p * vn_entropy(apply(ch, outer(s))) for p, s in zip(probs, states) if p > 0.0
            )
            assert abs(holevo(ch, Ensemble(probs, states)) - oracle) < 1e-12


class TestEntropyExchange:
    def test_noiseless_state(self):
        assert entropy_exchange(0.6, outer(basis_state(4, 0))) < 1e-12

    def test_full_decay_state(self):
        assert abs(entropy_exchange(0.5, outer(basis_state(4, 3))) - 1.0) < 1e-12

    def test_dual_route_agreement(self):
        for i in range(100):
            rng = np.random.default_rng(np.random.SeedSequence([17, i]))
            eta = float(rng.uniform())
            rho = random_density(4, rng)
            assert abs(entropy_exchange(eta, rho) - entropy_exchange_purified(eta, rho)) < 1e-10

    def test_sign_flip_invariance(self):
        """The environment state ignores the sign flips, so the exchange
        entropy is unchanged under them."""
        for op in symmetry_ops():
            if op.name == "SWAP":
                continue
            for i in range(20):
                rng = np.random.default_rng(np.random.SeedSequence([19, i]))
                eta = float(rng.uniform())
                rho = random_density(4, rng)
                flipped = op.matrix @ rho @ op.matrix
                assert abs(entropy_exchange(eta, flipped) - entropy_exchange(eta, rho)) < 1e-12


class TestCoherentInfo:
    def test_noiseless_maximally_mixed(self):
        assert abs(coherent_info(1.0, np.eye(4) / 4) - 2.0) < 1e-12

    @pytest.mark.parametrize("eta", [0.0, 0.5, 0.9])
    def test_noiseless_subspace_state(self, eta):
        rho = np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex) / 3.0
        assert abs(coherent_info(eta, rho) - LOG2_3) < 1e-12

    def test_range(self):
        for i in range(20):
            rng = np.random.default_rng(np.random.SeedSequence([23, i]))
            value = coherent_info(float(rng.uniform()), random_density(4, rng))
            assert -2.0 - 1e-9 <= value <= 2.0 + 1e-9

    def test_data_processing(self):
        """Running extra damping after eta = 1/2 cannot raise the coherent
        information."""
        for i in range(25):
            rng = np.random.default_rng(np.random.SeedSequence([29, i]))
            eta2 = float(rng.uniform())
            rho = random_density(4, rng)
            assert coherent_info(0.5 * eta2, rho) <= coherent_info(0.5, rho) + 1e-10

    def test_concavity_spot_check(self):
        for i in range(25):
            rng = np.random.default_rng(np.random.SeedSequence([37, i]))
            eta = float(rng.uniform(0.5, 1.0))
            lam = float(rng.uniform())
            rho1 = random_density(4, rng)
            rho2 = random_density(4, rng)
            mix = lam * rho1 + (1.0 - lam) * rho2
            assert coherent_info(eta, mix) >= (
                lam * coherent_info(eta, rho1) + (1.0 - lam) * coherent_info(eta, rho2) - 1e-10
            )


class TestMutualInfo:
    def test_noiseless_maximally_mixed(self):
        assert abs(mutual_info(1.0, np.eye(4) / 4) - 4.0) < 1e-12

    def test_pure_input_reduces_to_coherent_info(self):
        rho = outer(random_pure(4, 41))
        eta = 0.3
        assert abs(mutual_info(eta, rho) - coherent_info(eta, rho)) < 1e-10

    def test_fully_damped_noiseless_subspace(self):
        rho = np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex) / 3.0
        assert abs(mutual_info(0.0, rho) - 2.0 * LOG2_3) < 1e-12

    def test_nonnegative(self):
        for i in range(20):
            rng = np.random.default_rng(np.random.SeedSequence([43, i]))
            assert mutual_info(float(rng.uniform()), random_density(4, rng)) >= -1e-10


class TestSymmetrizedHolevo:
    def test_sign_flip_symmetrization_never_hurts(self):
        """Replacing an ensemble by its sign-flip orbit cannot lower the
        Holevo quantity."""
        flips = [op.matrix for op in symmetry_ops() if op.name != "SWAP"]
        for i in range(50):
            rng = np.random.default_rng(np.random.SeedSequence([47, i]))
            eta = float(rng.uniform())
            probs = rng.dirichlet(np.ones(4))
            states = [random_pure(4, rng) for _ in probs]
            ens = Ensemble(probs, states)
            symmetrized = Ensemble(
                np.repeat(probs / 4.0, 4), [v for s in states for v in [s] + [u @ s for u in flips]]
            )
            ch = fc_channel(eta)
            assert holevo(ch, symmetrized) >= holevo(ch, ens) - 1e-10
