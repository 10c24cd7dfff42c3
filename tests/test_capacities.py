import math
import tracemalloc

import numpy as np
import pytest

from fcad import capacities
from fcad.capacities import (
    CapacityPoint,
    ZeroSubspaceWeightError,
    c1,
    c1_lower_bounds,
    c1_via_optimization,
    c_ad1,
    c_ad1_search,
    capacity_point,
    ce_capacity,
    ce_value,
    chi_a_value,
    chi_b_value,
    ensemble_a,
    ensemble_b,
    entanglement_B,
    p_opt,
    q_capacity,
    q_value,
    verify_entangled_pair_inequality,
    verify_state_splitting_inequality,
    verify_symmetrization_chain,
)
from fcad.channels import check_composition, fc_channel
from fcad.covariance import check_covariance, check_degradability, symmetry_ops
from fcad.entropy import coherent_info, h2, holevo, mutual_info, vn_entropy
from fcad.optimizer import SimplexPoint

LOG2_3 = math.log2(3.0)
H2_TWO_THIRDS = 0.9182958340544896


def random_simplex_point(rng) -> SimplexPoint:
    alpha, beta1, beta2, delta = rng.dirichlet(np.ones(4))
    return SimplexPoint(float(alpha), float(0.5 * (beta1 + beta2)), float(delta))


class TestEnsembleObjectives:
    def test_chi_a_noiseless_uniform(self):
        assert abs(chi_a_value(0.25, 0.25, 1.0) - 2.0) < 1e-12

    def test_chi_a_zero_transmissivity(self):
        pt = SimplexPoint(0.3, 0.2, 0.3)
        expected = vn_entropy(np.diag([0.6, 0.2, 0.2, 0.0]))
        assert abs(chi_a_value(pt.alpha, pt.delta, 0.0) - expected) < 1e-12

    def test_chi_b_noiseless_uniform(self):
        assert abs(chi_b_value(0.25, 0.25, 1.0) - 2.0) < 1e-12

    def test_chi_b_no_damped_weight_reduces_to_chi_a(self):
        pt = SimplexPoint.from_alpha_delta(0.4, 0.0)
        assert abs(chi_b_value(pt.alpha, pt.delta, 0.5) - chi_a_value(pt.alpha, pt.delta, 0.5)) < 1e-12

    def test_chi_a_matches_holevo_on_explicit_ensemble(self):
        for i in range(25):
            rng = np.random.default_rng(np.random.SeedSequence([71, i]))
            pt = random_simplex_point(rng)
            eta = float(rng.uniform())
            assert abs(chi_a_value(pt.alpha, pt.delta, eta) - holevo(fc_channel(eta), ensemble_a(pt))) < 1e-12

    def test_chi_b_matches_holevo_on_explicit_ensemble(self):
        for i in range(25):
            rng = np.random.default_rng(np.random.SeedSequence([73, i]))
            pt = random_simplex_point(rng)
            eta = float(rng.uniform())
            assert abs(chi_b_value(pt.alpha, pt.delta, eta) - holevo(fc_channel(eta), ensemble_b(pt))) < 1e-12

    def test_chi_b_uniform_point_value(self):
        pt = SimplexPoint(0.25, 0.25, 0.25)
        assert abs(chi_b_value(pt.alpha, pt.delta, 0.5) - holevo(fc_channel(0.5), ensemble_b(pt))) < 1e-12


class TestDiagonalFunctionals:
    def test_q_objective_matches_coherent_info(self):
        """Closed form equals the eigenvalue route on diagonal inputs."""
        for i in range(100):
            rng = np.random.default_rng(np.random.SeedSequence([79, i]))
            pt = random_simplex_point(rng)
            rho = np.diag([pt.alpha, pt.beta, pt.beta, pt.delta]).astype(complex)
            for eta in np.linspace(0.0, 1.0, 10):
                assert abs(q_value(pt.alpha, pt.delta, float(eta)) - coherent_info(float(eta), rho)) < 1e-10

    def test_ce_objective_matches_mutual_info(self):
        for i in range(100):
            rng = np.random.default_rng(np.random.SeedSequence([83, i]))
            pt = random_simplex_point(rng)
            rho = np.diag([pt.alpha, pt.beta, pt.beta, pt.delta]).astype(complex)
            for eta in np.linspace(0.0, 1.0, 10):
                assert abs(ce_value(pt.alpha, pt.delta, float(eta)) - mutual_info(float(eta), rho)) < 1e-10

    def test_q_objective_noiseless_uniform(self):
        assert abs(q_value(0.25, 0.25, 1.0) - 2.0) < 1e-12

    def test_q_objective_no_decay_weight(self):
        pt = SimplexPoint.from_alpha_delta(0.2, 0.0)
        assert abs(q_value(pt.alpha, pt.delta, 0.7) - vn_entropy(np.diag([0.2, 0.4, 0.4, 0.0]))) < 1e-12

    def test_ce_objective_noiseless_uniform(self):
        assert abs(ce_value(0.25, 0.25, 1.0) - 4.0) < 1e-12

    def test_ce_objective_superdense_coding_point(self):
        pt = SimplexPoint(1.0 / 3.0, 1.0 / 3.0, 0.0)
        assert abs(ce_value(pt.alpha, pt.delta, 0.0) - 2.0 * LOG2_3) < 1e-12


class TestCad1AndPopt:
    def test_noiseless(self):
        assert abs(c_ad1(1.0) - 1.0) < 1e-9

    def test_fully_damped(self):
        assert c_ad1(0.0) == 0.0

    @pytest.mark.parametrize("eta", np.linspace(0.0, 1.0, 21).tolist())
    def test_grid_cross_check(self, eta):
        """At least the maximum of a 10^6-interval grid, and at most round-off above it."""
        p = np.arange(10**6 + 1) / 10**6
        root = np.sqrt(np.maximum(0.0, 1.0 - 4.0 * eta * (1.0 - eta) * p * p))
        fine = float(np.max(h2(eta * p) - h2(0.5 * (1.0 + root))))
        assert fine - 1e-15 <= c_ad1_search(eta).value <= fine + 1e-11

    def test_p_opt_endpoints(self):
        assert abs(p_opt(0.0) - 1.0 / 3.0) < 1e-9
        assert abs(p_opt(1.0) - 0.5) < 1e-9

    def test_p_opt_formula_consistency(self):
        eta = 0.5
        assert abs(p_opt(eta) - 1.0 / (1.0 + 2.0 ** (1.0 - c_ad1(eta)))) < 1e-12

    @pytest.mark.parametrize("eta", np.linspace(0.0, 1.0, 101).tolist())
    def test_direct_sum_identity(self, eta):
        """log2(2 + 2^C_ad1) is the optimally weighted two-block formula."""
        cad = c_ad1(eta)
        w = 1.0 / (1.0 + 2.0 ** (1.0 - cad))
        assert abs(c1(eta).value - (1.0 + float(h2(w)) - w * (1.0 - cad))) < 1e-12
        assert abs(p_opt(eta) - w) < 1e-12

    def test_p_opt_range(self):
        for eta in np.linspace(0.0, 1.0, 11):
            assert 1.0 / 3.0 - 1e-9 <= p_opt(float(eta)) <= 0.5 + 1e-9


class TestC1:
    def test_fully_damped_value(self):
        assert abs(c1(0.0).value - LOG2_3) < 1e-6

    def test_noiseless_value(self):
        assert abs(c1(1.0).value - 2.0) < 1e-4

    def test_two_route_agreement(self):
        for eta in (0.0, 0.3, 0.6, 1.0):
            assert abs(c1(eta).value - c1_via_optimization(eta).value) < 1e-4

    def test_optimizer_coefficients_noiseless(self):
        point = c1_via_optimization(1.0).point
        for value in (point.alpha, point.beta, point.delta):
            assert abs(value - 0.25) < 1e-3

    def test_degenerate_maximizer_at_zero(self):
        result = c1_via_optimization(0.0)
        assert abs(result.value - LOG2_3) < 1e-6
        assert abs(result.point.alpha + result.point.delta - 1.0 / 3.0) < 1e-4

    def test_lower_bounds_order_and_endpoints(self):
        lb1_zero, lb2_zero = c1_lower_bounds(0.0)
        assert abs(lb1_zero - LOG2_3) < 1e-6
        assert abs(lb2_zero - LOG2_3) < 1e-6
        lb1_one, lb2_one = c1_lower_bounds(1.0)
        assert abs(lb1_one - 2.0) < 1e-6
        assert abs(lb2_one - 2.0) < 1e-6
        lb1_mid, lb2_mid = c1_lower_bounds(0.5)
        assert lb2_mid > lb1_mid + 1e-3

    def test_bounds_sandwich(self):
        for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
            lb1, lb2 = c1_lower_bounds(eta)
            closed = c1(eta).value
            assert lb1 >= LOG2_3 - 1e-9
            assert lb2 >= lb1 - 1e-9
            assert lb2 <= closed + 1e-6


class TestQCapacity:
    def test_plateau_below_half(self):
        for eta in np.arange(0.0, 0.5, 0.05):
            assert abs(q_capacity(float(eta)).value - LOG2_3) < 1e-9

    def test_boundary_continuity(self):
        assert abs(q_capacity(0.5).value - LOG2_3) < 1e-4

    def test_noiseless(self):
        result = q_capacity(1.0)
        assert abs(result.value - 2.0) < 1e-9
        for value in (result.point.alpha, result.point.beta, result.point.delta):
            assert abs(value - 0.25) < 1e-3

    def test_achieving_point_below_half(self):
        result = q_capacity(0.3)
        rho = np.diag([result.point.alpha, result.point.beta, result.point.beta, result.point.delta])
        assert abs(coherent_info(0.3, rho.astype(complex)) - result.value) < 1e-9


class TestCeCapacity:
    def test_fully_damped(self):
        assert abs(ce_capacity(0.0).value - 2.0 * LOG2_3) < 1e-4

    def test_noiseless(self):
        result = ce_capacity(1.0)
        assert abs(result.value - 4.0) < 1e-4
        for value in (result.point.alpha, result.point.beta, result.point.delta):
            assert abs(value - 0.25) < 1e-3

    def test_sandwiched_between_q_and_four(self):
        value = ce_capacity(0.5).value
        assert q_capacity(0.5).value <= value <= 4.0


class TestEntanglement:
    def test_balanced_pair_is_maximally_entangled(self):
        e_phi, e_avg = entanglement_B(SimplexPoint(0.25, 0.25, 0.25))
        assert abs(e_phi - 1.0) < 1e-12
        assert abs(e_avg - 0.5) < 1e-12

    def test_product_state_has_none(self):
        e_phi, e_avg = entanglement_B(SimplexPoint.from_alpha_delta(0.4, 0.0))
        assert e_phi == 0.0
        assert e_avg == 0.0

    def test_lopsided_pair(self):
        e_phi, e_avg = entanglement_B(SimplexPoint.from_alpha_delta(0.2, 0.1))
        assert abs(e_phi - H2_TWO_THIRDS) < 1e-9
        assert abs(e_avg - 0.3 * H2_TWO_THIRDS) < 1e-9

    def test_lopsided_pair_against_reduced_state_entropy(self):
        pt = SimplexPoint.from_alpha_delta(0.2, 0.1)
        marginal = np.diag([pt.alpha, pt.delta]).astype(complex) / (pt.alpha + pt.delta)
        e_phi, _ = entanglement_B(pt)
        assert abs(e_phi - vn_entropy(marginal)) < 1e-12

    def test_rejects_empty_block(self):
        with pytest.raises(ZeroSubspaceWeightError):
            entanglement_B(SimplexPoint.from_alpha_delta(0.0, 0.0))


class TestCapacityPoint:
    def test_orderings_on_grid(self):
        for eta in (0.0, 0.4, 0.8, 1.0):
            pt = capacity_point(eta)
            assert pt.q <= pt.c1 + 1e-6
            assert pt.c1 <= pt.ce + 1e-9
            assert pt.chi_lb1 <= pt.chi_lb2 + 1e-9
            assert pt.chi_lb2 <= pt.c1 + 1e-6

    def test_two_route_field_agreement(self):
        pt = capacity_point(0.55)
        assert abs(pt.c1 - pt.c1_opt) < 1e-4
        assert pt.chi_lb2 == pt.c1_opt

    def test_invariant_enforced(self):
        good = capacity_point(0.5)
        with pytest.raises(ValueError):
            CapacityPoint(
                eta=good.eta,
                c1=3.9,
                c1_opt=good.c1_opt,
                q=good.q,
                ce=1.0,
                chi_lb1=good.chi_lb1,
                coeffs_c1=good.coeffs_c1,
                coeffs_q=good.coeffs_q,
                coeffs_ce=good.coeffs_ce,
                p_opt=good.p_opt,
                c_ad1=good.c_ad1,
                e_phi=good.e_phi,
                e_avg=good.e_avg,
            )


class TestInequalityVerifiers:
    def test_state_splitting(self):
        report = verify_state_splitting_inequality(20000, seed=0)
        assert report.passed
        assert report.min_margin >= -1e-10
        assert report.equality_max_abs <= 1e-12

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize(
        "n_samples",
        [1, 999, 1000, 1001, capacities._SPLIT_CHUNK - 1, capacities._SPLIT_CHUNK, capacities._SPLIT_CHUNK + 1,
         3 * capacities._SPLIT_CHUNK + 7],
    )
    def test_state_splitting_chunks_match_one_draw(self, n_samples, seed):
        """Each chunk is one draw of its normals, then its etas, from its own child stream, and the
        boundary etas follow chunk 0's etas; the scan reads that to the last bit."""
        chunk = capacities._SPLIT_CHUNK
        a2, b2, d2, eta = [], [], [], []
        for c, start in enumerate(range(0, n_samples, chunk)):
            rng = np.random.default_rng(np.random.SeedSequence([seed, c]))
            g = rng.standard_normal((min(chunk, n_samples - start), 4))
            norm2 = np.sum(g * g, axis=1)
            a2.append(g[:, 0] ** 2 / norm2)
            b2.append((g[:, 1] ** 2 + g[:, 2] ** 2) / (2.0 * norm2))
            d2.append(g[:, 3] ** 2 / norm2)
            eta.append(rng.uniform(0.0, 1.0, len(g)))
            if c == 0:
                n_edge = min(n_samples, 1000)
                eta_edge = rng.uniform(0.0, 1.0, n_edge)
        a2, b2, d2, eta = (np.concatenate(x) for x in (a2, b2, d2, eta))
        margins = capacities._splitting_margin(a2, b2, d2, eta)
        a2, b2, d2 = a2[:n_edge], b2[:n_edge], d2[:n_edge]
        edge_margins = [
            capacities._splitting_margin(a2, b2, d2, 1.0),
            capacities._splitting_margin(a2 + 2.0 * b2, np.zeros(n_edge), d2, eta_edge),
            capacities._splitting_margin(a2 + d2, b2, np.zeros(n_edge), eta_edge),
        ]

        report = verify_state_splitting_inequality(n_samples, seed=seed)
        worst = int(np.argmin(margins))
        assert report.min_margin == margins[worst]
        assert report.worst_index == worst
        assert report.worst_eta == eta[worst]
        assert report.equality_max_abs == max(np.max(np.abs(m)) for m in edge_margins)
        assert report.passed

    @pytest.mark.parametrize("n_samples", [100_000, 1_000_000])
    def test_state_splitting_memory_does_not_grow_with_samples(self, n_samples):
        tracemalloc.start()
        try:
            verify_state_splitting_inequality(n_samples, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize(
        "check",
        [
            pytest.param(lambda n: check_covariance(0.5, symmetry_ops()[0], n), id="covariance"),
            pytest.param(lambda n: check_degradability(0.7, n), id="degradability"),
            pytest.param(check_composition, id="composition"),
            pytest.param(verify_symmetrization_chain, id="symmetrization"),
            pytest.param(verify_state_splitting_inequality, id="state_splitting"),
        ],
    )
    def test_samplers_need_a_sample(self, check, n):
        with pytest.raises(ValueError, match=f"^n_samples must be positive, got {n}$"):
            check(n)

    def test_entangled_pair(self):
        report = verify_entangled_pair_inequality()
        assert report.passed
        assert report.min_margin >= -1e-10
        assert report.equality_max_abs <= 1e-12

    def test_entangled_pair_interior_gap(self):
        """At x = 10 and eta = 1/2 the two sides are well separated."""
        x = 10.0
        lhs = float(h2(0.5))
        rhs = x * float(h2(0.5 * (1.0 + math.sqrt(1.0 - 1.0 / x**2))))
        assert lhs - rhs > 0.1


class TestSymmetrizationChain:
    def test_chain_never_decreases(self):
        report = verify_symmetrization_chain(40, seed=0)
        assert report.chain_passed and report.gain_passed
        assert all(m >= -1e-10 for m in report.min_step_margins.values())

    def test_separable_ensembles_gain_strictly(self):
        report = verify_symmetrization_chain(40, seed=1)
        assert report.min_separable_gain > 1e-9
