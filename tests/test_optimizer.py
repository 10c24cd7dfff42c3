import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcad.capacities import chi_b_value, q_value
from fcad.entropy import h2, xlog2
from fcad import optimizer
from fcad.optimizer import COARSE_STEP, SimplexPoint, maximize_1d, maximize_simplex, scan_simplex

LOG2_3 = math.log2(3.0)


def shannon_value(alpha, delta):
    beta = np.maximum(0.0, 0.5 * (1.0 - alpha - delta))
    return -xlog2(alpha) - 2.0 * xlog2(beta) - xlog2(delta)


def objectives(value, *args):
    """Scalar scorer and array objective of ``value(alpha, delta, *args)``."""
    return lambda pt: float(value(pt.alpha, pt.delta, *args)), lambda a, d: value(a, d, *args)


class TestSimplexPoint:
    def test_from_alpha_delta(self):
        pt = SimplexPoint.from_alpha_delta(0.2, 0.3)
        assert pt.beta == pytest.approx(0.25)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SimplexPoint(-0.1, 0.5, 0.1)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            SimplexPoint(0.5, 0.5, 0.5)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_from_alpha_delta_always_valid(self, alpha, frac):
        delta = (1.0 - alpha) * frac
        pt = SimplexPoint.from_alpha_delta(alpha, delta)
        assert pt.alpha + 2.0 * pt.beta + pt.delta == pytest.approx(1.0, abs=1e-12)


class TestMaximizeSimplex:
    def test_shannon_entropy_peak(self):
        result = maximize_simplex(*objectives(shannon_value))
        assert abs(result.value - 2.0) < 1e-12
        assert result.point.alpha == pytest.approx(0.25, abs=1e-7)
        assert result.point.delta == pytest.approx(0.25, abs=1e-7)

    def test_coherent_info_noiseless(self):
        result = maximize_simplex(*objectives(q_value, 1.0))
        assert abs(result.value - 2.0) < 1e-12

    def test_coherent_info_low_transmissivity_boundary(self):
        """Below eta = 1/2 the maximum sits on the delta = 0 face at log2(3)."""
        result = maximize_simplex(*objectives(q_value, 0.3))
        assert abs(result.value - LOG2_3) < 1e-4
        assert result.point.delta < 1e-7

    def test_refinement_is_monotone(self):
        objective, grid_objective = objectives(chi_b_value, 0.37)
        coarse_only = scan_simplex(grid_objective, COARSE_STEP)
        refined = maximize_simplex(objective, grid_objective)
        assert refined.value >= coarse_only.value

    def test_deterministic(self):
        pair = objectives(chi_b_value, 0.61)
        a = maximize_simplex(*pair)
        b = maximize_simplex(*pair)
        assert a == b

    def test_value_matches_point(self):
        objective, grid_objective = objectives(chi_b_value, 0.8)
        result = maximize_simplex(objective, grid_objective)
        assert abs(result.value - objective(result.point)) < 1e-12

    def test_scalar_objective_only_scores_the_result(self):
        eta = 0.44
        calls = []

        def objective(pt):
            calls.append(pt)
            return float(chi_b_value(pt.alpha, pt.delta, eta))

        result = maximize_simplex(objective, grid_objective=lambda a, d: chi_b_value(a, d, eta))
        assert calls == [result.point]

    @pytest.mark.parametrize("block", [1 << 16, 7])
    def test_flat_scan_visits_the_triangle_row_major(self, block, monkeypatch):
        monkeypatch.setattr(optimizer, "_SCAN_BLOCK", block)
        seen = []

        def grid_objective(a, d):
            seen.extend(zip(a.tolist(), d.tolist()))
            return np.zeros(a.size)

        result = scan_simplex(grid_objective, step=0.1)
        assert seen == [(i * 0.1, j * 0.1) for i in range(11) for j in range(11 - i)]
        assert result.evaluations == len(seen) == 66
        assert (result.point.alpha, result.point.delta) == (0.0, 0.0)

    def test_coarse_grid_stays_inside_the_simplex(self):
        """1/0.34 rounds up to 3, and 3 x 0.34 would leave the triangle."""
        seen = []

        def grid_objective(a, d):
            seen.extend((a + d).tolist())
            return a + d

        result = scan_simplex(grid_objective, step=0.34)
        assert max(seen) <= 1.0 + 1e-12
        assert result.value == pytest.approx(0.68)

    def test_agrees_with_flat_grid_oracle(self):
        """Coarse-and-refine matches the exhaustive 1e-4 grid in value."""
        rng = np.random.default_rng(2024)
        for eta in rng.uniform(0.0, 1.0, 5):
            eta = float(eta)
            fast = maximize_simplex(*objectives(chi_b_value, eta))
            flat = scan_simplex(lambda a, d: chi_b_value(a, d, eta), step=1e-4)
            assert abs(fast.value - flat.value) < 1e-4


class TestMaximize1d:
    def test_binary_entropy(self):
        result = maximize_1d(h2, 0.0, 1.0)
        assert abs(result.value - 1.0) < 1e-12
        assert abs(result.point - 0.5) < 1e-6

    def test_noiseless_damping_gain(self):
        gain = lambda p: h2(p) - h2(0.5 * (1.0 + np.sqrt(np.maximum(0.0, 1.0 - 0.0 * p * p))))
        result = maximize_1d(gain, 0.0, 1.0)
        assert abs(result.value - 1.0) < 1e-12

    def test_grid_cross_check_agreement(self):
        eta = 0.75

        def gain(p):
            root = np.sqrt(np.maximum(0.0, 1.0 - 4.0 * eta * (1.0 - eta) * p * p))
            return h2(eta * p) - h2(0.5 * (1.0 + root))

        search = maximize_1d(gain, 0.0, 1.0)
        fine_grid = float(np.max(gain(np.arange(100001) / 100000.0)))
        assert abs(search.value - fine_grid) < 1e-6

    def test_catches_non_unimodal(self):
        """The flat grid pass rescues a bimodal objective."""
        bumps = lambda x: -((x - 0.1) ** 2) * ((x - 0.9) ** 2)
        result = maximize_1d(bumps, 0.0, 1.0)
        assert result.value == pytest.approx(0.0, abs=1e-9)

    def test_requires_ordered_bracket(self):
        with pytest.raises(ValueError):
            maximize_1d(lambda x: x, 1.0, 0.0)

    def test_determinism(self):
        result_a = maximize_1d(h2, 0.0, 1.0)
        result_b = maximize_1d(h2, 0.0, 1.0)
        assert result_a == result_b

    def test_objective_sees_only_arrays(self):
        seen = []

        def objective(x):
            seen.append(x)
            return h2(x)

        result = maximize_1d(objective, 0.0, 1.0)
        assert seen and all(isinstance(x, np.ndarray) and x.ndim == 1 for x in seen)
        assert result.evaluations == sum(x.size for x in seen)

    @pytest.mark.parametrize("sign, edge", [(1.0, 1.0), (-1.0, 0.0)])
    def test_maximum_at_the_bracket_edge(self, sign, edge):
        result = maximize_1d(lambda x: sign * x, 0.0, 1.0)
        assert result.point == edge
        assert result.value == sign * edge

    def test_value_is_the_objective_at_the_point(self):
        gain = lambda p: h2(0.3 * p) - h2(0.5 * (1.0 + np.sqrt(1.0 - 0.84 * p * p)))
        result = maximize_1d(gain, 0.0, 1.0)
        assert result.value == gain(np.array([result.point]))[0]
