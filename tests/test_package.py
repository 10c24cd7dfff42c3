import math

import numpy as np
import pytest

import fcad
from fcad import capacities, channels, covariance, entropy, optimizer, qmat


@pytest.mark.parametrize("module", [capacities, channels, covariance, entropy, optimizer, qmat])
def test_package_exports_each_module_all(module):
    for name in module.__all__:
        assert getattr(fcad, name) is getattr(module, name), name


def test_removed_names_are_gone():
    for name in ("kron", "partial_trace"):
        assert not hasattr(fcad, name)
        assert not hasattr(qmat, name)
    for name in ("check_settings", "MIN_COARSE_STEP"):
        assert not hasattr(fcad, name)
        assert not hasattr(optimizer, name)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: optimizer.SimplexPoint(math.nan, 0.5, 0.0), ValueError, "alpha must be nonnegative"),
        (lambda: optimizer.SimplexPoint(0.5, 0.25, math.nan), ValueError, "delta must be nonnegative"),
        (lambda: channels.QuantumChannel(np.full((1, 2, 2), np.nan)), ValueError, "completeness"),
        (lambda: entropy.Ensemble([1.0], [[np.nan, 0.0, 0.0, 0.0]]), ValueError, "normalized"),
        (lambda: entropy.Ensemble([np.nan], [[1.0, 0.0, 0.0, 0.0]]), ValueError, "nonnegative"),
        (lambda: qmat.density_eigenvalues(np.full((4, 4), np.nan)), qmat.NotDensityMatrixError, "Hermitian"),
        (lambda: qmat.hermitian_eigenvalues(np.full((2, 2), np.nan)), qmat.NonHermitianError, "Hermitian"),
    ],
    ids=["simplex_alpha", "simplex_delta", "channel", "ensemble_state", "ensemble_prob", "density", "hermitian"],
)
def test_validators_reject_nan(build, error, message):
    """Each check fails on NaN instead of letting it through."""
    with pytest.raises(error, match=message):
        build()
