"""Shared oracles and fixtures for the test suite.

The closed-form eigenvalue oracle and the partial trace live here,
independent of the library code paths they are used to check.
"""

from __future__ import annotations

import math

import numpy as np

from fcad.qmat import DimensionMismatchError


def output_eigenvalues_closed_form(amplitudes, eta: float) -> np.ndarray:
    """Eigenvalues of the correlated channel's output of a pure state,
    from the closed form: two zeros plus (1 +- sqrt(1 - z^2))/2 with
    z^2 = 1 - {|a|^4 + 2|a|^2 (|b|^2+|c|^2+|d|^2) + [|b|^2+|c|^2-|d|^2(1-2 eta)]^2}.
    """
    a2, b2, c2, d2 = (abs(x) ** 2 for x in amplitudes)
    z2 = 1.0 - (a2**2 + 2.0 * a2 * (b2 + c2 + d2) + (b2 + c2 - d2 * (1.0 - 2.0 * eta)) ** 2)
    root = math.sqrt(max(0.0, 1.0 - z2))
    return np.array([0.5 * (1.0 + root), 0.5 * (1.0 - root), 0.0, 0.0])


def bell_phi_plus() -> np.ndarray:
    """(|00> + |11>)/sqrt(2)."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / math.sqrt(2.0)
    return psi


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Reduced matrix over the subsystems listed in ``keep``.

    ``dims`` lists the subsystem dimensions in tensor order; kept
    subsystems stay in their original order.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if rho.ndim != 2 or rho.shape != (total, total):
        raise DimensionMismatchError(
            f"matrix shape {rho.shape} does not match subsystem dims {dims}"
        )
    keep = sorted(set(int(k) for k in keep))
    if not keep or any(k < 0 or k >= len(dims) for k in keep):
        raise DimensionMismatchError(f"invalid subsystem selection {keep} for dims {dims}")
    tensor = rho.reshape(dims + dims)
    remaining = list(range(len(dims)))
    for sub in sorted(set(range(len(dims))) - set(keep), reverse=True):
        axis = remaining.index(sub)
        tensor = np.trace(tensor, axis1=axis, axis2=axis + len(remaining))
        remaining.pop(axis)
    kept_dim = int(np.prod([dims[k] for k in keep]))
    return tensor.reshape(kept_dim, kept_dim)
