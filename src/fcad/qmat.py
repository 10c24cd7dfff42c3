"""Small dense complex linear algebra for two-qubit channel calculations.

States are 1-D complex numpy arrays, operators and density matrices square
2-D ones, or stacks of either along leading axes.  All dimensions stay tiny
(at most 32), so everything is dense and eager.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "NonHermitianError",
    "NotDensityMatrixError",
    "basis_state",
    "dag",
    "density_eigenvalues",
    "hermitian_eigenvalues",
    "max_abs_diff",
    "outer",
    "purify",
    "random_density",
    "random_pure",
]

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
NEGATIVE_EIG_TOL = -1e-9


class DimensionMismatchError(ValueError):
    """Operand dimensions are incompatible."""


class NonHermitianError(ValueError):
    """A matrix required to be Hermitian is not."""


class NotDensityMatrixError(ValueError):
    """A matrix fails the density-matrix checks (Hermitian, PSD, unit trace)."""


def dag(a) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.conj(np.swapaxes(np.asarray(a), -1, -2))


def outer(psi) -> np.ndarray:
    """Projector |psi><psi| of a state vector, or of each vector in a stack."""
    psi = np.asarray(psi, dtype=complex)
    return psi[..., :, None] * psi[..., None, :].conj()


def basis_state(dim: int, index: int) -> np.ndarray:
    """Computational basis vector |index> in the given dimension."""
    if not 0 <= index < dim:
        raise DimensionMismatchError(f"basis index {index} outside dimension {dim}")
    e = np.zeros(dim, dtype=complex)
    e[index] = 1.0
    return e


def max_abs_diff(a, b) -> float:
    """Largest entrywise modulus of a - b."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))


def hermitian_eigenvalues(h) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, in descending order."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {h.shape}")
    if not (max_abs_diff(h, dag(h)) <= HERMITIAN_TOL):
        raise NonHermitianError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(h)[::-1].copy()


def density_eigenvalues(rho) -> np.ndarray:
    """Validate a density matrix, or every matrix of a (..., d, d) stack, and
    return the eigenvalues along the last axis, descending.

    Eigenvalues a rounding error away from [0, 1] are clamped onto the
    boundary; anything below -1e-9, or a NaN entry, raises instead of being masked.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise NotDensityMatrixError(f"expected a square matrix, got shape {rho.shape}")
    if not (max_abs_diff(rho, dag(rho)) <= HERMITIAN_TOL):
        raise NotDensityMatrixError("density matrix must be Hermitian")
    tr = np.trace(rho, axis1=-2, axis2=-1)
    off = ~(np.abs(tr - 1.0) <= TRACE_TOL)
    if np.any(off):
        raise NotDensityMatrixError(f"density matrix must have unit trace, got {complex(tr[off].flat[0])}")
    eigs = np.linalg.eigvalsh(rho)[..., ::-1]
    if not np.all(eigs[..., -1] >= NEGATIVE_EIG_TOL):
        raise NotDensityMatrixError(f"density matrix has negative eigenvalue {np.min(eigs[..., -1])}")
    return np.clip(eigs, 0.0, 1.0)


def purify(rho) -> np.ndarray:
    """A pure state on (reference x system) whose system marginal is rho.

    The reference factor comes first, so tracing out subsystem 0 of the
    returned vector's projector reproduces the input.
    """
    rho = np.asarray(rho, dtype=complex)
    density_eigenvalues(rho)
    w, v = np.linalg.eigh(rho)
    # row i is sqrt(w_i) times eigenvector i, paired with the reference state |i>
    return (np.sqrt(np.clip(w, 0.0, 1.0))[:, None] * v.T).reshape(-1)


def random_pure(dim: int, seed) -> np.ndarray:
    """Haar-like random state vector: normalized complex Gaussian entries.

    ``seed`` is anything ``numpy.random.default_rng`` accepts (an int, a
    SeedSequence, or an existing Generator to draw from).
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(dim: int, seed) -> np.ndarray:
    """Hilbert-Schmidt random density matrix G G^dag / tr(G G^dag)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ dag(g)
    return rho / np.trace(rho).real


def _sample_streams(n_samples: int, seed: int, first: int = 0, chunk: int = 1):
    """The one sampling scheme of every randomized verifier: (index, generator on the child stream
    SeedSequence([seed, index])) for index = first, first + 1, ..., one per ``chunk`` samples, so a
    sample replays from its seed and index alone."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    n_streams = -(-n_samples // chunk)
    return ((i, np.random.default_rng(np.random.SeedSequence([seed, i]))) for i in range(first, first + n_streams))
