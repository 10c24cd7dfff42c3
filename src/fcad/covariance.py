"""Symmetry operators of the correlated damping channel and numerical
certification of its covariance and degradability."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import apply, complementary_output, degrading_map, fc_channel
from .qmat import _sample_streams, max_abs_diff, random_density

__all__ = [
    "SymmetryOp",
    "check_covariance",
    "check_degradability",
    "check_kraus_commutation",
    "symmetry_ops",
]


@dataclass(frozen=True)
class SymmetryOp:
    """An involutive unitary the channel commutes with."""

    name: str
    matrix: np.ndarray


_SZ = np.diag([1.0, -1.0])
_I2 = np.eye(2)
# built once and read-only, so every caller shares them; SWAP is a row permutation of the identity
_MATRICES = np.array([np.kron(_SZ, _I2), np.kron(_I2, _SZ), np.kron(_SZ, _SZ), np.eye(4)[[0, 2, 1, 3]]], dtype=complex)
_MATRICES.flags.writeable = False
_SYMMETRY_OPS = tuple(SymmetryOp(name, m) for name, m in zip(("R1", "R2", "R3", "SWAP"), _MATRICES))


def symmetry_ops() -> tuple[SymmetryOp, ...]:
    """The three sign flips and the qubit exchange, as read-only 4x4 unitaries."""
    return _SYMMETRY_OPS


def check_covariance(eta: float, op: SymmetryOp, n_samples: int = 100, seed: int = 0) -> float:
    """Max deviation of E(U rho U) from U E(rho) U over random mixed states."""
    ch = fc_channel(eta)
    u = op.matrix
    worst = 0.0
    for _, rng in _sample_streams(n_samples, seed):
        rho = random_density(4, rng)
        worst = max(worst, max_abs_diff(apply(ch, u @ rho @ u), u @ apply(ch, rho) @ u))
    return worst


def check_degradability(eta: float, n_samples: int = 100, seed: int = 0) -> float:
    """Max deviation of degrade(channel output) from the environment output.

    Only defined for eta >= 1/2.
    """
    dmap = degrading_map(eta)
    ch = fc_channel(eta)
    worst = 0.0
    for _, rng in _sample_streams(n_samples, seed):
        rho = random_density(4, rng)
        degraded = apply(dmap, apply(ch, rho))
        worst = max(worst, max_abs_diff(degraded, complementary_output(eta, rho)))
    return worst


def check_kraus_commutation() -> dict[str, float]:
    """Max deviation for each (anti)commutation relation between the Kraus
    operators and the symmetry unitaries, over the sampled transmissivities.

    The no-decay operator commutes with all four unitaries; the decay
    operator commutes with the double sign flip and the exchange but
    anticommutes with the single-qubit sign flips.
    """
    b0, b1 = np.stack([fc_channel(eta).kraus for eta in (0.0, 0.25, 0.5, 0.75, 1.0)], axis=1)
    devs: dict[str, float] = {}
    for op in symmetry_ops():
        u = op.matrix
        devs[f"B0_commutes_{op.name}"] = max_abs_diff(b0 @ u, u @ b0)
        if op.name in ("R1", "R2"):
            devs[f"B1_anticommutes_{op.name}"] = max_abs_diff(u @ b1, -(b1 @ u))
        else:
            devs[f"B1_commutes_{op.name}"] = max_abs_diff(u @ b1, b1 @ u)
    return devs
