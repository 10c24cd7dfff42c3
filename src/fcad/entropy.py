"""Entropy functionals over channel inputs and outputs.

Everything is in bits (base-2 logarithms) with the 0 log 0 = 0 convention
applied after clamping eigenvalues onto [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import QuantumChannel, apply, complementary_output, fc_channel
from .qmat import density_eigenvalues, outer, purify

__all__ = [
    "DomainError",
    "Ensemble",
    "coherent_info",
    "entropy_exchange",
    "entropy_exchange_purified",
    "h2",
    "holevo",
    "mutual_info",
    "vn_entropy",
    "xlog2",
]

PROB_TOL = 1e-12
NORM_TOL = 1e-12


class DomainError(ValueError):
    """Argument outside the function domain."""


def xlog2(x):
    """x * log2(x) with the 0 log 0 = 0 convention; scalars or arrays."""
    scalar = np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(arr)
    mask = arr > 0.0
    out[mask] = arr[mask] * np.log2(arr[mask])
    return float(out[0]) if scalar else out


def h2(x):
    """Shannon binary entropy in bits; accepts scalars or arrays in [0, 1]."""
    arr = np.asarray(x, dtype=float)
    # written so that NaN fails it too; xlog2 would otherwise mask NaN to 0
    if not np.all((arr >= -PROB_TOL) & (arr <= 1.0 + PROB_TOL)):
        raise DomainError("binary entropy argument outside [0, 1]")
    arr = np.clip(arr, 0.0, 1.0)
    return -xlog2(arr) - xlog2(1.0 - arr)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Finite ensemble of pure two-qubit states: (N,) probabilities and (N, 4) state vectors."""

    probs: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", states)
        # each check is written so that NaN fails it
        if probs.size == 0:
            raise ValueError("ensemble must contain at least one state")
        if probs.ndim != 1 or states.shape != (probs.size, 4):
            raise ValueError("ensemble states must be two-qubit state vectors")
        if not np.all(probs >= -PROB_TOL):
            raise ValueError("ensemble probabilities must be nonnegative")
        if not (abs(probs.sum() - 1.0) <= PROB_TOL):
            raise ValueError(f"ensemble probabilities must sum to 1, got {probs.sum()}")
        if not np.all(np.abs(np.linalg.norm(states, axis=1) - 1.0) <= NORM_TOL):
            raise ValueError("ensemble states must be normalized")

    def average_state(self) -> np.ndarray:
        return np.einsum("n,ni,nj->ij", self.probs, self.states, self.states.conj())


def vn_entropy(rho):
    """Von Neumann entropy in bits: a float for one matrix, an array for a (..., d, d) stack."""
    s = -np.sum(xlog2(density_eigenvalues(rho)), axis=-1)
    return float(s) if s.ndim == 0 else s


def holevo(ch: QuantumChannel, ens: Ensemble) -> float:
    """Output entropy of the mean state minus the mean output entropy, as one stack of outputs."""
    used = ens.probs > 0.0
    stack = np.concatenate([ens.average_state()[None], outer(ens.states[used])])
    entropies = vn_entropy(apply(ch, stack))
    return float(entropies[0] - ens.probs[used] @ entropies[1:])


def entropy_exchange(eta: float, rho) -> float:
    """Entropy picked up by the environment, via the complementary output."""
    return vn_entropy(complementary_output(eta, rho))


def entropy_exchange_purified(eta: float, rho) -> float:
    """Same quantity via a purification, as an independent cross-check.

    Attaches a four-dimensional reference, evolves the system half of the
    purification through the channel, and takes the global entropy.
    """
    psi = purify(np.asarray(rho, dtype=complex))
    extended = QuantumChannel(np.kron(np.eye(4), fc_channel(eta).kraus))
    return vn_entropy(apply(extended, outer(psi)))


def coherent_info(eta: float, rho) -> float:
    """Output entropy minus entropy exchange."""
    rho = np.asarray(rho, dtype=complex)
    return vn_entropy(apply(fc_channel(eta), rho)) - entropy_exchange(eta, rho)


def mutual_info(eta: float, rho) -> float:
    """Input entropy plus coherent information."""
    return vn_entropy(rho) + coherent_info(eta, rho)
