"""Kraus-operator channels: fully correlated two-qubit amplitude damping.

The central object is the fully correlated two-qubit damping channel,
where relaxation only ever happens on both qubits at once: the basis
states |00>, |01>, |10> pass through untouched and only |11> decays,
surviving with probability eta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmat import DimensionMismatchError, _sample_streams, dag, max_abs_diff, random_density

__all__ = [
    "EtaOutOfRangeError",
    "QuantumChannel",
    "apply",
    "check_composition",
    "complementary_output",
    "compose",
    "degrading_map",
    "fc_channel",
]

COMPLETENESS_TOL = 1e-12

# Environment basis used when embedding the two leak directions of the
# correlated channel into a two-qubit environment: no decay -> |00>,
# joint decay -> |11>.
_ENV_INDEX = (0, 3)


class EtaOutOfRangeError(ValueError):
    """Transmissivity outside its admissible interval."""


def _check_eta(eta: float) -> float:
    eta = float(eta)
    if not -1e-12 <= eta <= 1.0 + 1e-12:
        raise EtaOutOfRangeError(f"transmissivity must be in [0, 1], got {eta}")
    return min(max(eta, 0.0), 1.0)


@dataclass(frozen=True)
class QuantumChannel:
    """A completely positive trace-preserving map in Kraus form."""

    kraus: tuple[np.ndarray, ...]
    dim_in: int
    dim_out: int

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        object.__setattr__(self, "kraus", ops)
        for k in ops:
            if k.shape != (self.dim_out, self.dim_in):
                raise DimensionMismatchError(
                    f"Kraus operator shape {k.shape} does not match "
                    f"({self.dim_out}, {self.dim_in})"
                )
        acc = sum((dag(k) @ k for k in ops), np.zeros((self.dim_in, self.dim_in)))
        # written so that a NaN entry fails it
        if not (max_abs_diff(acc, np.eye(self.dim_in)) <= COMPLETENESS_TOL):
            raise ValueError("Kraus operators do not satisfy the completeness relation")


def fc_channel(eta: float) -> QuantumChannel:
    """Fully correlated two-qubit amplitude damping: only |11> decays."""
    eta = _check_eta(eta)
    b0 = np.diag([1.0, 1.0, 1.0, np.sqrt(eta)]).astype(complex)
    b1 = np.zeros((4, 4), dtype=complex)
    b1[0, 3] = np.sqrt(1.0 - eta)
    return QuantumChannel((b0, b1), 4, 4)


def apply(ch: QuantumChannel, rho) -> np.ndarray:
    """Channel action sum_i K_i rho K_i^dag, on one matrix or each of a (..., d, d) stack."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (ch.dim_in, ch.dim_in):
        raise DimensionMismatchError(
            f"state shape {rho.shape} does not match channel input dimension {ch.dim_in}"
        )
    return sum(k @ rho @ dag(k) for k in ch.kraus)


def compose(after: QuantumChannel, before: QuantumChannel) -> QuantumChannel:
    """Channel equal to running ``before`` first, then ``after``."""
    if before.dim_out != after.dim_in:
        raise DimensionMismatchError(
            f"cannot compose: inner output dim {before.dim_out} != outer input dim {after.dim_in}"
        )
    ops = tuple(ka @ kb for ka in after.kraus for kb in before.kraus)
    return QuantumChannel(ops, before.dim_in, after.dim_out)


def complementary_output(eta: float, rho) -> np.ndarray:
    """State handed to the environment by the correlated damping channel, on one
    matrix or each of a (..., 4, 4) stack: the complementary channel, whose Kraus
    operators F_a[i, :] = B_i[a, :] turn the channel's two Kraus directions i
    into the environment states |00> and |11>."""
    ops = np.zeros((4, 4, 4), dtype=complex)
    ops[:, _ENV_INDEX, :] = np.stack(fc_channel(eta).kraus, axis=1)
    return apply(QuantumChannel(tuple(ops), 4, 4), rho)


def _corner_collapse_channel() -> QuantumChannel:
    """CPTP map folding the one-excitation populations into |00><00| while
    keeping the |00>/|11> populations and coherence.

    Its Kraus operators |00><00| + |11><11|, |00><01| and |00><10| are the
    reduced map of a five-qubit permutation circuit: attach three ancillas
    in |0>, record the excitation parity on the first, swap the system with
    the other two when it is odd, then discard the ancillas.
    """
    keep = np.diag([1.0, 0.0, 0.0, 1.0])
    from_01 = np.zeros((4, 4))
    from_01[0, 1] = 1.0
    from_10 = np.zeros((4, 4))
    from_10[0, 2] = 1.0
    return QuantumChannel((keep, from_01, from_10), 4, 4)


def degrading_map(eta: float) -> QuantumChannel:
    """Map turning the channel output into the environment output.

    Collapses the noiseless one-excitation block onto |00>, then runs the
    correlated damping again with residual strength (1 - eta)/eta.  Only
    defined for eta >= 1/2, where that residual strength is itself an
    admissible transmissivity.
    """
    eta = _check_eta(eta)
    if eta < 0.5:
        raise EtaOutOfRangeError(f"degrading map requires eta >= 0.5, got {eta}")
    return compose(fc_channel((1.0 - eta) / eta), _corner_collapse_channel())


def check_composition(n_samples: int = 100, seed: int = 0) -> float:
    """Max deviation of fc(eta1*eta2) from fc(eta2) after fc(eta1) on random states."""
    worst = 0.0
    for _, rng in _sample_streams(n_samples, seed):
        eta1 = float(rng.uniform())
        eta2 = float(rng.uniform())
        rho = random_density(4, rng)
        direct = apply(fc_channel(eta1 * eta2), rho)
        chained = apply(compose(fc_channel(eta2), fc_channel(eta1)), rho)
        worst = max(worst, max_abs_diff(direct, chained))
    return worst
