"""Capacities of the fully correlated two-qubit amplitude damping channel.

Closed-form objectives over diagonal inputs, the capacity maximizations
built on them, the explicit ensembles the classical bounds come from, and
numerical verifiers for the inequalities behind the optimal-ensemble
reduction.

Throughout, a diagonal input diag(alpha, beta, beta, delta) is described
by a :class:`~fcad.optimizer.SimplexPoint`; its image under the channel
is diag(alpha + (1-eta) delta, beta, beta, eta delta), and the state
leaked to the environment is supported on the {|00>, |11>} block with
populations (1 - (1-eta) delta, (1-eta) delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import _check_eta, fc_channel
from .covariance import symmetry_ops
from .entropy import Ensemble, h2, holevo, xlog2
from .optimizer import OptimResult, SimplexPoint, maximize_1d, maximize_simplex
from .qmat import _sample_streams, random_pure

__all__ = [
    "CapacityPoint",
    "InequalityReport",
    "SymmetrizationReport",
    "ZeroSubspaceWeightError",
    "c1",
    "c1_lower_bounds",
    "c1_via_optimization",
    "c_ad1",
    "c_ad1_search",
    "capacity_point",
    "ce_capacity",
    "ce_value",
    "chi_a_value",
    "chi_b_value",
    "ensemble_a",
    "ensemble_b",
    "entanglement_B",
    "output_entropy_diag",
    "p_opt",
    "q_capacity",
    "q_value",
    "verify_entangled_pair_inequality",
    "verify_state_splitting_inequality",
    "verify_symmetrization_chain",
]

LOG2_3 = math.log2(3.0)
# largest |margin| the inequality verifiers accept where equality is expected
EQUALITY_TOL = 1e-12
# most negative margin the inequality verifiers and each symmetrization step accept
MARGIN_TOL = 1e-10
# the three sign flips among symmetry_ops()
_FLIPS = ("R1", "R2", "R3")
# samples per chunk of the state-splitting scan, which holds one chunk at a time
_SPLIT_CHUNK = 2**13


class ZeroSubspaceWeightError(ValueError):
    """The {|00>, |11>} block carries no weight, so its entanglement is undefined."""


# ---------------------------------------------------------------------------
# closed-form objectives (broadcast over numpy arrays of alpha/delta/eta)
# ---------------------------------------------------------------------------


def _beta_of(alpha, delta):
    return np.maximum(0.0, 0.5 * (1.0 - np.asarray(alpha, dtype=float) - delta))


def output_entropy_diag(alpha, delta, eta):
    """Channel output entropy for the diagonal input (alpha, beta, beta, delta)."""
    beta = _beta_of(alpha, delta)
    return -xlog2(alpha + (1.0 - eta) * delta) - 2.0 * xlog2(beta) - xlog2(eta * delta)


def chi_a_value(alpha, delta, eta):
    """Holevo quantity of the product-state ensemble on the damped block."""
    return output_entropy_diag(alpha, delta, eta) - delta * h2(eta)


def _pair_entropy(a, d, eta):
    """(a + d) H2((1 + sqrt(1 - 4 eta (1-eta) (d/(a+d))^2)) / 2), 0 where a + d is 0: the
    weighted output entropy of the damped pair state sqrt(a)|00> + sqrt(d)|11>."""
    w = np.asarray(a + np.asarray(d, dtype=float), dtype=float)
    safe = np.where(w > 0.0, w, 1.0)
    return w * h2(0.5 * (1.0 + np.sqrt(np.maximum(0.0, 1.0 - 4.0 * eta * (1.0 - eta) * (d / safe) ** 2))))


def chi_b_value(alpha, delta, eta):
    """Holevo quantity of the ensemble with entangled states on the damped block."""
    return output_entropy_diag(alpha, delta, eta) - _pair_entropy(alpha, delta, eta)


def q_value(alpha, delta, eta):
    """Coherent information of the diagonal input (alpha, beta, beta, delta)."""
    leak = (1.0 - eta) * np.asarray(delta, dtype=float)
    return output_entropy_diag(alpha, delta, eta) + xlog2(1.0 - leak) + xlog2(leak)


def ce_value(alpha, delta, eta):
    """Quantum mutual information of the diagonal input (alpha, beta, beta, delta)."""
    beta = _beta_of(alpha, delta)
    input_entropy = -xlog2(alpha) - 2.0 * xlog2(beta) - xlog2(delta)
    return input_entropy + q_value(alpha, delta, eta)


# ---------------------------------------------------------------------------
# explicit ensembles behind the classical bounds
# ---------------------------------------------------------------------------


def ensemble_a(pt: SimplexPoint) -> Ensemble:
    """Product states: |00> and |11> on the damped block, |01> and |10> elsewhere."""
    return Ensemble(np.array([pt.alpha, pt.delta, pt.beta, pt.beta]), np.eye(4)[[0, 3, 1, 2]])


def _pair_items(p, a, d) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(a/w)|00> +- sqrt(d/w)|11>, w = a + d > 0, each with probability p w / 2; over arrays
    p, a, d of n entries, as (2n,) probabilities and (2n, 4) states."""
    w = a + d
    up, down = np.sqrt(a / w), np.sqrt(d / w)
    zero = np.zeros_like(w)
    states = np.concatenate([np.stack([up, zero, zero, down], axis=1), np.stack([up, zero, zero, -down], axis=1)])
    return np.tile(p * w / 2.0, 2), states


def ensemble_b(pt: SimplexPoint) -> Ensemble:
    """Entangled pair on the damped block, |01> and |10> elsewhere."""
    a, d = np.array([pt.alpha]), np.array([pt.delta])
    pair = a + d > 0.0
    probs, states = _pair_items(1.0, a[pair], d[pair])
    return Ensemble(np.append(probs, [pt.beta, pt.beta]), np.concatenate([states, np.eye(4)[[1, 2]]]))


def entanglement_B(pt: SimplexPoint) -> tuple[float, float]:
    """Entanglement of one damped-block pair state, and its ensemble average.

    The pair state has single-qubit marginal diag(alpha, delta)/(alpha+delta),
    so its entropy of entanglement is H2(alpha/(alpha+delta)); the average
    weights it by the probability alpha + delta of drawing a pair state.
    """
    s = pt.alpha + pt.delta
    if s <= 0.0:
        raise ZeroSubspaceWeightError("no weight on the {|00>, |11>} block")
    e_phi = float(h2(pt.alpha / s))
    return e_phi, s * e_phi


# ---------------------------------------------------------------------------
# capacities
# ---------------------------------------------------------------------------


def _maximize(value, eta: float) -> OptimResult:
    """Maximize ``value(alpha, delta, eta)`` over the diagonal input simplex."""
    return maximize_simplex(lambda pt: float(value(pt.alpha, pt.delta, eta)), lambda a, d: value(a, d, eta))


def c_ad1_search(eta: float) -> OptimResult:
    """Single-use classical capacity of one-qubit amplitude damping.

    Maximizes H2(eta p) - H2((1 + sqrt(1 - 4 eta (1-eta) p^2))/2) over the
    excited-state population p.
    """
    eta = _check_eta(eta)
    return maximize_1d(lambda p: h2(eta * p) - _pair_entropy(1.0 - p, p, eta), 0.0, 1.0)


def c_ad1(eta: float) -> float:
    return c_ad1_search(eta).value


def _p_opt(cad: float) -> float:
    return 2.0**cad / (2.0 + 2.0**cad)


def p_opt(eta: float) -> float:
    """Optimal weight of the damped block in the capacity-achieving ensemble."""
    return _p_opt(c_ad1(eta))


def _c1_from_search(search: OptimResult) -> OptimResult:
    cad = search.value
    p1 = float(search.point)
    weight = _p_opt(cad)
    point = SimplexPoint(weight * (1.0 - p1), 0.5 * (1.0 - weight), weight * p1)
    return OptimResult(math.log2(2.0 + 2.0**cad), point, search.evaluations, search.grid_step_final)


def c1(eta: float) -> OptimResult:
    """Single-shot classical capacity, in closed form.

    The channel is the direct sum of a noiseless qubit on span{|01>, |10>}
    and a one-qubit amplitude damping on span{|00>, |11>}, so
    C1 = log2(2 + 2^C_ad1), reached with weight 2^C_ad1 / (2 + 2^C_ad1) on
    the damped block.
    """
    return _c1_from_search(c_ad1_search(eta))


def c1_via_optimization(eta: float) -> OptimResult:
    """Single-shot classical capacity by direct maximization over populations.

    At eta = 0 the maximizer is degenerate (only alpha + delta = 1/3 is
    pinned down); the first point found in scan order is reported.
    """
    return _maximize(chi_b_value, _check_eta(eta))


def c1_lower_bounds(eta: float) -> tuple[float, float]:
    """Best Holevo quantities of the product and entangled ensembles."""
    eta = _check_eta(eta)
    return _maximize(chi_a_value, eta).value, _maximize(chi_b_value, eta).value


def q_capacity(eta: float) -> OptimResult:
    """Quantum capacity.

    For eta >= 1/2 the channel is degradable and the capacity is the
    maximum coherent information over diagonal inputs.  Below 1/2 the
    concatenation bound pins it to log2(3), achieved on the noiseless
    three-level subspace; the reported point is that achieving input.
    """
    eta = _check_eta(eta)
    if eta < 0.5:
        return OptimResult(LOG2_3, SimplexPoint(1.0 / 3.0, 1.0 / 3.0, 0.0), 0, 0.0)
    return _maximize(q_value, eta)


def ce_capacity(eta: float) -> OptimResult:
    """Entanglement-assisted classical capacity: max quantum mutual information."""
    return _maximize(ce_value, _check_eta(eta))


@dataclass(frozen=True)
class CapacityPoint:
    """Every per-transmissivity quantity one sweep row reports."""

    eta: float
    c1: float
    c1_opt: float
    q: float
    ce: float
    chi_lb1: float
    coeffs_c1: SimplexPoint
    coeffs_q: SimplexPoint
    coeffs_ce: SimplexPoint
    p_opt: float
    c_ad1: float
    e_phi: float
    e_avg: float

    def __post_init__(self):
        for name in ("c1", "q", "ce"):
            value = getattr(self, name)
            if not -1e-9 <= value <= 4.0 + 1e-9:
                raise ValueError(f"{name} = {value} outside [0, 4]")
        if self.q > self.ce + 1e-9 or self.c1 > self.ce + 1e-9:
            raise ValueError("capacity ordering q, c1 <= ce violated")

    @property
    def chi_lb2(self) -> float:
        """Best entangled-ensemble Holevo quantity: the C1 optimization itself."""
        return self.c1_opt


def capacity_point(eta: float) -> CapacityPoint:
    """All sweep quantities at one transmissivity, computed in one pass."""
    eta = _check_eta(eta)
    search = c_ad1_search(eta)
    opt = c1_via_optimization(eta)
    lb1 = _maximize(chi_a_value, eta).value
    qr = q_capacity(eta)
    cer = ce_capacity(eta)
    e_phi, e_avg = entanglement_B(opt.point)
    return CapacityPoint(
        eta=eta,
        c1=_c1_from_search(search).value,
        c1_opt=opt.value,
        q=qr.value,
        ce=cer.value,
        chi_lb1=lb1,
        coeffs_c1=opt.point,
        coeffs_q=qr.point,
        coeffs_ce=cer.point,
        p_opt=_p_opt(search.value),
        c_ad1=search.value,
        e_phi=e_phi,
        e_avg=e_avg,
    )


# ---------------------------------------------------------------------------
# inequality and symmetrization verifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InequalityReport:
    """Sampled margins of a claimed inequality (margin = lhs - rhs >= 0).

    A sampled check also names its sample with the smallest margin: its
    index among the samples and its transmissivity.
    """

    min_margin: float
    equality_max_abs: float
    passed: bool
    worst_index: int | None = None
    worst_eta: float | None = None


def _splitting_margin(a2, b2, d2, eta):
    # lhs: output entropy of the general state; rhs: weighted entropy of its
    # damped-block restriction.
    lhs = h2(0.5 * (1.0 + np.sqrt(np.maximum(0.0, 1.0 - 4.0 * (1.0 - eta) * d2 * (2.0 * b2 + eta * d2)))))
    return lhs - _pair_entropy(a2, d2, eta)


def verify_state_splitting_inequality(n_samples: int = 100_000, seed: int = 0) -> InequalityReport:
    """Check that restricting any admissible state to the damped block never
    raises the average output entropy.

    Samples (a, b, d) with a^2 + 2 b^2 + d^2 = 1 uniformly (a point on the
    unit 3-sphere with the middle two coordinates folded into b) and a
    uniform transmissivity.  Equality is expected exactly at eta = 1, b = 0
    or d = 0, which are probed on dedicated boundary samples.

    Chunk c of _SPLIT_CHUNK samples draws its normals, then its etas, from
    child stream c of the seed, and the boundary etas follow chunk 0's etas,
    so memory does not grow with n_samples.
    """
    n_edge = min(n_samples, 1000)
    min_margin, worst_index, worst_eta = math.inf, 0, 0.0
    for c, rng in _sample_streams(n_samples, seed, chunk=_SPLIT_CHUNK):
        start = c * _SPLIT_CHUNK
        g = rng.standard_normal((min(_SPLIT_CHUNK, n_samples - start), 4))
        norm2 = np.sum(g * g, axis=1)
        a2 = g[:, 0] ** 2 / norm2
        b2 = (g[:, 1] ** 2 + g[:, 2] ** 2) / (2.0 * norm2)
        d2 = g[:, 3] ** 2 / norm2
        eta = rng.uniform(0.0, 1.0, len(g))
        margins = _splitting_margin(a2, b2, d2, eta)
        i = int(np.argmin(margins))
        if margins[i] < min_margin:
            min_margin, worst_index, worst_eta = float(margins[i]), start + i, float(eta[i])
        if c == 0:
            edge = a2[:n_edge], b2[:n_edge], d2[:n_edge], rng.uniform(0.0, 1.0, n_edge)

    a2, b2, d2, eta_edge = edge
    edge_margins = [
        # eta = 1: both sides vanish
        _splitting_margin(a2, b2, d2, 1.0),
        # b = 0: the state already lives on the damped block
        _splitting_margin(a2 + 2.0 * b2, np.zeros(n_edge), d2, eta_edge),
        # d = 0: nothing decays on either side
        _splitting_margin(a2 + d2, b2, np.zeros(n_edge), eta_edge),
    ]
    equality_max = float(max(np.max(np.abs(m)) for m in edge_margins))
    passed = min_margin >= -MARGIN_TOL and equality_max <= EQUALITY_TOL
    return InequalityReport(min_margin, equality_max, passed, worst_index, worst_eta)


def verify_entangled_pair_inequality() -> InequalityReport:
    """Check H2(eta) >= x H2((1 + sqrt(1 - 4 eta (1-eta)/x^2))/2) for x >= 1.

    This is the bound that makes replacing the damped-block product pair by
    entangled pairs favourable; equality is expected exactly at x = 1.  The
    check runs on 99 etas in [0.01, 0.99] times 50 log-spaced x in [1, 100].
    """
    eta = np.linspace(0.01, 0.99, 99)[:, None]
    x = np.logspace(0.0, 2.0, 50)[None, :]
    margins = h2(eta) - _pair_entropy(x - 1.0, 1.0, eta)
    min_margin = float(np.min(margins))
    equality_max = float(np.max(np.abs(margins[:, 0])))
    passed = min_margin >= -MARGIN_TOL and equality_max <= EQUALITY_TOL
    return InequalityReport(min_margin, equality_max, passed)


@dataclass(frozen=True)
class SymmetrizationReport:
    """Holevo-quantity margins along the ensemble symmetrization chain."""

    min_step_margins: dict[str, float]
    min_separable_gain: float
    # every step margin at least -MARGIN_TOL; every separable ensemble gains strictly
    chain_passed: bool
    gain_passed: bool
    # (child stream index, eta) of the sample with the smallest chain margin, and with the smallest gain
    worst_chain_sample: tuple[int, float]
    worst_gain_sample: tuple[int, float]


def _twirl(ens: Ensemble, names: tuple[str, ...]) -> Ensemble:
    """Each state, then its images under the named symmetry_ops(), sharing its probability equally."""
    ops = np.array([np.eye(4)] + [op.matrix for op in symmetry_ops() if op.name in names])
    images = np.einsum("kij,nj->nki", ops, ens.states)
    return Ensemble(np.repeat(ens.probs / len(ops), len(ops)), images.reshape(-1, 4))


def _merge_offdiag(ens: Ensemble) -> Ensemble:
    # Replace the |01> and |10> amplitudes by their balanced quadratic mean.
    # Output spectra depend only on the moduli, so per-state entropies are
    # unchanged; emitting the merged state along with its three sign-flipped
    # partners keeps the ensemble mean exactly diagonal.
    a, b, c, d = np.abs(ens.states).T
    m = np.sqrt(0.5 * (b * b + c * c))
    merged = np.stack([a, m, m, d], axis=1)
    return _twirl(Ensemble(ens.probs, merged / np.linalg.norm(merged, axis=1, keepdims=True)), _FLIPS)


def _replace_with_pairs(ens: Ensemble) -> Ensemble:
    # Split each state into an entangled pair on the damped block plus the
    # noiseless basis states, keeping the ensemble density matrix diagonal.
    a, b, c, d = (np.abs(ens.states) ** 2).T
    pair = a + d > 1e-15
    probs, states = _pair_items(ens.probs[pair], a[pair], d[pair])
    return Ensemble(
        np.concatenate([probs, ens.probs * b, ens.probs * c]),
        np.concatenate([states, np.eye(4)[np.repeat([1, 2], len(b))]]),
    )


_CHAIN_STEPS = (
    ("phase_flip", lambda ens: _twirl(ens, _FLIPS)),
    ("swap", lambda ens: _twirl(ens, ("SWAP",))),
    ("offdiag_merge", _merge_offdiag),
    ("pair_replacement", _replace_with_pairs),
)


def _chain_sample(rng) -> tuple[float, dict[str, float]]:
    """A random transmissivity, and the Holevo-quantity change at each chain step of a random ensemble."""
    eta = float(rng.uniform())
    ch = fc_channel(eta)
    probs = rng.dirichlet(np.ones(4))
    ens = Ensemble(probs, [random_pure(4, rng) for _ in probs])
    chi = holevo(ch, ens)
    steps = {}
    for name, step in _CHAIN_STEPS:
        ens = step(ens)
        chi_next = holevo(ch, ens)
        steps[name] = chi_next - chi
        chi = chi_next
    return eta, steps


def _gain_sample(rng) -> tuple[float, float]:
    """A random transmissivity, and the Holevo gain of the pair replacement on a random
    sign-symmetrized ensemble of product states."""
    eta = float(rng.uniform(0.05, 0.95))
    ch = fc_channel(eta)
    probs = rng.dirichlet(np.ones(4))
    g, hh = rng.uniform(0.2, 0.98, size=(4, 2)).T
    one = np.stack([g, np.sqrt(1.0 - g * g)], axis=1)
    two = np.stack([hh, np.sqrt(1.0 - hh * hh)], axis=1)
    ens = _twirl(Ensemble(probs, (one[:, :, None] * two[:, None, :]).reshape(4, 4)), _FLIPS)
    return eta, holevo(ch, _replace_with_pairs(ens)) - holevo(ch, ens)


def verify_symmetrization_chain(n_samples: int = 100, seed: int = 0) -> SymmetrizationReport:
    """Push random ensembles through the symmetrization chain and check the
    Holevo quantity never drops at any step.

    Separable ensembles (sign-symmetrized first, so their mean state is
    diagonal) must gain strictly from the entangled-pair replacement.  The
    n_samples chain ensembles draw from child streams 0 to n_samples - 1,
    the n_samples separable ones from the next n_samples streams.
    """
    # (child stream index, eta, margins) per sample; min() keeps the first of tied samples
    chain = [(k, *_chain_sample(rng)) for k, rng in _sample_streams(n_samples, seed)]
    gains = [(k, *_gain_sample(rng)) for k, rng in _sample_streams(n_samples, seed, first=n_samples)]
    margins = {name: min(steps[name] for _, _, steps in chain) for name, _ in _CHAIN_STEPS}
    worst_chain = min(chain, key=lambda sample: min(sample[2].values()))
    worst_gain = min(gains, key=lambda sample: sample[2])
    min_gain = worst_gain[2]
    chain_passed = all(m >= -MARGIN_TOL for m in margins.values())
    return SymmetrizationReport(margins, min_gain, chain_passed, min_gain > 0.0, worst_chain[:2], worst_gain[:2])
