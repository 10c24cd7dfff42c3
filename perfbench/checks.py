"""Output checks.  Each operation (a CSV row or a CHECK line) either
passes every check that applies to it or counts as one failure.

Values are checked against the paper's invariants and against an
independent reference for C_ad1 computed here with numpy, not by fcad:
C1 = log2(2 + 2^C_ad1) and p_opt = 2^C_ad1 / (2 + 2^C_ad1) (the
direct-sum formula for two parallel subspaces).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

LOG2_3 = math.log2(3.0)
SLACK = 1e-6  # ordering and monotonicity slack, as in the acceptance tests

COEFFS = ("alpha_c1", "beta_c1", "delta_c1", "alpha_q", "beta_q", "delta_q", "alpha_ce", "beta_ce", "delta_ce")
GROUP_COLUMNS = {
    "c1": ("c1", "c1_chain_check"),
    "q": ("q",),
    "ce": ("ce",),
    "bounds": ("chi_lb1", "chi_lb2"),
    "coeffs": COEFFS,
    "p_opt": ("p_opt",),
    "c_ad1": ("c_ad1",),
    "entanglement": ("e_phi", "e_avg"),
}
COLUMN_ORDER = ("eta", "c1", "c1_chain_check", "q", "ce", "chi_lb1", "chi_lb2", *COEFFS,
                "p_opt", "c_ad1", "e_phi", "e_avg")
MONOTONE = ("c1", "q", "ce")
VERIFY_CHECKS = (
    "covariance_R1", "covariance_R2", "covariance_R3", "covariance_SWAP", "kraus_commutation",
    "degradability", "state_splitting", "entangled_pair", "symmetrization_chain",
    "separable_gain", "composition",
)


def _h2(x):
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    out = np.zeros_like(x)
    for p in (x, 1.0 - x):
        m = p > 0.0
        out[m] -= p[m] * np.log2(p[m])
    return out


def _ad_gain(p, eta):
    root = np.sqrt(np.maximum(0.0, 1.0 - 4.0 * eta * (1.0 - eta) * p * p))
    return _h2(eta * p) - _h2(0.5 * (1.0 + root))


def c_ad1_reference(eta: float) -> float:
    """max over p of H2(eta p) - H2((1 + sqrt(1 - 4 eta (1-eta) p^2)) / 2):
    a 20001-point grid, then golden section inside the best cell."""
    grid = np.linspace(0.0, 1.0, 20001)
    values = _ad_gain(grid, eta)
    k = int(np.argmax(values))
    best = float(values[k])
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(60):
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
        fc, fd = (float(v) for v in _ad_gain(np.array([c, d]), eta))
        best = max(best, fc, fd)
        if fc > fd:
            b = d
        else:
            a = c
    return best


@dataclass
class Reference:
    """Closed-form reference values at one transmissivity."""

    eta: float
    c_ad1: float = field(init=False)
    c1: float = field(init=False)
    p_opt: float = field(init=False)

    def __post_init__(self):
        self.c_ad1 = c_ad1_reference(self.eta)
        self.c1 = math.log2(2.0 + 2.0 ** self.c_ad1)
        self.p_opt = 2.0 ** self.c_ad1 / (2.0 + 2.0 ** self.c_ad1)


def row_problems(row: dict[str, float], ref: Reference) -> list[str]:
    """Every invariant the printed values of one row violate.  Only the
    checks whose columns are present apply."""
    bad: list[str] = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            bad.append(what)

    for name, value in row.items():
        need(math.isfinite(value), f"{name} is not finite")
    if bad:
        return bad
    eta = row["eta"]
    if "c1" in row:
        need(abs(row["c1"] - ref.c1) <= SLACK, "c1 differs from the direct-sum formula")
        if "c1_chain_check" in row:
            need(abs(row["c1"] - row["c1_chain_check"]) <= 1e-4, "c1 two routes disagree")
        if eta == 0.0:
            need(abs(row["c1"] - LOG2_3) <= 1e-6, "c1(0) != log2 3")
        if eta == 1.0:
            need(abs(row["c1"] - 2.0) <= 1e-4, "c1(1) != 2")
    if "q" in row:
        need(row["q"] <= ref.c1 + SLACK, "q > c1")
        if eta < 0.5:
            need(abs(row["q"] - LOG2_3) <= 1e-9, "q off the log2 3 plateau")
        else:
            need(row["q"] >= LOG2_3 - 1e-4, "q below log2 3")
        if eta == 0.5:
            need(abs(row["q"] - LOG2_3) <= 1e-4, "q(1/2) != log2 3")
    if "ce" in row:
        need(ref.c1 <= row["ce"] + SLACK, "c1 > ce")
        need(2.0 * LOG2_3 - 1e-4 <= row["ce"] <= 4.0 + 1e-9, "ce outside [2 log2 3, 4]")
        if eta == 0.0:
            need(abs(row["ce"] - 2.0 * LOG2_3) <= 1e-4, "ce(0) != 2 log2 3")
        if eta == 1.0:
            need(abs(row["ce"] - 4.0) <= 1e-4, "ce(1) != 4")
    if "chi_lb1" in row:
        need(row["chi_lb1"] <= row["chi_lb2"] + SLACK, "chi_lb1 > chi_lb2")
        need(row["chi_lb2"] <= ref.c1 + SLACK, "chi_lb2 > c1")
        need(abs(row["chi_lb2"] - ref.c1) <= 1e-4, "chi_lb2 far from c1")
    for suffix in ("c1", "q", "ce"):
        triple = [row.get(f"{k}_{suffix}") for k in ("alpha", "beta", "delta")]
        if None not in triple:
            a, b, d = triple
            need(min(triple) >= -1e-9 and abs(a + 2.0 * b + d - 1.0) <= 1e-6,
                 f"{suffix} coefficients off the simplex")
    if "p_opt" in row:
        need(1.0 / 3.0 - 1e-9 <= row["p_opt"] <= 0.5 + 1e-9, "p_opt outside [1/3, 1/2]")
        need(abs(row["p_opt"] - ref.p_opt) <= SLACK, "p_opt differs from the reference")
    if "c_ad1" in row:
        need(abs(row["c_ad1"] - ref.c_ad1) <= SLACK, "c_ad1 differs from the reference")
    if "e_phi" in row:
        need(-1e-9 <= row["e_avg"] <= row["e_phi"] + 1e-9 and row["e_phi"] <= 1.0 + 1e-9,
             "entanglement outside 0 <= e_avg <= e_phi <= 1")
    return bad


def parse_csv(text: str, groups) -> tuple[list[dict[str, float] | None], str | None]:
    """Rows of a sweep CSV; a row that does not parse is None.  The second
    value names a header problem, if any."""
    lines = text.splitlines()
    if not lines:
        return [], "empty output"
    wanted = {c for g in groups for c in GROUP_COLUMNS[g]} | {"eta"}
    header = lines[0].split(",")
    expected = [c for c in COLUMN_ORDER if c in wanted]
    problem = None if header == expected else f"header {header} != {expected}"
    rows: list[dict[str, float] | None] = []
    for line in lines[1:]:
        fields = line.split(",")
        try:
            if len(fields) != len(header):
                raise ValueError(line)
            rows.append({k: float(v) for k, v in zip(header, fields)})
        except ValueError:
            rows.append(None)
    return rows, problem


def monotone_failures(points: list[tuple[float, str, float, int]]) -> set[int]:
    """Indices of operations whose value drops below an earlier one.

    ``points`` holds (eta, quantity, value, operation index); c1, q and ce
    must not decrease in eta (slack 1e-6).  The operation at the larger
    eta is blamed.
    """
    failed: set[int] = set()
    for quantity in MONOTONE:
        series = sorted((e, v, i) for e, q, v, i in points if q == quantity)
        running_max = -math.inf
        for _, value, index in series:
            if value < running_max - SLACK:
                failed.add(index)
            running_max = max(running_max, value)
    return failed


def parse_verify(text: str) -> dict[str, list[str]]:
    """CHECK lines by check name: name -> list of statuses."""
    seen: dict[str, list[str]] = {}
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "CHECK":
            status = parts[2] if len(parts) > 2 else "?"
            seen.setdefault(parts[1] if len(parts) > 1 else "?", []).append(status)
    return seen


def verify_failures(code: int, text: str) -> int:
    """Failed checks in one ``verify all`` run (of 11).  A nonzero exit, a
    stray, missing or repeated CHECK line fails at least one."""
    seen = parse_verify(text)
    failed = sum(1 for name in VERIFY_CHECKS if seen.get(name) != ["PASS"])
    strays = sum(len(v) for k, v in seen.items() if k not in VERIFY_CHECKS)
    if code != 0 or strays:
        failed = max(failed, 1)
    return min(failed, len(VERIFY_CHECKS))
