"""Command line front end: capacity sweeps to CSV, single-point reports,
and the numerical verification suites.

Exit codes: 0 all good, 1 a verification check failed, 2 configuration
or I/O error, including settings the library rejects with ValueError.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import capacities, covariance
from .channels import check_composition
from .optimizer import OptimResult

__all__ = ["InvalidConfigError", "SweepConfig", "main"]

QUANTITIES = ("c1", "q", "ce", "bounds", "coeffs", "entanglement", "p_opt", "c_ad1")
POINT_QUANTITIES = ("c1", "q", "ce", "bounds", "p_opt", "c_ad1")
SUITES = ("covariance", "degradability", "inequalities", "symmetrization", "composition", "all")

# finest sweep: one row per 1e-4 of eta over [0, 1]
MAX_SWEEP_ROWS = 10_001
# how far past eta_end the last grid point may land
_ETA_SLACK = 1e-9
# most samples inequalities may draw; it streams them in fixed chunks, so the cap bounds its
# time (about 0.6 s for the whole process on a 2-CPU machine), not its memory
MAX_SAMPLES = 1_000_000
# most samples each suite may draw: the other suites loop in Python per sample, and each is
# capped where it runs in about 50 s on a 2-CPU machine; all takes the smallest cap of its suites
SUITE_MAX_SAMPLES = {
    "covariance": 10_000,
    "degradability": 20_000,
    "inequalities": MAX_SAMPLES,
    "symmetrization": 8_000,
    "composition": 150_000,
}
# largest deviation the covariance, degradability and composition checks pass
DEVIATION_TOL = 1e-12
# largest deviation the Kraus commutation relations pass
KRAUS_TOL = 1e-14

# (column, quantity group that switches it on or None if always emitted, CapacityPoint attribute path)
_COLUMNS = (
    ("eta", None, "eta"),
    ("c1", "c1", "c1"),
    ("c1_chain_check", "c1", "c1_opt"),
    ("q", "q", "q"),
    ("ce", "ce", "ce"),
    ("chi_lb1", "bounds", "chi_lb1"),
    ("chi_lb2", "bounds", "c1_opt"),
    ("alpha_c1", "coeffs", "coeffs_c1.alpha"),
    ("beta_c1", "coeffs", "coeffs_c1.beta"),
    ("delta_c1", "coeffs", "coeffs_c1.delta"),
    ("alpha_q", "coeffs", "coeffs_q.alpha"),
    ("beta_q", "coeffs", "coeffs_q.beta"),
    ("delta_q", "coeffs", "coeffs_q.delta"),
    ("alpha_ce", "coeffs", "coeffs_ce.alpha"),
    ("beta_ce", "coeffs", "coeffs_ce.beta"),
    ("delta_ce", "coeffs", "coeffs_ce.delta"),
    ("p_opt", "p_opt", "p_opt"),
    ("c_ad1", "c_ad1", "c_ad1"),
    ("e_phi", "entanglement", "e_phi"),
    ("e_avg", "entanglement", "e_avg"),
)


class InvalidConfigError(ValueError):
    """Bad command line or config file input."""


@dataclass
class SweepConfig:
    eta_start: float = 0.0
    eta_end: float = 1.0
    eta_step: float = 0.05
    quantities: tuple[str, ...] = QUANTITIES
    output_path: str | None = None

    def validate(self) -> "SweepConfig":
        if not 0.0 <= self.eta_start <= self.eta_end <= 1.0:
            raise InvalidConfigError(
                f"need 0 <= eta-start <= eta-end <= 1, got [{self.eta_start}, {self.eta_end}]"
            )
        if not 0.0 < self.eta_step < math.inf:
            raise InvalidConfigError(f"eta-step must be finite and positive, got {self.eta_step}")
        if (self.eta_end + _ETA_SLACK - self.eta_start) / self.eta_step >= MAX_SWEEP_ROWS:
            raise InvalidConfigError(
                f"eta-step {self.eta_step} gives more than {MAX_SWEEP_ROWS} rows "
                f"over [{self.eta_start}, {self.eta_end}]"
            )
        bad = [q for q in self.quantities if q not in QUANTITIES]
        if bad or not self.quantities:
            raise InvalidConfigError(
                f"unknown quantities {bad}; choose from {', '.join(QUANTITIES)}"
            )
        return self


def _parse_quantities(text: str) -> tuple[str, ...]:
    names = tuple(q.strip() for q in text.split(",") if q.strip())
    if names == ("all",):
        return QUANTITIES
    return names


# SweepConfig field -> parser of its text, shared by the config file and the flags
_FIELDS = {
    "eta_start": float,
    "eta_end": float,
    "eta_step": float,
    "quantities": _parse_quantities,
    "output_path": str,
}


def _load_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidConfigError(f"cannot read config file {path}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise InvalidConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key = key.strip().replace("-", "_")
        key = "output_path" if key == "out" else key
        if key not in _FIELDS:
            raise InvalidConfigError(f"unknown config key {key!r}")
        out[key] = value.strip()
    return out


def _sweep_config(args: argparse.Namespace) -> SweepConfig:
    raw = _load_config_file(args.config) if args.config is not None else {}
    # flags win over the config file
    raw.update({key: getattr(args, key) for key in _FIELDS if getattr(args, key) is not None})
    try:
        values = {key: _FIELDS[key](text) for key, text in raw.items()}
    except ValueError as exc:
        raise InvalidConfigError(f"bad value in config file: {exc}") from exc
    return SweepConfig(**values).validate()


def _fmt(value: float) -> str:
    value = float(value)
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return format(value, ".9g")


def _eta_grid(cfg: SweepConfig) -> list[float]:
    """eta_start + i eta_step for every i that stays within eta_end (up to a slack)."""
    n = math.floor((cfg.eta_end + _ETA_SLACK - cfg.eta_start) / cfg.eta_step) + 1
    return [min(cfg.eta_start + i * cfg.eta_step, 1.0) for i in range(n)]


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _sweep_config(args)
    selected = set(cfg.quantities)
    columns = [(name, attrgetter(path)) for name, group, path in _COLUMNS if group is None or group in selected]
    lines = [",".join(name for name, _ in columns)]
    for eta in _eta_grid(cfg):
        pt = capacities.capacity_point(eta)
        lines.append(",".join(_fmt(value(pt)) for _, value in columns))
    text = "\n".join(lines) + "\n"
    if cfg.output_path is None:
        sys.stdout.write(text)
    else:
        try:
            Path(cfg.output_path).write_text(text)
        except OSError as exc:
            raise InvalidConfigError(f"cannot write {cfg.output_path}: {exc}") from exc
    return 0


def cmd_point(args: argparse.Namespace) -> int:
    eta = args.eta
    if not 0.0 <= eta <= 1.0:
        raise InvalidConfigError(f"eta must be in [0, 1], got {eta}")
    lines = [f"eta = {_fmt(eta)}", f"quantity = {args.quantity}"]
    if args.quantity == "c1":
        closed = capacities.c1(eta)
        opt = capacities.c1_via_optimization(eta)
        lines += [f"value = {_fmt(closed.value)}", f"optimized = {_fmt(opt.value)}", *_point_lines(opt)]
    elif args.quantity == "q":
        res = capacities.q_capacity(eta)
        lines += [f"value = {_fmt(res.value)}", *_point_lines(res)]
    elif args.quantity == "ce":
        res = capacities.ce_capacity(eta)
        lines += [f"value = {_fmt(res.value)}", *_point_lines(res)]
    elif args.quantity == "bounds":
        lb1, lb2 = capacities.c1_lower_bounds(eta)
        lines += [f"chi_lb1 = {_fmt(lb1)}", f"chi_lb2 = {_fmt(lb2)}"]
    elif args.quantity == "p_opt":
        lines.append(f"value = {_fmt(capacities.p_opt(eta))}")
    elif args.quantity == "c_ad1":
        res = capacities.c_ad1_search(eta)
        lines += [f"value = {_fmt(res.value)}", f"p1 = {_fmt(res.point)}", f"evaluations = {res.evaluations}"]
        lines.append(f"final_step = {_fmt(res.grid_step_final)}")
    print("\n".join(lines))
    return 0


def _point_lines(res: OptimResult) -> list[str]:
    return [
        f"alpha = {_fmt(res.point.alpha)}",
        f"beta = {_fmt(res.point.beta)}",
        f"delta = {_fmt(res.point.delta)}",
        f"evaluations = {res.evaluations}",
        f"final_step = {_fmt(res.grid_step_final)}",
    ]


def _emit(name: str, passed: bool, margin: float, worst: str = "") -> bool:
    print(f"CHECK {name} {'PASS' if passed else 'FAIL'} margin={format(margin, '.3g')}{worst}")
    return passed


def cmd_verify(args: argparse.Namespace) -> int:
    suites = SUITES[:-1] if args.suite == "all" else (args.suite,)
    if args.seed < 0:
        raise InvalidConfigError(f"seed must be nonnegative, got {args.seed}")
    cap = min(SUITE_MAX_SAMPLES[suite] for suite in suites)
    if args.samples is not None and not 1 <= args.samples <= cap:
        raise InvalidConfigError(f"samples must be in [1, {cap}] for suite {args.suite}, got {args.samples}")
    # each suite draws its own default number of samples unless --samples is given
    samples = () if args.samples is None else (args.samples,)
    ok = True

    if "covariance" in suites:
        for op in covariance.symmetry_ops():
            dev = max(
                covariance.check_covariance(eta, op, *samples, seed=args.seed)
                for eta in np.linspace(0.0, 1.0, 11)
            )
            ok &= _emit(f"covariance_{op.name}", dev < DEVIATION_TOL, dev)
        commutation = covariance.check_kraus_commutation()
        cdev = max(commutation.values())
        ok &= _emit("kraus_commutation", cdev < KRAUS_TOL, cdev)

    if "degradability" in suites:
        dev = max(
            covariance.check_degradability(eta, *samples, seed=args.seed)
            for eta in np.arange(0.50, 1.0 + 1e-9, 0.05)
        )
        ok &= _emit("degradability", dev < DEVIATION_TOL, dev)

    def worst(index: int, eta: float) -> str:
        return f" seed={args.seed} index={index} eta={_fmt(eta)}"

    if "inequalities" in suites:
        split = capacities.verify_state_splitting_inequality(*samples, seed=args.seed)
        ok &= _emit("state_splitting", split.passed, split.min_margin, worst(split.worst_index, split.worst_eta))
        pair = capacities.verify_entangled_pair_inequality()
        ok &= _emit("entangled_pair", pair.passed, pair.min_margin)

    if "symmetrization" in suites:
        chain = capacities.verify_symmetrization_chain(*samples, seed=args.seed)
        chain_margin = min(chain.min_step_margins.values())
        ok &= _emit("symmetrization_chain", chain.chain_passed, chain_margin, worst(*chain.worst_chain_sample))
        ok &= _emit("separable_gain", chain.gain_passed, chain.min_separable_gain, worst(*chain.worst_gain_sample))

    if "composition" in suites:
        dev = check_composition(*samples, seed=args.seed)
        ok &= _emit("composition", dev < DEVIATION_TOL, dev)

    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """Reads every float-looking token (-1e-05, -.5, -inf, -nan) as a value, not only plain negative
    decimals, and reports a usage error as one ``error:`` line on stderr with exit code 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fcad",
        description="Capacities of the fully correlated two-qubit amplitude damping channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="write a CSV table of capacities over a transmissivity grid")
    sweep.add_argument("--eta-start", type=float, default=None)
    sweep.add_argument("--eta-end", type=float, default=None)
    sweep.add_argument("--eta-step", type=float, default=None)
    sweep.add_argument(
        "--quantities",
        type=str,
        default=None,
        help=f"comma separated subset of {{{','.join(QUANTITIES)}}} or 'all'",
    )
    sweep.add_argument("--out", dest="output_path", type=str, default=None, help="output CSV path (default: stdout)")
    sweep.add_argument("--config", type=str, default=None, help="key = value config file; flags win")
    sweep.set_defaults(func=cmd_sweep)

    point = sub.add_parser("point", help="report one quantity at one transmissivity")
    point.add_argument("--eta", type=float, required=True)
    point.add_argument("--quantity", choices=POINT_QUANTITIES, required=True)
    point.set_defaults(func=cmd_point)

    verify = sub.add_parser("verify", help="run a numerical verification suite")
    verify.add_argument("suite", choices=SUITES)
    verify.add_argument("--samples", type=int, default=None)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # InvalidConfigError, or library argument checks
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
