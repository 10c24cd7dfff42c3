"""The traced run: which fcad functions are wrapped, and the per-layer
metrics read off the tracer.

Spans sit at the cli, capacities, optimizer, covariance and verifier
boundaries; the leaf functions of entropy, channels and qmat keep
counters.  The callables that capacities passes into the optimizers are
wrapped too, which splits maximize_simplex into its vectorized coarse scan
(``optimizer.coarse``, counting array elements) and its scalar refine
stage (``optimizer.refine``), and maximize_1d into its search loop and its
objective (``optimizer.line``).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from perfbench.tracer import Target, Tracer
from perfbench.workloads import WORKLOADS, run_cli

TARGETS = (
    Target("fcad.cli", "main", span=True),
    Target("fcad.capacities", "capacity_point", span=True),
    Target("fcad.capacities", "verify_symmetrization_chain", span=True),
    Target("fcad.capacities", "verify_state_splitting_inequality", span=True),
    Target("fcad.capacities", "verify_entangled_pair_inequality", span=True),
    Target("fcad.optimizer", "maximize_simplex", span=True,
           args=(("objective", "optimizer.refine", False), ("grid_objective", "optimizer.coarse", True))),
    Target("fcad.optimizer", "maximize_1d", span=True, args=(("objective", "optimizer.line", False),)),
    Target("fcad.covariance", "check_covariance", span=True),
    Target("fcad.covariance", "check_degradability", span=True),
    Target("fcad.covariance", "check_kraus_commutation", span=True),
    Target("fcad.channels", "check_composition", span=True),
    Target("fcad.entropy", "xlog2"),
    Target("fcad.entropy", "h2"),
    Target("fcad.entropy", "holevo"),
    Target("fcad.entropy", "vn_entropy"),
    Target("fcad.channels", "apply"),
    Target("fcad.channels", "fc_channel"),
    Target("fcad.channels", "complementary_output"),
    Target("fcad.qmat", "density_eigenvalues"),
    Target("fcad.qmat", "random_density"),
)

# metric name -> (counter, field).  Every wrapped counter also reports its
# self time as a percentage of the traced wall time (trace.wall_s): shares
# hold still when the host's speed drifts between runs, seconds do not.
# Shares sum to 100%, so compare.py reports them without a verdict.
COUNTED = {
    "optimizer.coarse.points": ("optimizer.coarse", "items"),
    "optimizer.refine.evals": ("optimizer.refine", "calls"),
    "optimizer.maximize_1d.evals": ("optimizer.line", "calls"),
}
CALLS = (
    "optimizer.maximize_simplex", "optimizer.maximize_1d", "entropy.xlog2", "entropy.h2",
    "entropy.holevo", "entropy.vn_entropy", "channels.apply", "channels.fc_channel",
    "channels.complementary_output", "qmat.density_eigenvalues", "qmat.random_density",
    "capacities.capacity_point", "cli.main",
)
TIMED = tuple(t.label for t in TARGETS) + ("optimizer.coarse", "optimizer.refine", "optimizer.line")
SRC_MODULES = ("__init__", "capacities", "channels", "cli", "covariance", "entropy", "optimizer", "qmat")
TRACE_TIMES = ("trace.wall_s", "trace.untraced_s", "trace.overhead_s", "trace.unattributed_s")


def metric_units() -> dict[str, str]:
    """Every per-layer metric, in report order, with its unit."""
    units = {name: "count" for name in COUNTED}
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update({f"{name}.self_pct": "%" for name in TIMED})
    units.update({name: "s" for name in TRACE_TIMES})
    units["src.lines"] = "lines"
    units.update({f"src.{m}.lines": "lines" for m in SRC_MODULES})
    return units


# Counters that must be called on each workload.  One that reads 0 means
# the call path changed under the tracer (a wrapped callable no longer
# passed, a leaf inlined), and the layer table would be silently wrong.
EXPECTED = {
    "sweep": ("cli.main", "capacities.capacity_point", "optimizer.maximize_simplex", "optimizer.maximize_1d",
              "optimizer.coarse", "optimizer.refine", "optimizer.line", "entropy.xlog2", "entropy.h2"),
    "verify": ("cli.main", "capacities.verify_symmetrization_chain", "capacities.verify_state_splitting_inequality",
               "capacities.verify_entangled_pair_inequality", "covariance.check_covariance",
               "covariance.check_degradability", "covariance.check_kraus_commutation", "channels.check_composition",
               "entropy.holevo", "entropy.vn_entropy", "channels.apply", "channels.fc_channel",
               "channels.complementary_output", "qmat.density_eigenvalues", "qmat.random_density"),
}


def traced_run(workload: str):
    """One operation of the workload, once untraced and once traced."""
    argv = WORKLOADS[workload].argv
    untraced = run_cli(argv)
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        traced = run_cli(argv)
    finally:
        tracer.uninstall()
    return untraced, traced, tracer


def uncalled(tracer: Tracer, workload: str) -> list[str]:
    """Counters this workload must call that read 0."""
    return [name for name in EXPECTED[workload] if tracer.counter(name).calls == 0]


def write_spans(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([dataclasses.asdict(s) for s in tracer.spans]) + "\n")


def line_count(path: Path) -> int:
    return path.read_text().count("\n")


def metrics(tracer: Tracer, walls: tuple[float, float], package: Path) -> dict:
    traced_wall, untraced_wall = walls
    values: dict[str, float] = {}
    for name, (counter, field) in COUNTED.items():
        values[name] = getattr(tracer.counter(counter), field)
    for name in CALLS:
        values[f"{name}.calls"] = tracer.counter(name).calls
    for name in TIMED:
        values[f"{name}.self_pct"] = 100.0 * tracer.counter(name).self_s / traced_wall
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.unattributed_s"] = traced_wall - tracer.total_self_s()
    values["src.lines"] = sum(line_count(p) for p in package.rglob("*.py"))
    for module in SRC_MODULES:
        path = package / f"{module}.py"
        values[f"src.{module}.lines"] = line_count(path) if path.is_file() else 0
    units = metric_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}
