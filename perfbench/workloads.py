"""The workloads, the operation runner and the per-workload checks.

Both workloads are closed loops with one client: one process, one thread,
each operation starting when the previous one returned.  fcad receives
only the fixed argv.

- sweep: the paper's headline table (51 rows, all quantities).  Its time
  is in the optimizer refine stages and scalar xlog2/h2; it never applies
  a channel.
- verify: the 11 numerical certificates.  Its time is in the dense-matrix
  path (holevo -> apply + density_eigenvalues); it never optimizes.

Neither reads --seed: the program's inputs are the fixed argv, and the
seed only labels the run.
"""

from __future__ import annotations

import contextlib
import io
import sys
import traceback
from dataclasses import dataclass
from typing import Callable
from time import perf_counter

from perfbench import checks

SWEEP_ARGV = ("sweep", "--eta-step", "0.02")
SWEEP_GROUPS = tuple(checks.GROUP_COLUMNS)
SWEEP_ROWS = 51
VERIFY_ARGV = ("verify", "all")


@dataclass(frozen=True)
class Outcome:
    code: int | str
    out: str
    seconds: float


def run_cli(argv) -> Outcome:
    """Call ``fcad.cli.main`` in-process with stdout captured."""
    cli = sys.modules["fcad.cli"]
    buf = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the program crashed: a failed operation
        traceback.print_exc(file=sys.stderr)
        code = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    return Outcome(code, buf.getvalue(), seconds)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def check_sweeps(outcomes: list[Outcome]) -> Tally:
    """Each full sweep: 51 rows on the 0.02 grid, every row invariant,
    monotone c1, q and ce, and the same bytes as the first sweep."""
    tally = Tally()
    etas = [round(0.02 * k, 12) for k in range(SWEEP_ROWS)]
    refs = {eta: checks.Reference(eta) for eta in etas}
    first = outcomes[0].out if outcomes else ""
    for outcome in outcomes:
        if outcome.code != 0:
            tally.add(SWEEP_ROWS, SWEEP_ROWS)
            continue
        rows, header_problem = checks.parse_csv(outcome.out, SWEEP_GROUPS)
        if header_problem:
            tally.add(SWEEP_ROWS, SWEEP_ROWS)
            continue
        bad = set(range(len(rows), SWEEP_ROWS))  # missing rows
        series = []
        for k, row in enumerate(rows[:SWEEP_ROWS]):
            if row is None or abs(row["eta"] - etas[k]) > 1e-12 or checks.row_problems(row, refs[etas[k]]):
                bad.add(k)
                continue
            series += [(row["eta"], q, row[q], k) for q in checks.MONOTONE]
        bad |= checks.monotone_failures(series)
        bad |= set(range(SWEEP_ROWS, len(rows)))  # extra rows
        if outcome.out != first:
            first_lines = first.splitlines()[1:]
            bad |= {k for k, line in enumerate(outcome.out.splitlines()[1:])
                    if k >= len(first_lines) or line != first_lines[k]}
        tally.add(max(SWEEP_ROWS, len(rows)), len(bad))
    return tally


def check_verifies(outcomes: list[Outcome]) -> Tally:
    tally = Tally()
    for outcome in outcomes:
        tally.add(len(checks.VERIFY_CHECKS), checks.verify_failures(outcome.code, outcome.out))
    return tally


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple[str, ...]
    check: Callable[[list[Outcome]], Tally]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", "the paper's 51-row capacity table: optimizer refine stages and scalar entropy, no channel algebra",
                 SWEEP_ARGV, check_sweeps),
        Workload("verify", "the 11 certificates: dense channel application and eigenvalues, no optimizer",
                 VERIFY_ARGV, check_verifies),
    )
}
