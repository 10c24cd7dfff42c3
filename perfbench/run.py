"""Run one fcad benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload {sweep,verify} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; fcad is imported from ``src/`` there
and the BLAS thread count is pinned to 1.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; progress goes to
stderr.  The program's inputs are fixed (see perfbench/workloads.py), so
the seed only labels the run.

An operation is one call of ``fcad.cli.main``: a full sweep or a
``verify all``.  ``attempted`` counts CSV rows and CHECK lines, ``failed``
those that broke a check (their ratio is the error rate).

--trace 0 measures end to end with tracing off, repeating operations
while the next one, taking as long as the last, still keeps their total
time within ``--seconds`` (but at least 2 operations):
  setup_s      minimum over fresh interpreters of the time to import fcad
               and fcad.cli and make a first call (point c_ad1 at eta 0.5).
               Three interpreters run before the first operation, after
               each one, and their time is not counted against --seconds;
               spread over the whole run, their minimum drops the ones a
               burst of load on the shared host slowed down
  op_mean_ms   mean operation latency, the inverse of the closed-loop
               throughput: a full sweep on sweep, a verify all on verify.
               A run holds 2 to 10 operations, too few for a tail
               percentile; their mean varied least from run to run
  peak_rss_mb  peak resident memory of this process after the timed loop

--trace 1 runs one operation untraced and then traced, so its counts
repeat exactly, and reports the per-layer metrics listed in
BENCHMARK.json.  It fails when the traced output differs from the
untraced one, or when a layer the workload must call reads 0 (the call
path changed under the tracer).  The spans of the traced pass go to
.perfbench/spans-<workload>-seed<n>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import layers  # noqa: E402
from perfbench.workloads import WORKLOADS, run_cli  # noqa: E402

SETUP_PER_GAP = 3
MIN_OPS = 2
WARMUP_ARGV = ["point", "--eta", "0.5", "--quantity", "c_ad1"]
SETUP_CODE = f"""
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, {str(SRC)!r})
import fcad, fcad.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = fcad.cli.main({WARMUP_ARGV!r})
elapsed = time.perf_counter() - t0
print(elapsed if code == 0 else -1.0)
"""


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def import_fcad() -> None:
    """Import fcad from this checkout's src/ and nowhere else."""
    if not (SRC / "fcad" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no fcad sources under {SRC}")
    import fcad
    import fcad.cli

    if Path(fcad.__file__).resolve().parent != SRC / "fcad":
        raise SystemExit(f"perfbench: imported fcad from {fcad.__file__}, not from {SRC}")


def measure_setup() -> list[float]:
    """Set-up times of SETUP_PER_GAP fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_PER_GAP):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        value = float(proc.stdout.strip() or -1.0) if proc.returncode == 0 else -1.0
        if value <= 0.0:
            raise SystemExit(f"perfbench: set-up run failed: {proc.stderr.strip()[-500:]}")
        times.append(value)
    return times


def timed_run(workload: str, seconds: float):
    """Operations until the next one, taking as long as the last, would
    pass ``seconds`` of operation time, with set-up samples between them."""
    argv = WORKLOADS[workload].argv
    outcomes = []
    setup_times = measure_setup()
    busy = 0.0
    while len(outcomes) < MIN_OPS or busy + outcomes[-1].seconds <= seconds:
        outcomes.append(run_cli(argv))
        busy += outcomes[-1].seconds
        setup_times += measure_setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return outcomes, min(setup_times), peak_rss_mb


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_fcad()
    check = WORKLOADS[args.workload].check
    if args.trace:
        run_cli(WARMUP_ARGV)
        log(f"{args.workload}: traced run, seed {args.seed}")
        untraced, traced, tracer = layers.traced_run(args.workload)
        missing = layers.uncalled(tracer, args.workload)
        if missing:
            raise SystemExit(f"perfbench: {args.workload} never called {', '.join(missing)}; "
                             "update perfbench/layers.py to the program's call path")
        tally = check([untraced, traced])
        if (untraced.code, untraced.out) != (traced.code, traced.out):
            tally.failed += 1  # tracing must not change a byte
        metrics = layers.metrics(tracer, (traced.seconds, untraced.seconds), SRC / "fcad")
        layers.write_spans(tracer, ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        run_cli(WARMUP_ARGV)
        log(f"{args.workload}: timing for {args.seconds:g} s, seed {args.seed}")
        outcomes, setup_s, peak_rss_mb = timed_run(args.workload, args.seconds)
        tally = check(outcomes)
        log(f"{args.workload}: {len(outcomes)} operations, set-up {setup_s:.3f} s")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_mean_ms": {"value": 1000.0 * statistics.fmean(o.seconds for o in outcomes), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
