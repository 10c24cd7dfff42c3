"""Collect result sets, check their spread and determinism, and compare a
parent commit with a change.

    # ten seeds of every workload in two checkouts, alternating which runs first
    python3 perfbench/compare.py collect --out runs.jsonl --seeds 1-10 parent=../a change=.
    python3 perfbench/compare.py collect --out runs.jsonl --seeds 1-3 --trace 1 parent=../a change=.
    # spread of each end-to-end metric, and exact-count repeat check
    python3 perfbench/compare.py spread runs.jsonl
    # one row per (metric, workload) with both medians and the verdict
    python3 perfbench/compare.py compare runs.jsonl --parent parent --change change
    # record one side as the baseline
    python3 perfbench/compare.py baseline runs.jsonl --side parent --commit <sha> --out perfbench/baseline.json

A result set is a JSON-lines file; each line holds the side, workload,
seed, trace flag and the result line printed by run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.stats import summarize, verdict  # noqa: E402

EXACT_SUFFIXES = (".calls", ".evals", ".points")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(directory: Path, command, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=directory, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return {"result": json.loads(lines[-1])}


def cmd_collect(args) -> int:
    spec = load_spec()
    sides = []
    for item in args.sides:
        label, sep, directory = item.partition("=")
        if not sep:
            raise SystemExit(f"expected SIDE=DIR, got {item!r}")
        sides.append((label, Path(directory).resolve()))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for workload in workloads:
                order = sides if seed % 2 else sides[::-1]
                for label, directory in order:
                    record = {"side": label, "workload": workload, "seed": seed, "trace": args.trace}
                    record.update(run_once(directory, spec["command"], workload, seed, seconds, args.trace))
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    status = record.get("error") or {k: v for k, v in record["result"].items() if k != "metrics"}
                    print(f"{label} {workload} seed={seed} trace={args.trace}: {status}", file=sys.stderr)
    return 0


def load_runs(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def group(runs, trace: int):
    """(side, workload) -> [(seed, result)], for good runs with this trace flag."""
    out: dict[tuple[str, str], list[tuple[int, dict]]] = defaultdict(list)
    for run in runs:
        if run["trace"] == trace and "result" in run:
            out[(run["side"], run["workload"])].append((run["seed"], run["result"]))
    return out


def nondeterministic(results: list[tuple[int, dict]]) -> set[str]:
    """Exact counts that differ between runs of one workload.  The program's
    inputs do not depend on the seed, so every run must count the same."""
    seen: dict[str, set] = defaultdict(set)
    for _, result in results:
        for name, metric in result["metrics"].items():
            if name.endswith(EXACT_SUFFIXES):
                seen[name].add(metric["value"])
    return {name for name, values in seen.items() if len(values) > 1}


def failures(runs) -> list[str]:
    bad = []
    for run in runs:
        if "error" in run:
            bad.append(f"{run['side']} {run['workload']} seed={run['seed']}: {run['error']}")
        elif not run["result"]["correct"] or run["result"]["failed"]:
            r = run["result"]
            bad.append(f"{run['side']} {run['workload']} seed={run['seed']}: "
                       f"failed {r['failed']} of {r['attempted']}")
    return bad


def cmd_spread(args) -> int:
    spec = load_spec()
    runs = load_runs(args.file)
    ok = True
    for line in failures(runs):
        print(f"FAILED RUN  {line}")
        ok = False
    print(f"{'side':8} {'workload':8} {'metric':14} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  status")
    for (side, workload), results in sorted(group(runs, 0).items()):
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for _, r in results]
            s = summarize(values)
            bound = metric["bound"]
            status = "steady" if s.spread < bound / 3 else "within bound" if s.spread <= bound else "TOO WIDE"
            ok &= s.spread <= bound
            print(f"{side:8} {workload:8} {metric['name']:14} {s.n:3d} {s.median:12.6g} {s.q1:12.6g} "
                  f"{s.q3:12.6g} {s.spread:7.2%} {bound:6.2f}  {status}")
    for (side, workload), results in sorted(group(runs, 1).items()):
        bad = nondeterministic(results)
        print(f"{side} {workload}: {len(results)} traced runs, "
              + (f"DETERMINISM FAILURE in {sorted(bad)}" if bad else "every exact count repeats"))
        ok &= not bad
    return 0 if ok else 1


def cmd_compare(args) -> int:
    spec = load_spec()
    runs = load_runs(args.file)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    bounds.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    # shares of traced wall time sum to 100%: when one layer gets faster the
    # others' shares rise, so a share gets no improved/worse verdict
    shares = {m["name"] for m in spec["per_layer"] if m["unit"] == "%"}
    for line in failures(runs):
        print(f"FAILED RUN  {line}")
    print(f"{'metric':44} {'workload':8} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36} "
          f"{'wins':>5}  verdict")
    for trace in (0, 1):
        grouped = group(runs, trace)
        for workload in [w["name"] for w in spec["workloads"]]:
            parent_runs = grouped.get((args.parent, workload), [])
            change_runs = grouped.get((args.change, workload), [])
            bad = nondeterministic(parent_runs) | nondeterministic(change_runs)
            parent, change = dict(parent_runs), dict(change_runs)
            seeds = sorted(set(parent) & set(change))
            if not seeds:
                continue
            names = [m["name"] for m in (spec["per_layer"] if trace else spec["end_to_end"])]
            for name in names:
                p = [parent[s]["metrics"][name]["value"] for s in seeds]
                c = [change[s]["metrics"][name]["value"] for s in seeds]
                if name in bad:
                    print(f"{name:44} {workload:8} {'':>36} {'':>36} {'':>5}  DETERMINISM FAILURE")
                    continue
                better, bound = bounds[name]
                result, wins = verdict(p, c, better, bound)
                if name in shares and result != "same":
                    result = "share, no verdict"
                ps, cs = summarize(p), summarize(c)
                print(f"{name:44} {workload:8} "
                      f"{f'{ps.median:.6g} [{ps.q1:.6g}, {ps.q3:.6g}]':>36} "
                      f"{f'{cs.median:.6g} [{cs.q1:.6g}, {cs.q3:.6g}]':>36} {wins:5.0%}  {result}")
    return 0


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": 1,
        "platform": platform.platform(),
    }


def cmd_baseline(args) -> int:
    spec = load_spec()
    runs = [r for r in load_runs(args.file) if r["side"] == args.side]
    bad = failures(runs)
    if bad:
        raise SystemExit("refusing a baseline with failed runs:\n" + "\n".join(bad))
    workloads: dict[str, dict] = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for (_, workload), results in sorted(group(runs, trace).items()):
            entry = workloads.setdefault(workload, {})
            entry[f"{key}_runs"] = len(results)
            entry[key] = {}
            for metric in spec[key]:
                values = [r["metrics"][metric["name"]]["value"] for _, r in results]
                s = summarize(values)
                entry[key][metric["name"]] = {"median": s.median, "q1": s.q1, "q3": s.q3}
    baseline = {
        "commit": args.commit,
        "machine": machine(),
        "run_seconds": spec["run_seconds"],
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    collect = sub.add_parser("collect", help="run the benchmark in one or more checkouts")
    collect.add_argument("--out", required=True)
    collect.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    collect.add_argument("--workload", action="append", help="repeatable; default: all")
    collect.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    collect.add_argument("--trace", type=int, choices=(0, 1), default=0)
    collect.add_argument("sides", nargs="+", metavar="SIDE=DIR")
    collect.set_defaults(func=cmd_collect)
    spread = sub.add_parser("spread", help="spread per metric and exact-count repeat check")
    spread.add_argument("file")
    spread.set_defaults(func=cmd_spread)
    compare = sub.add_parser("compare", help="parent-versus-change table")
    compare.add_argument("file")
    compare.add_argument("--parent", required=True)
    compare.add_argument("--change", required=True)
    compare.set_defaults(func=cmd_compare)
    base = sub.add_parser("baseline", help="write one side's medians and quartiles")
    base.add_argument("file")
    base.add_argument("--side", required=True)
    base.add_argument("--commit", required=True)
    base.add_argument("--out", required=True)
    base.set_defaults(func=cmd_baseline)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
