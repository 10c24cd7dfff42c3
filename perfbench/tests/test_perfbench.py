"""Tests of the benchmark's own logic: output checks, statistics, tracing.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, layers, stats  # noqa: E402
from perfbench.tracer import Target, Tracer  # noqa: E402
from perfbench.workloads import Outcome, check_sweeps, check_verifies  # noqa: E402

VERIFY_OK = "\n".join(f"CHECK {name} PASS margin=0" for name in checks.VERIFY_CHECKS) + "\n"


@pytest.fixture(scope="module")
def sweep_csv():
    """A real sweep on a coarse grid, so the row checks meet fcad's own
    output while the test stays fast."""
    from fcad.cli import main
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["sweep", "--eta-step", "0.25", "--quantities", "c_ad1,p_opt"]) == 0
    return buf.getvalue()


def _full_row(eta, ref):
    """A row of every column that satisfies every invariant."""
    q = checks.LOG2_3 if eta < 0.5 else min(ref.c1, checks.LOG2_3 + (eta - 0.5))
    row = {c: 0.25 for c in checks.COEFFS}
    row.update(eta=eta, c1=ref.c1, c1_chain_check=ref.c1, q=q, ce=max(2 * checks.LOG2_3, 2 * ref.c1),
               chi_lb1=ref.c1 - 0.01, chi_lb2=ref.c1, p_opt=ref.p_opt, c_ad1=ref.c_ad1, e_phi=0.9, e_avg=0.4)
    return row


def _csv(rows):
    lines = [",".join(checks.COLUMN_ORDER)]
    lines += [",".join(format(r[c], ".9g") for c in checks.COLUMN_ORDER) for r in rows]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def good_sweep():
    etas = [round(0.02 * k, 12) for k in range(51)]
    return _csv([_full_row(e, checks.Reference(e)) for e in etas])


def _sweep(out, code=0):
    return Outcome(code, out, 1.0)


def test_reference_matches_fcad_c_ad1():
    from fcad.capacities import c_ad1

    for eta in (0.0, 0.1, 0.37, 0.5, 0.9, 1.0):
        assert abs(checks.c_ad1_reference(eta) - c_ad1(eta)) < 1e-9


def test_good_sweep_passes(good_sweep):
    tally = check_sweeps([_sweep(good_sweep), _sweep(good_sweep)])
    assert (tally.attempted, tally.failed) == (102, 0)


def test_corrupted_csv_row_is_flagged(good_sweep):
    lines = good_sweep.splitlines()
    lines[10] = lines[10].replace(",", ";", 1)
    tally = check_sweeps([_sweep("\n".join(lines) + "\n")])
    assert (tally.attempted, tally.failed) == (51, 1)


def test_wrong_value_and_nonmonotone_rows_are_flagged(good_sweep):
    lines = good_sweep.splitlines()
    fields = lines[31].split(",")
    fields[1] = "1.9"  # c1 at eta = 0.6: off the reference and below its neighbour
    lines[31] = ",".join(fields)
    tally = check_sweeps([_sweep("\n".join(lines) + "\n")])
    assert tally.failed >= 1


def test_sweep_bytes_must_repeat(good_sweep):
    changed = good_sweep.replace("0.25,", "0.250000001,", 1)
    tally = check_sweeps([_sweep(good_sweep), _sweep(changed)])
    assert tally.failed == 1


def test_nonzero_exit_fails_every_row(good_sweep):
    assert check_sweeps([_sweep(good_sweep, code=1)]).failed == 51


def test_real_sweep_header_mismatch_is_flagged(sweep_csv):
    # the reduced sweep lacks the full header and rows, so as a full sweep it fails
    assert check_sweeps([_sweep(sweep_csv)]).failed == 51


def test_real_partial_sweep_rows_pass(sweep_csv):
    rows, problem = checks.parse_csv(sweep_csv, ("c_ad1", "p_opt"))
    assert problem is None and len(rows) == 5
    for row in rows:
        assert checks.row_problems(row, checks.Reference(row["eta"])) == []


def _verify(out, code=0):
    return Outcome(code, out, 1.0)


def test_verify_pass():
    tally = check_verifies([_verify(VERIFY_OK)])
    assert (tally.attempted, tally.failed) == (11, 0)


def test_verify_fail_line_is_flagged():
    out = VERIFY_OK.replace("CHECK degradability PASS", "CHECK degradability FAIL")
    assert check_verifies([_verify(out, code=1)]).failed == 1


def test_verify_nonzero_exit_is_flagged():
    assert check_verifies([_verify(VERIFY_OK, code=1)]).failed == 1


def test_verify_missing_and_repeated_lines_are_flagged():
    lines = VERIFY_OK.splitlines()
    assert check_verifies([_verify("\n".join(lines[:-1]))]).failed == 1
    assert check_verifies([_verify("\n".join(lines + lines[:1]))]).failed == 1


def test_monotonicity_failure_blames_the_larger_eta():
    failed = checks.monotone_failures([(0.2, "c1", 1.7, 0), (0.5, "c1", 1.6, 1), (0.4, "q", 1.58, 2)])
    assert failed == {1}


def test_summary_uses_statistics_quartiles():
    values = [1.0, 2.0, 4.0, 8.0, 16.0, 3.0, 5.0, 7.0, 11.0, 13.0]
    s = stats.summarize(values)
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert (s.q1, s.median, s.q3) == (q1, med, q3)
    assert s.spread == pytest.approx((q3 - q1) / med)


def test_verdicts():
    parent = [100.0 + i for i in range(10)]
    assert stats.verdict(parent, [80.0 + i for i in range(10)], "lower", 0.1)[0] == "improved"
    assert stats.verdict(parent, [101.0 + i for i in range(10)], "lower", 0.1)[0] == "no worse"
    assert stats.verdict(parent, [130.0 + i for i in range(10)], "lower", 0.1)[0] == "worse"
    noisy = [50.0, 150.0] * 5
    assert stats.verdict(noisy, [100.0] * 10, "lower", 0.1)[0] == "unresolved"
    assert stats.verdict(parent, parent, "lower", None)[0] == "same"
    assert stats.verdict(parent, [130.0 + i for i in range(10)], "lower", None)[0] == "worse"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        tracer.call("leaf", leaf)
        tracer.call("leaf", leaf)
        clock.now += 0.5

    def root():
        clock.now += 3.0
        tracer.call("middle", middle, span=True)

    tracer.call("root", root, span=True)
    got = {name: (c.calls, c.self_s) for name, c in tracer.counters.items()}
    assert got == {"root": (1, 3.0), "middle": (1, 2.5), "leaf": (2, 2.0)}
    assert tracer.total_self_s() == 7.5 == clock.now
    spans = {s.name: s for s in tracer.spans}
    assert spans["middle"].parent_id == spans["root"].span_id
    assert spans["root"].parent_id is None
    assert (spans["root"].start, spans["root"].end) == (0.0, 7.5)


def test_self_time_survives_exceptions():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise RuntimeError

    def outer():
        clock.now += 1.0
        with pytest.raises(RuntimeError):
            tracer.call("boom", boom)

    tracer.call("outer", outer)
    assert tracer.counters["outer"].self_s == 1.0 and tracer.counters["boom"].self_s == 1.0


def test_install_patches_from_imports_and_restores():
    import fcad.capacities
    import fcad.entropy

    original = fcad.entropy.h2
    tracer = Tracer()
    tracer.install([Target("fcad.entropy", "h2"), Target("fcad.optimizer", "maximize_1d", span=True,
                                                           args=(("objective", "optimizer.line", False),))])
    try:
        assert fcad.capacities.h2 is not original and fcad.entropy.h2 is not original
        result = fcad.capacities.c_ad1_search(0.5)
    finally:
        tracer.uninstall()
    assert fcad.capacities.h2 is original and fcad.entropy.h2 is original
    assert tracer.counters["optimizer.maximize_1d"].calls == 1
    assert tracer.counters["optimizer.line"].calls == result.evaluations
    assert tracer.counters["entropy.h2"].calls == 2 * result.evaluations


def test_benchmark_json_matches_the_code():
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert spec["workloads"] == [w for w in known if w in spec["workloads"]]
    assert [w["name"] for w in spec["workloads"]] == ["sweep", "verify"]
    assert [m["name"] for m in spec["per_layer"]] == list(layers.metric_units())
    assert [m["unit"] for m in spec["per_layer"]] == list(layers.metric_units().values())


def test_count_that_differs_between_runs_is_a_determinism_failure():
    from perfbench.compare import nondeterministic

    def result(calls, seconds):
        return {"metrics": {"entropy.h2.calls": {"value": calls}, "entropy.h2.self_pct": {"value": seconds}}}

    # the inputs ignore the seed, so every run must count the same; times may differ
    assert nondeterministic([(1, result(10, 0.1)), (2, result(10, 0.2))]) == set()
    assert nondeterministic([(1, result(10, 0.1)), (2, result(11, 0.1))]) == {"entropy.h2.calls"}


def test_missing_target_or_parameter_raises_and_patches_nothing():
    import fcad.entropy

    original = fcad.entropy.h2
    tracer = Tracer()
    with pytest.raises(LookupError, match="no_such_function"):
        tracer.install([Target("fcad.entropy", "h2"), Target("fcad.entropy", "no_such_function")])
    assert fcad.entropy.h2 is original
    with pytest.raises(LookupError, match="no parameter renamed_objective"):
        tracer.install([Target("fcad.optimizer", "maximize_1d", args=(("renamed_objective", "x", False),))])


def test_uncalled_layer_is_reported():
    tracer = Tracer()
    tracer.call("cli.main", lambda: None)
    missing = layers.uncalled(tracer, "verify")
    assert "channels.apply" in missing and "cli.main" not in missing
    assert set(layers.EXPECTED) == {"sweep", "verify"}
    # every wrapped function is expected on at least one workload
    expected = {name for names in layers.EXPECTED.values() for name in names}
    assert set(layers.TIMED) <= expected


def test_layer_metrics_name_every_metric_and_shares_add_up():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 1.0

    def main():
        clock.now += 0.5
        tracer.call("entropy.xlog2", leaf)

    tracer.call("cli.main", main, span=True)
    m = layers.metrics(tracer, (1.5, 1.2), ROOT / "src" / "fcad")
    assert list(m) == list(layers.metric_units())
    assert m["entropy.xlog2.self_pct"]["value"] == pytest.approx(100.0 / 1.5)
    assert sum(v["value"] for k, v in m.items() if k.endswith(".self_pct")) == pytest.approx(100.0)
    assert m["trace.overhead_s"]["value"] == pytest.approx(0.3)
    assert m["trace.unattributed_s"]["value"] == pytest.approx(0.0)
    assert m["entropy.xlog2.calls"]["value"] == 1 and m["channels.apply.calls"]["value"] == 0
    assert m["src.lines"]["value"] >= sum(m[f"src.{name}.lines"]["value"] for name in layers.SRC_MODULES) > 0
