import io
import math
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcad import capacities, cli
from fcad.cli import InvalidConfigError, SweepConfig, main

LOG2_3 = math.log2(3.0)
DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"
# CHECK name -> its line in the pinned reduced-sample verify reports
VERIFY_REPORTS = {
    line.split()[1]: line for line in (DATA / "verify_reports.txt").read_text().splitlines(keepends=True)
}
# any float, NaN, infinities, subnormals and negatives included
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


def run_fcad(argv, stdout=subprocess.PIPE, unbuffered=False):
    """fcad in a child interpreter, under a 2 GiB address-space limit, so that an unbounded read fails
    fast instead of taking the machine's memory; returns the child still running."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "fcad.cli", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)),
    )


def finish(child) -> tuple[int, str]:
    """Exit code and stderr of a child from run_fcad; a child still running after 60 s is killed."""
    try:
        _, err = child.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise
    return child.returncode, err.decode()


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestSweep:
    def test_full_column_set(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--eta-start", "0", "--eta-end", "1", "--eta-step", "0.5", "--out", str(out)])
        assert rc == 0
        header, rows = read_rows(out)
        assert header == [
            "eta", "c1", "c1_chain_check", "q", "ce", "chi_lb1", "chi_lb2",
            "alpha_c1", "beta_c1", "delta_c1", "alpha_q", "beta_q", "delta_q",
            "alpha_ce", "beta_ce", "delta_ce", "p_opt", "c_ad1", "e_phi", "e_avg",
        ]
        assert len(rows) == 3
        assert abs(float(rows[0]["c1"]) - LOG2_3) < 1e-6
        assert abs(float(rows[2]["c1"]) - 2.0) < 1e-4
        assert abs(float(rows[2]["ce"]) - 4.0) < 1e-4

    def test_quantity_subset(self, tmp_path):
        out = tmp_path / "q.csv"
        rc = main(["sweep", "--eta-step", "0.5", "--quantities", "q,p_opt", "--out", str(out)])
        assert rc == 0
        header, rows = read_rows(out)
        assert header == ["eta", "q", "p_opt"]
        assert abs(float(rows[0]["q"]) - LOG2_3) < 1e-9

    def test_plateau_values(self, tmp_path):
        out = tmp_path / "plateau.csv"
        rc = main(["sweep", "--eta-start", "0.2", "--eta-end", "0.4", "--eta-step", "0.2",
                   "--quantities", "q", "--out", str(out)])
        assert rc == 0
        _, rows = read_rows(out)
        for row in rows:
            assert abs(float(row["q"]) - LOG2_3) < 1e-9

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--eta-step", "0.25", "--out"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + [str(out1)]) == 0
        assert main(args + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_matches_pinned_table(self, tmp_path):
        """The paper's 51-row table, pinned to a reference CSV at 1e-9."""
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--eta-step", "0.02", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        ref_header, ref_rows = read_rows(DATA / "sweep_eta_step_0.02.csv")
        assert header == ref_header
        assert len(rows) == len(ref_rows) == 51
        for row, ref in zip(rows, ref_rows):
            for column in header:
                assert abs(float(row[column]) - float(ref[column])) <= 1e-9, (ref["eta"], column)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("eta_start = 0.5\neta_end = 0.5\neta_step = 0.5\nquantities = q\n# comment\n")
        out = tmp_path / "c.csv"
        rc = main(["sweep", "--config", str(cfg), "--quantities", "p_opt", "--out", str(out)])
        assert rc == 0
        header, rows = read_rows(out)
        assert header == ["eta", "p_opt"]
        assert len(rows) == 1
        assert float(rows[0]["eta"]) == 0.5

    def test_config_out_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        from_config = tmp_path / "from_config.csv"
        from_flag = tmp_path / "from_flag.csv"
        cfg.write_text(f"eta_start = 0.5\neta_end = 0.5\nquantities = p_opt\nout = {from_config}\n")
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == ""
        assert from_config.read_text().splitlines()[0] == "eta,p_opt"
        from_config.unlink()
        assert main(["sweep", "--config", str(cfg), "--out", str(from_flag)]) == 0
        assert from_flag.read_text().splitlines()[0] == "eta,p_opt"
        assert not from_config.exists()

    @pytest.mark.parametrize(
        "line, message",
        [("seed = 1", "error: unknown config key 'seed'\n"), ("eta_step = fast", "error: bad value in config file"),
         ("eta_step = nan", "error: eta-step must be finite and positive, got nan\n"),
         ("coarse_step = 0.01", "error: unknown config key 'coarse_step'\n"),
         ("refine_tol = 1e-7", "error: unknown config key 'refine_tol'\n")],
    )
    def test_bad_config_line_is_config_error(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"quantities = p_opt\n{line}\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message) and captured.err.count("\n") == 1

    @pytest.mark.parametrize("step", ["nan", "inf", "1e-12"])
    def test_bad_eta_step_is_config_error(self, step, capsys):
        assert main(["sweep", "--eta-step", step, "--quantities", "p_opt"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: eta-step") and captured.err.count("\n") == 1

    def test_bad_range_is_config_error(self, capsys):
        assert main(["sweep", "--eta-start", "0.9", "--eta-end", "0.1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_quantity_is_config_error(self):
        assert main(["sweep", "--quantities", "nope"]) == 2

    def test_bad_config_file_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("eta_start 0.5\n")
        assert main(["sweep", "--config", str(cfg)]) == 2

    def test_missing_config_file_is_config_error(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_oversize_config_file_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("# padding\n" * (cli.MAX_CONFIG_BYTES // 10) + "eta_step = 0.5\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: config file {cfg} is not a regular file of at most {cli.MAX_CONFIG_BYTES} bytes\n"
        )

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_device_config_is_config_error(self):
        """An endless device is refused before any byte is read."""
        assert finish(run_fcad(["sweep", "--config", "/dev/zero"])) == (
            2, f"error: config file /dev/zero is not a regular file of at most {cli.MAX_CONFIG_BYTES} bytes\n"
        )

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_config_is_config_error(self, tmp_path):
        """A named pipe is refused without opening it, which would wait for a writer."""
        fifo = tmp_path / "config.fifo"
        os.mkfifo(fifo)
        assert finish(run_fcad(["sweep", "--config", str(fifo)])) == (
            2, f"error: config file {fifo} is not a regular file of at most {cli.MAX_CONFIG_BYTES} bytes\n"
        )


class TestSweepConfig:
    def test_defaults_valid(self):
        SweepConfig().validate()

    def test_rejects_zero_step(self):
        with pytest.raises(InvalidConfigError):
            SweepConfig(eta_step=0.0).validate()

    def test_finest_grid_is_accepted(self):
        etas = cli._eta_grid(SweepConfig(eta_step=1e-4).validate())
        assert len(etas) == cli.MAX_SWEEP_ROWS
        assert etas[-1] == 1.0

    @given(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT)
    @settings(max_examples=300, deadline=None)
    def test_valid_config_gives_a_bounded_grid(self, start, end, step):
        try:
            cfg = SweepConfig(eta_start=start, eta_end=end, eta_step=step).validate()
        except InvalidConfigError:
            return
        etas = cli._eta_grid(cfg)
        assert 1 <= len(etas) <= cli.MAX_SWEEP_ROWS
        assert all(0.0 <= eta <= 1.0 for eta in etas)


class TestPoint:
    def test_c1_noiseless(self, capsys):
        assert main(["point", "--eta", "1", "--quantity", "c1"]) == 0
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["value"]) == pytest.approx(2.0, abs=1e-4)
        for key in ("alpha", "beta", "delta"):
            assert float(values[key]) == pytest.approx(0.25, abs=1e-3)

    def test_p_opt_fully_damped(self, capsys):
        assert main(["point", "--eta", "0", "--quantity", "p_opt"]) == 0
        out = capsys.readouterr().out
        assert "value = 0.333333333" in out

    def test_ce_noiseless(self, capsys):
        assert main(["point", "--eta", "1", "--quantity", "ce"]) == 0
        values = dict(
            line.split(" = ") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(values["value"]) == pytest.approx(4.0, abs=1e-4)

    def test_bad_eta(self, capsys):
        assert main(["point", "--eta", "1.2", "--quantity", "c1"]) == 2

    # a float-looking token after a flag is its value, not an unknown option
    @pytest.mark.parametrize(
        "argv",
        [["point", "--eta", "-1e-05", "--quantity", "c_ad1"], ["point", "--eta", "-inf", "--quantity", "c1"],
         ["point", "--eta", "-nan", "--quantity", "q"], ["point", "--eta", "-.5", "--quantity", "ce"],
         ["sweep", "--eta-end", "-inf"], ["sweep", "--eta-start", "-1e-05"]],
    )
    def test_negative_value_tokens_are_values(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_reports_match_pinned_output(self, capsys):
        """Every point report, pinned to the output of an earlier release."""
        for eta, quantity in [("0.7", q) for q in ("c1", "q", "ce", "bounds", "p_opt", "c_ad1")] + [("0.3", "q")]:
            assert main(["point", "--eta", eta, "--quantity", quantity]) == 0
        assert capsys.readouterr().out == (DATA / "point_reports.txt").read_text()

    @given(ANY_FLOAT, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_any_flag_values_finish_or_exit_2(self, eta, attached):
        # the value is passed either as "--eta=value" or as a separate token,
        # where "-inf", "-nan" and "-1e-05" must still be read as a value
        argv = [f"--eta={eta!r}"] if attached else ["--eta", repr(eta)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["point", "--quantity", "c_ad1", *argv])
        assert rc in (0, 2)
        if rc == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


def assert_usage_error(argv, capsys, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


def child_stream(tokens: dict[str, str]) -> np.random.Generator:
    """The generator a verify line's seed= and index= tokens name."""
    return np.random.default_rng(np.random.SeedSequence([int(tokens["seed"]), int(tokens["index"])]))


def assert_reports(out: str, *names: str) -> None:
    assert out == "".join(VERIFY_REPORTS[name] for name in names)


class TestVerify:
    def test_composition_passes(self, capsys):
        assert main(["verify", "composition", "--samples", "25"]) == 0
        assert_reports(capsys.readouterr().out, "composition")

    def test_covariance_passes(self, capsys):
        assert main(["verify", "covariance", "--samples", "10"]) == 0
        assert_reports(
            capsys.readouterr().out,
            "covariance_R1", "covariance_R2", "covariance_R3", "covariance_SWAP", "kraus_commutation",
        )

    def test_degradability_passes(self, capsys):
        assert main(["verify", "degradability", "--samples", "10"]) == 0
        assert_reports(capsys.readouterr().out, "degradability")

    def test_inequalities_pass(self, capsys):
        assert main(["verify", "inequalities", "--samples", "5000"]) == 0
        assert_reports(capsys.readouterr().out, "state_splitting", "entangled_pair")

    def test_symmetrization_passes(self, capsys):
        assert main(["verify", "symmetrization", "--samples", "10"]) == 0
        assert_reports(capsys.readouterr().out, "symmetrization_chain", "separable_gain")

    def test_failed_check_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "check_composition", lambda *args, **kwargs: 1.0)
        assert main(["verify", "composition", "--samples", "10"]) == 1
        assert "CHECK composition FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("suite", ["covariance", "degradability", "inequalities", "symmetrization", "all"])
    def test_no_samples_is_config_error(self, suite, capsys):
        assert main(["verify", suite, "--samples", "0"]) == 2
        captured = capsys.readouterr()
        assert "CHECK" not in captured.out
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [(["inequalities", "--samples", "1000000000"], "error: samples"),
         (["all", "--samples", "1000001"], "error: samples"), (["covariance", "--seed", "-1"], "error: seed")],
    )
    def test_too_many_samples_or_negative_seed_is_config_error(self, argv, message, capsys):
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message) and captured.err.count("\n") == 1

    @pytest.mark.parametrize("suite", cli.SUITES)
    def test_samples_above_the_suite_cap_is_config_error(self, suite, capsys):
        cap = min(cli.SUITE_MAX_SAMPLES.values()) if suite == "all" else cli.SUITE_MAX_SAMPLES[suite]
        assert main(["verify", suite, "--samples", str(cap + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: samples must be in [1, {cap}] for suite {suite}, got {cap + 1}\n"

    def test_worst_sample_replays(self, capsys):
        """The worst sample a state_splitting line names is the worst of a rerun with its seed."""
        assert main(["verify", "inequalities", "--samples", "3000", "--seed", "5"]) == 0
        tokens = dict(t.split("=") for t in capsys.readouterr().out.splitlines()[0].split()[3:])
        report = capacities.verify_state_splitting_inequality(3000, seed=int(tokens["seed"]))
        assert int(tokens["index"]) == report.worst_index
        assert float(tokens["eta"]) == pytest.approx(report.worst_eta, rel=1e-8)

    def test_worst_symmetrization_samples_replay(self, capsys):
        """Each symmetrization line names a child stream of its seed that, drawn alone, gives the line's
        margin and eta."""
        assert main(["verify", "symmetrization", "--samples", "12", "--seed", "5"]) == 0
        chain, gain = (dict(t.split("=") for t in line.split()[3:]) for line in capsys.readouterr().out.splitlines())
        eta, steps = capacities._chain_sample(child_stream(chain))
        assert format(min(steps.values()), ".3g") == chain["margin"]
        assert float(chain["eta"]) == pytest.approx(eta, rel=1e-8)
        eta, margin = capacities._gain_sample(child_stream(gain))
        assert format(margin, ".3g") == gain["margin"]
        assert float(gain["eta"]) == pytest.approx(eta, rel=1e-8)

    def test_all_matches_pinned_output(self, capsys):
        """verify all at its default sizes, pinned to tests/data/verify_all.txt."""
        assert main(["verify", "all"]) == 0
        assert capsys.readouterr().out == (DATA / "verify_all.txt").read_text()

    def test_unknown_suite_rejected(self, capsys):
        assert_usage_error(["verify", "nonsense"], capsys, "argument suite: invalid choice")


class TestClosedOrFullStdout:
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_pipe_exits_quietly(self, unbuffered):
        """A reader that stops reading ends the run with exit code 2 and nothing on stderr, whether the
        first failed write is a print or the final flush."""
        child = run_fcad(["verify", "composition", "--samples", "5"], unbuffered=unbuffered)
        child.stdout.close()
        assert finish(child) == (2, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_is_one_error_line(self):
        with open("/dev/full", "w") as full:
            code, err = finish(run_fcad(["verify", "composition", "--samples", "5"], stdout=full))
        assert code == 2
        assert err == "error: cannot write output: [Errno 28] No space left on device\n"


# the search settings and verify tolerances are fixed; no flag sets them
@pytest.mark.parametrize(
    "argv",
    [["sweep", "--coarse-step", "0.01"], ["sweep", "--refine-tol", "1e-7"],
     ["point", "--eta", "0.7", "--quantity", "q", "--coarse-step", "0.01"],
     ["point", "--eta", "0.7", "--quantity", "q", "--refine-tol", "1e-7"],
     ["verify", "composition", "--tol", "1e-12"]],
)
def test_fixed_setting_flags_are_rejected(argv, capsys):
    assert_usage_error(argv, capsys, "unrecognized arguments")


@pytest.mark.parametrize(
    "argv, message",
    [(["point", "--quantity", "q"], "the following arguments are required: --eta"),
     (["point", "--eta", "0.7", "--quantity", "nope"], "argument --quantity: invalid choice"),
     (["verify", "all", "--samples", "many"], "argument --samples: invalid int value"),
     ([], "the following arguments are required: command")],
)
def test_usage_error_is_one_line(argv, message, capsys):
    assert_usage_error(argv, capsys, message)


def test_help_is_unchanged(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fcad verify")
