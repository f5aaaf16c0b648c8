"""Exit codes, output records, and reproducibility of the command front end."""

import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import poissonlab
from poissonlab import cli, poisson_core
from poissonlab.ci_model import build_model, generate_null, perturb
from poissonlab.cli import (
    EX_NUMERIC, EX_OK, EX_PREDICATE, EX_USAGE, UsageError, build_parser, main,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestExitCodes:
    def test_h_ok(self, capsys):
        code, doc = run_json(capsys, "h")
        assert code == EX_OK
        assert doc["result"]["infimum"] == pytest.approx(0.0119, abs=1e-3)

    def test_h_predicate_failure(self, capsys):
        # restricting the search to [1, 1.2] keeps the minimum far above
        # the expected band, so the run reports exit 2, not an error
        code, doc = run_json(capsys, "h", "--lambda-max", "1.2")
        assert code == EX_PREDICATE
        assert doc["result"]["infimum"] > 0.0129

    def test_falsify_ok(self, capsys):
        code, doc = run_json(capsys, "falsify", "--target", "50")
        assert code == EX_OK
        assert doc["result"]["found"] is True
        assert doc["result"]["ratio"] >= 50.0

    def test_falsify_unreachable_target(self, capsys):
        code, doc = run_json(capsys, "falsify", "--target", "1e9")
        assert code == EX_PREDICATE
        assert doc["result"]["found"] is False

    def test_falsify_usage(self, capsys):
        assert run(capsys, "falsify", "--target", "0")[0] == EX_USAGE
        assert run(capsys, "falsify")[0] == EX_USAGE

    def test_certify_usage(self, capsys):
        assert run(capsys, "certify", "nonsense")[0] == EX_USAGE
        assert run(capsys, "certify", "lemma1", "--caps", "2")[0] == EX_USAGE

    def test_claim21_rejects_caps(self, capsys):
        # claim21's caps are fixed at (inf, inf); given pairs would go unused
        assert run(capsys, "certify", "claim21", "--caps", "2,4") == (EX_USAGE, "")

    def test_complexity_usage(self, capsys):
        assert run(capsys, "complexity", "--eps", "0")[0] == EX_USAGE

    def test_simulate_usage(self, capsys):
        assert run(capsys, "simulate-d", "--reps", "1")[0] == EX_USAGE

    def test_numeric_failure(self, capsys):
        # at per-slice rates near 1e9 the variance's certified bound exceeds
        # its value (cancellation), surfacing as the numeric-error exit code
        code, _ = run(
            capsys, "simulate-d", "--m", "1e11", "--reps", "10", "--seed", "1"
        )
        assert code == EX_NUMERIC


class TestRecords:
    def test_certify_lemma1_small_grid(self, capsys):
        code, doc = run_json(
            capsys, "certify", "lemma1",
            "--lambda", "1,10,100", "--caps", "2,2", "--caps", "4,16",
        )
        assert code == EX_OK
        r = doc["result"]
        assert r["certified"] is True
        assert len(r["records"]) == 6
        assert r["sup_ratio"] >= r["inf_ratio"]

    def test_certify_claim23_positive_inf(self, capsys):
        code, doc = run_json(
            capsys, "certify", "claim23", "--lambda", "0.5,5,50", "--caps", "2,2"
        )
        assert code == EX_OK
        assert doc["result"]["inf_ratio"] > 0.0

    def test_complexity_single(self, capsys):
        code, doc = run_json(
            capsys, "complexity", "--n", "1", "--l1", "1", "--l2", "1",
            "--eps", "1",
        )
        assert code == EX_OK
        assert doc["result"]["rows"][0]["value"] == 1.0

    def test_complexity_map_csv(self, capsys):
        code, out = run(
            capsys, "complexity", "--map", "--l1", "4", "--l2", "4",
            "--n-range", "100,1e6,3", "--eps-range", "0.01,0.5,2",
            "--format", "csv",
        )
        assert code == EX_OK
        lines = out.strip().splitlines()
        assert len(lines) == 7  # header + 3*2 grid rows
        assert lines[0].startswith("n,l1,l2,eps")

    def test_simulate_d_record(self, capsys):
        code, doc = run_json(capsys, "simulate-d", "--seed", "1", "--reps", "20000")
        assert code == EX_OK
        r = doc["result"]
        assert r["mc_within_4se"] is True
        assert r["chain"]["quarter_step_ok"] is True
        assert r["exact"]["mean"] > 0.0

    def test_oracle_check(self, capsys):
        code, doc = run_json(capsys, "oracle-check", "--draws", "200000")
        assert code == EX_OK
        assert doc["result"]["all_ok"] is True
        for p in doc["result"]["points"]:
            assert p["triangle_ok"] and p["mc_mean_ok"] and p["mc_var_ok"]

    def test_payload_provenance(self, capsys):
        _, doc = run_json(capsys, "h")
        assert doc["tool"] == "poissonlab"
        assert doc["command"] == "h"
        assert "version" in doc


class TestFilesAndDeterminism:
    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "h.json"
        code = main(["h", "--out", str(target)])
        assert code == EX_OK
        doc = json.loads(target.read_text())
        assert doc["result"]["tail_certified"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "lemma1", "--lambda", "1,10", "--caps", "2,8"],
            ["simulate-d", "--seed", "3", "--reps", "20000"],
            ["h"],
            ["complexity", "--n", "1000", "--l1", "4", "--l2", "4",
             "--eps", "0.1"],
        ],
        ids=["certify", "simulate-d", "h", "complexity"],
    )
    def test_thread_count_invisible(self, tmp_path, argv):
        one = tmp_path / "one.json"
        eight = tmp_path / "eight.json"
        assert main([*argv, "--threads", "1", "--out", str(one)]) == EX_OK
        assert main([*argv, "--threads", "8", "--out", str(eight)]) == EX_OK
        assert one.read_bytes() == eight.read_bytes()


class TestNoVacuousCertificate:
    def test_every_point_truncated(self, capsys):
        # at lam = 5e6 the variance's certified bound exceeds its value
        code, doc = run_json(
            capsys, "certify", "lemma1", "--lambda", "5e6", "--caps", "2,4"
        )
        assert code == EX_NUMERIC
        assert doc["result"]["records"] == []
        assert doc["result"]["certified"] is False

    def test_negative_rate(self, capsys):
        code, doc = run_json(capsys, "certify", "lemma1", "--lambda", "-1")
        assert code == EX_NUMERIC
        assert doc["result"]["records"] == []
        assert doc["result"]["certified"] is False

    def test_errored_point_beside_good_ones(self, capsys):
        code, doc = run_json(capsys, "certify", "claim23", "--lambda", "1e15,10")
        assert code == EX_NUMERIC
        r = doc["result"]
        assert r["certified"] is False
        assert len(r["records"]) == 15
        assert all(s["reason"].startswith("TruncationError") for s in r["skipped"])

    @pytest.mark.parametrize("caps", ["2,1e400", "1e200,1e200"])
    def test_infinite_correction_factor_errored(self, tmp_path, caps):
        # the correction factor is inf: an errored point with its record,
        # not a division by zero in the plateau check
        out = tmp_path / "lemma1.json"
        code = main(["certify", "lemma1", "--caps", caps, "--lambda", "1",
                     "--out", str(out)])
        assert code == EX_NUMERIC
        r = json.loads(out.read_text())["result"]
        assert r["certified"] is False and r["records"] == []
        assert [s["reason"].split(":")[0] for s in r["skipped"]] == ["ValueError"]

    def test_non_finite_caps_errored(self, tmp_path, capsys):
        out = tmp_path / "claim23.json"
        code = main(["certify", "claim23", "--caps", "inf,inf", "--out", str(out)])
        assert code == EX_NUMERIC
        r = json.loads(out.read_text())["result"]
        assert r["certified"] is False and r["records"] == []
        assert r["skipped"]
        assert all(s["reason"].startswith("ValueError") for s in r["skipped"])


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "lemma1", "--lambda", "nan"],
        ["certify", "lemma1", "--tol", "0"],
        ["oracle-check", "--tol", "-1"],
        ["complexity", "--map"],
        ["complexity", "--map", "--l1", "0", "--n-range", "100,1e6,3",
         "--eps-range", "0.01,0.5,2"],
        ["simulate-d", "--m", "nan"],
        ["simulate-d", "--m", "inf"],
        ["falsify", "--target", "nan"],
        ["h", "--lambda-max", "nan"],
        ["complexity", "--map", "--n-range", "1,1e400,3", "--eps-range",
         "0.01,0.5,2"],
        ["complexity", "--map", "--n-range", "1,2,1e12", "--eps-range",
         "0.01,0.5,2"],
        ["oracle-check", "--seed", "-1"],
        ["complexity", "--n", "1000", "--l1", "4", "--l2", "8", "--eps",
         "1e-300"],
        ["complexity", "--map", "--n-range", "1e3,1e3,1", "--eps-range",
         "1e-300,1e-300,1"],
        ["h", "--seed", "3"],
        ["falsify", "--target", "2", "--tol", "1e-3"],
        ["complexity", "--eps", "0.5", "--seed", "2"],
        ["complexity", "--map", "--n-range", "1e2,1e9,2.5", "--eps-range",
         "0.01,0.5,4"],
        ["complexity", "--map", "--n-range", "1e2,1e9,8", "--eps-range",
         "0.01,0.5,0"],
    ],
    ids=["lambda-nan", "tol-zero", "tol-negative", "map-no-ranges", "map-l1-zero",
         "m-nan", "m-inf", "target-nan", "lambda-max-nan", "map-n-inf",
         "map-count-huge", "seed-negative", "eps-overflow",
         "map-eps-overflow", "h-seed", "falsify-tol", "complexity-seed",
         "map-count-fraction", "map-count-zero"],
)
def test_rejected_at_parse_time(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == EX_USAGE
    assert out == ""


HUGE = "1000000000000000000"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-d", "--reps", HUGE],
        ["simulate-d", "--n", HUGE],
        ["simulate-d", "--l1", HUGE],
        ["simulate-d", "--l2", HUGE],
        ["simulate-d", "--l1", "10000", "--l2", "10000", "--n", "1000"],
        ["h", "--grid-points", HUGE],
        ["oracle-check", "--draws", HUGE],
    ],
    ids=["reps", "n", "l1", "l2", "table", "grid-points", "draws"],
)
def test_huge_size_refused(tmp_path, argv):
    # Each count is refused before anything of its size is allocated.
    out = tmp_path / "record"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--out", str(out)])
    assert code == EX_USAGE
    assert "Traceback" not in err.getvalue()
    assert not out.exists()


# One small run per subcommand.
SMALL_RUNS = {
    "certify": ["certify", "lemma1", "--lambda", "1", "--caps", "2,2"],
    "falsify": ["falsify", "--target", "2"],
    "simulate-d": ["simulate-d", "--n", "2", "--reps", "2", "--l1", "2",
                   "--l2", "2", "--m", "2"],
    "complexity": ["complexity", "--eps", "0.5"],
    "h": ["h", "--grid-points", "2", "--lambda-max", "2"],
    "oracle-check": ["oracle-check", "--draws", "2"],
}


@pytest.mark.parametrize("argv", SMALL_RUNS.values(), ids=SMALL_RUNS)
def test_config_holds_every_parsed_flag(capsys, argv):
    # The record embeds its full run configuration: every flag the command
    # parses, apart from where the record goes and the ignored thread count.
    args = vars(build_parser().parse_args(argv))
    dests = set(args) - {"command", "func", "out", "format", "threads"}
    _, doc = run_json(capsys, *argv)
    assert set(doc["config"]) == {"lambda" if d == "lam" else d for d in dests}


def test_seed_and_tol_only_where_read():
    parser = build_parser()

    def takers(*extra):
        names = set()
        for name, argv in SMALL_RUNS.items():
            with contextlib.suppress(UsageError):
                parser.parse_args([*argv, *extra])
                names.add(name)
        return names

    assert takers() == set(SMALL_RUNS)
    assert takers("--seed", "1") == {"simulate-d", "oracle-check"}
    assert takers("--tol", "1e-3") == {"certify", "simulate-d", "oracle-check"}


class TestCsvMatchesJson:
    """The CSV table of a run holds the same rows as its JSON record."""

    @staticmethod
    def both(capsys, *argv):
        _, doc = run_json(capsys, *argv)
        _, text = run(capsys, *argv, "--format", "csv")
        header, *lines = text.splitlines()
        return doc["result"], [dict(zip(header.split(","), line.split(",")))
                               for line in lines]

    def test_certify(self, capsys):
        res, rows = self.both(capsys, "certify", "lemma1", "--lambda",
                              "1,10,100", "--caps", "2,2", "--caps", "4,16")
        assert len(rows) == len(res["records"]) == 6
        for row, record in zip(rows, res["records"]):
            assert {k: float(v) for k, v in row.items()} == record

    def test_complexity_map(self, capsys):
        res, rows = self.both(capsys, "complexity", "--map", "--l1", "4",
                              "--l2", "8", "--n-range", "100,1e9,8",
                              "--eps-range", "0.01,0.5,4")
        assert len(rows) == len(res["rows"]) == 32
        for row, record in zip(rows, res["rows"]):
            assert row.keys() == record.keys()
            assert {k: type(record[k])(v) for k, v in row.items()} == record

    def test_simulate_d_slices_sum_to_exact(self, capsys):
        res, rows = self.both(capsys, "simulate-d", "--seed", "1",
                              "--reps", "20000")
        assert len(rows) == 50
        assert math.fsum(float(r["mean_z"]) for r in rows) == res["exact"]["mean"]
        assert (math.fsum(float(r["var_z"]) for r in rows)
                == res["exact"]["variance"])


class TestOneSummationPass:
    def test_simulate_d_once_per_slice(self, capsys, summation_calls):
        run_json(capsys, "simulate-d", "--l1", "2", "--l2", "2", "--n", "6",
                 "--m", "200", "--reps", "100", "--seed", "1")
        joint = perturb(generate_null(2, 2, 6, seed=1), 0.5, seed=1)
        model = build_model(joint, 200.0)
        slices = sum(
            1 for w, r in zip(model.weights, model.rates) if w > 0 and r > 0
        )
        assert slices > 0
        assert len(summation_calls) == slices

    def test_oracle_check_once_per_point(self, capsys, summation_calls):
        code, _ = run_json(capsys, "oracle-check", "--draws", "1000")
        assert code == EX_OK
        assert len(summation_calls) == len(poisson_core.ORACLE_POINTS)

    def test_oracle_check_one_batch(self, capsys, monkeypatch):
        calls = []
        batched = poisson_core._batched_moments

        def batch(fs, *args):
            calls.append(len(fs))
            return batched(fs, *args)

        monkeypatch.setattr(poisson_core, "_batched_moments", batch)
        run_json(capsys, "oracle-check", "--draws", "2")
        assert calls == [len(poisson_core.ORACLE_POINTS)]

    def test_oracle_check_failure_writes_no_record(self, tmp_path, capsys,
                                                   monkeypatch):
        # The second point's variance fails the guard: the first error
        # raised ends the command, before any record is written.
        monkeypatch.setattr(cli, "ORACLE_POINTS",
                            ((10.0, 2.0, 4.0), (5e6, 2.0, 4.0)))
        out = tmp_path / "out"
        code = main(["oracle-check", "--draws", "2", "--out", str(out)])
        assert code == EX_NUMERIC and not out.exists()
        assert "exceeds the variance" in capsys.readouterr().err


class TestThreads:
    @pytest.mark.parametrize("value", ("0", "-1", "1e300", "65", HUGE))
    def test_bounded_at_parse_time(self, capsys, monkeypatch, value):
        # Parsing alone: no thread may start.
        monkeypatch.setattr(threading.Thread, "start", None)
        assert run(capsys, "oracle-check", "--draws", "2", "--threads",
                   value) == (EX_USAGE, "")

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="no CPU affinity on this platform")
    def test_default_is_the_cpu_count(self):
        args = build_parser().parse_args(["oracle-check"])
        assert args.threads == min(64, len(os.sched_getaffinity(0)))

    @pytest.fixture
    def draws(self, monkeypatch):
        # seed -> MonteCarloMoments of every oracle-check point, and the
        # number of threads started.
        seen, started = {}, []
        sample = cli.monte_carlo_moments

        def spy(f, draws, seed):
            seen[seed] = sample(f, draws, seed)
            return seen[seed]

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(cli, "monte_carlo_moments", spy)
        monkeypatch.setattr(threading, "Thread", Counted)
        return seen, started

    def test_oracle_points_same_bits_for_any_thread_count(self, capsys, draws):
        seen, started = draws
        runs = []
        for threads in ("1", "2", "3"):
            seen.clear()
            started.clear()
            code, out = run(capsys, "oracle-check", "--draws", "70001",
                            "--threads", threads)
            assert code == EX_OK
            # The caller is one of the threads.
            assert len(started) == int(threads) - 1
            runs.append((dict(seen), out))
        assert len(runs[0][0]) == len(poisson_core.ORACLE_POINTS)
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("threads", ("1", "3"))
    def test_worker_error_reaches_the_caller(self, tmp_path, capsys,
                                             monkeypatch, threads):
        pairwise = cli.variance_pairwise

        def fail_at_5000(f, tol):
            if f.lam == 5000.0:
                raise poisson_core.TruncationError("pairwise failed at 5000")
            return pairwise(f, tol)

        monkeypatch.setattr(cli, "variance_pairwise", fail_at_5000)
        out = tmp_path / "out"
        code = main(["oracle-check", "--draws", "2", "--threads", threads,
                     "--out", str(out)])
        assert code == EX_NUMERIC and not out.exists()
        assert "pairwise failed at 5000" in capsys.readouterr().err


def test_import_leaves_out_optimizer_and_thread_pool():
    # No SciPy module and no thread pool, imported directly or transitively.
    src = Path(poissonlab.__file__).parent
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, poissonlab.cli; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] in ('scipy', 'concurrent')))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src.parent)},
    ).stdout.strip()
    assert loaded == "[]"


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block after the given whole seconds, so a
    command that never ends fails its test instead of stalling the run."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "lemma1", "--lambda", "1e300", "--caps", "2,4"],
        ["simulate-d", "--n", "2", "--reps", "2", "--m", "1e300"],
    ],
    ids=["certify", "simulate-d"],
)
def test_huge_rate_fails_at_once(tmp_path, capsys, argv):
    # h = 14 sqrt(lam + 1) + 16 is below half an ulp of lam here
    start = time.perf_counter()
    with time_limit(30):
        code = main([*argv, "--out", str(tmp_path / "out")])
    assert code == EX_NUMERIC
    assert time.perf_counter() - start < 1.0


# 0.5 is the one value that --eps, --eps-range and --magnitude accept
# besides 0, so a drawn complexity run can get past its parsing.
POOL = ("-1", "0", "0.5", "2", "nan", "inf", "1e300", "1e400", "abc", "",
        HUGE)
LIST_FLAGS = ("--lambda", "--caps", "--n-range", "--eps-range")
# subcommand -> (positional choices, {flag: small valid value or None for a
# switch}). A drawn command line gives some of these flags and puts pool
# values into one or two of them, so each bad value meets an otherwise
# valid run. The size flags in ALWAYS are always given, so runs stay small.
SUBCOMMANDS = {
    "certify": (("lemma1", "claim21", "claim23"),
                {"--lambda": "2", "--caps": "2,4", "--tol": "0.5"}),
    "falsify": ((), {"--target": "2"}),
    "simulate-d": ((), {"--n": "2", "--reps": "2", "--l1": "2", "--l2": "2",
                        "--m": "2", "--magnitude": "0.5", "--seed": "2",
                        "--tol": "0.5"}),
    "complexity": ((), {"--n": "2", "--l1": "2", "--l2": "2", "--eps": "0.5",
                        "--map": None, "--both-orders": None,
                        "--n-range": "2,4,2", "--eps-range": "0.5,1,2"}),
    "h": ((), {"--grid-points": "2", "--lambda-max": "2"}),
    "oracle-check": ((), {"--draws": "2", "--seed": "2", "--tol": "0.5"}),
}
COMMON_FLAGS = {"--threads": "2", "--format": "json"}
ALWAYS = ("--lambda", "--target", "--n", "--reps", "--grid-points", "--draws")


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    positional, flags = SUBCOMMANDS[command]
    flags = {**flags, **COMMON_FLAGS}
    given = [f for f in flags if f in ALWAYS or draw(st.booleans())]
    valued = [f for f in given if flags[f] is not None]
    bad = draw(st.lists(st.sampled_from(valued), min_size=1, max_size=2,
                        unique=True))
    argv = [command]
    if positional:
        argv.append(draw(st.sampled_from(positional)))
    for flag in given:
        argv.append(flag)
        if flags[flag] is None:
            continue
        if flag not in bad:
            argv.append(flags[flag])
        elif flag in LIST_FLAGS:
            values = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=3))
            argv.append(",".join(values))
        else:
            argv.append(draw(st.sampled_from(POOL)))
    return argv


@settings(max_examples=400, deadline=None)
@given(argv=command_lines())
def test_any_argv_maps_to_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with time_limit(10), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EX_OK, EX_PREDICATE, EX_USAGE, EX_NUMERIC), argv
    assert "Traceback" not in err.getvalue(), argv
    if argv[0] == "certify" and code == EX_NUMERIC:
        assert out.getvalue(), argv  # failed points are reported in the record
