"""Exit codes, output records, and reproducibility of the command front end."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import poissonlab
from poissonlab import poisson_core
from poissonlab.ci_model import build_model, generate_null, perturb
from poissonlab.cli import EX_NUMERIC, EX_OK, EX_PREDICATE, EX_USAGE, main


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
    ],
    ids=["lambda-nan", "tol-zero", "tol-negative", "map-no-ranges", "map-l1-zero",
         "m-nan", "m-inf", "target-nan", "lambda-max-nan"],
)
def test_rejected_at_parse_time(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == EX_USAGE
    assert out == ""


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


def test_import_leaves_out_optimizer_and_thread_pool():
    src = Path(poissonlab.__file__).parent
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, poissonlab.cli; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src.parent)},
    ).stdout.strip()
    assert loaded == "False"
    # numpy.testing, which scipy.special loads, imports concurrent.futures
    # itself, so the package's own imports are checked instead.
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert not name.startswith(("concurrent", "scipy.optimize")), (
                    path.name, name)
