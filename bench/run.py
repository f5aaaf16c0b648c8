"""poissonlab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload certify-large-lambda --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is imported from src/ beside this directory.
Each iteration is a fresh single-threaded worker process (bench/worker.py)
that calls poissonlab.cli.main for each command of the workload in turn: a
closed loop with one client and no warm-up, because a CLI user pays the
first-call costs on every invocation. Iterations repeat until --seconds is
spent (at least three), one worker at a time, and every record of every
iteration is checked (bench/workloads.py).

--trace 0 prints the end-to-end metrics: medians over the iterations of
wall_s and peak_rss_mb, and setup_s, the median wall time of a fresh
interpreter importing poissonlab.cli, sampled once per iteration (at least
five times). --trace 1 alternates untraced and traced
iterations and prints the per-layer metrics of the traced ones (see
bench/spans.py), with the tracing overhead and the traced span coverage.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the environment and
each metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_ITERATIONS = 3
SETUP_REPEATS = 5  # fewest set-up samples; one is taken per iteration
IMPORTTIME_REPEATS = 3
# Every run must end within 180 s; no new iteration starts past LOOP_LIMIT
# and no worker outlives RUN_LIMIT.
LOOP_LIMIT = 120.0
RUN_LIMIT = 170.0
IMPORT_PACKAGES = ("numpy", "scipy", "poissonlab")


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def environment() -> dict:
    """nproc, Python, numpy and SciPy versions, commit and source digest."""
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    commit = "unknown"  # the benchmark checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "poissonlab").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "commit": commit, "source_sha256": digest.hexdigest()}


def setup_sample(env) -> float:
    """Wall time of a fresh interpreter that imports poissonlab.cli."""
    cmd = [sys.executable, "-c", "import poissonlab.cli"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    # A blocking wait returns when the child exits; a wait with a timeout
    # polls in steps of up to 50 ms, which would quantise the sample.
    timer = threading.Timer(60.0, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return elapsed


def import_seconds(env) -> dict:
    """Import time per package from `python -X importtime`, medians.

    Each imported module is charged to the nearest enclosing import of a
    package in IMPORT_PACKAGES, so stdlib modules that numpy pulls in count
    to numpy and nothing counts twice.
    """
    samples = {pkg: [] for pkg in IMPORT_PACKAGES}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import poissonlab.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
            timeout=60)
        rows = []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            head, _, name = line.split("|")
            level = (len(name) - len(name.lstrip(" ")) - 1) // 2
            rows.append((level, name.strip(), int(head.split(":")[1])))
        totals = dict.fromkeys(IMPORT_PACKAGES, 0)
        stack = []  # (level, package) of the enclosing imports
        for level, name, self_us in reversed(rows):  # parents before children
            while stack and stack[-1][0] >= level:
                stack.pop()
            top = name.split(".")[0]
            pkg = top if top in IMPORT_PACKAGES else (stack[-1][1] if stack else None)
            stack.append((level, pkg))
            if pkg is not None:
                totals[pkg] += self_us
        for pkg in IMPORT_PACKAGES:
            samples[pkg].append(totals[pkg] / 1e6)
    return {f"import.{pkg}_s": statistics.median(v) for pkg, v in samples.items()}


class Runner:
    """Runs worker iterations of one workload and checks their records."""

    def __init__(self, workload: str, seed: int, env: dict, started: float):
        self.workload = workload
        self.commands = workloads.commands(workload, seed)
        self.env = env
        self.started = started
        self.out_dir = OUT / workload
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.iterations = 0

    def _fail(self, message: str) -> None:
        print(f"FAIL {self.workload}: {message}", flush=True)

    def iterate(self, traced: bool = False):
        """One worker run: its measurements and records, or None if the
        worker gave no result. Failed commands are counted either way."""
        self.iterations += 1
        outs = [self.out_dir / f"{i}-{c.argv[0]}.json"
                for i, c in enumerate(self.commands)]
        spans_path = self.out_dir / "spans.jsonl"
        for path in outs + [spans_path]:
            path.unlink(missing_ok=True)
        argvs = [c.argv + ["--out", str(path)] for c, path in zip(self.commands, outs)]
        cmd = [sys.executable, str(HERE / "worker.py"), "--commands", json.dumps(argvs),
               "--run-id", f"{self.workload}-{self.iterations}"]
        if traced:
            cmd += ["--spans", str(spans_path)]
        self.attempted += len(self.commands)
        timeout = max(10.0, RUN_LIMIT - (time.perf_counter() - self.started))
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.failed += len(self.commands)
            self._fail(f"worker timed out after {timeout:.0f} s")
            return None
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            self.failed += len(self.commands)
            self._fail(f"worker exited {proc.returncode} without a result")
            return None
        if not Path(result["module"]).resolve().is_relative_to(SRC):
            self.failed += len(self.commands)
            self._fail(f"imported {result['module']}, not the sources in {SRC}")
            return None

        records, record_bytes = {}, 0
        for command, path, code in zip(self.commands, outs, result["codes"]):
            name = command.argv[0]
            failures = [] if code == 0 else [f"exit code {code}, expected 0"]
            try:
                text = path.read_text()
                record_bytes += len(text.encode())
                records[name] = json.loads(text)
                failures += command.check(records[name])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                failures.append(f"unreadable record: {type(exc).__name__}: {exc}")
            if failures:
                self.failed += 1
                for failure in failures:
                    self._fail(f"{name}: {failure}")
        result.update(records=records, record_bytes=record_bytes,
                      spans_path=spans_path if traced else None)
        return result



def repeat(seconds: float, body, minimum: int) -> None:
    """Call body() at least minimum times, then until the next call would
    overrun seconds."""
    start = time.perf_counter()
    durations = []
    budget = min(seconds, LOOP_LIMIT)
    while True:
        t = time.perf_counter()
        body()
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if len(durations) >= minimum and elapsed + statistics.median(durations) > budget:
            return
        if elapsed > LOOP_LIMIT:
            return


def end_to_end(runner: Runner, seconds: float) -> dict:
    setups, walls, rss = [], [], []

    def body():
        # One set-up sample per iteration spreads them over the run, so a
        # slow spell of the machine does not land on all of them.
        setups.append(setup_sample(runner.env))
        result = runner.iterate()
        if result is not None:
            walls.append(result["wall_s"])
            rss.append(result["peak_rss_mb"])

    repeat(seconds, body, MIN_ITERATIONS)
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_sample(runner.env))
    if not walls:
        return {}
    for name, samples in (("wall_s", walls), ("setup_s", setups)):
        print(f"{name} samples: " + " ".join(f"{v:.4f}" for v in samples), flush=True)
    return {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss)}


def per_layer(runner: Runner, seconds: float) -> dict:
    metrics = import_seconds(runner.env)
    plain, traced, layers = [], [], []

    def pair():
        # Alternate which side runs first, so drift falls on both.
        order = (False, True) if runner.iterations % 4 == 0 else (True, False)
        for with_spans in order:
            result = runner.iterate(traced=with_spans)
            if result is None:
                continue
            if not with_spans:
                plain.append(result["wall_s"])
                continue
            traced.append(result["wall_s"])
            layers.append(spans.layer_metrics(
                spans.load(result["spans_path"]),
                result["records"].get("certify"), result["record_bytes"]))

    repeat(seconds, pair, 1)
    if not plain or not layers:
        return {}
    for name in layers[0]:
        # The lower median is a sample, so counts stay whole numbers.
        metrics[name] = statistics.median_low(m[name] for m in layers)
    traced_wall, untraced_wall = statistics.median(traced), statistics.median(plain)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    # Spans exist only in the traced run, so their coverage is a share of
    # its wall time; trace.overhead_s relates that to the untraced wall_s.
    metrics["trace.layer_coverage_frac"] = metrics.pop("trace.layer_s") / traced_wall
    print(f"traced wall_s {traced_wall:.4f} s vs untraced {untraced_wall:.4f} s "
          f"over {len(traced)} traced and {len(plain)} untraced iterations", flush=True)
    return metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "poissonlab" / "cli.py").is_file():
        print(f"bench: no poissonlab sources at {SRC / 'poissonlab'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    env = worker_env()
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env: " + json.dumps(environment()), flush=True)
    runner = Runner(args.workload, args.seed, env, started)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = (per_layer if args.trace else end_to_end)(runner, args.seconds)

    if not values:
        print("bench: no iteration gave a result", file=sys.stderr)
        return 1
    if set(values) != {m["name"] for m in declared}:
        print("bench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ {m['name'] for m in declared})}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(f"ops_failed_frac = {runner.failed / runner.attempted!r} "
          f"({runner.failed} of {runner.attempted} commands)")
    correct = runner.failed == 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
