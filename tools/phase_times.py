"""In-process time of each phase of simulate-d, for before/after numbers.

    python3 tools/phase_times.py [--src DIR] [--against REF] [--repeats N]
                                 [--seed S] [--label L]

Each repeat starts a fresh interpreter with DIR (default: the src directory
of this checkout) first on the import path. It runs the phases of
`simulate-d` once on the slices-small-lambda benchmark arguments (l1 4,
l2 8, n 5000, m 1e5, 1000 replications, magnitude 0.5) and times each with
time.perf_counter: generate_null, perturb, build_model, exact_moments,
mc_moments at 1 and at 2 threads, and chain_check. Interpreter start and
imports are not timed. The script prints the median and quartiles of each
phase over the N repeats.

With --against REF, a git ref of this checkout's repository, REF's src
directory is extracted with git archive and timed too, the two sides
alternating repeat by repeat and taking turns to go first. With --label L
the stamp (nproc, Python, NumPy and NumPy's SIMD "found" list), the
arguments and every run are written to BENCH_<L>.json at the repository
root, DIR's runs under "src" and REF's under REF.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from record_digests import ROOT, extract_src

ARGS = {"l1": 4, "l2": 8, "n": 5000, "m": 1e5, "reps": 1000,
        "magnitude": 0.5, "tol": 1e-10}


def run_phases(seed: int) -> dict:
    """Seconds spent in each phase of one simulate-d pipeline."""
    from poissonlab import ci_model, d_statistic

    a = ARGS
    times = {}
    clock = time.perf_counter()

    def lap(name, value):
        nonlocal clock
        now = time.perf_counter()
        times[name] = now - clock
        clock = now
        return value

    joint = lap("generate_null",
                ci_model.generate_null(a["l1"], a["l2"], a["n"], seed))
    joint = lap("perturb", ci_model.perturb(joint, a["magnitude"], seed))
    model = lap("build_model", ci_model.build_model(joint, a["m"]))
    exact = lap("exact_moments", d_statistic.exact_moments(model, a["tol"]))
    lap("mc_moments_1_thread", d_statistic.mc_moments(model, a["reps"], seed, 1))
    lap("mc_moments_2_threads",
        d_statistic.mc_moments(model, a["reps"], seed, 2))
    lap("chain_check", exact.chain_check())
    times["total"] = sum(times.values())
    return times


def one_repeat(src: Path, seed: int) -> dict:
    """run_phases in a fresh interpreter importing poissonlab from src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, __file__, "--worker", "--seed", str(seed)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def summary(runs: list) -> dict:
    """Median and quartiles of each entry (a phase, say) over the runs, and
    the runs."""
    result = {}
    for name in runs[0]:
        values = [run[name] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        result[name] = {"median": median, "q1": q1, "q3": q3,
                        "runs": values}
    return result


def alternating(src: Path, against, repeats: int, run) -> dict:
    """{side: [run(side's src directory) for each repeat]} for src and, with
    against, a git ref, for that ref's src too: the sides alternate repeat
    by repeat and take turns to go first."""
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"src": src.resolve()}
        if against is not None:
            sides = {against: extract_src(against, Path(tmp)), **sides}
        runs = {name: [] for name in sides}
        for r in range(repeats):
            order = list(sides) if r % 2 == 0 else list(sides)[::-1]
            for name in order:
                runs[name].append(run(sides[name]))
    return runs


def stamp() -> dict:
    import numpy as np

    simd = np.show_config(mode="dicts").get("SIMD Extensions", {})
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "simd_found": simd.get("found", [])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the poissonlab package")
    parser.add_argument("--against", metavar="REF", default=None,
                        help="git ref whose src is timed too")
    parser.add_argument("--repeats", type=int, default=11)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--label", default=None,
                        help="write BENCH_<LABEL>.json at the repository root")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(run_phases(args.seed)))
        return 0
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")
    runs = alternating(args.src, args.against, args.repeats,
                       lambda src: one_repeat(src, args.seed))
    record = {"args": {**ARGS, "seed": args.seed}, "repeats": args.repeats,
              "stamp": stamp(),
              "sides": {name: summary(r) for name, r in runs.items()}}
    for name, phases in record["sides"].items():
        print(f"{name}:")
        for phase, s in phases.items():
            print(f"  {phase:22} {s['median'] * 1e3:9.2f} ms  "
                  f"[{s['q1'] * 1e3:.2f}, {s['q3'] * 1e3:.2f}]")
    if args.label is not None:
        path = ROOT / f"BENCH_{args.label}.json"
        path.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
