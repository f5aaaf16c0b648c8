"""In-process time of each phase of a benchmark workload, for before/after
numbers.

    python3 tools/phase_times.py [--workload W] [--src DIR] [--against REF]
                                 [--repeats N] [--seed S] [--label L]

Each repeat starts a fresh interpreter with DIR (default: the src directory
of this checkout) first on the import path. It runs the phases of one
iteration of workload W once and times each with time.perf_counter.
Interpreter start and imports are not timed. The script prints the median
and quartiles of each phase over the N repeats.

- slices-small-lambda (the default): `simulate-d` on the benchmark
  arguments (l1 4, l2 8, n 5000, m 1e5, 1000 replications, magnitude
  0.5): generate_null, perturb, build_model, exact_moments, mc_moments at
  1 and at 2 threads, and chain_check.
- certify-large-lambda: `certify lemma1` on the default grid, then
  `falsify --target 50`, each through cli.main with the calls it makes
  wrapped in timers: parse (the parser built, the arguments and the grid
  read), sweep, plateau (certify only), search (falsify only), records
  (the record's rows and body, up to cli._emit) and render (cli._emit, to
  the null device). The seed is not read.

With --against REF, a git ref of this checkout's repository, REF's src
directory is extracted with git archive and timed too, the two sides
alternating repeat by repeat and taking turns to go first. The script then
also prints, per phase, the paired ratio: the median over repeats of DIR's
time over REF's in the same repeat, with a bootstrap 95% interval of that
median (2,000 resamples of the repeats, seed 0). With --label L the stamp
(nproc, Python, NumPy and NumPy's SIMD "found" list), the arguments and
every run are written to BENCH_<L>.json at the repository root, DIR's runs
under "src" and REF's under REF, and the paired ratios under "paired".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from record_digests import ROOT, extract_src

ARGS = {"l1": 4, "l2": 8, "n": 5000, "m": 1e5, "reps": 1000,
        "magnitude": 0.5, "tol": 1e-10}


CERTIFY = (["certify", "lemma1"], ["falsify", "--target", "50"])
# The calls of cli.cmd_certify and cli.cmd_falsify that bound a phase:
# (module, function, the phase its start ends, the phase its end ends).
CERTIFY_MARKS = (("cli", "_grid_from_args", None, "parse"),
                 ("inequality_lab", "sweep", None, "sweep"),
                 ("inequality_lab", "plateau_check", None, "plateau"),
                 ("inequality_lab", "find_counterexample", "parse", "search"),
                 ("cli", "_emit", "records", "render"))


def slices_phases(seed: int) -> dict:
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


def certify_phases(seed: int) -> dict:
    """Seconds spent in each phase of certify lemma1 and falsify --target
    50, each run through cli.main with its record sent to the null device.
    A command's first phase starts with cli.main; every other phase ends
    where a call of CERTIFY_MARKS starts or ends."""
    from poissonlab import cli, inequality_lab

    modules = {"cli": cli, "inequality_lab": inequality_lab}
    times, clock, command = {}, 0.0, ""

    def close(phase):
        nonlocal clock
        now = time.perf_counter()
        times[f"{command}_{phase}"] = now - clock
        clock = now

    def timed(fn, start, end):
        def call(*args, **kwargs):
            if start is not None:
                close(start)
            value = fn(*args, **kwargs)
            close(end)
            return value
        return call

    for module, name, start, end in CERTIFY_MARKS:
        fn = getattr(modules[module], name)
        setattr(modules[module], name, timed(fn, start, end))
    for argv in CERTIFY:
        command = argv[0]
        clock = time.perf_counter()
        if cli.main([*argv, "--out", os.devnull]) != cli.EX_OK:
            raise SystemExit(f"{' '.join(argv)} did not exit {cli.EX_OK}")
    times["total"] = sum(times.values())
    return times


WORKLOADS = {"slices-small-lambda": slices_phases,
             "certify-large-lambda": certify_phases}


def one_repeat(src: Path, workload: str, seed: int) -> dict:
    """The workload's phases in a fresh interpreter importing poissonlab
    from src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, __file__, "--worker", "--workload", workload,
         "--seed", str(seed)],
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


def paired(runs: list, ref_runs: list) -> dict:
    """Per entry of the runs: the median over repeats of runs[r] / ref_runs[r],
    a bootstrap 95% interval of that median (2,000 resamples of the
    repeats, seed 0) and the ratios."""
    rng = random.Random(0)
    result = {}
    for name in runs[0]:
        ratios = [run[name] / ref[name] for run, ref in zip(runs, ref_runs)]
        medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                         for _ in range(2000))
        result[name] = {"median": statistics.median(ratios),
                        "ci95": [medians[50], medians[1949]],
                        "ratios": ratios}
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
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        default="slices-small-lambda")
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
        print(json.dumps(WORKLOADS[args.workload](args.seed)))
        return 0
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")
    runs = alternating(args.src, args.against, args.repeats,
                       lambda src: one_repeat(src, args.workload, args.seed))
    workload_args = (ARGS if args.workload == "slices-small-lambda"
                     else {"commands": CERTIFY})
    record = {"workload": args.workload,
              "args": {**workload_args, "seed": args.seed},
              "repeats": args.repeats,
              "stamp": stamp(),
              "sides": {name: summary(r) for name, r in runs.items()}}
    for name, phases in record["sides"].items():
        print(f"{name}:")
        for phase, s in phases.items():
            print(f"  {phase:22} {s['median'] * 1e3:9.2f} ms  "
                  f"[{s['q1'] * 1e3:.2f}, {s['q3'] * 1e3:.2f}]")
    if args.against is not None:
        record["paired"] = paired(runs["src"], runs[args.against])
        print(f"src / {args.against}, paired by repeat:")
        for phase, p in record["paired"].items():
            print(f"  {phase:22} {p['median']:9.3f}  "
                  f"95% [{p['ci95'][0]:.3f}, {p['ci95'][1]:.3f}]")
    if args.label is not None:
        path = ROOT / f"BENCH_{args.label}.json"
        path.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
