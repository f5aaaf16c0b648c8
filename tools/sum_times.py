"""Time of poisson_core._exact_sums in ns per term, for before/after numbers.

    python3 tools/sum_times.py [--src DIR] [--against REF] [--repeats N]
                               [--label L]

Each repeat starts a fresh interpreter with DIR (default: the src directory
of this checkout) first on the import path and times _exact_sums on each
case with time.perf_counter, one pass over the case's calls after an
untimed one:

- "certify lemma1" and "falsify 50": the arguments (values, starts, top)
  of every call that the window passes of `certify lemma1`'s sweep on the
  default grid and of `falsify --target 50`'s search make, captured by a
  spy on _exact_sums as _window_pass calls it (values has a row per cap
  row of the pass, and every element counts as a term);
- "1e6 x 1" ... "1e7 x 1000": 10^6 and 10^7 values drawn uniformly from
  [0, 1) (seed 1) in 1 and in 1,000 segments of equal length, with their
  segment maxima.

It prints, per case, the median and quartiles of ns per term over the N
repeats, and the fallbacks: the math.fsum calls of the untimed pass (the
same in every repeat). Interpreter start, imports and the capture are not
timed.

With --against REF, a git ref of this checkout's repository, REF's src
directory is extracted with git archive and timed too (its _exact_sums
must take the same arguments), the two sides alternating repeat by repeat
and taking turns to go first. With --label L the stamp, the cases and every
run are written to BENCH_<L>.json at the repository root, as
tools/phase_times.py writes them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

from phase_times import alternating, stamp, summary
from record_digests import ROOT

RANDOM_CASES = {"1e6 x 1": (10**6, 1), "1e6 x 1000": (10**6, 1000),
                "1e7 x 1": (10**7, 1), "1e7 x 1000": (10**7, 1000)}


def captured(run) -> list:
    """The arguments of each _exact_sums call that run() makes."""
    from poissonlab import poisson_core

    calls = []
    real = poisson_core._exact_sums

    def spy(*args):
        calls.append(tuple(arg.copy() for arg in args))
        return real(*args)

    with mock.patch.object(poisson_core, "_exact_sums", spy):
        run()
    return calls


def cases():
    """Yields (case name, list of _exact_sums arguments), one case at a
    time."""
    import numpy as np

    from poissonlab import inequality_lab

    grid = inequality_lab.default_grid("corrected")
    yield "certify lemma1", captured(
        lambda: inequality_lab.sweep(grid, "corrected"))
    yield "falsify 50", captured(
        lambda: inequality_lab.find_counterexample(50.0))
    rng = np.random.default_rng(1)
    for name, (n, k) in RANDOM_CASES.items():
        values, starts = rng.random(n), np.arange(0, n, n // k)
        yield name, [(values, starts, np.maximum.reduceat(values, starts))]


def time_cases() -> dict:
    """Per case: ns per term of one timed pass, terms, calls, fallbacks."""
    from poissonlab.poisson_core import _exact_sums

    times = {}
    for name, calls in cases():
        with mock.patch.object(math, "fsum", wraps=math.fsum) as fsum:
            for args in calls:
                _exact_sums(*args)
        clock = time.perf_counter()
        for args in calls:
            _exact_sums(*args)
        seconds = time.perf_counter() - clock
        terms = sum(args[0].size for args in calls)
        times[name] = {"ns_per_term": seconds / terms * 1e9, "terms": terms,
                       "calls": len(calls), "fallbacks": fsum.call_count}
    return times


def one_repeat(src: Path) -> dict:
    """time_cases in a fresh interpreter importing poissonlab from src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, __file__, "--worker"], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the poissonlab package")
    parser.add_argument("--against", metavar="REF", default=None,
                        help="git ref whose src is timed too")
    parser.add_argument("--repeats", type=int, default=11)
    parser.add_argument("--label", default=None,
                        help="write BENCH_<LABEL>.json at the repository root")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(time_cases()))
        return 0
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")
    runs = alternating(args.src, args.against, args.repeats, one_repeat)
    first = next(iter(runs.values()))[0]
    record = {"cases": {name: {"terms": case["terms"], "calls": case["calls"]}
                        for name, case in first.items()},
              "repeats": args.repeats, "stamp": stamp(), "sides": {}}
    for name, side in runs.items():
        ns = summary([{case: run[case]["ns_per_term"] for case in run}
                      for run in side])
        for case, s in ns.items():
            s["fallbacks"] = side[0][case]["fallbacks"]
        record["sides"][name] = ns
        print(f"{name}:")
        for case, s in ns.items():
            print(f"  {case:16} {s['median']:7.2f} ns/term  "
                  f"[{s['q1']:.2f}, {s['q3']:.2f}]  "
                  f"fallbacks {s['fallbacks']}")
    if args.label is not None:
        path = ROOT / f"BENCH_{args.label}.json"
        path.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
