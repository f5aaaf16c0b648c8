"""SHA-256 of the reference records, to show that a change leaves them
byte-identical.

    python3 tools/record_digests.py [--src DIR] [--against REF]

Runs each reference command of the poissonlab CLI in a fresh interpreter
with DIR (default: the src directory of this checkout) first on the import
path, writes its record with --out, and prints one line per record: exit
code, SHA-256 of the record file, and the record's name.

With --against REF, a git ref of this checkout's repository, REF's src
directory is extracted with git archive into a temporary directory and
every record is run on both trees. Each line then holds REF's exit code,
DIR's exit code, "same" or "DIFFERS" (exit code or SHA-256), and the
record's name; the exit status is 1 if any record differs. A DIFFERS line
also gives the largest relative difference |new - old| / |old| over the
numeric leaves of the JSON record, or cells of the CSV one, that both
trees wrote at the same place, where it is, and how many places only one
of them wrote.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The arguments of the slices-small-lambda benchmark workload.
SIMULATE_D = ["simulate-d", "--l1", "4", "--l2", "8", "--n", "5000",
              "--m", "100000.0", "--reps", "1000"]
MAP_RANGES = ["complexity", "--map", "--n-range", "100.0,1000000000.0,8",
              "--eps-range", "0.01,0.5,4"]
MAP = [*MAP_RANGES, "--l1", "4", "--l2", "8"]
SMALL_GRID = ["certify", "lemma1", "--lambda", "1,10,100",
              "--caps", "2,2", "--caps", "4,16"]
POINT = ["complexity", "--n", "1000000", "--l1", "8", "--l2", "4",
         "--eps", "0.01"]
CSV = ["--format", "csv"]

RECORDS = {
    "certify lemma1": ["certify", "lemma1"],
    "certify lemma1 csv": ["certify", "lemma1", *CSV],
    "certify claim21": ["certify", "claim21"],
    "certify claim21 csv": ["certify", "claim21", *CSV],
    "certify claim23": ["certify", "claim23"],
    "certify claim23 csv": ["certify", "claim23", *CSV],
    "certify lemma1 small grid csv": [*SMALL_GRID, *CSV],
    "certify lemma1 lambda 5e6": ["certify", "lemma1", "--lambda", "5e6",
                                  "--caps", "2,4"],
    # One infinite cap keeps the window, whose variance fails its guard
    # here: exit 70.
    "certify lemma1 lambda 5e6 caps 2,inf": ["certify", "lemma1", "--lambda",
                                             "5e6", "--caps", "2,inf"],
    # Vacuous (rate 0), errored (5e6) and normal rates in one batch per pair.
    "certify lemma1 mixed batch": ["certify", "lemma1", "--lambda",
                                   "0,0.3,1,1e4,5e6", "--caps", "2,4",
                                   "--caps", "1e6,1e6"],
    # Every window widens at this tolerance, at lambda 1e4 on the left too;
    # b = 1e6 keeps every rate below 2K, on its window, and (2, 4) takes
    # the decomposition from lambda = 8 on, which no tolerance moves.
    "certify lemma1 tol 1e-300": ["certify", "lemma1", "--tol", "1e-300",
                                  "--lambda", "1,100,1e4", "--caps", "2,4",
                                  "--caps", "64,1e6"],
    # lambda - h is 2.30 and 3.93: the first windows of (64, 1e6) start
    # strictly between 0 and t, where every term is 0; (2, 4) is decomposed.
    "certify lemma1 window below t": ["certify", "lemma1", "--lambda",
                                      "232,235", "--caps", "2,4",
                                      "--caps", "64,1e6"],
    # A finite correction factor of 1e304 overflows the ratio at 1e3: no
    # plateau, exit 2.
    "certify lemma1 plateau fails": ["certify", "lemma1", "--lambda", "1",
                                     "--caps", "1e152,1e152"],
    "falsify target 50": ["falsify", "--target", "50"],
    "falsify target 1e9": ["falsify", "--target", "1e9"],
    # k = 64's point ratio is 64, its true value, short of the target: the
    # witness is k = 128, exit 0.
    "falsify target 64.005": ["falsify", "--target", "64.005"],
    # The witness is k = 1024, at lambda = 104,857,600.
    "falsify target 1000": ["falsify", "--target", "1000"],
    "simulate-d bench seed 1": [*SIMULATE_D, "--seed", "1"],
    "simulate-d bench seed 1 csv": [*SIMULATE_D, "--seed", "1", *CSV],
    "simulate-d bench seed 4242": [*SIMULATE_D, "--seed", "4242"],
    # 157 summation passes, against 15 at the default tolerance: widened
    # windows are summed again beside windows not yet summed.
    "simulate-d bench seed 1 tol 1e-300": [*SIMULATE_D, "--seed", "1", "--tol",
                                           "1e-300"],
    "simulate-d reps 20000": ["simulate-d", "--seed", "1", "--reps", "20000"],
    "simulate-d reps 20000 csv": ["simulate-d", "--seed", "1", "--reps",
                                  "20000", *CSV],
    # Slices of 10,000 entries, above numpy's 8,192-element reduction
    # buffer, six to a chunk of the table.
    "simulate-d l1 100 l2 100": ["simulate-d", "--l1", "100", "--l2", "100",
                                 "--n", "20", "--m", "1e4", "--reps", "300",
                                 "--seed", "3"],
    # The unperturbed null model, whose weights are rounding residues, with
    # 100,000 replications: each slice's stream runs over two blocks.
    "simulate-d magnitude 0": ["simulate-d", "--magnitude", "0", "--seed",
                               "2"],
    "h": ["h"],
    "complexity map bench": MAP,
    "complexity map bench csv": [*MAP, *CSV],
    "complexity map l1 2 l2 3 both-orders": [*MAP_RANGES, "--l1", "2",
                                             "--l2", "3", "--both-orders"],
    "complexity point": POINT,
    "complexity point both-orders csv": [*POINT, "--both-orders", *CSV],
    "oracle-check seed 1": ["oracle-check", "--seed", "1"],
    # Widened windows in the engine and in the pairwise oracle.
    "oracle-check tol 1e-300": ["oracle-check", "--tol", "1e-300"],
}


def digest(src: Path, argv: list, out: Path) -> tuple:
    """Exit code of one run and the SHA-256 of the record it wrote."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = subprocess.run(
        [sys.executable, "-m", "poissonlab.cli", *argv, "--out", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode
    sha = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else "-"
    return code, sha


def _cells(path: Path) -> dict:
    """Place -> value of every leaf of a JSON record, or cell of a CSV one
    ((row, column)); {} if the record was not written."""
    if not path.exists():
        return {}
    text = path.read_text()
    try:
        doc, out = json.loads(text), {}
    except ValueError:  # a CSV record
        return {(i, j): v for i, row in enumerate(csv.reader(io.StringIO(text)))
                for j, v in enumerate(row)}
    stack = [((), doc)]
    while stack:
        place, node = stack.pop()
        if isinstance(node, (dict, list)):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            stack += [((*place, k), v) for k, v in items]
        else:
            out[place] = node
    return out


def largest_change(old: Path, new: Path) -> str:
    """The largest relative difference between two records' numeric
    places, where it is, and the places only one record has."""
    a, b = _cells(old), _cells(new)
    worst, where = 0.0, None
    for place in sorted(a.keys() & b.keys(), key=str):  # ties: the first
        try:
            x, y = (float(v) for v in (a[place], b[place]))
        except (TypeError, ValueError):  # text, null or a list's shape
            continue
        if isinstance(a[place], bool) or x == y or math.isnan(x) and math.isnan(y):
            continue
        rel = abs(y - x) / abs(x) if x and x == x and y == y else math.inf
        if not rel <= worst:
            worst, where = rel, place
    only = len(a.keys() ^ b.keys())
    return (f"max rel {worst:.3g}"
            + (f" at {'/'.join(map(str, where))}" if where else "")
            + (f", {only} places in one record only" if only else ""))


def extract_src(ref: str, dest: Path) -> Path:
    """The src directory of git ref `ref`, extracted under dest."""
    run = subprocess.run(["git", "-C", str(ROOT), "archive", ref, "src"],
                         capture_output=True)
    if run.returncode:
        sys.exit(f"git archive {ref} src failed: {run.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(run.stdout)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the poissonlab package")
    parser.add_argument("--against", metavar="REF", default=None,
                        help="git ref whose src the records are compared with")
    args = parser.parse_args()
    src = args.src.resolve()
    if not (src / "poissonlab").is_dir():
        parser.error(f"no poissonlab package under {src}")
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ref = None if args.against is None else extract_src(args.against,
                                                            tmp / "ref")
        for idx, (name, argv) in enumerate(RECORDS.items()):
            code, sha = digest(src, argv, tmp / f"{idx}.out")
            if ref is None:
                print(f"{code:>3}  {sha}  {name}", flush=True)
                continue
            old = digest(ref, argv, tmp / f"{idx}.ref")
            same = old == (code, sha)
            differ += not same
            change = "" if same else "  " + largest_change(
                tmp / f"{idx}.ref", tmp / f"{idx}.out")
            if old[0] != code:
                change += f", exit {old[0]} -> {code}"
            print(f"{old[0]:>3} {code:>3}  {'same' if same else 'DIFFERS':7}  "
                  f"{name}{change}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
