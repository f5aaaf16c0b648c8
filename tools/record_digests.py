"""SHA-256 of the reference records, to show that a change leaves them
byte-identical.

    python3 tools/record_digests.py [--src DIR]

Runs each reference command of the poissonlab CLI in a fresh interpreter
with DIR (default: the src directory of this checkout) first on the import
path, writes its record with --out, and prints one line per record: exit
code, SHA-256 of the record file, and the record's name. Run it once on
each of two checkouts and compare the output.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

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
    # Vacuous (rate 0), errored (5e6) and normal rates in one batch per pair.
    "certify lemma1 mixed batch": ["certify", "lemma1", "--lambda",
                                   "0,0.3,1,1e4,5e6", "--caps", "2,4",
                                   "--caps", "1e6,1e6"],
    # Every window widens at this tolerance, at lambda 1e4 on the left too.
    "certify lemma1 tol 1e-300": ["certify", "lemma1", "--tol", "1e-300",
                                  "--lambda", "1,100,1e4", "--caps", "2,4",
                                  "--caps", "64,64"],
    # A finite correction factor of 1e304 overflows the ratio at 1e3: no
    # plateau, exit 2.
    "certify lemma1 plateau fails": ["certify", "lemma1", "--lambda", "1",
                                     "--caps", "1e152,1e152"],
    "falsify target 50": ["falsify", "--target", "50"],
    "falsify target 1e9": ["falsify", "--target", "1e9"],
    "simulate-d bench seed 1": [*SIMULATE_D, "--seed", "1"],
    "simulate-d bench seed 1 csv": [*SIMULATE_D, "--seed", "1", *CSV],
    "simulate-d bench seed 4242": [*SIMULATE_D, "--seed", "4242"],
    "simulate-d reps 20000": ["simulate-d", "--seed", "1", "--reps", "20000"],
    "simulate-d reps 20000 csv": ["simulate-d", "--seed", "1", "--reps",
                                  "20000", *CSV],
    "h": ["h"],
    "complexity map bench": MAP,
    "complexity map bench csv": [*MAP, *CSV],
    "complexity map l1 2 l2 3 both-orders": [*MAP_RANGES, "--l1", "2",
                                             "--l2", "3", "--both-orders"],
    "complexity point": POINT,
    "complexity point both-orders csv": [*POINT, "--both-orders", *CSV],
    "oracle-check seed 1": ["oracle-check", "--seed", "1"],
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the poissonlab package")
    args = parser.parse_args()
    src = args.src.resolve()
    if not (src / "poissonlab").is_dir():
        parser.error(f"no poissonlab package under {src}")
    with tempfile.TemporaryDirectory() as tmp:
        for idx, (name, argv) in enumerate(RECORDS.items()):
            code, sha = digest(src, argv, Path(tmp) / f"{idx}.out")
            print(f"{code:>3}  {sha}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
