"""Command-line front end: reproducible certification and simulation runs.

Exit codes are a stable contract: 0 success/certified, 2 predicate failed,
64 usage error, 70 internal numeric failure. All randomness flows from the
--seed flag; outputs embed their full run configuration so runs can be
replayed byte-for-byte. --threads (default: the CPU count) sets how many
threads the Monte Carlo checks of simulate-d and oracle-check draw on; it
never affects a result and stays out of the configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .poisson_core import (
    DEFAULT_TOL,
    ORACLE_POINTS,
    CappedFunctional,
    moments_many,
    monte_carlo_moments,
    thread_map,
    variance_pairwise,
)
from . import ci_model, d_statistic, inequality_lab, sample_complexity

EX_OK = 0
EX_PREDICATE = 2
EX_USAGE = 64
EX_NUMERIC = 70

# Most (n, eps) points a regime map evaluates: --n-range count times
# --eps-range count.
MAP_MAX_POINTS = 10**4
# Largest size flag (--reps, --draws, --grid-points, simulate-d's --n, --l1,
# --l2) and simulate-d l1*l2*n table, checked before anything is allocated.
MAX_SIZE = 10**7
# Most --threads; the default is the CPU count, up to this.
MAX_THREADS = 64

# CSV columns of the certify records and of the simulate-d slices.
CERTIFY_COLUMNS = ("lambda", "a", "b", "numerator", "denominator", "ratio")
SLICE_COLUMNS = ("z", "lambda_z", "weight", "mean_z", "var_z")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _jsonable(obj):
    """Strict-JSON rendering: non-finite floats become strings."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isinf(v) or math.isnan(v):
            return repr(v)
        return v
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _emit(args, body: dict, columns=None, rows=None) -> None:
    """Write the record: JSON, or with --format csv and a table, a header
    of the columns and one line per row (repr for floats, str otherwise).
    The JSON config is every parsed value but the subcommand, its handler,
    where the record goes and the thread count, which moves no result."""
    if args.format == "csv" and columns is not None:
        lines = [columns] + [[row[c] for c in columns] for row in rows]
        text = "".join(
            ",".join(repr(v) if isinstance(v, float) else str(v) for v in line)
            + "\n" for line in lines
        )
    else:
        config = {("lambda" if k == "lam" else k): v
                  for k, v in vars(args).items()
                  if k not in ("command", "func", "out", "format", "threads")}
        payload = {"tool": "poissonlab", "version": __version__,
                   "command": args.command, "config": config, "result": body}
        text = json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_float_list(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad numeric list {text!r}") from exc


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"must be finite and positive, got {text!r}"
        )
    return value


def _bounded_int(lo: int, hi: float = MAX_SIZE):
    """argparse type: an integer in [lo, hi]."""
    def integer(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(
                f"must lie in [{lo}, {hi}], got {text!r}")
        return value
    return integer


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _range(text: str) -> tuple:
    """(lo, hi, count) of a 'lo,hi,count' range; count is an integer >= 1."""
    values = _parse_float_list(text)
    if len(values) != 3 or not (values[2] >= 1.0 and values[2].is_integer()):
        raise ValueError(
            f"expected 'lo,hi,count' with an integer count >= 1, got {text!r}")
    return values[0], values[1], int(values[2])


def _grid_from_args(args, kind: str) -> inequality_lab.GridSpec:
    if kind == "claim21" and args.caps:
        raise UsageError("claim21 takes no --caps: its caps are (inf, inf)")
    lambdas = None if args.lam is None else _parse_float_list(args.lam)
    pairs = None
    if args.caps:
        pairs = []
        for pair_text in args.caps:
            vals = _parse_float_list(pair_text)
            if len(vals) != 2:
                raise UsageError(f"--caps expects 'a,b', got {pair_text!r}")
            pairs.append((min(vals), max(vals)))
    try:
        return inequality_lab.default_grid(kind, args.tol, lambdas, pairs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_certify(args) -> int:
    kind = "corrected" if args.which == "lemma1" else args.which
    grid = _grid_from_args(args, kind)
    cert = inequality_lab.sweep(grid, kind)

    extra = {}
    if kind == "corrected":
        plateau = inequality_lab.plateau_check(grid.cap_pairs, tol=args.tol)
        holds = plateau and all(math.isfinite(r.ratio) for r in cert.records)
        extra = {"plateau": plateau}
    elif kind == "claim21":
        holds = math.isfinite(cert.sup_ratio)
    else:
        holds = cert.inf_ratio > 0.0
    # No evidence certifies nothing: an empty record set or a point that
    # failed numerically leaves the claim uncertified.
    certified = bool(cert.records) and cert.errored == 0 and holds

    records = [dict(zip(CERTIFY_COLUMNS, (r.lam, r.cap_a, r.cap_b, r.numerator,
                                          r.denominator, r.ratio)))
               for r in cert.records]
    body = {
        "which": cert.which,
        "tol": cert.tol,
        "sup_ratio": cert.sup_ratio,
        "inf_ratio": cert.inf_ratio,
        "arg_sup": list(cert.arg_sup) if cert.arg_sup else None,
        "arg_inf": list(cert.arg_inf) if cert.arg_inf else None,
        "records": records,
        "skipped": [dict(zip(("lambda", "a", "b", "reason"), s))
                    for s in cert.skipped],
        "certified": certified,
        **extra,
    }
    _emit(args, body, CERTIFY_COLUMNS, records)
    if cert.errored:
        return EX_NUMERIC
    return EX_OK if certified else EX_PREDICATE


def cmd_falsify(args) -> int:
    search = inequality_lab.find_counterexample(args.target)
    body = {
        "found": search.found,
        "lambda": search.lam,
        "a": search.cap_a,
        "b": search.cap_b,
        "ratio": search.ratio,
        "trail": [
            {"k": k, "lambda": lam, "ratio": ratio}
            for (k, lam, ratio) in search.trail
        ],
    }
    _emit(args, body)
    return EX_OK if search.found else EX_PREDICATE


def cmd_simulate_d(args) -> int:
    if args.l1 * args.l2 * args.n > MAX_SIZE:
        raise UsageError(f"the l1*l2*n table exceeds {MAX_SIZE} entries")
    if not (0.0 <= args.magnitude <= 1.0):
        raise UsageError("--magnitude must lie in [0, 1]")

    joint = ci_model.generate_null(args.l1, args.l2, args.n, args.seed)
    if args.magnitude > 0:
        joint = ci_model.perturb(joint, args.magnitude, args.seed)
    model = ci_model.build_model(joint, args.m)
    exact = d_statistic.exact_moments(model, args.tol)
    mc = d_statistic.mc_moments(model, args.reps, args.seed, args.threads)
    chain = exact.chain_check()
    try:
        ratio = exact.variance_mean_ratio()
    except inequality_lab.SkippedPoint:
        ratio = None

    if exact.mean == 0.0 and exact.variance == 0.0:
        mc_ok = mc.mean_hat == 0.0 and mc.var_hat == 0.0
    else:
        mc_ok = (
            abs(mc.mean_hat - exact.mean) <= 4.0 * mc.se_mean
            and abs(mc.var_hat - exact.variance) <= 4.0 * mc.se_var
        )
    ok = mc_ok and chain.quarter_step_ok

    body = {
        "exact": {"mean": exact.mean, "variance": exact.variance,
                  "tail_bound": exact.tail_bound},
        "mc": dataclasses.asdict(mc),
        "ratio": ratio if ratio is not None else "skipped",
        "chain": dataclasses.asdict(chain),
        "mc_within_4se": mc_ok,
    }
    per_z = {z: (w * e, w * w * v) for z, w, e, v in exact.per_z}
    rows = [
        dict(zip(SLICE_COLUMNS, (z, float(model.rates[z]),
                                 float(model.weights[z]),
                                 *per_z.get(z, (0.0, 0.0)))))
        for z in range(model.n)
    ]
    _emit(args, body, SLICE_COLUMNS, rows)
    return EX_OK if ok else EX_PREDICATE


def cmd_complexity(args) -> int:
    """One evaluation path: a single point is the 1x1 regime map."""
    try:
        if not args.map:
            if args.eps is None:
                raise ValueError("--eps is required")
            n_values, eps_values = [args.n], [args.eps]
        elif args.n_range is None or args.eps_range is None:
            raise ValueError("--map needs --n-range and --eps-range")
        else:
            n_range, eps_range = _range(args.n_range), _range(args.eps_range)
            if n_range[2] * eps_range[2] > MAP_MAX_POINTS:
                raise ValueError(
                    f"the map takes at most {MAP_MAX_POINTS} (n, eps) points")
            n_values = sample_complexity.log_spaced(*n_range)
            eps_values = sample_complexity.log_spaced(*eps_range)
        rows = sample_complexity.regime_map(
            n_values, args.l1, args.l2, eps_values, args.both_orders)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _emit(args, {"rows": rows}, sample_complexity.COLUMNS, rows)
    return EX_OK


def cmd_h(args) -> int:
    if not 1.0 <= args.lambda_max < math.inf:
        raise UsageError("need a finite --lambda-max >= 1")
    res = inequality_lab.h_infimum(args.lambda_max, args.grid_points)
    in_band = 0.0109 <= res.value <= 0.0129
    body = {"infimum": res.value, "arg_lambda": res.arg,
            "tail_certified": res.tail_certified, "in_band": in_band}
    _emit(args, body)
    return EX_OK if in_band else EX_PREDICATE


def cmd_oracle_check(args) -> int:
    fs = [CappedFunctional(*point) for point in ORACLE_POINTS]
    ms = list(moments_many(fs, args.tol, 4))
    # The oracles run on the points before the first whose moments failed,
    # so an error is raised for the same point as in a one-thread loop.
    failed = next((i for i, m in enumerate(ms)
                   if isinstance(m, ArithmeticError)), len(ms))

    def oracles(idx):
        f = fs[idx]
        return (variance_pairwise(f, args.tol),
                monte_carlo_moments(f, args.draws, args.seed + idx))

    checks = thread_map(oracles, range(failed), args.threads)
    if failed < len(ms):
        raise ms[failed]
    points = []
    all_ok = True
    for (lam, a, b), m, (pw, mc) in zip(ORACLE_POINTS, ms, checks):
        e, v, mu4 = m.mean, m.variance, m.mu4
        triangle_ok = abs(v.value - pw.value) <= v.tail_bound + pw.tail_bound
        se_mean = math.sqrt(v.value / args.draws)
        se_var = math.sqrt(max(mu4.value - v.value**2, 0.0) / args.draws)
        mean_ok = abs(mc.mean - e.value) <= 4.0 * se_mean + e.tail_bound
        var_ok = abs(mc.variance - v.value) <= 4.0 * se_var + v.tail_bound
        ok = triangle_ok and mean_ok and var_ok
        all_ok = all_ok and ok
        points.append({
            "lambda": lam, "a": a, "b": b,
            "mean": e.value, "variance": v.value,
            "variance_pairwise": pw.value,
            "triangle_ok": triangle_ok, "mc_mean_ok": mean_ok,
            "mc_var_ok": var_ok,
        })
    _emit(args, {"points": points, "all_ok": all_ok})
    return EX_OK if all_ok else EX_PREDICATE


def build_parser() -> _Parser:
    parser = _Parser(prog="poissonlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--threads", type=_bounded_int(1, MAX_THREADS),
                       default=min(MAX_THREADS, _cpu_count()),
                       help="threads for the Monte Carlo checks (default: "
                            "the CPU count); no result depends on it")

    # Only the commands that read them take --seed and --tol.
    seed = {"type": _bounded_int(0, math.inf), "default": 1}
    tol = {"type": _positive_float, "default": DEFAULT_TOL}

    p = sub.add_parser("certify", help="sweep a ratio grid and certify it")
    p.add_argument("which", choices=("lemma1", "claim21", "claim23"))
    p.add_argument("--lambda", dest="lam", default=None,
                   help="comma-separated rate list overriding the default grid")
    p.add_argument("--caps", action="append", default=None,
                   help="cap pair 'a,b'; repeatable (not for claim21)")
    p.add_argument("--tol", **tol)
    common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("falsify", help="search for an unbounded-ratio witness")
    p.add_argument("--target", type=_positive_float, required=True)
    common(p)
    p.set_defaults(func=cmd_falsify)

    p = sub.add_parser("simulate-d", help="exact vs Monte Carlo statistic moments")
    p.add_argument("--l1", type=_bounded_int(2), default=4)
    p.add_argument("--l2", type=_bounded_int(2), default=4)
    p.add_argument("--n", type=_bounded_int(1), default=50)
    p.add_argument("--m", type=_positive_float, default=1000.0)
    p.add_argument("--magnitude", type=float, default=0.5)
    p.add_argument("--reps", type=_bounded_int(2), default=10**5)
    p.add_argument("--seed", **seed)
    p.add_argument("--tol", **tol)
    common(p)
    p.set_defaults(func=cmd_simulate_d)

    p = sub.add_parser("complexity", help="evaluate the sample-size bound")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--l1", type=int, default=1)
    p.add_argument("--l2", type=int, default=1)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--both-orders", action="store_true")
    p.add_argument("--map", action="store_true", help="emit a regime map")
    p.add_argument("--n-range", default=None, help="'lo,hi,count' log-spaced")
    p.add_argument("--eps-range", default=None, help="'lo,hi,count' log-spaced")
    common(p)
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("h", help="infimum of the closed-form comparison function")
    p.add_argument("--lambda-max", type=float, default=60.0)
    p.add_argument("--grid-points", type=_bounded_int(2), default=10**4)
    common(p)
    p.set_defaults(func=cmd_h)

    p = sub.add_parser("oracle-check",
                       help="dual-route and Monte Carlo checks on pinned points")
    p.add_argument("--draws", type=_bounded_int(2), default=10**6)
    p.add_argument("--seed", **seed)
    p.add_argument("--tol", **tol)
    common(p)
    p.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except ArithmeticError as exc:  # TruncationError among them
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EX_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
