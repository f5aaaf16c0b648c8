"""Command-line front end: reproducible certification and simulation runs.

Exit codes are a stable contract: 0 success/certified, 2 predicate failed,
64 usage error, 70 internal numeric failure. All randomness flows from the
--seed flag; outputs embed their full run configuration (minus the thread
count, which never affects results) so runs can be replayed byte-for-byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .poisson_core import (
    DEFAULT_TOL,
    ORACLE_POINTS,
    CappedFunctional,
    TruncationError,
    moments,
    monte_carlo_moments,
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


def _payload(command: str, params: dict, body: dict) -> dict:
    return {
        "tool": "poissonlab",
        "version": __version__,
        "command": command,
        "config": params,
        "result": body,
    }


def _emit(args, payload: dict, columns=None, rows=None) -> None:
    """Write the record: JSON, or with --format csv and a table, a header
    of the columns and one line per row (repr for floats, str otherwise)."""
    if args.format == "csv" and columns is not None:
        lines = [columns] + [[row[c] for c in columns] for row in rows]
        text = "".join(
            ",".join(repr(v) if isinstance(v, float) else str(v) for v in line)
            + "\n" for line in lines
        )
    else:
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


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


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
    which_map = {"lemma1": "corrected", "claim21": "claim21", "claim23": "claim23"}
    kind = which_map[args.which]
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

    # RatioRecord's fields, in order, are the columns.
    records = [dict(zip(CERTIFY_COLUMNS, dataclasses.astuple(r)))
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
    params = {"which": args.which, "tol": args.tol,
              "lambda": args.lam, "caps": args.caps}
    _emit(args, _payload("certify", params, body), CERTIFY_COLUMNS, records)
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
    _emit(args, _payload("falsify", {"target": args.target}, body))
    return EX_OK if search.found else EX_PREDICATE


def cmd_simulate_d(args) -> int:
    if args.reps < 2:
        raise UsageError("--reps must be at least 2")
    if args.l1 < 2 or args.l2 < 2 or args.n < 1:
        raise UsageError("need l1, l2 >= 2 and n >= 1")
    if not (0.0 <= args.magnitude <= 1.0):
        raise UsageError("--magnitude must lie in [0, 1]")

    joint = ci_model.generate_null(args.l1, args.l2, args.n, args.seed)
    if args.magnitude > 0:
        joint = ci_model.perturb(joint, args.magnitude, args.seed)
    model = ci_model.build_model(joint, args.m)
    exact = d_statistic.exact_moments(model, args.tol)
    mc = d_statistic.mc_moments(model, args.reps, args.seed)
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
    params = {"l1": args.l1, "l2": args.l2, "n": args.n, "m": args.m,
              "magnitude": args.magnitude, "seed": args.seed,
              "reps": args.reps, "tol": args.tol}
    _emit(args, _payload("simulate-d", params, body), SLICE_COLUMNS, rows)
    return EX_OK if ok else EX_PREDICATE


def cmd_complexity(args) -> int:
    if args.map:
        if args.eps is not None and not (0.0 < args.eps <= 1.0):
            raise UsageError("--eps must lie in (0, 1]")
        if args.n_range is None or args.eps_range is None:
            raise UsageError("--map needs --n-range and --eps-range")
        try:
            n_lo, n_hi, n_count = _parse_float_list(args.n_range)
            e_lo, e_hi, e_count = _parse_float_list(args.eps_range)
            if not 1 <= n_count * e_count <= MAP_MAX_POINTS:
                raise ValueError(
                    f"the map takes 1 to {MAP_MAX_POINTS} (n, eps) points")
            n_values = sample_complexity.log_spaced(n_lo, n_hi, int(n_count))
            eps_values = sample_complexity.log_spaced(e_lo, e_hi, int(e_count))
        except (ValueError, TypeError) as exc:
            raise UsageError(f"bad range: {exc}") from exc
        if max(eps_values) > 1.0 or min(eps_values) <= 0.0:
            raise UsageError("eps range must lie in (0, 1]")
        try:
            rows = sample_complexity.regime_map(
                n_values, args.l1, args.l2, eps_values
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    else:
        if args.eps is None:
            raise UsageError("--eps is required")
        try:
            inputs = sample_complexity.ComplexityInputs(
                args.n, args.l1, args.l2, args.eps
            )
            res = sample_complexity.evaluate(inputs, both_orders=args.both_orders)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        rows = [sample_complexity.row(inputs, res)]
    params = {"n": args.n, "l1": args.l1, "l2": args.l2, "eps": args.eps,
              "map": args.map, "n_range": args.n_range,
              "eps_range": args.eps_range, "both_orders": args.both_orders}
    _emit(args, _payload("complexity", params, {"rows": rows}),
          sample_complexity.COLUMNS, rows)
    return EX_OK


def cmd_h(args) -> int:
    if not 1.0 <= args.lambda_max < math.inf or args.grid_points < 2:
        raise UsageError(
            "need a finite --lambda-max >= 1 and --grid-points >= 2")
    res = inequality_lab.h_infimum(args.lambda_max, args.grid_points)
    in_band = 0.0109 <= res.value <= 0.0129
    body = {"infimum": res.value, "arg_lambda": res.arg,
            "tail_certified": res.tail_certified, "in_band": in_band}
    params = {"lambda_max": args.lambda_max, "grid_points": args.grid_points}
    _emit(args, _payload("h", params, body))
    return EX_OK if in_band else EX_PREDICATE


def cmd_oracle_check(args) -> int:
    if args.draws < 2:
        raise UsageError("--draws must be at least 2")
    points = []
    all_ok = True
    for idx, (lam, a, b) in enumerate(ORACLE_POINTS):
        f = CappedFunctional(lam, a, b)
        m = moments(f, args.tol, 4)
        e, v, mu4 = m.mean, m.variance, m.mu4
        pw = variance_pairwise(f, args.tol)
        triangle_ok = abs(v.value - pw.value) <= v.tail_bound + pw.tail_bound
        mc = monte_carlo_moments(f, args.draws, args.seed + idx)
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
    params = {"draws": args.draws, "seed": args.seed, "tol": args.tol}
    _emit(args, _payload("oracle-check", params,
                         {"points": points, "all_ok": all_ok}))
    return EX_OK if all_ok else EX_PREDICATE


def build_parser() -> _Parser:
    parser = _Parser(prog="poissonlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect")

    # Only the commands that read them take --seed and --tol.
    seed = {"type": _nonnegative_int, "default": 1}
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
    p.add_argument("--l1", type=int, default=4)
    p.add_argument("--l2", type=int, default=4)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--m", type=_positive_float, default=1000.0)
    p.add_argument("--magnitude", type=float, default=0.5)
    p.add_argument("--reps", type=int, default=10**5)
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
    p.add_argument("--grid-points", type=int, default=10**4)
    common(p)
    p.set_defaults(func=cmd_h)

    p = sub.add_parser("oracle-check",
                       help="dual-route and Monte Carlo checks on pinned points")
    p.add_argument("--draws", type=int, default=10**6)
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
    except (TruncationError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EX_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
