"""Spans for the traced benchmark run, and the per-layer metrics made from them.

The worker wraps the public entry points of each poissonlab module from
outside the package: the program's source is not touched. Modules import
names from one another (`from .poisson_core import variance`), so a wrapper
is bound in every poissonlab module namespace that holds the original
function, and calls between modules go through it too.

Each span records its run id, its own id, its parent's id, its name, its
start and end (perf_counter seconds), the exception it raised if any, and a
few attributes of the call. Spans stay in memory and are written out as JSON
lines when the worker ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import statistics
import time
from collections import defaultdict

MODULES = ("poisson_core", "inequality_lab", "ci_model", "d_statistic",
           "sample_complexity", "cli")

# Functions wrapped per module. Hot helpers such as functional_value,
# log_pmf and h_function are left out: they run hundreds of thousands of
# times inside the functions below, and a span each would swamp the run.
LAYER_FUNCTIONS = {
    "poisson_core": ("expectation", "variance", "fourth_central_moment",
                     "variance_pairwise", "monte_carlo_moments"),
    "inequality_lab": ("sweep", "plateau_check", "find_counterexample",
                       "h_infimum"),
    "d_statistic": ("exact_moments", "bound_chain_check",
                    "variance_mean_ratio", "mc_moments"),
    "ci_model": ("generate_null", "perturb", "build_model"),
    "sample_complexity": ("regime_map",),
}

COMMANDS = ("certify", "falsify", "simulate-d", "h", "complexity", "oracle-check")
MOMENTS = ("poisson_core.expectation", "poisson_core.variance",
           "poisson_core.fourth_central_moment")
# (upper rate limit, bucket) by decade of lambda.
LAMBDA_BUCKETS = ((1.0, "lam_lt1"), (1e1, "lam1e0"), (1e2, "lam1e1"),
                  (1e3, "lam1e2"), (1e4, "lam1e3"), (math.inf, "lam_ge1e4"))
HI_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _call_attrs(args, result) -> dict:
    """Functional key (lam, a, b, t), terms summed and draws made."""
    attrs = {}
    f = args[0] if args else None
    if hasattr(f, "lam") and hasattr(f, "cap_b"):
        attrs["key"] = [f.lam, f.cap_a, f.cap_b, f.threshold]
    for name in ("terms_used", "draws"):
        if hasattr(result, name):
            attrs[name] = getattr(result, name)
    return attrs


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in on close
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, error, attrs):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = dict(run=self.run_id, id=sid, parent=parent, name=name,
                               start=start, end=end, error=error, **attrs)

    @contextlib.contextmanager
    def span(self, name: str):
        sid, parent = self._open()
        start = time.perf_counter()
        error = None
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self._close(sid, parent, name, start, error, {})

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            error, result = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                self._close(sid, parent, name, start, error,
                            _call_attrs(args, result))
        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap LAYER_FUNCTIONS and rebind each wrapper wherever the original is."""
    mods = [importlib.import_module(f"poissonlab.{m}") for m in MODULES]
    for home, names in LAYER_FUNCTIONS.items():
        home_mod = importlib.import_module(f"poissonlab.{home}")
        for name in names:
            original = getattr(home_mod, name)
            wrapped = tracer.wrap(f"{home}.{name}", original)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)


def load(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _percentile(sorted_values, pct):
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _bucket(lam: float) -> str:
    return next(b for limit, b in LAMBDA_BUCKETS if lam < limit)


def layer_metrics(spans: list, certify_record: dict | None, record_bytes: int) -> dict:
    """Per-layer metrics of one traced iteration."""
    child_time = defaultdict(float)
    child_errors = set()
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
            if s["error"]:
                child_errors.add(s["parent"])
    by_id = {s["id"]: s for s in spans}
    total = defaultdict(float)
    self_total = defaultdict(float)
    for s in spans:
        dur = s["end"] - s["start"]
        total[s["name"]] += dur
        self_total[s["name"]] += dur - child_time[s["id"]]

    def module_self(prefix):
        return sum((v for k, v in self_total.items() if k.startswith(prefix + ".")), 0.0)

    m = {}
    for cmd in COMMANDS:
        m[f"cli.command_s.{cmd}"] = total[f"cli.{cmd}"]
    m["cli.self_s"] = module_self("cli")
    m["cli.record_bytes"] = record_bytes

    m["inequality_lab.sweep_s"] = total["inequality_lab.sweep"]
    m["inequality_lab.sweep_self_s"] = self_total["inequality_lab.sweep"]
    m["inequality_lab.plateau_s"] = total["inequality_lab.plateau_check"]
    m["inequality_lab.falsify_s"] = total["inequality_lab.find_counterexample"]
    m["inequality_lab.h_infimum_s"] = total["inequality_lab.h_infimum"]
    ok = skipped = errored = 0
    if certify_record is not None:
        res = certify_record["result"]
        ok = len(res["records"])
        for entry in res["skipped"]:
            if entry["reason"].startswith(("TruncationError", "ValueError")):
                errored += 1
            else:
                skipped += 1
    m["inequality_lab.points_ok"] = ok
    m["inequality_lab.points_skipped"] = skipped
    m["inequality_lab.points_errored"] = errored

    moments = [s for s in spans if s["name"] in MOMENTS]
    for _, bucket in LAMBDA_BUCKETS:
        m[f"poisson_core.moment_s.{bucket}"] = 0.0
    for s in moments:
        m[f"poisson_core.moment_s.{_bucket(s['key'][0])}"] += s["end"] - s["start"]
    m["poisson_core.terms"] = sum(s.get("terms_used", 0) for s in moments)
    m["poisson_core.moment_calls"] = len(moments)
    distinct = {tuple(s["key"]) for s in moments}
    m["poisson_core.moment_unique_ratio"] = (
        len(distinct) / len(moments) if moments else 0.0)
    us = sorted(1e6 * (s["end"] - s["start"]) for s in moments)
    m["poisson_core.moment_us_p50"] = statistics.median(us) if us else 0.0
    hi_pct = next((p for p in HI_PERCENTILES if len(us) * (1 - p / 100) >= 10), 50.0)
    m["poisson_core.moment_us_hi"] = _percentile(us, hi_pct) if us else 0.0
    m["poisson_core.moment_us_hi_pct"] = hi_pct

    pairwise = [s for s in spans if s["name"] == "poisson_core.variance_pairwise"]
    m["poisson_core.pairwise_s"] = total["poisson_core.variance_pairwise"]
    m["poisson_core.pairwise_calls"] = len(pairwise)
    m["poisson_core.pairwise_fallbacks"] = sum(
        1 for s in pairwise
        if s["parent"] is not None
        and by_id[s["parent"]]["name"] == "poisson_core.variance")
    m["poisson_core.mc_s"] = total["poisson_core.monte_carlo_moments"]
    m["poisson_core.mc_draws"] = sum(
        s.get("draws", 0) for s in spans
        if s["name"] == "poisson_core.monte_carlo_moments")
    # Count each truncation where it was raised, not again in every caller.
    m["poisson_core.truncation_errors"] = sum(
        1 for s in spans
        if s["name"].startswith("poisson_core.")
        and s["error"] == "TruncationError" and s["id"] not in child_errors)

    m["d_statistic.exact_s"] = total["d_statistic.exact_moments"]
    m["d_statistic.chain_s"] = total["d_statistic.bound_chain_check"]
    m["d_statistic.ratio_s"] = total["d_statistic.variance_mean_ratio"]
    m["d_statistic.mc_s"] = total["d_statistic.mc_moments"]
    m["d_statistic.self_s"] = module_self("d_statistic")
    m["ci_model.generate_s"] = total["ci_model.generate_null"]
    m["ci_model.perturb_s"] = total["ci_model.perturb"]
    m["ci_model.build_model_s"] = total["ci_model.build_model"]
    m["sample_complexity.regime_map_s"] = total["sample_complexity.regime_map"]

    # Time inside the library layers, i.e. the command spans' children.
    m["trace.layer_s"] = sum(child_time[s["id"]] for s in spans
                             if s["name"].startswith("cli."))
    return m
