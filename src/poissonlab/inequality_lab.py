"""Grid certification of variance-to-mean ratio bounds for capped functionals.

Provides the corrected ratio Var/(max{ab, sqrt(a)*b, sqrt(ab)} * E), the
uncorrected ratio Var/E together with a deterministic counterexample search
showing it is unbounded, the plain-indicator ratio Var[X 1(X>=4)]/E[X 1(X>=4)],
the capped-mean lower-envelope ratio E / min(lam*sqrt(min(lam,a)*min(lam,b)),
lam^4), and the closed-form comparison function whose positive infimum backs
the small-count tail argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import poisson_core
from .poisson_core import (
    DEFAULT_TOL,
    DENOMINATOR_FLOOR,
    CappedFunctional,
    SkippedPoint,
    moments_many,
)


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid: rates, cap pairs (a <= b), and engine tolerance."""

    lambda_points: tuple
    cap_pairs: tuple
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not self.lambda_points or not self.cap_pairs:
            raise ValueError("grid must have at least one rate and one cap pair")
        if any(not math.isfinite(l) for l in self.lambda_points):
            raise ValueError("rates must be finite")
        if not self.tol > 0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        for a, b in self.cap_pairs:
            if not (a >= 0 and b >= 0 and a <= b):
                raise ValueError(f"cap pair must satisfy 0 <= a <= b, got {(a, b)}")


class RatioRecord(NamedTuple):
    """One evaluated grid point, its fields in cli.CERTIFY_COLUMNS order."""

    lam: float
    cap_a: float
    cap_b: float
    numerator: float
    denominator: float
    ratio: float

    def key(self):
        return (self.lam, self.cap_a, self.cap_b)


@dataclass
class RatioCertificate:
    """Result of a grid sweep: per-point ratios plus observed extrema."""

    which: str
    tol: float
    records: list = field(default_factory=list)
    skipped: list = field(default_factory=list)  # vacuous and errored points
    errored: int = 0  # entries of skipped that failed numerically
    # (lambda, a, b) -> ratio at every point, NaN where there is none.
    ratios: dict = field(default_factory=dict, compare=False)
    sup_ratio: float = math.nan
    inf_ratio: float = math.nan
    arg_sup: tuple = None
    arg_inf: tuple = None


def correction_factor(a: float, b: float) -> float:
    """max{ab, sqrt(a)*b, sqrt(ab)} evaluated with canonical a <= b order."""
    a, b = min(a, b), max(a, b)
    return max(a * b, math.sqrt(a) * b, math.sqrt(a * b))


def _variance_and_mean(lam, a, b, m, factor):
    return m.variance.value, m.mean.value


def _corrected_parts(lam, a, b, m, factor):
    den = factor * m.mean.value
    if not math.isfinite(den):  # an overflowing or infinite cap product
        raise ValueError(f"correction factor times mean is {den} at {(lam, a, b)}")
    return m.variance.value, den


def _envelope(lam, a, b):
    """claim23's lower envelope, at integer caps >= 2 and above the floor."""
    for cap in (a, b):
        if not math.isfinite(cap) or cap != int(cap) or cap < 2:
            raise ValueError(f"caps must be integers >= 2, got {cap}")
    den = min(lam * math.sqrt(min(lam, a) * min(lam, b)), lam**4)
    if den < DENOMINATOR_FLOOR:  # mean / den below needs a nonzero envelope
        raise SkippedPoint(f"denominator {den} below floor at {(lam, a, b)}")
    return den


def _mean_lower_parts(lam, a, b, m, factor):
    den = _envelope(lam, a, b)
    # The numerator is reported as ratio * envelope, the form claim23
    # records carry; it can differ from the mean in the last bit, and
    # num / den still rounds back to mean / den.
    return m.mean.value / den * den, den


# Ratio kind -> (moment order, caps of its functional, check, parts).
# check(lam, a, b), if any, vets a point before its moments are read (its
# ValueError depends on the caps alone); parts(lam, a, b, m, factor) ->
# (numerator, denominator) reads m, the Moments at (lam, caps), and the
# pair's correction factor, taken once per pair. None takes the grid's
# caps; claim21's unit caps make X 1(X >= 4).
RATIO_KINDS = {
    "corrected": (2, None, None, _corrected_parts),
    "original": (2, None, None, _variance_and_mean),
    "claim21": (2, (1.0, 1.0), None, _variance_and_mean),
    "claim23": (1, None, _envelope, _mean_lower_parts),
}


def _valid(lam, a, b, check):
    """CappedFunctional(lam, a, b), or the ValueError that rejects it or
    that check, if any, raises for the pair (a, b) at rate 1."""
    try:
        if check is not None:
            check(1.0, a, b)
        return CappedFunctional(lam, a, b)
    except ValueError as exc:
        return exc


def _ratios(which, lams, pairs, tol):
    """Yields (point, result) for each point (lam, a, b) of the grid lams x
    pairs, rate by rate: the kind's (ratio, numerator, denominator) there,
    or the SkippedPoint, ArithmeticError or ValueError that evaluating it
    raised, the check's first. The moments come from one lazy
    _batched_moments stream over the valid rates and the valid pairs the
    check passes, so a consumer that stops early sums no more. A tolerance
    not positive raises ValueError at the call, as moments_many does."""
    order, caps, check, parts = RATIO_KINDS[which]
    rates = [_valid(lam, 0.0, 0.0, None) for lam in lams]
    funcs = [_valid(0.0, *(caps or (float(a), float(b))), check) for a, b in pairs]
    ms = poisson_core._batched_moments(
        [f.lam for f in rates if not isinstance(f, ValueError)],
        *(c.T for c in poisson_core._points(  # a column of the valid pairs
            [f for f in funcs if not isinstance(f, ValueError)])[1:]), tol, order)
    factors = [None if caps or isinstance(f, ValueError)  # grid caps only
               else correction_factor(a, b) for (a, b), f in zip(pairs, funcs)]

    def stream():
        for lam, rate in zip(lams, rates):
            for (a, b), f, factor in zip(pairs, funcs, factors):
                bad = rate if isinstance(rate, ValueError) else f
                m = bad if isinstance(bad, ValueError) else next(ms)
                try:
                    if check is not None:
                        check(lam, a, b)
                    if isinstance(m, Exception):
                        raise m
                    num, den = parts(lam, a, b, m, factor)
                    if den < DENOMINATOR_FLOOR:
                        raise SkippedPoint(f"denominator {den} below floor "
                                           f"at {(lam, a, b)}")
                except (SkippedPoint, ArithmeticError, ValueError) as exc:
                    yield (lam, a, b), exc
                else:
                    yield (lam, a, b), (num / den, num, den)
    return stream()


def _ratio(which, lam, a, b, tol):
    """(ratio, numerator, denominator) of a ratio kind at one point."""
    ((_, r),) = _ratios(which, [lam], [(a, b)], tol)
    if isinstance(r, Exception):
        raise r
    return r


def corrected_ratio(lam, a, b, tol=DEFAULT_TOL):
    """Var / (max{ab, sqrt(a)*b, sqrt(ab)} * E); returns (ratio, num, den)."""
    return _ratio("corrected", lam, min(a, b), max(a, b), tol)


def original_ratio(lam, a, b, tol=DEFAULT_TOL):
    """Plain Var / E ratio (the uncorrected, falsifiable bound)."""
    return _ratio("original", lam, a, b, tol)[0]


@dataclass(frozen=True)
class WitnessSearch:
    """Outcome of the deterministic unbounded-ratio search."""

    found: bool
    lam: float
    cap_a: float
    cap_b: float
    ratio: float
    ratio_lo: float  # certified lower end of the ratio at (lam, caps)
    trail: tuple  # ((k, lam, ratio), ...) along the schedule a=b=k, lam=100k^2


def find_counterexample(target_ratio: float) -> WitnessSearch:
    """Search a=b=k, lam=100*k^2 (k = 4, 8, ..., 2^20), where Var/E grows
    like k, for a witness: a point whose ratio_lo (Var - bound rounded down
    over E + bound rounded up, the quotient rounded down) reaches the target.

    A point that cannot be evaluated (a TruncationError: the term budget,
    or a variance whose certified bound exceeds it) ends the search with
    the best point found, the first of largest ratio. The schedule is one
    lazy moments_many stream: no window past the witness is summed.
    """
    if target_ratio <= 0:
        raise ValueError("target ratio must be positive")
    trail, lows = [], []
    fs = [CappedFunctional(100.0 * 4**i, 2.0**i, 2.0**i) for i in range(2, 21)]
    for f, m in zip(fs, moments_many(fs, DEFAULT_TOL, 2)):
        if isinstance(m, Exception):
            break
        var, mean = m.variance, m.mean
        trail.append((int(f.cap_a), f.lam, var.value / mean.value))
        num = math.nextafter(var.value - var.tail_bound, -math.inf)
        den = math.nextafter(mean.value + mean.tail_bound, math.inf)
        lows.append(math.nextafter(num / den, -math.inf))
        if lows[-1] >= target_ratio:
            break
    if not trail:
        return WitnessSearch(False, *(math.nan,) * 5, ())
    found = lows[-1] >= target_ratio
    i = -1 if found else max(range(len(trail)), key=lambda i: trail[i][2])
    k, lam, ratio = trail[i]
    return WitnessSearch(found, lam, float(k), float(k), ratio, lows[i],
                         tuple(trail))


def indicator_ratio(lam: float, tol: float = DEFAULT_TOL) -> float:
    """Var[X 1(X>=4)] / E[X 1(X>=4)]."""
    return _ratio("claim21", lam, math.inf, math.inf, tol)[0]


def h_function(lam: float) -> float:
    """min(lam, lam^4) / (E[X^4] * P(X <= 3)) in closed form.

    E[X^4] = lam^4 + 6 lam^3 + 7 lam^2 + lam and
    P(X <= 3) = (1 + lam + lam^2/2 + lam^3/6) e^{-lam}; the e^{-lam} factor
    is applied in log space so large rates do not underflow. The bound of
    interest concerns lam >= 1; smaller rates evaluate but are out of regime.
    """
    if lam <= 0:
        raise ValueError("rate must be positive")
    if lam >= 1e3:  # e^lam outgrows the rest: h overflows from lam ~ 750 on
        return math.inf
    num = min(lam, lam**4)
    poly4 = (((lam + 6.0) * lam + 7.0) * lam + 1.0) * lam
    head = 1.0 + lam + lam * lam / 2.0 + lam**3 / 6.0
    log_den = math.log(poly4) + math.log(head) - lam
    try:
        return math.exp(math.log(num) - log_den)
    except OverflowError:
        return math.inf


# SciPy's golden-section constant; the truncated value keeps the iterates,
# and so the reported minimizer, identical to scipy.optimize's "golden".
_GOLDEN = 0.61803399


def _golden_section(fn, xa, xb, xc):
    """(min value, minimizer) of fn by golden section on xa < xb < xc.

    Same bracket setup, update rule, stop and 5000-step limit as
    minimize_scalar(method="golden", options={"xtol": 1e-12}).
    """
    g_c = 1.0 - _GOLDEN
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + g_c * (xc - xb)
    else:
        x1, x2 = xb - g_c * (xb - xa), xb
    f1, f2 = fn(x1), fn(x2)
    for _ in range(5000):
        if abs(x3 - x0) <= 1e-12 * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1, x2 = x1, x2, _GOLDEN * x2 + g_c * x3
            f1, f2 = f2, fn(x2)
        else:
            x3, x2, x1 = x2, x1, _GOLDEN * x1 + g_c * x0
            f2, f1 = f1, fn(x1)
    return (f1, x1) if f1 < f2 else (f2, x2)


@dataclass(frozen=True)
class InfimumResult:
    value: float
    arg: float
    tail_certified: bool


def h_infimum(lambda_max: float = 60.0, grid_points: int = 10**4) -> InfimumResult:
    """Infimum of h on [1, lambda_max]: coarse grid plus golden-section
    refinement around the interior minimizer.

    The tail beyond the minimizer is certified by discrete-derivative
    positivity: the last 10 grid differences, through the end of the grid,
    must be positive (a NaN difference, inf - inf, is not).
    """
    if lambda_max < 1.0:
        raise ValueError("lambda_max must be >= 1")
    if grid_points < 2:
        raise ValueError("need at least 2 grid points")
    grid = np.linspace(1.0, lambda_max, grid_points)
    vals = np.array([h_function(x) for x in grid])
    i = int(np.argmin(vals))
    value, arg = float(vals[i]), float(grid[i])
    if 0 < i < grid_points - 1:
        fun, x = _golden_section(h_function, grid[i - 1], grid[i], grid[i + 1])
        if fun < value:
            value, arg = float(fun), float(x)

    with np.errstate(invalid="ignore"):  # inf - inf past lam ~ 750
        diffs = np.diff(vals[i:])
    tail_certified = len(diffs) >= 10 and bool(np.all(diffs[-10:] > 0))
    return InfimumResult(value, arg, tail_certified)


_DEFAULT_CAPS = (0.5, 1.0, 2.0, 4.0, 16.0, 64.0, 256.0)
_DEFAULT_INT_CAPS = (2, 4, 16, 64, 256)


def default_grid(
    which: str, tol: float = DEFAULT_TOL, lambda_points=None, cap_pairs=None
) -> GridSpec:
    """Sweep grid for a ratio kind: the given rates and cap pairs, or by
    default 25 log-spaced rates in [1e-2, 1e4] and geometric caps.

    claim21 ignores caps, so its grid always holds the single pair
    (inf, inf) and every rate is evaluated once.
    """
    if lambda_points is None:
        lambda_points = tuple(float(v) for v in np.geomspace(1e-2, 1e4, 25))
    if which == "claim21":
        cap_pairs = ((math.inf, math.inf),)
    elif cap_pairs is None:
        caps = _DEFAULT_INT_CAPS if which == "claim23" else _DEFAULT_CAPS
        cap_pairs = tuple(
            (float(a), float(b)) for i, a in enumerate(caps) for b in caps[i:]
        )
    return GridSpec(tuple(lambda_points), tuple(cap_pairs), tol)


def sweep(grid: GridSpec, which: str, threads: int = 1) -> RatioCertificate:
    """Evaluate the chosen ratio at every grid point, in (lambda, caps) order,
    from one _ratios stream over the whole grid in that order.

    threads is accepted for compatibility and ignored: the sweep's one
    batch runs on the calling thread. Ratio ties in the extrema are broken
    by the lexicographically smallest (lambda, a, b).
    """
    if which not in RATIO_KINDS:
        raise ValueError(f"unknown sweep kind {which!r}")
    cert = RatioCertificate(which=which, tol=grid.tol)
    for (lam, a, b), r in _ratios(which, grid.lambda_points, grid.cap_pairs,
                                  grid.tol):
        cert.ratios[lam, a, b] = math.nan if isinstance(r, Exception) else r[0]
        if isinstance(r, SkippedPoint):
            cert.skipped.append((lam, a, b, str(r)))
        elif isinstance(r, Exception):
            cert.errored += 1
            cert.skipped.append((lam, a, b, f"{type(r).__name__}: {r}"))
        else:
            cert.records.append(RatioRecord(lam, a, b, r[1], r[2], r[0]))

    if cert.records:
        sup = min(cert.records, key=lambda r: (-r.ratio, r.key()))
        inf = min(cert.records, key=lambda r: (r.ratio, r.key()))
        cert.sup_ratio, cert.arg_sup = sup.ratio, sup.key()
        cert.inf_ratio, cert.arg_inf = inf.ratio, inf.key()
    return cert


def plateau_check(cap_pairs, tol: float = DEFAULT_TOL, known=None) -> bool:
    """Corrected-ratio plateau: for each pair with a, b >= 1 and a finite
    correction factor the ratio moves by less than 10% (relative) between
    lambda = 1e3 and 1e4. The ratios at tol come from known, a sweep's
    RatioCertificate.ratios or any map like it, and else from one _ratios
    stream over the grid of the missing points' rates and pairs. A ratio
    that cannot be evaluated reads NaN and shows none; at a tolerance that
    is not positive no pair shows one."""
    known = dict(known or {})
    points = [(lam, a, b) for a, b in cap_pairs
              if min(a, b) >= 1.0 and math.isfinite(correction_factor(a, b))
              for lam in (1e3, 1e4)]
    lams = sorted({lam for lam, a, b in points if (lam, a, b) not in known})
    pairs = list(dict.fromkeys(p[1:] for p in points if p not in known))
    try:
        ratios = _ratios("corrected", lams, pairs, tol)
    except ValueError:  # raised at the call, for the tolerance
        return False
    for point, r in ratios:
        known[point] = math.nan if isinstance(r, Exception) else r[0]
    ratios = (known[p] for p in points)
    for r_lo, r_hi in zip(ratios, ratios):  # consecutive: 1e3, then 1e4
        if not abs(r_hi - r_lo) < 0.10 * r_lo:
            return False
    return True
