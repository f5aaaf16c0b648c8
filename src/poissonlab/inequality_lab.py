"""Grid certification of variance-to-mean ratio bounds for capped functionals.

Provides the corrected ratio Var/(max{ab, sqrt(a)*b, sqrt(ab)} * E), the
uncorrected ratio Var/E together with a deterministic counterexample search
showing it is unbounded, the plain-indicator ratio Var[X 1(X>=4)]/E[X 1(X>=4)],
the capped-mean lower-envelope ratio E / min(lam*sqrt(min(lam,a)*min(lam,b)),
lam^4), and the closed-form comparison function whose positive infimum backs
the small-count tail argument.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .poisson_core import (
    DEFAULT_TOL,
    DENOMINATOR_FLOOR,
    CappedFunctional,
    TruncationError,
    moments_many,
)


class SkippedPoint(Exception):
    """Denominator below the floor: both sides vanish, the ratio is vacuous."""


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


@dataclass(frozen=True)
class RatioRecord:
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
    sup_ratio: float = math.nan
    inf_ratio: float = math.nan
    arg_sup: tuple = None
    arg_inf: tuple = None


def correction_factor(a: float, b: float) -> float:
    """max{ab, sqrt(a)*b, sqrt(ab)} evaluated with canonical a <= b order."""
    a, b = min(a, b), max(a, b)
    return max(a * b, math.sqrt(a) * b, math.sqrt(a * b))


def _value(m):
    """The Moments m, or the error computing them raised, raised again."""
    if isinstance(m, Exception):
        raise m
    return m


def _variance_and_mean(lam, a, b, m):
    m = _value(m)
    return m.variance.value, m.mean.value


def _corrected_parts(lam, a, b, m):
    var, mean = _variance_and_mean(lam, a, b, m)
    den = correction_factor(a, b) * mean
    if not math.isfinite(den):  # an overflowing or infinite cap product
        raise ValueError(f"correction factor times mean is {den} at {(lam, a, b)}")
    return var, den


def _mean_lower_parts(lam, a, b, m):
    for cap in (a, b):
        if not math.isfinite(cap) or cap != int(cap) or cap < 2:
            raise ValueError(f"caps must be integers >= 2, got {cap}")
    den = min(lam * math.sqrt(min(lam, a) * min(lam, b)), lam**4)
    if den < DENOMINATOR_FLOOR:  # mean / den below needs a nonzero envelope
        raise SkippedPoint(f"denominator {den} below floor at {(lam, a, b)}")
    mean = _value(m).mean.value
    # The numerator is reported as ratio * envelope, the form claim23
    # records carry; it can differ from the mean in the last bit, and
    # num / den still rounds back to mean / den.
    return mean / den * den, den


# Ratio kind -> (moment order, caps of its functional, parts), where
# parts(lam, a, b, m) -> (numerator, denominator) reads m, the Moments of
# the functional at (lam, caps) or the error computing them raised. None
# takes the grid's caps; claim21 is the plain thresholded count: unit caps
# turn the capped functional into X 1(X >= 4), so the grid caps are ignored.
RATIO_KINDS = {
    "corrected": (2, None, _corrected_parts),
    "original": (2, None, _variance_and_mean),
    "claim21": (2, (1.0, 1.0), _variance_and_mean),
    "claim23": (1, None, _mean_lower_parts),
}


def _kind_moments(which, points, tol):
    """Yields, for each (lam, a, b) of points in order, the Moments of the
    kind's functional there or the error computing them raised, from one
    lazy moments_many call: a consumer that stops early sums no more."""
    order, caps, _ = RATIO_KINDS[which]
    fs = []
    for lam, a, b in points:
        try:
            fs.append(CappedFunctional(lam, *(caps or (float(a), float(b)))))
        except ValueError as exc:  # a negative rate
            fs.append(exc)
    try:
        ms = moments_many([f for f in fs if not isinstance(f, Exception)],
                          tol, order)
    except ValueError as exc:  # a tolerance <= 0
        ms = itertools.repeat(exc)
    return (f if isinstance(f, Exception) else next(ms) for f in fs)


def _point_ratio(which, lam, a, b, m):
    """(ratio, numerator, denominator) of a ratio kind at one point, from
    m as RATIO_KINDS' parts read it."""
    num, den = RATIO_KINDS[which][2](lam, a, b, m)
    if den < DENOMINATOR_FLOOR:
        raise SkippedPoint(f"denominator {den} below floor at {(lam, a, b)}")
    return num / den, num, den


def _ratio(which, lam, a, b, tol):
    """(ratio, numerator, denominator) of a ratio kind at one point."""
    (m,) = _kind_moments(which, [(lam, a, b)], tol)
    return _point_ratio(which, lam, a, b, m)


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
    trail: tuple  # ((k, lam, ratio), ...) along the schedule a=b=k, lam=100k^2


def find_counterexample(target_ratio: float) -> WitnessSearch:
    """Search the schedule a=b=k, lam=100*k^2 (k = 4, 8, ..., 2^20) for a
    point whose plain Var/E ratio reaches the target.

    The normal approximation at lam >> b makes the ratio scale like
    sqrt(a*b) = k, so the search terminates for any reachable target. A
    TruncationError (the term budget, or a variance whose certified bound
    exceeds it) ends the search with the best witness found. The schedule
    is one lazy moments_many call, so the windows after the point where
    the search stops are never summed.
    """
    if target_ratio <= 0:
        raise ValueError("target ratio must be positive")
    trail = []
    points = [(100.0 * k * k, k, k) for k in (2**i for i in range(2, 21))]
    ms = _kind_moments("original", points, DEFAULT_TOL)
    for (lam, k, _), m in zip(points, ms):
        try:
            ratio = _point_ratio("original", lam, k, k, m)[0]
        except TruncationError:
            break
        trail.append((k, lam, ratio))
        if ratio >= target_ratio:
            return WitnessSearch(True, lam, float(k), float(k), ratio, tuple(trail))
    if not trail:
        return WitnessSearch(False, math.nan, math.nan, math.nan, math.nan, ())
    k, lam, ratio = max(trail, key=lambda t: t[2])  # the first best
    return WitnessSearch(False, lam, float(k), float(k), ratio, tuple(trail))


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
    from one moments_many call over the whole grid in that order.

    threads is accepted for compatibility and ignored: the sweep's one
    batch runs on the calling thread. Ratio ties in the extrema are broken
    by the lexicographically smallest (lambda, a, b).
    """
    if which not in RATIO_KINDS:
        raise ValueError(f"unknown sweep kind {which!r}")
    cert = RatioCertificate(which=which, tol=grid.tol)
    points = [(lam, a, b) for lam in grid.lambda_points
              for a, b in grid.cap_pairs]
    for (lam, a, b), m in zip(points, _kind_moments(which, points, grid.tol)):
        try:
            ratio, num, den = _point_ratio(which, lam, a, b, m)
        except SkippedPoint as exc:
            cert.skipped.append((lam, a, b, str(exc)))
        except (ArithmeticError, ValueError) as exc:
            cert.errored += 1
            cert.skipped.append((lam, a, b, f"{type(exc).__name__}: {exc}"))
        else:
            cert.records.append(RatioRecord(lam, a, b, num, den, ratio))

    if cert.records:
        sup = min(cert.records, key=lambda r: (-r.ratio, r.key()))
        inf = min(cert.records, key=lambda r: (r.ratio, r.key()))
        cert.sup_ratio, cert.arg_sup = sup.ratio, sup.key()
        cert.inf_ratio, cert.arg_inf = inf.ratio, inf.key()
    return cert


def plateau_check(cap_pairs, tol: float = DEFAULT_TOL) -> bool:
    """Corrected-ratio plateau: for each pair with a, b >= 1 and a finite
    correction factor the ratio moves by less than 10% (relative) between
    lambda = 1e3 and 1e4. The points come from one lazy moments_many call,
    read up to the first pair without a plateau; a pair whose ratio cannot
    be evaluated there shows none."""
    points = [(lam, a, b) for a, b in cap_pairs
              if min(a, b) >= 1.0 and math.isfinite(correction_factor(a, b))
              for lam in (1e3, 1e4)]
    ratios = (_point_ratio("corrected", *point, m)[0] for point, m in
              zip(points, _kind_moments("corrected", points, tol)))
    try:
        for r_lo, r_hi in zip(ratios, ratios):  # consecutive: 1e3, then 1e4
            if not abs(r_hi - r_lo) < 0.10 * r_lo:
                return False
    except (ArithmeticError, ValueError):
        return False
    return True
