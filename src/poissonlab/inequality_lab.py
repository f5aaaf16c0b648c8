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

import numpy as np

from .poisson_core import (
    DEFAULT_TOL,
    DENOMINATOR_FLOOR,
    CappedFunctional,
    TruncationError,
    moments,
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

    def to_json_dict(self) -> dict:
        return {
            "which": self.which,
            "tol": self.tol,
            "sup_ratio": self.sup_ratio,
            "inf_ratio": self.inf_ratio,
            "arg_sup": list(self.arg_sup) if self.arg_sup else None,
            "arg_inf": list(self.arg_inf) if self.arg_inf else None,
            "records": [
                {
                    "lambda": r.lam,
                    "a": r.cap_a,
                    "b": r.cap_b,
                    "numerator": r.numerator,
                    "denominator": r.denominator,
                    "ratio": r.ratio,
                }
                for r in self.records
            ],
            "skipped": [
                {"lambda": lam, "a": a, "b": b, "reason": reason}
                for (lam, a, b, reason) in self.skipped
            ],
        }

    def write_csv(self, stream) -> None:
        stream.write("lambda,a,b,numerator,denominator,ratio\n")
        for r in self.records:
            stream.write(
                f"{r.lam!r},{r.cap_a!r},{r.cap_b!r},"
                f"{r.numerator!r},{r.denominator!r},{r.ratio!r}\n"
            )


def correction_factor(a: float, b: float) -> float:
    """max{ab, sqrt(a)*b, sqrt(ab)} evaluated with canonical a <= b order."""
    a, b = min(a, b), max(a, b)
    return max(a * b, math.sqrt(a) * b, math.sqrt(a * b))


def _variance_and_mean(lam, a, b, tol):
    m = moments(CappedFunctional(lam, a, b), tol, 2)
    return m.variance.value, m.mean.value


def _corrected_parts(lam, a, b, tol):
    var, mean = _variance_and_mean(lam, a, b, tol)
    den = correction_factor(a, b) * mean
    if not math.isfinite(den):  # an overflowing or infinite cap product
        raise ValueError(f"correction factor times mean is {den} at {(lam, a, b)}")
    return var, den


def _indicator_parts(lam, a, b, tol):
    return _variance_and_mean(lam, 1.0, 1.0, tol)


def _mean_lower_parts(lam, a, b, tol):
    for cap in (a, b):
        if not math.isfinite(cap) or cap != int(cap) or cap < 2:
            raise ValueError(f"caps must be integers >= 2, got {cap}")
    den = min(lam * math.sqrt(min(lam, a) * min(lam, b)), lam**4)
    if den < DENOMINATOR_FLOOR:  # mean / den below needs a nonzero envelope
        raise SkippedPoint(f"denominator {den} below floor at {(lam, a, b)}")
    mean = moments(CappedFunctional(lam, float(a), float(b)), tol, 1).mean.value
    # The numerator is reported as ratio * envelope, the form claim23
    # records carry; it can differ from the mean in the last bit, and
    # num / den still rounds back to mean / den.
    return mean / den * den, den


# Ratio kind -> (lam, a, b, tol) -> (numerator, denominator).
# claim21 is the plain thresholded count: unit caps turn the capped
# functional into X 1(X >= 4), so the grid caps are ignored.
RATIO_KINDS = {
    "corrected": _corrected_parts,
    "original": _variance_and_mean,
    "claim21": _indicator_parts,
    "claim23": _mean_lower_parts,
}


def _ratio(which, lam, a, b, tol):
    """(ratio, numerator, denominator) of a ratio kind at one point."""
    num, den = RATIO_KINDS[which](lam, a, b, tol)
    if den < DENOMINATOR_FLOOR:
        raise SkippedPoint(f"denominator {den} below floor at {(lam, a, b)}")
    return num / den, num, den


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


def find_counterexample(target_ratio: float, k_max: int = 2**20) -> WitnessSearch:
    """Search the schedule a=b=k, lam=100*k^2 (k doubling from 4) for a point
    whose plain Var/E ratio reaches the target.

    The normal approximation at lam >> b makes the ratio scale like
    sqrt(a*b) = k, so the search terminates for any reachable target. A
    TruncationError (the term budget, or a variance whose certified bound
    exceeds it) ends the search with the best witness found.
    """
    if target_ratio <= 0:
        raise ValueError("target ratio must be positive")
    trail = []
    best = None
    k = 4
    while k <= k_max:
        lam = 100.0 * k * k
        try:
            ratio = original_ratio(lam, float(k), float(k))
        except TruncationError:
            break
        trail.append((k, lam, ratio))
        if best is None or ratio > best[2]:
            best = (k, lam, ratio)
        if ratio >= target_ratio:
            return WitnessSearch(True, lam, float(k), float(k), ratio, tuple(trail))
        k *= 2
    if best is None:
        return WitnessSearch(False, math.nan, math.nan, math.nan, math.nan, ())
    return WitnessSearch(
        False, best[1], float(best[0]), float(best[0]), best[2], tuple(trail)
    )


def indicator_ratio(lam: float, tol: float = DEFAULT_TOL) -> float:
    """Var[X 1(X>=4)] / E[X 1(X>=4)]."""
    return _ratio("claim21", lam, math.inf, math.inf, tol)[0]


def mean_lower_ratio(lam: float, a, b, tol: float = DEFAULT_TOL) -> float:
    """E[f(X)] / min(lam*sqrt(min(lam,a)*min(lam,b)), lam^4), integer caps >= 2."""
    return _ratio("claim23", lam, a, b, tol)[0]


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


def _golden_section(fn, xa, xb, xc, xtol=1e-12, maxiter=5000):
    """(min value, minimizer) of fn by golden section on xa < xb < xc.

    Same bracket setup, update rule and |x3 - x0| <= xtol * (|x1| + |x2|)
    stop as minimize_scalar(method="golden").
    """
    g_c = 1.0 - _GOLDEN
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + g_c * (xc - xb)
    else:
        x1, x2 = xb - g_c * (xb - xa), xb
    f1, f2 = fn(x1), fn(x2)
    for _ in range(maxiter):
        if abs(x3 - x0) <= xtol * (abs(x1) + abs(x2)):
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
    """Evaluate the chosen ratio at every grid point, in (lambda, caps) order.

    threads is accepted for compatibility and ignored: evaluation is
    single-threaded. Ratio ties in the extrema are broken by the
    lexicographically smallest (lambda, a, b).
    """
    if which not in RATIO_KINDS:
        raise ValueError(f"unknown sweep kind {which!r}")
    cert = RatioCertificate(which=which, tol=grid.tol)
    for lam in grid.lambda_points:
        for a, b in grid.cap_pairs:
            try:
                ratio, num, den = _ratio(which, lam, a, b, grid.tol)
            except SkippedPoint as exc:
                cert.skipped.append((lam, a, b, str(exc)))
            except (ArithmeticError, ValueError) as exc:
                cert.errored += 1
                cert.skipped.append((lam, a, b, f"{type(exc).__name__}: {exc}"))
            else:
                cert.records.append(RatioRecord(lam, a, b, num, den, ratio))

    if cert.records:
        sup = max(r.ratio for r in cert.records)
        inf = min(r.ratio for r in cert.records)
        cert.sup_ratio = sup
        cert.inf_ratio = inf
        cert.arg_sup = min(
            (r for r in cert.records if r.ratio == sup), key=RatioRecord.key
        ).key()
        cert.arg_inf = min(
            (r for r in cert.records if r.ratio == inf), key=RatioRecord.key
        ).key()
    return cert


def plateau_check(
    cap_pairs, lam_lo: float = 1e3, lam_hi: float = 1e4,
    rel_tol: float = 0.10, tol: float = DEFAULT_TOL,
) -> bool:
    """Corrected-ratio plateau: for each pair with a, b >= 1 and a finite
    correction factor the ratio moves by less than rel_tol (relative)
    between lam_lo and lam_hi. A pair whose ratio cannot be evaluated
    there shows no plateau."""
    for a, b in cap_pairs:
        if min(a, b) < 1.0 or not math.isfinite(correction_factor(a, b)):
            continue
        try:
            r_lo, _, _ = corrected_ratio(lam_lo, a, b, tol)
            r_hi, _, _ = corrected_ratio(lam_hi, a, b, tol)
        except (ArithmeticError, ValueError):
            return False
        if not abs(r_hi - r_lo) < rel_tol * r_lo:
            return False
    return True
