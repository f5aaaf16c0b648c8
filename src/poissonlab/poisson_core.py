"""Certified moments of capped Poisson functionals.

The central object is f(X) = X*sqrt(min(X,a)*min(X,b))*1(X >= t) for
X ~ Poisson(lambda). Moments are computed by truncated summation with a
rigorous geometric tail certificate, and every returned estimate carries a
certified absolute error bound (truncation tail plus a propagated
floating-point roundoff term). An independent pairwise-difference variance
oracle (Var[W] = E[(W - W')^2]/2, summed over the same window) and a seeded
Monte Carlo cross-check (numpy's sampler, evaluated on the draw histogram)
are provided for dual-route validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_TERMS = 10**7
DEFAULT_TOL = 1e-10
DENOMINATOR_FLOOR = 1e-300

# Relative bound on accumulated floating-point error of the summed terms
# (pmf evaluation via log-factorial + exp, functional evaluation, exact fsum).
# Observed term-level relative errors are ~1e-15; this carries ~100x margin.
FP_RELATIVE_BOUND = 2e-13

_EPS = 2.220446049250313e-16
# Elements per temporary in the pairwise oracle's double sum (1 MiB of
# float64), so its memory does not grow with the window width.
_PAIRWISE_ELEMENTS = 2**17
# Widest window the pairwise oracle sums over: its cost grows like the
# square of the width: 0.6 s at 28,035 terms (lambda = 1e6, one Xeon core).
_PAIRWISE_TERMS = 2**15


def _fp_rel(lam: float) -> float:
    """Relative certified roundoff for sums of pmf-weighted terms.

    log-pmf cancels components of size ~lam*log(lam), so the pmf carries a
    relative error ~eps times that magnitude; the constant 16 gives ample
    margin over observed errors.
    """
    if lam <= 0.0:
        return FP_RELATIVE_BOUND
    scale = lam * (abs(math.log(lam)) + 1.0) + abs(math.lgamma(lam + 1.0))
    return max(FP_RELATIVE_BOUND, 16.0 * _EPS * scale)


class TruncationError(ArithmeticError):
    """No certified moment: the requested tolerance is unreachable within the
    summation-term budget, or a moment's certified bound exceeds its value."""

    def __init__(self, message, best_bound=math.inf, terms_used=0):
        super().__init__(message)
        self.best_bound = best_bound
        self.terms_used = terms_used


@dataclass(frozen=True)
class CappedFunctional:
    """Parameters (lambda, a, b, t) of x*sqrt(min(x,a)*min(x,b))*1(x >= t).

    Caps are stored in canonical order cap_a <= cap_b; evaluation is
    symmetric in the two caps. Caps may be math.inf (uncapped semantics).
    """

    lam: float
    cap_a: float
    cap_b: float
    threshold: int = 4

    def __post_init__(self):
        if not (self.lam >= 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"rate must be finite and >= 0, got {self.lam}")
        if not (self.cap_a >= 0.0 and self.cap_b >= 0.0):
            raise ValueError("caps must be >= 0")
        if not (isinstance(self.threshold, int) and self.threshold >= 0):
            raise ValueError("threshold must be a nonnegative integer")
        if self.cap_a > self.cap_b:
            a, b = self.cap_b, self.cap_a
            object.__setattr__(self, "cap_a", a)
            object.__setattr__(self, "cap_b", b)


@dataclass(frozen=True)
class MomentEstimate:
    """A computed moment with a certified absolute error bound; terms_used
    is the number of terms summed, hi - lo + 1 over the window [lo, hi]."""

    value: float
    tail_bound: float
    terms_used: int


@dataclass(frozen=True)
class Moments:
    """Mean, variance and fourth central moment of one functional, taken
    from one summation pass; moments above the requested order are None."""

    mean: MomentEstimate
    variance: MomentEstimate | None = None
    mu4: MomentEstimate | None = None


@dataclass(frozen=True)
class PairwiseVarianceResult:
    """Variance via the pairwise identity, with its certified error bound."""

    value: float
    tail_bound: float


@dataclass(frozen=True)
class MonteCarloMoments:
    """Sample mean/variance of the functional over seeded Poisson draws."""

    mean: float
    variance: float
    draws: int
    seed: int


def log_pmf(lam: float, x: int) -> float:
    """log of the Poisson pmf, computed in log space via log-gamma.

    lambda = 0 is the point mass at 0: returns 0.0 at x = 0 and -inf
    otherwise.
    """
    if lam < 0:
        raise ValueError(f"rate must be >= 0, got {lam}")
    if x < 0 or x != int(x):
        raise ValueError(f"count must be a nonnegative integer, got {x}")
    if lam == 0.0:
        return 0.0 if x == 0 else -math.inf
    return x * math.log(lam) - lam - math.lgamma(x + 1.0)


def pmf(lam: float, x: int) -> float:
    return math.exp(log_pmf(lam, x))


def functional_value(x, f: CappedFunctional):
    """Evaluate x*sqrt(min(x,a)*min(x,b))*1(x >= t); scalar or array."""
    xa = np.asarray(x, dtype=np.float64)
    vals = np.where(
        xa >= f.threshold,
        xa * np.sqrt(np.minimum(xa, f.cap_a) * np.minimum(xa, f.cap_b)),
        0.0,
    )
    if np.ndim(x) == 0:
        return float(vals)
    return vals


# log k! = log Gamma(k + 1) by Cephes' Stirling series for log Gamma(z),
# z >= 13: (z - 1/2) log z - z + log(2 pi)/2 + A(1/z^2)/z, with Horner's rule
# for A. This is the branch scipy.special.gammaln takes there; with the C
# library's log (math.log, not np.log, whose vector path rounds some values
# differently and depends on the CPU) it reproduces gammaln(k + 1) bit for
# bit. Below k = 12 the values are the exact log(k!).
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_HALF_LOG_2PI = 0.91893853320467274178
_EXACT_BELOW = 12


def _log_factorial_series(k: np.ndarray) -> np.ndarray:
    """log k! by the Stirling series; accurate for k >= 12."""
    z = k + 1.0
    log_z = np.fromiter(map(math.log, z.tolist()), np.float64, len(z))
    p = 1.0 / (z * z)
    a = _STIRLING[0]
    for c in _STIRLING[1:]:
        a = a * p + c
    return (z - 0.5) * log_z - z + _HALF_LOG_2PI + a / z


# log k! for k < 2^14 (128 KiB): a window whose top index is below 2^14
# (rates up to ~1.4e4) takes its values as a slice.
_LOG_FACTORIAL = _log_factorial_series(np.arange(2**14, dtype=np.float64))
_LOG_FACTORIAL[:_EXACT_BELOW] = [
    math.log(math.factorial(k)) for k in range(_EXACT_BELOW)
]
_LOG_FACTORIAL.flags.writeable = False


def _pmf_window(lam: float, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.arange(lo, hi + 1, dtype=np.float64)
    if hi < len(_LOG_FACTORIAL):
        log_fact = _LOG_FACTORIAL[lo : hi + 1]
    else:
        log_fact = _log_factorial_series(x)
        if lo < _EXACT_BELOW:
            log_fact[: _EXACT_BELOW - lo] = _LOG_FACTORIAL[lo:_EXACT_BELOW]
    logp = x * math.log(lam) - lam - log_fact
    return x, np.exp(logp)


# Each side of the summation window is widened until its certified tail is
# at most this share of the largest term of every power. That keeps the
# tail below half an ulp of the roundoff term _fp_rel(lam) * S_k (at least
# 2e-13 * S_k), so it cannot move a reported bound.
_REL_CUT = 2.0**-100


def _certified_window(f, tol, floor, max_power, max_terms):
    """The certified summation window of f, shared by both variance routes.

    Returns (p, fv, body, terms, trunc, lo, r): p(x) and f(x) on
    [lo - 1, hi + 1] (no left edge term when lo is the floor), the slice
    body that holds [lo, hi], terms[k] = f^k p on the same range and
    trunc[k], the certified tail of sum f^k p outside [lo, hi], for
    k = 1..max_power, and the right term ratio r < 1. The first window has
    half-width h = 14*sqrt(lambda+1) + 16: lo = max(floor, floor(lambda - h))
    and hi = max(ceil(lambda + h), t + 16, 48), so its cost grows like
    sqrt(lambda). The tails are geometric, from the edge terms:

    - right: f(x+1)/f(x) <= ((x+1)/x)^2, so the term ratio beyond hi is at
      most r = (lambda/(hi+2)) * ((hi+2)/(hi+1))^(2K), K = max_power, and
      the tail is at most term(hi+1) / (1 - r) once r < 1;
    - left (when lo > floor): f is nondecreasing and p(x-1)/p(x) = x/lambda,
      so the tail is at most term(lo-1) / (1 - (lo-1)/lambda).

    A side is widened, by doubling its reach from lambda, until for every
    power its tail is at most min(tol/16, 2^-100 * the largest term of that
    power in the window). The budget max_terms is checked on the unrounded
    width, because from lambda ~1.6e34 on h is below half an ulp of lambda
    and no widening could move the rounded ends, and again before each
    window is allocated.
    """
    lam, t = f.lam, f.threshold
    h = 14.0 * math.sqrt(lam + 1.0) + 16.0
    width = min(2.0 * h, lam + h - floor)
    if width > max_terms:
        raise TruncationError(
            f"summation window of {width:.6g} terms exceeds the "
            f"{max_terms}-term budget"
        )
    lo, hi = max(floor, math.floor(lam - h)), max(math.ceil(lam + h), t + 16, 48)
    best = math.inf
    while True:
        start = lo - 1 if lo > floor else lo
        if hi + 2 - start > max_terms:
            raise TruncationError(
                f"summation window of {hi + 2 - start} terms exceeds the "
                f"{max_terms}-term budget",
                best_bound=best,
                terms_used=hi - lo + 1,
            )
        x, p = _pmf_window(lam, start, hi + 1)
        fv = functional_value(x, f)
        body = slice(lo - start, len(x) - 1)
        r = (lam / (hi + 2.0)) * ((hi + 2.0) / (hi + 1.0)) ** (2 * max_power)
        terms, trunc = {}, {}
        left_ok = right_ok = True
        fpow = np.ones_like(fv)
        for k in range(1, max_power + 1):
            fpow = fpow * fv
            terms[k] = fpow * p
            cut = min(tol / 16.0, _REL_CUT * float(terms[k][body].max()))
            right = terms[k][-1] / (1.0 - r) if r < 1.0 else math.inf
            left = terms[k][0] / (1.0 - (lo - 1.0) / lam) if lo > floor else 0.0
            left_ok = left_ok and left <= cut
            right_ok = right_ok and right <= cut
            trunc[k] = float(left + right)
        if left_ok and right_ok:
            return p, fv, body, terms, trunc, lo, r
        best = max(trunc.values())
        if not left_ok:
            lo = max(floor, lo - max(16, math.ceil(lam - lo)))
        if not right_ok:
            hi += max(16, math.ceil(hi - lam))


def _certified_sums(f, tol, max_power=2, max_terms=MAX_TERMS):
    """Sums S_k = sum_x f(x)^k p(x), k = 1..max_power, with certified tails.

    Returns (sums, trunc_tails, terms_used) over the window of
    _certified_window with floor t: sums taken exactly (fsum) in increasing
    x, so results are deterministic, that window's tails and its width.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    powers = range(1, max_power + 1)
    if f.lam == 0.0 or f.cap_a == 0.0:
        return {k: 0.0 for k in powers}, {k: 0.0 for k in powers}, 0
    _, _, body, terms, trunc, _, _ = _certified_window(
        f, tol, f.threshold, max_power, max_terms
    )
    sums = {k: math.fsum(terms[k][body]) for k in powers}
    return sums, trunc, body.stop - body.start


def _guarded(
    name: str, est: MomentEstimate, f: CappedFunctional
) -> MomentEstimate:
    # A bound above the value certifies nothing: at very large rates the
    # cancellation in the central moments can leave pure roundoff.
    if est.tail_bound > est.value:
        raise TruncationError(
            f"certified bound {est.tail_bound!r} exceeds the {name} "
            f"{est.value!r} at {(f.lam, f.cap_a, f.cap_b)}",
            best_bound=est.tail_bound,
            terms_used=est.terms_used,
        )
    return est


def moments(
    f: CappedFunctional, tol: float = DEFAULT_TOL, order: int = 2
) -> Moments:
    """Certified moments of f(X) up to the given order (1, 2 or 4) from one
    summation pass.

    The sums come from one _certified_window pass with floor t, its tails
    cut at min(tol/16, 2^-100 * the largest term) for every power. The
    variance is E[f^2] - E[f]^2 with the error bound propagated; it has no
    other route. Order 4 adds the fourth central moment
    E[(f(X) - E f(X))^4], used for variance standard-error bands. A higher
    order can widen the summation window, which moves lower moments in the
    last bit, so ask for the lowest order needed. A moment whose certified
    bound exceeds its value raises TruncationError; for the variance that
    happens where the subtraction leaves only roundoff.
    """
    if order not in (1, 2, 4):
        raise ValueError(f"order must be 1, 2 or 4, got {order}")
    sums, trunc, n = _certified_sums(f, tol, max_power=order)
    fp = _fp_rel(f.lam)
    s1, t1 = sums[1], trunc[1]
    mean = _guarded("mean", MomentEstimate(s1, t1 + fp * s1, n), f)
    if order == 1:
        return Moments(mean)

    s2, t2 = sums[2], trunc[2]
    tail = t2 + 2.0 * s1 * t1 + t1**2 + fp * (s2 + s1 * s1)
    var = _guarded("variance", MomentEstimate(max(s2 - s1 * s1, 0.0), tail, n), f)
    if order == 2:
        return Moments(mean, var)

    s3, s4, t3, t4 = sums[3], sums[4], trunc[3], trunc[4]
    mu4 = s4 - 4.0 * s1 * s3 + 6.0 * s1 * s1 * s2 - 3.0 * s1**4
    gross = s4 + 4.0 * s1 * s3 + 6.0 * s1 * s1 * s2 + 3.0 * s1**4
    tail = (
        t4
        + 4.0 * (s1 * t3 + s3 * t1)
        + 6.0 * (s1 * s1 * t2 + 2.0 * s1 * s2 * t1)
        + 12.0 * s1**3 * t1
        + fp * gross
    )
    mu4_est = MomentEstimate(max(mu4, 0.0), tail, n)
    return Moments(mean, var, _guarded("fourth central moment", mu4_est, f))


def expectation(f: CappedFunctional, tol: float = DEFAULT_TOL) -> MomentEstimate:
    """E[f(X)] by certified truncated summation."""
    return moments(f, tol, 1).mean


def variance(f: CappedFunctional, tol: float = DEFAULT_TOL) -> MomentEstimate:
    """Var[f(X)]; see moments for the route and the error bound."""
    return moments(f, tol, 2).variance


def fourth_central_moment(
    f: CappedFunctional, tol: float = DEFAULT_TOL
) -> MomentEstimate:
    """E[(f(X) - E f(X))^4], used for variance standard-error bands."""
    return moments(f, tol, 4).mu4


def variance_pairwise(
    f: CappedFunctional, tol: float = DEFAULT_TOL
) -> PairwiseVarianceResult:
    """Independent variance oracle: (1/2) sum_{x,y} (f(x)-f(y))^2 p(x)p(y).

    The double sum runs over the engine's window (_certified_window with
    floor 0, not t, powers 1 and 2 and the _PAIRWISE_TERMS budget), so it is
    cut where the engine's is, at min(tol/16, 2^-100 * the largest term) on
    f and f^2: draws with f = 0 still pair against nonzero values and
    contribute to E[(W - W')^2]. Pairs with a member outside the window are
    bounded via (f(x)-f(y))^2 <= 2 f(x)^2 + 2 f(y)^2, with the window's f^2
    tails and geometric pmf tails from its edge terms. The sum is over the
    upper triangle, x < y, and stays O(W^2), so it shares no arithmetic with
    the engine's E[f^2] - E[f]^2. A window wider than _PAIRWISE_TERMS raises
    TruncationError before anything is allocated.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    lam = f.lam
    if lam == 0.0 or f.cap_a == 0.0:
        return PairwiseVarianceResult(0.0, 0.0)

    p, fv, body, terms, trunc, lo, r = _certified_window(
        f, tol, 0, 2, _PAIRWISE_TERMS
    )
    ptail = float(p[-1]) / (1.0 - r)
    ptail += float(p[0]) / (1.0 - (lo - 1.0) / lam) if lo > 0 else 0.0

    fv, p = fv[body], p[body]
    n = len(fv)
    rows = max(1, _PAIRWISE_ELEMENTS // n)
    parts = []
    for i0 in range(0, n, rows):
        k = min(rows, n - i0)
        block = fv[i0 : i0 + k, None] - fv[None, i0:]
        block *= block
        block *= p[i0 : i0 + k, None] * p[None, i0:]
        # The k x k diagonal block holds each of its pairs twice; the
        # columns past it hold pairs whose mirror images are not summed.
        parts.append(float(np.sum(block[:, :k])))
        parts.append(2.0 * float(np.sum(block[:, k:])))
    value = 0.5 * math.fsum(parts)

    s1w = math.fsum(terms[1][body])
    s2w = math.fsum(terms[2][body])
    fp = _fp_rel(lam) * (2.0 * s2w + s1w * s1w + value)
    return PairwiseVarianceResult(value, 4.0 * (trunc[2] + ptail * s2w) + fp)


def monte_carlo_moments(
    f: CappedFunctional, draws: int, seed: int
) -> MonteCarloMoments:
    """Seeded sample mean and variance of f(X) over independent draws.

    The draws come from numpy's Poisson sampler, never from the pmf this
    module certifies. f is evaluated once per distinct value drawn: with
    counts c(x), the mean is fsum(c f) / N and the variance is the two-pass
    fsum(c (f - mean)^2) / (N - 1). The counts come from a bincount when the
    draws span at most N values, so it is never larger than the draws
    themselves, and from a sort otherwise.
    """
    if draws < 2:
        raise ValueError("need at least 2 draws")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    xs = rng.poisson(f.lam, size=draws)
    base = int(xs.min())
    if int(xs.max()) - base < draws:
        xs -= base
        counts = np.bincount(xs)
        seen = np.flatnonzero(counts)
        counts, seen = counts[seen], seen + base
    else:
        seen, counts = np.unique(xs, return_counts=True)
    vals = functional_value(seen, f)
    mean = math.fsum(counts * vals) / draws
    var = math.fsum(counts * (vals - mean) ** 2) / (draws - 1)
    return MonteCarloMoments(mean, var, draws, seed)


# Pinned dual-route check points (lam, cap_a, cap_b), spanning rates from
# 0.01 to 1e4 with small, mixed, non-integer and effectively-uncapped caps.
ORACLE_POINTS = (
    (0.01, 2.0, 2.0),
    (0.05, 0.5, 3.0),
    (0.1, 2.0, 8.0),
    (0.5, 1.0, 1.0),
    (0.5, 4.0, 9.0),
    (1.0, 2.0, 2.0),
    (2.0, 1e6, 1e6),
    (2.0, 2.5, 7.5),
    (5.0, 16.0, 64.0),
    (5.0, 0.25, 0.75),
    (10.0, 10.0, 10.0),
    (10.0, 1e6, 1e6),
    (20.0, 4.0, 4.0),
    (50.0, 2.0, 36.0),
    (100.0, 100.0, 100.0),
    (200.0, 16.0, 256.0),
    (500.0, 1.0, 4.0),
    (1000.0, 32.0, 32.0),
    (5000.0, 2.0, 2.0),
    (10000.0, 100.0, 100.0),
)
