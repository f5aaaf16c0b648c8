"""Certified moments of capped Poisson functionals.

The central object is f(X) = X*sqrt(min(X,a)*min(X,b))*1(X >= t) for
X ~ Poisson(lambda). Moments are computed by truncated summation with a
rigorous geometric tail certificate, and every returned estimate carries a
certified absolute error bound (truncation tail plus a propagated
floating-point roundoff term). An independent pairwise-difference variance
oracle (Var[W] = E[(W - W')^2]/2, summed over the same window) and a seeded
Monte Carlo cross-check (numpy's sampler, evaluated on the draw histogram)
are provided for dual-route validation; thread_map runs such independent
checks on several threads.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

MAX_TERMS = 10**7
DEFAULT_TOL = 1e-10
DENOMINATOR_FLOOR = 1e-300

# Relative bound on the floating-point error of the summed terms: the pmf
# (log-factorial and exp) and the functional. The sums themselves are
# correctly rounded (_exact_sums) and add at most half an ulp. The bound is
# calibrated, not derived: the worst pmf error measured against 40-digit
# arithmetic is 2.8e-14 at lambda = 1 and 3.8e-14 at lambda = 10, a margin
# of 5-7x here; _fp_rel's margin grows to 10-30x for lambda >= 100.
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
    relative error ~eps times that magnitude. The constant 16 is calibrated:
    over the worst pmf error measured against 40-digit arithmetic the bound
    has a margin of 5-7x at lambda <= 10, 10x at 1e2, 17x at 1e4 and about
    30x at 1e6 and 1e9.
    """
    if lam <= 0.0:
        return FP_RELATIVE_BOUND
    scale = lam * (abs(math.log(lam)) + 1.0) + abs(math.lgamma(lam + 1.0))
    return max(FP_RELATIVE_BOUND, 16.0 * _EPS * scale)


class TruncationError(ArithmeticError):
    """No certified moment: the requested tolerance is unreachable within the
    summation-term budget, or a moment's certified bound exceeds its value."""


class SkippedPoint(Exception):
    """Denominator below the floor: both sides vanish, the ratio is vacuous."""


@dataclass(frozen=True, slots=True)
class CappedFunctional:
    """Parameters (lambda, a, b, t) of x*sqrt(min(x,a)*min(x,b))*1(x >= t).

    Caps are stored in canonical order cap_a <= cap_b; evaluation is
    symmetric in the two caps. Caps may be math.inf (uncapped semantics).
    """

    lam: float
    cap_a: float
    cap_b: float
    threshold = 4  # t, not a field: the same for every functional

    def __post_init__(self):
        if not (self.lam >= 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"rate must be finite and >= 0, got {self.lam}")
        if not (self.cap_a >= 0.0 and self.cap_b >= 0.0):
            raise ValueError("caps must be >= 0")
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
class MonteCarloMoments:
    """Sample mean/variance of the functional over seeded Poisson draws."""

    mean: float
    variance: float
    draws: int


def _capped(x: np.ndarray, cap_a, cap_b) -> np.ndarray:
    """x*sqrt(min(x,a)*min(x,b))*1(x >= t) in one new array, for a float64
    array x of any shape, 0-d included, and caps that are scalars or arrays
    of x's shape. The only code in the package that evaluates f."""
    f = np.minimum(x, cap_a, out=np.empty_like(x))
    f *= np.minimum(x, cap_b)
    np.sqrt(f, out=f)
    f *= x
    f[x < CappedFunctional.threshold] = 0.0
    return f


def functional_value(x, f: CappedFunctional):
    """Evaluate x*sqrt(min(x,a)*min(x,b))*1(x >= t); scalar or array."""
    vals = _capped(np.asarray(x, dtype=np.float64), f.cap_a, f.cap_b)
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


# log k! for k < 2^14 (128 KiB): rates up to ~1.4e4 read every value from
# the table. From k = 12 on it holds the series' own values, so a count
# reads the same log k! from the table as from the series.
_LOG_FACTORIAL = _log_factorial_series(np.arange(2**14, dtype=np.float64))
_LOG_FACTORIAL[:_EXACT_BELOW] = [
    math.log(math.factorial(k)) for k in range(_EXACT_BELOW)
]
_LOG_FACTORIAL.flags.writeable = False


def _log_factorial(x: np.ndarray) -> np.ndarray:
    """log x! of integer-valued floats x >= 0: the table below 2^14, the
    series above."""
    small = x < len(_LOG_FACTORIAL)
    out = _LOG_FACTORIAL[np.where(small, x, 0.0).astype(np.intp)]
    if not small.all():
        out[~small] = _log_factorial_series(x[~small])
    return out


def _pmf(x: np.ndarray, log_lam, lam) -> np.ndarray:
    """Poisson pmf at integer-valued floats x, rate and log-rate scalars or
    arrays of x's length; log lambda comes from math.log."""
    logp = x * log_lam
    logp -= lam
    logp -= _log_factorial(x)
    return np.exp(logp, out=logp)


def _window_terms(x: np.ndarray, fs, reps) -> tuple[np.ndarray, np.ndarray]:
    """p and f at the integer-valued floats x, the one builder of window
    terms: functional i's rate and caps fill reps[i] elements in turn."""
    p = _pmf(x, np.repeat([math.log(f.lam) for f in fs], reps),
             np.repeat([f.lam for f in fs], reps))
    return p, _capped(x, np.repeat([f.cap_a for f in fs], reps),
                      np.repeat([f.cap_b for f in fs], reps))


# Elements per pass of windows laid end to end and per block of _exact_sums
# (256 KiB of float64 per temporary); a wider window takes a pass of its own.
_BATCH_ELEMENTS = 2**15


# Correctly rounded sums (Rump, Ogita and Oishi, "Accurate floating-point
# summation, part I", SIAM J. Sci. Comput. 31, 2008). A segment of n values
# v >= 0, its maximum below 2^e_top and n + 2 < 2^e_cnt, takes sigma =
# 2^(e_top + e_cnt - 1). Each v splits exactly into q = fl(sigma + v) -
# sigma and r = v - q, |r| <= ulp(sigma)/2. Partial sums of the q's are
# multiples of ulp(sigma) below 2 sigma, where doubles lie ulp(sigma) apart:
# their sum tau is exact in any order and blocking.
def _exact_sums(values, starts, top) -> list:
    """The bits math.fsum returns for each non-empty segment of the float64
    array values: they begin at starts (integers, increasing from 0), each
    runs to the next start and the last to the end; top holds their maxima.

    With tau exact (see above), the n - 1 additions of the r's err by at
    most gamma_{n-1} sum |r| in any order (gamma_k = k eps / (1 - k eps),
    eps = 2^-53). With w that bound, widened for its own rounding and that
    of R +- w (R the computed sum of r), the sum lies between tau + fl(R - w)
    and tau + fl(R + w). Rounding is monotone: if both are one double, so is
    the sum rounded half to even. A near-tie or sigma = inf takes math.fsum.

    The values must be finite and >= 0, or ArithmeticError is raised; every
    engine term f^k p is (p is an exp, f is +0.0 or a root of nonnegative
    minima times x, and f^4 <= x^8 is finite within the term budget). A sum
    beyond the float range raises OverflowError, as math.fsum does.
    """
    n = len(values)
    ends = np.append(starts[1:], n)
    if np.signbit(values).any() or not (top < math.inf).all():
        raise ArithmeticError("exact sums take finite values >= 0")
    sums = np.zeros((3, len(starts)))  # sum q, sum r and sum |r|
    parts = np.empty((3, min(n, _BATCH_ELEMENTS)))  # q, r and |r|
    with np.errstate(over="ignore", invalid="ignore"):  # sigma = inf: fsum
        sigma = np.ldexp(1.0, np.frexp(top)[1]
                         + np.frexp(ends - starts + 2.0)[1] - 1)
        for a in range(0, n, _BATCH_ELEMENTS):
            b = min(n, a + _BATCH_ELEMENTS)
            i = int(np.searchsorted(starts, a, "right")) - 1
            j = int(np.searchsorted(starts, b))
            local = np.maximum(starts[i:j] - a, 0)
            s = np.repeat(sigma[i:j], np.minimum(ends[i:j], b) - a - local)
            q, r, r_abs = block = parts[:, : b - a]
            np.subtract(np.add(s, values[a:b], out=q), s, out=q)
            np.abs(np.subtract(values[a:b], q, out=r), out=r_abs)
            sums[:, i:j] += np.add.reduceat(block, local, axis=1)
        tau, r_sum, r_abs = sums
        # 2 eps n sum |r|, and the least double for an underflowed product.
        w = r_abs * ((ends - starts) * 2.0**-52) + 2.0**-1074
        lo, hi = tau + (r_sum - w), tau + (r_sum + w)
    for k in np.flatnonzero(lo != hi).tolist():
        lo[k] = math.fsum(values[starts[k] : ends[k]])
    return lo.tolist()


# Each side of the summation window is widened until its certified tail is
# at most this share of the largest term of every power. That keeps the
# tail below half an ulp of the roundoff term _fp_rel(lam) * S_k (at least
# 2e-13 * S_k), so it cannot move a reported bound.
_REL_CUT = 2.0**-100


class _Window(NamedTuple):
    """A certified summation window [lo, hi] of one functional: for
    k = 1..K, sums[k - 1] is the correctly rounded sum of f^k p over it and
    trunc[k - 1] the certified tail of that sum outside it; terms is its
    width (0 for a rate or cap of 0, whose window is (0, -1)), and ptail
    the certified tail of the pmf p outside it, from the same edge terms,
    at lo - 1 and hi + 1."""

    lo: int
    hi: int
    sums: tuple
    trunc: tuple
    ptail: float

    @property
    def terms(self) -> int:
        return self.hi - self.lo + 1


def _first_window(f, max_terms):
    """[lo, hi] of f's first summation window (see _certified_windows)."""
    lam = f.lam
    h = 14.0 * math.sqrt(lam + 1.0) + 16.0
    width = min(2.0 * h, lam + h)
    if width > max_terms:
        raise TruncationError(
            f"summation window of {width:.6g} terms exceeds the "
            f"{max_terms}-term budget"
        )
    return max(0, math.floor(lam - h)), max(math.ceil(lam + h), 48)


def _window_pass(fs, lo, hi, tol, max_power):
    """The windows [lo[i], hi[i]] (ints) of the functionals fs (rates > 0),
    summed and tested as _certified_windows defines them.

    Returns [(window, left_ok, right_ok)], in the order of fs: each _Window
    and whether each of its sides' tails is below the cut for every power.
    ptail, the tail of p alone (power 0), comes from the same two edge-term
    bounds (r bounds p's term ratio too) and widens no window. The windows
    lie end to end; window i's edge terms, lo - 1 (unread at lo = 0) and
    hi + 1, are 2i and 2i + 1 of an array apart. Per-rate scalars come
    from math (log lambda, r), and every element takes the same operations
    in the same order for one window or many, so a window's results do not
    depend on its pass.
    """
    n = len(fs)
    lam = np.array([f.lam for f in fs])
    r = np.array([
        (f.lam / (h + 2.0)) * ((h + 2.0) / (h + 1.0)) ** (2 * max_power)
        for f, h in zip(fs, hi)
    ])
    sizes = np.array(hi) + 1 - lo
    starts = np.cumsum(sizes) - sizes
    x = np.arange(starts[-1] + sizes[-1], dtype=np.float64)
    x -= np.repeat(starts - lo, sizes)
    p, fv = _window_terms(x, fs, sizes)
    left = np.array(lo) > 0
    x = np.column_stack((np.array(lo) - left, np.array(hi) + 1.0)).ravel()
    edge_p, edge_f = _window_terms(x, fs, 2)
    left_den = 1.0 - np.divide(x[::2], lam, out=np.zeros(n), where=left)

    def tails(edges):
        # Each window's left and right tail bounds from its edge terms.
        right = np.divide(edges[1::2], 1.0 - r, out=np.full(n, math.inf),
                          where=r < 1.0)
        return np.divide(edges[::2], left_den, out=np.zeros(n), where=left), right

    ptail = np.add(*tails(edge_p)).tolist()
    left_ok, right_ok = np.ones(n, dtype=bool), np.ones(n, dtype=bool)
    sums, trunc = [], []
    fpow, edge_fpow = np.ones_like(fv), np.ones_like(edge_f)
    for _ in range(max_power):
        fpow = fpow * fv
        edge_fpow = edge_fpow * edge_f
        terms = fpow * p
        top = np.maximum.reduceat(terms, starts)
        cut = np.minimum(_REL_CUT * top, tol / 16.0)
        left_tail, right = tails(edge_fpow * edge_p)
        left_ok &= left_tail <= cut
        right_ok &= right <= cut
        trunc.append((left_tail + right).tolist())
        sums.append(_exact_sums(terms, starts, top))
    windows = map(_Window, lo, hi, zip(*sums), zip(*trunc), ptail)
    return list(zip(windows, left_ok.tolist(), right_ok.tolist()))


def _certified_windows(fs, tol, max_power, max_terms) -> Iterator:
    """Yields, in the order of fs, each functional's certified _Window or
    the TruncationError that ended its widening: one layout for the moment
    engine and the pairwise oracle alike.

    A rate or cap of 0 gives the window (0, -1). The first window has
    half-width h = 14*sqrt(lambda+1) + 16: lo = max(0, floor(lambda - h))
    and hi = max(ceil(lambda + h), 48), so its cost grows like
    sqrt(lambda); below t its terms are 0. The tails are geometric, from
    the edge terms:

    - right: f(x+1)/f(x) <= ((x+1)/x)^2, so the term ratio beyond hi is at
      most r = (lambda/(hi+2)) * ((hi+2)/(hi+1))^(2K), K = max_power, and
      the tail is at most term(hi+1) / (1 - r) once r < 1;
    - left (when lo > 0): f is nondecreasing and p(x-1)/p(x) = x/lambda,
      so the tail is at most term(lo-1) / (1 - (lo-1)/lambda).

    A side is widened, by doubling its reach from lambda, until for every
    power its tail is at most min(tol/16, 2^-100 * the largest term of that
    power in the window). The budget max_terms is checked on the unrounded
    width, because from lambda ~1.6e34 on h is below half an ulp of lambda
    and no widening could move the rounded ends, and again before each
    window is allocated.

    One list holds an entry per functional: its _Window, its
    TruncationError, or the [lo, hi, elements] still to sum, elements
    counting the window and its edge terms. Each pass lays the unfinished
    windows end to end in the order of fs, from the first unfinished one,
    up to _BATCH_ELEMENTS elements; a wider window gets a pass of its own,
    and a widened window keeps its place, ahead of those after it. Entry i
    is yielded, and then dropped, as soon as it is finished: a consumer
    that stops at a failure does not pay for the wide windows after it.
    """

    def to_sum(lo, hi):
        size = hi + 2 - (lo - (lo > 0))
        if size <= max_terms:
            return [lo, hi, size]
        return TruncationError(
            f"summation window of {size} terms exceeds the "
            f"{max_terms}-term budget"
        )

    entries = []
    for f in fs:
        if f.lam == 0.0 or f.cap_a == 0.0:
            zero = (0.0,) * max_power
            entries.append(_Window(0, -1, zero, zero, 0.0))
            continue
        try:
            entries.append(to_sum(*_first_window(f, max_terms)))
        except TruncationError as exc:
            entries.append(exc)

    for i in range(len(fs)):
        while isinstance(entries[i], list):
            chunk, used = [], 0
            for j in range(i, len(fs)):
                if isinstance(entries[j], list):
                    used += entries[j][2]
                    if chunk and used > _BATCH_ELEMENTS:
                        break
                    chunk.append(j)
            lo, hi, _ = zip(*(entries[j] for j in chunk))
            passed = _window_pass([fs[j] for j in chunk], lo, hi, tol,
                                  max_power)
            for j, (w, left_ok, right_ok) in zip(chunk, passed):
                lo, hi, lam = w.lo, w.hi, fs[j].lam
                if not left_ok:
                    lo = max(0, lo - max(16, math.ceil(lam - lo)))
                if not right_ok:
                    hi += max(16, math.ceil(hi - lam))
                entries[j] = w if left_ok and right_ok else to_sum(lo, hi)
        yield entries[i]
        entries[i] = None  # held by the consumer alone once yielded


def _batched_moments(fs, tol, order) -> Iterator:
    """Yields, in the order of fs, the Moments of each functional or the
    ArithmeticError computing them raised, from _certified_windows."""
    for f, w in zip(fs, _certified_windows(fs, tol, order, MAX_TERMS)):
        if isinstance(w, _Window):
            try:
                w = _moments(f, w, order)
            except ArithmeticError as exc:
                w = exc
        yield w


def _moments(f, w, order) -> Moments:
    """Moments of f from its _Window w, each certified as it is built: a
    bound above its value raises TruncationError."""
    fp = _fp_rel(f.lam)

    def certified(name, value, bound):
        # A bound above the value certifies nothing: at very large rates the
        # cancellation in the central moments can leave pure roundoff.
        if bound > value:
            raise TruncationError(
                f"certified bound {bound!r} exceeds the {name} "
                f"{value!r} at {(f.lam, f.cap_a, f.cap_b)}"
            )
        return MomentEstimate(value, bound, w.terms)

    s1, t1 = w.sums[0], w.trunc[0]
    mean = certified("mean", s1, t1 + fp * s1)
    if order == 1:
        return Moments(mean)

    s2, t2 = w.sums[1], w.trunc[1]
    tail = t2 + 2.0 * s1 * t1 + t1**2 + fp * (s2 + s1 * s1)
    var = certified("variance", max(s2 - s1 * s1, 0.0), tail)
    if order == 2:
        return Moments(mean, var)

    (s3, s4), (t3, t4) = w.sums[2:], w.trunc[2:]
    mu4 = s4 - 4.0 * s1 * s3 + 6.0 * s1 * s1 * s2 - 3.0 * s1**4
    gross = s4 + 4.0 * s1 * s3 + 6.0 * s1 * s1 * s2 + 3.0 * s1**4
    tail = (
        t4
        + 4.0 * (s1 * t3 + s3 * t1)
        + 6.0 * (s1 * s1 * t2 + 2.0 * s1 * s2 * t1)
        + 12.0 * s1**3 * t1
        + fp * gross
    )
    return Moments(mean, var, certified("fourth central moment", max(mu4, 0.0), tail))


def moments_many(fs, tol: float = DEFAULT_TOL, order: int = 2) -> Iterator:
    """moments of each functional in fs, from batched summation passes.

    Returns an iterator over fs in order: the Moments of each functional,
    or the ArithmeticError (a TruncationError, say) that moments raises for
    it, so one functional's failure never fails the others. Every sum is
    correctly rounded, so each entry's bits do not depend on the batch it
    came in. An order outside (1, 2, 4) or a tolerance that is not
    positive, NaN included, raises ValueError for the whole batch.
    """
    if order not in (1, 2, 4):
        raise ValueError(f"order must be 1, 2 or 4, got {order}")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    return _batched_moments(list(fs), tol, order)


def moments(
    f: CappedFunctional, tol: float = DEFAULT_TOL, order: int = 2
) -> Moments:
    """Certified moments of f(X) up to the given order (1, 2 or 4) from one
    summation pass: moments_many([f], tol, order).

    The sums come from f's _certified_windows window, at order 2 the
    window variance_pairwise sums over, its tails cut at min(tol/16,
    2^-100 * the largest term) for every power, each sum correctly rounded
    (_exact_sums). The variance is E[f^2] - E[f]^2 with the error bound
    propagated; it has no other route. Order 4 adds
    the fourth central moment E[(f(X) - E f(X))^4], used for variance
    standard-error bands. A higher order can widen the summation window,
    which moves lower moments in the last bit, so ask for the lowest order
    needed. A moment whose certified bound exceeds its value raises
    TruncationError; for the variance that happens where the subtraction
    leaves only roundoff.
    """
    (m,) = moments_many([f], tol, order)
    if isinstance(m, ArithmeticError):
        raise m
    return m


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
) -> MomentEstimate:
    """Independent variance oracle: (1/2) sum_{x,y} (f(x)-f(y))^2 p(x)p(y).

    The double sum runs over the engine's order-2 window, from
    _certified_windows with powers 1 and 2 and the _PAIRWISE_TERMS budget,
    and its terms come from the engine's builder, _window_terms. So it is
    cut where the engine's is, at min(tol/16, 2^-100 * the largest term) on
    f and f^2, and it reaches below t wherever the mass does: draws with
    f = 0 still pair against nonzero values and contribute to
    E[(W - W')^2]. Pairs with a member outside the window are bounded via
    (f(x)-f(y))^2 <= 2 f(x)^2 + 2 f(y)^2, with the window's f^2 and pmf
    tails (_Window's trunc[1] and ptail). The sum is over the upper
    triangle, x < y, and stays O(W^2), so it shares no sum with the
    engine's E[f^2] - E[f]^2. Returns the MomentEstimate (value, bound,
    window width). A window wider than _PAIRWISE_TERMS raises
    TruncationError before anything is allocated.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    (w,) = _certified_windows([f], tol, 2, _PAIRWISE_TERMS)
    if isinstance(w, TruncationError):
        raise w
    n = w.terms
    if not n:
        return MomentEstimate(0.0, 0.0, 0)

    p, fv = _window_terms(np.arange(w.lo, w.hi + 1, dtype=np.float64), [f], n)
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

    s1w, s2w = w.sums
    fp = _fp_rel(f.lam) * (2.0 * s2w + s1w * s1w + value)
    return MomentEstimate(value, 4.0 * (w.trunc[1] + w.ptail * s2w) + fp, n)


# Draws per temporary of a Monte Carlo sampler (512 KiB of 8-byte values).
_MC_CHUNK = 2**16


def _draw_counts(rng, lam: float, draws: int):
    """(seen, counts): the distinct values of `draws` Poisson(lam) draws from
    rng, sorted, and how often each was drawn.

    The draws are taken in chunks of _MC_CHUNK. numpy's sampler gives the
    same stream in chunks as in one call, so the result is that of one call.
    Each chunk is counted on its own: by a bincount over its span when that
    span is shorter than the chunk, by np.unique otherwise. The chunks'
    counts are merged once, at the end. Nothing is larger than O(draws).
    """
    parts = []
    for start in range(0, draws, _MC_CHUNK):
        xs = rng.poisson(lam, size=min(_MC_CHUNK, draws - start))
        lo = int(xs.min())
        if int(xs.max()) - lo < len(xs):
            hist = np.bincount(xs - lo)
            seen = np.flatnonzero(hist)
            parts.append((seen + lo, hist[seen]))
        else:
            parts.append(np.unique(xs, return_counts=True))
    seen, where = np.unique(np.concatenate([v for v, _ in parts]),
                            return_inverse=True)
    counts = np.bincount(where, np.concatenate([c for _, c in parts]))
    return seen, counts.astype(np.int64)


def monte_carlo_moments(
    f: CappedFunctional, draws: int, seed: int
) -> MonteCarloMoments:
    """Seeded sample mean and variance of f(X) over independent draws.

    The draws come from numpy's Poisson sampler, never from the pmf this
    module certifies, and are counted in chunks (_draw_counts). f is
    evaluated once per distinct value drawn: with counts c(x), the mean is
    fsum(c f) / N and the variance is the two-pass fsum(c (f - mean)^2) /
    (N - 1).
    """
    if draws < 2:
        raise ValueError("need at least 2 draws")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    seen, counts = _draw_counts(rng, f.lam, draws)
    vals = functional_value(seen, f)
    mean = math.fsum(counts * vals) / draws
    var = math.fsum(counts * (vals - mean) ** 2) / (draws - 1)
    return MonteCarloMoments(mean, var, draws)


def thread_map(fn, items, threads: int) -> list:
    """[fn(item) for item in items], computed on at most `threads` threads,
    the caller's among them, and never on more threads than items.

    Results come back in item order. Items are handed out in order, and
    none is started once one has raised; after every thread has ended, the
    exception of the first item that raised, in item order, is re-raised
    here, as the one-thread loop would raise it. With threads <= 1 or one
    item no thread is started.
    """
    items = list(items)
    results = [None] * len(items)
    errors = {}
    lock = threading.Lock()
    order = iter(range(len(items)))

    def work():
        while True:
            with lock:
                i = None if errors else next(order, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                with lock:
                    errors[i] = exc

    workers = [threading.Thread(target=work)
               for _ in range(min(threads, len(items)) - 1)]
    for worker in workers:
        worker.start()
    try:
        work()
    finally:
        for worker in workers:
            worker.join()
    if errors:
        raise errors[min(errors)]
    return results


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
