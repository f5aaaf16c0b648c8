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

    def __init__(self, message, best_bound=math.inf, terms_used=0):
        super().__init__(message)
        self.best_bound = best_bound
        self.terms_used = terms_used


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


def _capped(x: np.ndarray, cap_a, cap_b) -> np.ndarray:
    """x*sqrt(min(x,a)*min(x,b))*1(x >= t) on a float array; the caps are
    scalars or arrays of the same length."""
    root = np.sqrt(np.minimum(x, cap_a) * np.minimum(x, cap_b))
    return np.where(x >= CappedFunctional.threshold, x * root, 0.0)


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


def _pmf_window(lam: float, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.arange(lo, hi + 1, dtype=np.float64)
    return x, _pmf(x, math.log(lam), lam)


# Exact summation. A double v > 0 is M * 2^E with an integer M < 2^53 and
# E >= -1126 (the smallest subnormal is 2^52 * 2^-1126). With
# E + 1126 = 32 q + r, M * 2^r < 2^85 splits into three 32-bit pieces that
# belong to the 32-bit limbs q, q + 1 and q + 2 of the sum in units of
# 2^-1126. np.bincount adds each kind of piece per (segment, limb) in
# float64, which is exact while a bin takes fewer than 2^21 pieces: values
# are binned in blocks of _EXACT_ELEMENTS, which also bounds the
# temporaries. A segment's limbs, over every block it spans, add up to one
# Python int, and int / int division rounds it correctly, half to even:
# the bits math.fsum returns.
_EXACT_ELEMENTS = 2**14
_ORIGIN = 1126
_SCALE = 1 << _ORIGIN
_MANTISSA = 2.0 ** np.arange(53, 85)  # 2^(53 + r): M * 2^r from frexp's m


def _exact_sums(values: np.ndarray, starts) -> list:
    """Correctly rounded sums of the segments of values that begin at
    starts (nondecreasing, the first 0; each segment runs to the next start
    and the last to the end), the bits math.fsum returns for each.

    For nonnegative finite values. A segment holding anything else (a NaN,
    an inf, a negative value or -0.0) is summed by math.fsum. A sum beyond
    the float range raises OverflowError, as math.fsum does.
    """
    values = np.asarray(values, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.intp)
    n = len(values)
    totals = [0] * len(starts)
    other = set()
    for a in range(0, n, _EXACT_ELEMENTS):
        b = min(n, a + _EXACT_ELEMENTS)
        first = int(np.searchsorted(starts, a, "right")) - 1
        stop = int(np.searchsorted(starts, b))
        local = np.maximum(starts[first:stop] - a, 0)
        seg = np.repeat(np.arange(stop - first), np.diff(local, append=b - a))
        v = values[a:b]
        keep = (v > 0.0) & (v < math.inf)
        if not keep.all():
            other.update((seg[np.signbit(v) | ~(v < math.inf)] + first).tolist())
            v, seg = v[keep], seg[keep]
            if not len(v):
                continue
        w, q = np.frexp(v)
        q += _ORIGIN - 53
        w *= _MANTISSA[q & 31]
        q >>= 5
        qmin = int(q.min())
        limbs = int(q.max()) - qmin + 4
        top = np.floor(w * 2.0**-64)
        w -= top * 2.0**64
        mid = np.floor(w * 2.0**-32)
        w -= mid * 2.0**32
        seg *= limbs  # the bin of each value's lowest piece
        seg += q
        seg -= qmin
        size = (stop - first) * limbs
        acc = np.bincount(seg, w, size).astype(np.int64)
        acc[1:] += np.bincount(seg, mid, size)[:-1].astype(np.int64)
        acc[2:] += np.bincount(seg, top, size)[:-2].astype(np.int64)
        # Each limb is below 2^48, so the even and the odd limbs each form
        # a little-endian number of 64-bit words.
        acc = acc.reshape(-1, limbs)
        even = acc[:, 0::2].astype("<u8").tobytes()
        odd = acc[:, 1::2].astype("<u8").tobytes()
        ne, no = 8 * ((limbs + 1) // 2), 8 * (limbs // 2)
        for j in range(stop - first):
            total = int.from_bytes(even[j * ne : (j + 1) * ne], "little")
            total += int.from_bytes(odd[j * no : (j + 1) * no], "little") << 32
            totals[first + j] += total << (32 * qmin)
    ends = [*starts[1:].tolist(), n]
    return [
        math.fsum(values[starts[i] : ends[i]]) if i in other else t / _SCALE
        for i, t in enumerate(totals)
    ]


# Each side of the summation window is widened until its certified tail is
# at most this share of the largest term of every power. That keeps the
# tail below half an ulp of the roundoff term _fp_rel(lam) * S_k (at least
# 2e-13 * S_k), so it cannot move a reported bound.
_REL_CUT = 2.0**-100
# Elements per pass of windows laid end to end (256 KiB of float64 per
# temporary); a wider window takes a pass of its own.
_BATCH_ELEMENTS = 2**15


class _Window(NamedTuple):
    """A certified summation window [lo, hi] of one functional: for
    k = 1..K, sums[k] is the correctly rounded sum of f^k p over it and
    trunc[k] the certified tail of that sum outside it; terms is its width,
    hi - lo + 1 (0 for a rate or cap of 0), and r the right term ratio."""

    lo: int
    hi: int
    sums: dict
    trunc: dict
    terms: int
    r: float


def _first_window(f, floor, max_terms):
    """[lo, hi] of f's first summation window (see _certified_windows)."""
    lam = f.lam
    h = 14.0 * math.sqrt(lam + 1.0) + 16.0
    width = min(2.0 * h, lam + h - floor)
    if width > max_terms:
        raise TruncationError(
            f"summation window of {width:.6g} terms exceeds the "
            f"{max_terms}-term budget"
        )
    lo = max(floor, math.floor(lam - h))
    return lo, max(math.ceil(lam + h), f.threshold + 16, 48)


def _window_pass(fs, lo, hi, floor, tol, max_power):
    """Sums and tail tests of the windows [lo[i], hi[i]] (ints) of the
    functionals fs (rates > 0), as _certified_windows defines them.

    Returns (sums, trunc, left_ok, right_ok, r): sums[k - 1][i] and
    trunc[k - 1][i] are window i's sum and tail of f^k p (see _Window),
    left_ok[i] and right_ok[i] whether each side's tail is below the cut
    for every power. The terms run over [lo - 1, hi + 1] (from lo when lo
    is the floor). Per-rate scalars come from math (log lambda, r), and
    every element takes the same operations in the same order for one
    window or many, so a window's results do not depend on its pass.
    """
    n = len(fs)
    lam = [f.lam for f in fs]
    r = [
        (f.lam / (h + 2.0)) * ((h + 2.0) / (h + 1.0)) ** (2 * max_power)
        for f, h in zip(fs, hi)
    ]
    left = np.array(lo) > floor
    start = np.array(lo) - left
    sizes = np.array(hi) + 2 - start
    ends = np.cumsum(sizes)
    first, last = ends - sizes, ends - 1
    x = np.arange(ends[-1], dtype=np.float64)
    x -= np.repeat(first - start, sizes)

    def spread(values):
        # One value for all windows stays a scalar: no array to allocate.
        same = all(v == values[0] for v in values)
        return values[0] if same else np.repeat(values, sizes)

    p = _pmf(x, spread([math.log(v) for v in lam]), spread(lam))
    fv = _capped(x, spread([f.cap_a for f in fs]), spread([f.cap_b for f in fs]))
    del x

    body = np.ones(len(p), dtype=bool)
    body[first[left]] = False
    body[last] = False
    body_sizes = sizes - 1 - left
    body_starts = np.cumsum(body_sizes) - body_sizes
    bounds = np.column_stack((first + left, last)).ravel()
    lam_v, r_v = np.array(lam), np.array(r)
    left_den = 1.0 - np.divide(start, lam_v, out=np.zeros(n), where=left)
    tol_cut = tol / 16.0
    left_ok, right_ok = np.ones(n, dtype=bool), np.ones(n, dtype=bool)
    sums, trunc = [], []
    fpow = np.ones_like(fv)
    for _ in range(max_power):
        fpow = fpow * fv
        terms = fpow * p
        rel = _REL_CUT * np.maximum.reduceat(terms, bounds)[::2]
        cut = np.where(rel < tol_cut, rel, tol_cut)
        right = np.divide(
            terms[last], 1.0 - r_v, out=np.full(n, math.inf), where=r_v < 1.0
        )
        left_tail = np.divide(terms[first], left_den, out=np.zeros(n), where=left)
        left_ok &= left_tail <= cut
        right_ok &= right <= cut
        trunc.append((left_tail + right).tolist())
        sums.append(_exact_sums(terms[body], body_starts))
    return sums, trunc, left_ok, right_ok, r


def _certified_windows(fs, floor, tol, max_power, max_terms) -> Iterator:
    """Yields, in the order of fs, each functional's certified _Window or
    the TruncationError that ended its widening.

    A rate or cap of 0 gives zero sums and 0 terms. The first window has
    half-width h = 14*sqrt(lambda+1) + 16: lo = max(floor, floor(lambda -
    h)) and hi = max(ceil(lambda + h), t + 16, 48), so its cost grows like
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

    Each pass lays the pending windows end to end, widened ones first, up
    to _BATCH_ELEMENTS elements; a wider window gets a pass of its own. A
    result is yielded as soon as it and every result before it are known,
    so a consumer that stops at a failure does not pay for the wide
    windows after it.
    """
    powers = range(1, max_power + 1)
    known = {}  # index -> result, until it is yielded

    def queued(i, lo, hi, best):
        # [(i, lo, hi, best, elements)] within the budget, else [] with
        # the error in known[i].
        size = hi + 2 - (lo - (lo > floor))
        if size <= max_terms:
            return [(i, lo, hi, best, size)]
        known[i] = TruncationError(
            f"summation window of {size} terms exceeds the "
            f"{max_terms}-term budget",
            best_bound=best,
            terms_used=hi - lo + 1,
        )
        return []

    pending = []
    for i, f in enumerate(fs):
        if f.lam == 0.0 or f.cap_a == 0.0:
            zero = dict.fromkeys(powers, 0.0)
            known[i] = _Window(0, -1, zero, zero, 0, 0.0)
            continue
        try:
            pending += queued(i, *_first_window(f, floor, max_terms), math.inf)
        except TruncationError as exc:
            known[i] = exc

    done = 0
    while done < len(fs):
        if done in known:
            yield known.pop(done)
            done += 1
            continue
        chunk, used = [], 0
        for item in pending:
            if chunk and used + item[4] > _BATCH_ELEMENTS:
                break
            chunk.append(item)
            used += item[4]
        del pending[: len(chunk)]
        idx, lo, hi, _, _ = zip(*chunk)
        sums, trunc, left_ok, right_ok, r = _window_pass(
            [fs[i] for i in idx], lo, hi, floor, tol, max_power)
        widened = []
        for j, (i, lo, hi, best, _) in enumerate(chunk):
            if left_ok[j] and right_ok[j]:
                known[i] = _Window(lo, hi, {k: sums[k - 1][j] for k in powers},
                                   {k: trunc[k - 1][j] for k in powers},
                                   hi - lo + 1, r[j])
                continue
            lam, best = fs[i].lam, max(t[j] for t in trunc)
            if not left_ok[j]:
                lo = max(floor, lo - max(16, math.ceil(lam - lo)))
            if not right_ok[j]:
                hi += max(16, math.ceil(hi - lam))
            widened += queued(i, lo, hi, best)
        pending[:0] = widened


def _batched_moments(fs, tol, order) -> Iterator:
    """Yields, in the order of fs, the Moments of each functional or the
    ArithmeticError computing them raised, from _certified_windows with
    floor t."""
    t = CappedFunctional.threshold
    for f, w in zip(fs, _certified_windows(fs, t, tol, order, MAX_TERMS)):
        if isinstance(w, _Window):
            try:
                w = _moments(f, w.sums, w.trunc, w.terms, order)
            except ArithmeticError as exc:
                w = exc
        yield w


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


def _moments(f, sums, trunc, n, order) -> Moments:
    """Moments of f from its window sums, tails and width; a moment whose
    bound exceeds its value raises TruncationError."""
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

    The sums come from f's _certified_windows window with floor t, its
    tails cut at min(tol/16, 2^-100 * the largest term) for every power,
    each sum correctly rounded (_exact_sums). The variance is E[f^2] - E[f]^2
    with the error bound propagated; it has no other route. Order 4 adds
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
) -> PairwiseVarianceResult:
    """Independent variance oracle: (1/2) sum_{x,y} (f(x)-f(y))^2 p(x)p(y).

    The double sum runs over the engine's window (_certified_windows with
    floor 0, not t, powers 1 and 2 and the _PAIRWISE_TERMS budget), so it
    is cut where the engine's is, at min(tol/16, 2^-100 * the largest term)
    on f and f^2: draws with f = 0 still pair against nonzero values and
    contribute to E[(W - W')^2]. Pairs with a member outside the window are
    bounded via (f(x)-f(y))^2 <= 2 f(x)^2 + 2 f(y)^2, with the window's f^2
    tails and geometric pmf tails from its edge terms. The sum is over the
    upper triangle, x < y, and stays O(W^2), so it shares no arithmetic with
    the engine's E[f^2] - E[f]^2. A window wider than _PAIRWISE_TERMS raises
    TruncationError before anything is allocated.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    (w,) = _certified_windows([f], 0, tol, 2, _PAIRWISE_TERMS)
    if isinstance(w, TruncationError):
        raise w
    if not w.terms:
        return PairwiseVarianceResult(0.0, 0.0)

    # The window's terms and the edge terms its tails read, with the
    # operations _window_pass applies, so p and f have its bits.
    lam, lo, edge = f.lam, w.lo, int(w.lo > 0)
    x, p = _pmf_window(lam, lo - edge, w.hi + 1)
    ptail = float(p[-1]) / (1.0 - w.r)
    ptail += float(p[0]) / (1.0 - (lo - 1.0) / lam) if edge else 0.0

    fv, p = _capped(x[edge:-1], f.cap_a, f.cap_b), p[edge:-1]
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

    s1w, s2w = w.sums[1], w.sums[2]
    fp = _fp_rel(lam) * (2.0 * s2w + s1w * s1w + value)
    return PairwiseVarianceResult(value, 4.0 * (w.trunc[2] + ptail * s2w) + fp)


# Draws per chunk of the Monte Carlo sampler (512 KiB of int64).
_MC_CHUNK = 2**16


def _draw_counts(rng, lam: float, draws: int):
    """(seen, counts): the distinct values of `draws` Poisson(lam) draws from
    rng, sorted, and how often each was drawn.

    The draws are taken in chunks of _MC_CHUNK. numpy's sampler gives the
    same stream in chunks as in one call, so the result is that of one call.
    While the values drawn span fewer than `draws` integers, each chunk is
    added into one bincount over that span; once they span more, each
    chunk's sorted counts are kept and merged at the end. Nothing is larger
    than O(draws).
    """
    lo, hi = math.inf, -math.inf
    hist, parts = None, []
    for start in range(0, draws, _MC_CHUNK):
        xs = rng.poisson(lam, size=min(_MC_CHUNK, draws - start))
        cmin, cmax = int(xs.min()), int(xs.max())
        lo, hi = min(lo, cmin), max(hi, cmax)
        if hi - lo >= draws:
            if hist is not None:
                seen = np.flatnonzero(hist)
                parts.append((seen + base, hist[seen]))
                hist = None
            parts.append(np.unique(xs, return_counts=True))
            continue
        if hist is None or lo < base or hi >= base + len(hist):
            grown = np.zeros(hi - lo + 1, dtype=np.int64)
            if hist is not None:
                grown[base - lo : base - lo + len(hist)] = hist
            base, hist = lo, grown
        hist[cmin - base : cmax - base + 1] += np.bincount(xs - cmin)
    if hist is not None:
        seen = np.flatnonzero(hist)
        return seen + base, hist[seen]
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
