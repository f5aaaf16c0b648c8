"""Certified moments of capped Poisson functionals.

The central object is f(X) = X*sqrt(min(X,a)*min(X,b))*1(X >= t) for
X ~ Poisson(lambda). Moments are computed by truncated summation with a
rigorous geometric tail certificate or, for a mean and variance at lambda
>= 2K (_corrections), as closed forms minus K-term sums; every returned
estimate carries a certified absolute error bound (truncation tail, if any,
plus a propagated floating-point roundoff term). An independent
pairwise-difference variance oracle (Var[W] = E[(W - W')^2]/2, summed over
the same window) and a seeded Monte Carlo cross-check (numpy's sampler,
evaluated on the draw histogram) are provided for dual-route validation;
thread_map runs such independent checks on several threads.
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
    is the number of terms summed, hi - lo + 1 over the window [lo, hi], or
    K or 0 for a decomposed functional (_corrections)."""

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
    array x of any shape, 0-d included, and caps that broadcast against x
    (a column of rows, say). The only code in the package that evaluates f."""
    f = np.asarray(np.minimum(x, cap_a))  # 0-d too: a new array
    f *= np.minimum(x, cap_b)
    np.sqrt(f, out=f)
    f *= x
    f[np.broadcast_to(x, f.shape) < CappedFunctional.threshold] = 0.0
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
    """The bits math.fsum returns for each non-empty segment of each row of
    the float64 array values (1-D or 2-D), in top's shape: they begin at
    starts (integers, increasing from 0) in every row, each runs to the next
    start and the last to the end; top holds their maxima.

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
    n = values.shape[-1]
    ends = np.append(starts[1:], n)
    if np.signbit(values).any() or not (top < math.inf).all():
        raise ArithmeticError("exact sums take finite values >= 0")
    step = max(1, _BATCH_ELEMENTS // math.prod(values.shape[:-1]))
    sums = np.zeros((3, *top.shape))  # sum q, sum r and sum |r|
    parts = np.empty((3, *values.shape[:-1], min(n, step)))  # q, r and |r|
    with np.errstate(over="ignore", invalid="ignore"):  # sigma = inf: fsum
        sigma = np.ldexp(1.0, np.frexp(top)[1]
                         + np.frexp(ends - starts + 2.0)[1] - 1)
        for a in range(0, n, step):
            b = min(n, a + step)
            i = int(np.searchsorted(starts, a, "right")) - 1
            j = int(np.searchsorted(starts, b))
            local = np.maximum(starts[i:j] - a, 0)
            s = np.repeat(sigma[..., i:j], np.minimum(ends[i:j], b) - a - local,
                          axis=-1)
            q, r, r_abs = block = parts[..., : b - a]
            np.subtract(np.add(s, values[..., a:b], out=q), s, out=q)
            np.abs(np.subtract(values[..., a:b], q, out=r), out=r_abs)
            sums[..., i:j] += np.add.reduceat(block, local, axis=-1)
        tau, r_sum, r_abs = sums
        # 2 eps n sum |r|, and the least double for an underflowed product.
        w = r_abs * ((ends - starts) * 2.0**-52) + 2.0**-1074
        lo, hi = tau + (r_sum - w), tau + (r_sum + w)
    for *row, k in zip(*np.nonzero(lo != hi)):
        lo[(*row, k)] = math.fsum(values[(*row, slice(starts[k], ends[k]))])
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


def _to_sum(lo, hi, max_terms):
    """[lo, hi, elements with the edge terms], or the budget's error."""
    size = hi + 2 - (lo - (lo > 0))
    if size <= max_terms:
        return [lo, hi, size]
    return TruncationError(f"summation window of {size} terms exceeds the "
                           f"{max_terms}-term budget")


def _first_window(lam, max_terms):
    """_to_sum of the first window at rate lam > 0 (_certified_windows)."""
    h = 14.0 * math.sqrt(lam + 1.0) + 16.0
    width = min(2.0 * h, lam + h)
    if width > max_terms:
        return TruncationError(f"summation window of {width:.6g} terms "
                               f"exceeds the {max_terms}-term budget")
    return _to_sum(max(0, math.floor(lam - h)), max(math.ceil(lam + h), 48),
                   max_terms)


def _window_pass(lam, lo, hi, cap_a, cap_b, tol, max_power):
    """The windows [lo[i], hi[i]] (ints) at the rates lam[i] > 0, summed and
    tested as _certified_windows defines them for each row of caps (a
    column of pairs that every window holds, or a row of each one's own).

    Returns [(window, left_ok, right_ok)], row by row: each _Window and
    whether each side's tail is below the cut for every power. x, the pmf
    and its edge terms (lo - 1, unread at lo = 0, and hi + 1, 2i and 2i + 1
    of an array apart), log lambda and r come once per window; f and the
    terms as rows x elements, the maxima and exact sums along each row.
    Every element takes the same operations in any layout, so a window's
    results do not depend on its pass."""
    def spread(v, sizes):  # per window to per element; one value broadcasts
        return v if v.shape[-1] == 1 else np.repeat(v, sizes, axis=-1)
    n = len(lam)
    r = np.array([(v / (h + 2.0)) * ((h + 2.0) / (h + 1.0)) ** (2 * max_power)
                  for v, h in zip(lam, hi)])
    log_lam = np.array([math.log(v) for v in lam])
    lam, lo, hi = np.array(lam, dtype=np.float64), np.array(lo), np.array(hi)
    sizes = hi + 1 - lo
    starts = np.cumsum(sizes) - sizes
    x = np.arange(starts[-1] + sizes[-1], dtype=np.float64)
    x -= spread(starts - lo, sizes)
    la, lm, ca, cb = (spread(v, sizes) for v in (log_lam, lam, cap_a, cap_b))
    p, fv = _pmf(x, la, lm), _capped(x, ca, cb)
    left = lo > 0
    x = np.column_stack((lo - left, hi + 1.0)).ravel()
    la, lm, ca, cb = (spread(v, 2) for v in (log_lam, lam, cap_a, cap_b))
    edge_p, edge_f = _pmf(x, la, lm), _capped(x, ca, cb)
    left_den = 1.0 - np.divide(x[::2], lam, out=np.zeros(n), where=left)

    def tails(edges):
        # Each window's left and right tail bounds from its edge terms.
        right = np.divide(edges[..., 1::2], 1.0 - r, where=r < 1.0,
                          out=np.full((*edges.shape[:-1], n), math.inf))
        return np.divide(edges[..., ::2], left_den, out=np.zeros_like(right),
                         where=left), right

    ptail = np.add(*tails(edge_p)).tolist()
    left_ok, right_ok = np.ones((2, len(fv), n), dtype=bool)
    sums, trunc = [], []
    fpow, edge_fpow = fv, edge_f
    for k in range(max_power):
        if k:
            fpow, edge_fpow = fpow * fv, edge_fpow * edge_f
        terms = fpow * p
        top = np.maximum.reduceat(terms, starts, axis=1)
        cut = np.minimum(_REL_CUT * top, tol / 16.0)
        left_tail, right = tails(edge_fpow * edge_p)
        left_ok &= left_tail <= cut
        right_ok &= right <= cut
        trunc.append((left_tail + right).tolist())
        sums.append(_exact_sums(terms, starts, top))
    lo, hi = lo.tolist(), hi.tolist()
    windows = [w for s, t in zip(zip(*sums), zip(*trunc))
               for w in map(_Window, lo, hi, zip(*s), zip(*t), ptail)]
    return list(zip(windows, left_ok.ravel().tolist(), right_ok.ravel().tolist()))


def _certified_windows(lams, caps_a, caps_b, tol, max_power, max_terms):
    """Yields the certified _Window, or the TruncationError that ended its
    widening, of each functional (i, j) of a grid, by i and then j: rate
    lams[i], caps caps_a[j, i] <= caps_b[j, i] from float64 arrays, a column
    (rows, 1) of every rate's pairs, a row (1, len(lams)) of each rate's,
    or the whole grid (rows, len(lams)).

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
    TruncationError, or its _to_sum entry, which a rate's rows share until
    their first window is summed. A pass starts at the first unfinished
    entry and holds at most _BATCH_ELEMENTS elements, or one wider window.
    At a first window it takes as many of the rate's rows still to sum as
    fit (one at least), and if all fit, the rates after it that fit too and
    have the same rows to sum, skipping those with none.
    At a widened window it takes the widened windows up to the next first
    window, as one-row cells. Entry i is yielded, and dropped, once it is
    finished; a consumer that stops there skips the wide windows after."""
    rows, n = len(caps_a), len(lams)
    cells_a, cells_b = (np.broadcast_to(c, (rows, n)).T.ravel()
                        for c in (caps_a, caps_b))
    zero = _Window(0, -1, (0.0,) * max_power, (0.0,) * max_power, 0.0)
    live = np.broadcast_to(caps_a, (rows, n)).any(axis=0).tolist()  # a cap > 0
    firsts = [_first_window(lam, max_terms) if lam and on else zero
              for lam, on in zip(lams, live)]
    entries = [firsts[k // rows] if a else zero
               for k, a in enumerate(cells_a.tolist())]

    def todo(i):  # the rows still to sum rate i's first window over
        return [j for j in range(rows) if entries[i * rows + j] is firsts[i]]

    for k in range(len(entries)):
        while isinstance(entries[k], list):
            i = k // rows
            if entries[k] is firsts[i]:
                rest = todo(i)
                fit = rest[: max(1, _BATCH_ELEMENTS // firsts[i][2])]
                rates, used = [i], len(fit) * firsts[i][2]
                for i2 in range(i + 1, n) if fit == rest else ():
                    if later := isinstance(firsts[i2], list) and todo(i2):
                        used += len(later) * firsts[i2][2]
                        if later != fit or used > _BATCH_ELEMENTS:
                            break
                        rates.append(i2)
                windows = [firsts[i2] for i2 in rates]
                cells = [i2 * rows + j2 for j2 in fit for i2 in rates]
                caps = [c[fit] if c.shape[1] == 1 else c[fit][:, rates]
                        for c in (caps_a, caps_b)]
                caps = [c[:, :1] if (c == c[:, :1]).all() else c for c in caps]
            else:
                chunk, used = [], 0
                for k2 in range(k, len(entries)):
                    if isinstance(entries[k2], list):
                        used += entries[k2][2]
                        if (entries[k2] is firsts[k2 // rows]
                                or chunk and used > _BATCH_ELEMENTS):
                            break
                        chunk.append(k2)
                rates, cells = [k2 // rows for k2 in chunk], chunk
                windows = [entries[k2] for k2 in chunk]
                caps = (c[chunk][None] for c in (cells_a, cells_b))
            lo, hi, _ = zip(*windows)
            passed = _window_pass([lams[i2] for i2 in rates], lo, hi, *caps,
                                  tol, max_power)
            for c, (w, left_ok, right_ok) in zip(cells, passed):
                lo, hi, lam = w.lo, w.hi, lams[c // rows]
                if not left_ok:
                    lo = max(0, lo - max(16, math.ceil(lam - lo)))
                if not right_ok:
                    hi += max(16, math.ceil(hi - lam))
                entries[c] = w if left_ok and right_ok else _to_sum(lo, hi, max_terms)
        yield entries[k]
        entries[k] = None  # held by the consumer alone once yielded


def _points(fs):
    """The functionals fs as a grid of rates, each with its own cap pair."""
    return ([f.lam for f in fs], np.array([[f.cap_a for f in fs]], float),
            np.array([[f.cap_b for f in fs]], float))


class _Correction(NamedTuple):
    """E[g], E[P g] and E[g^2] (_corrections), their certified errors, and
    the terms summed: K, or 0 where the Chernoff bound stands in for them."""

    terms: int
    sums: tuple
    bounds: tuple


def _correction_sums(points) -> list:
    """The exact sums of g p, P g p, g^2 p and p over x < K of each point
    of _corrections, from one pmf per run of points of one rate; an f < 0
    raises ArithmeticError, as a term < 0 does in _exact_sums. Not a
    generator: its arrays are freed before the corrections are yielded."""
    lams, a, b, sizes = (np.array([q[j] for q in points]) for j in range(4))
    new = np.diff(lams, prepend=-1.0) != 0.0  # the first point of a rate
    width = np.maximum.reduceat(sizes, np.flatnonzero(new))
    at, starts = np.cumsum(width) - width, np.cumsum(sizes) - sizes
    x = np.arange(width.sum(), dtype=np.float64) - np.repeat(at, width)
    p = _pmf(x, np.repeat([math.log(v) for v in lams[new].tolist()], width),
             np.repeat(lams[new], width))
    x = np.arange(sizes.sum()) - np.repeat(starts, sizes)
    p = p[x + np.repeat(at[np.cumsum(new) - 1], sizes)]
    x, a, b = x.astype(np.float64), np.repeat(a, sizes), np.repeat(b, sizes)
    if np.signbit(f := _capped(x, a, b)).any():
        raise ArithmeticError("exact sums take finite values >= 0")
    poly = np.where(a == math.inf, x, np.sqrt(a * b)) * x
    g = poly - f
    terms = np.stack((g, poly * g, g * g, np.ones_like(g)))
    terms *= p
    return list(zip(*_exact_sums(terms, starts,
                                 np.maximum.reduceat(terms, starts, axis=1))))


def _corrections(points) -> Iterator:
    """Yields the _Correction of each point (lambda, a, b, K, _fp_rel(lambda))
    of f = P - g: P(x) = sqrt(ab) x, or x^2 for infinite caps, and g = P - f
    (_capped), 0 from x = K on and >= 0, as rounding is monotone. Where the
    Chernoff bound P(X < K) <= e^-lambda (e lambda / K)^K, rounded up in log
    space, is at most K 2^-1074, the sums are 0 and err by at most
    P(K - 1)^j >= g^j times it (so for every K > 2400, as lambda >= 2K).
    Otherwise g p, P g p, g^2 p and p are summed over x < K, one pmf per run of
    points of one rate, in passes of at most _BATCH_ELEMENTS, and err by
    (_fp_rel + 4u) times each, for the pmf and the products, plus P(K - 1)^j
    times 18u sum p, for g (within 8u P), and K 2^-1073, for underflowed p
    (u = 2^-53)."""
    batches, used = [[]], 0
    for lam, a, b, k, fp in points:
        log_c = k * (1.0 + math.log(lam) - math.log(k)) - lam
        size = 4 * k if log_c > math.log(k * 2.0**-1074) else 0
        if used + size > _BATCH_ELEMENTS:
            batches.append([])
            used = 0
        batches[-1].append((lam, a, b, k, fp, log_c, size))
        used += size
    for batch in batches:
        live = [q for q in batch if q[-1]]
        sums = iter(live and _correction_sums(live))
        for lam, a, b, k, fp, log_c, size in batch:
            top = (k - 1.0) * (k - 1.0 if a == math.inf else math.sqrt(a * b))
            if size:  # g's rounding and underflowed p
                *got, mass = next(sums)
                err = 9.0 * _EPS * mass + k * 2.0**-1073
            else:  # the Chernoff bound on P(X < K)
                got = (0.0,) * 3
                slack = 2.0**-48 * (lam + k * (2.0 + math.log(lam) + math.log(k)))
                err = math.nextafter(math.exp(log_c + slack), math.inf)
            yield _Correction(k if size else 0, tuple(got), tuple(
                (fp + 2.0 * _EPS) * v + w * err
                for v, w in zip(got, (top, top * top, top * top))))


def _batched_moments(lams, caps_a, caps_b, tol, order) -> Iterator:
    """Yields the Moments, or the ArithmeticError that computing them raised,
    of each functional of a _certified_windows grid, in its order. An order
    outside (1, 2, 4) or a tolerance not > 0 raises ValueError at the call.
    At order 1 or 2, caps both finite (a > 0) or both infinite (K = 4) and
    lambda >= 2K take _corrections, and cap 0 in the window grid."""
    if order not in (1, 2, 4):
        raise ValueError(f"order must be 1, 2 or 4, got {order}")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    rows, fps = len(caps_a), [_fp_rel(lam) for lam in lams]
    a, b = (np.broadcast_to(c, (rows, len(lams))) for c in (caps_a, caps_b))
    ks = np.where(a == math.inf, 4.0, np.maximum(np.ceil(b), 4.0))
    ks = np.where((order < 4) & (a > 0.0) & ((b < math.inf) | (a == b))
                  & (np.array(lams, dtype=np.float64) >= 2.0 * ks), ks, 0.0)
    caps_a = np.where(ks > 0.0, 0.0, a) if ks.any() else caps_a
    a, b = (c.T.ravel().tolist() for c in (a, b))
    ks = ks.T.ravel()
    routed = (ks > 0.0).tolist()
    corrections = _corrections((lams[k // rows], a[k], b[k], int(ks[k]),
                                fps[k // rows]) for k in np.flatnonzero(ks))

    def stream(windows):
        for k, w in enumerate(windows):
            if routed[k]:
                w = next(corrections)
            if isinstance(w, (_Window, _Correction)):
                try:
                    w = _moments((lams[k // rows], a[k], b[k]), w, order,
                                 fps[k // rows])
                except ArithmeticError as exc:
                    w = exc
            yield w
    return stream(_certified_windows(lams, caps_a, caps_b, tol, order,
                                     MAX_TERMS))


def _moments(point, w, order, fp) -> Moments:
    """Moments of the functional at point (lambda, a, b) from its _Window w
    and fp = _fp_rel(lambda), each certified as it is built: a bound above
    its value raises TruncationError."""

    def certified(name, value, bound):
        # A bound above the value certifies nothing: at very large rates the
        # cancellation in the central moments can leave pure roundoff.
        if value == math.inf:
            raise OverflowError(f"the {name} overflows at {point}")
        if bound > value:
            raise TruncationError(
                f"certified bound {bound!r} exceeds the {name} "
                f"{value!r} at {point}"
            )
        return MomentEstimate(value, bound, w.terms)

    if isinstance(w, _Correction):  # f = P - g: P's closed forms, g's sums
        (g1, g2, g3), (e1, e2, e3) = w.sums, w.bounds
        lam, a, b = point
        ab, m1, v = ((1.0, lam + lam * lam, ((4.0 * lam + 6.0) * lam + 1.0) * lam)
                     if a == math.inf else (a * b, lam, lam))
        cm, cv = math.sqrt(ab) * m1, ab * v
        mean = certified("mean", cm - g1, 4.0 * _EPS * cm + e1)
        if order == 1:
            return Moments(mean)
        var = cv + 2.0 * (cm * g1 - g2) + (g3 - g1 * g1)
        return Moments(mean, certified("variance", var, 8.0 * _EPS * (
            cv + 2.0 * cm * g1 + g3 + g1 * g1) + 2.0 * (cm * e1 + e2) + e3
            + (2.0 * g1 + e1) * e1))

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
    return _batched_moments(*_points(list(fs)), tol, order)


def moments(
    f: CappedFunctional, tol: float = DEFAULT_TOL, order: int = 2
) -> Moments:
    """Certified moments of f(X) up to the given order (1, 2 or 4) from one
    summation pass: moments_many([f], tol, order).

    At order 1 or 2, with both caps finite or both infinite and lambda >=
    2K, K = max(ceil(b), 4), the mean and variance cost K terms or O(1) and
    nothing cancels (_corrections). Otherwise the sums come from f's
    _certified_windows window, O(sqrt(lambda)) terms, at order 2 the
    window variance_pairwise sums over, its tails cut at min(tol/16,
    2^-100 * the largest term) for every power, each sum correctly rounded
    (_exact_sums). The variance is E[f^2] - E[f]^2 with the error bound
    propagated. Order 4 adds
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
    and its terms from the engine's _pmf and _capped. So it is
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
    (w,) = _certified_windows(*_points([f]), tol, 2, _PAIRWISE_TERMS)
    if isinstance(w, TruncationError):
        raise w
    n = w.terms
    if not n:
        return MomentEstimate(0.0, 0.0, 0)

    x = np.arange(w.lo, w.hi + 1, dtype=np.float64)
    p, fv = _pmf(x, math.log(f.lam), f.lam), _capped(x, f.cap_a, f.cap_b)
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
