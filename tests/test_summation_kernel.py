"""The summation kernel: exact segment sums and batched moments."""

import math
import tracemalloc
from typing import Iterator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poissonlab import poisson_core
from poissonlab.poisson_core import (
    DEFAULT_TOL,
    MAX_TERMS,
    CappedFunctional,
    TruncationError,
    _REL_CUT,
    _Window,
    _capped,
    _exact_sums,
    _fp_rel,
    _pmf,
    _points,
    functional_value,
    moments,
    moments_many,
)

_MANTISSAS = st.integers(0, 2**53 - 1)
# Any finite double up to 2^1013, subnormals included.
_DOUBLES = st.builds(math.ldexp, _MANTISSAS, st.integers(-1074, 960))
_SUBNORMALS = st.builds(math.ldexp, st.integers(1, 2**52 - 1), st.just(-1074))
# Values from both ends of the exponent range: one segment spans > 1000 bits.
_SPREAD = st.builds(math.ldexp, _MANTISSAS,
                    st.sampled_from((-1074, -1000, -600, 0, 400, 960)))


@st.composite
def _tie(draw):
    """x plus half an ulp of x: an exact tie, broken by a tiny third term
    when one is drawn."""
    e = draw(st.integers(-1000, 900))
    x = math.ldexp(draw(st.integers(2**52, 2**53 - 1)), e)
    tie = [x, math.ldexp(1.0, e - 1)]
    return tie + draw(st.lists(st.just(math.ldexp(1.0, e - 60)), max_size=1))


_SEGMENT = st.one_of(
    st.lists(_DOUBLES, min_size=1, max_size=12),
    st.lists(_SUBNORMALS, min_size=1, max_size=12),
    st.lists(_SPREAD, min_size=1, max_size=12),
    st.lists(st.just(0.0), min_size=1, max_size=3),
    st.lists(st.one_of(_DOUBLES, st.just(0.0), _SUBNORMALS), min_size=1,
             max_size=12),
    _tie(),
    _DOUBLES.map(lambda v: [v]),
)


def _hex(values):
    return [v.hex() for v in values]


def _flat(segments):
    values = np.array([v for s in segments for v in s], dtype=np.float64)
    starts = np.cumsum([0] + [len(s) for s in segments[:-1]])
    return values, starts


def _sums(values, starts):
    """_exact_sums as _window_pass calls it, with the segments' maxima."""
    values, starts = np.asarray(values, np.float64), np.asarray(starts)
    return _exact_sums(values, starts, np.maximum.reduceat(values, starts))


class TestExactSums:
    @settings(max_examples=300, deadline=None)
    @given(segments=st.lists(_SEGMENT, min_size=1, max_size=6),
           budget=st.sampled_from((None, 1, 3, 7)))
    def test_bits_of_fsum(self, segments, budget):
        # budget: values binned at a time; a small one makes segments span
        # several blocks, as a window longer than the default would.
        values, starts = _flat(segments)
        size = budget or poisson_core._BATCH_ELEMENTS
        with mock.patch.object(poisson_core, "_BATCH_ELEMENTS", size):
            got = _sums(values, starts)
        assert _hex(got) == _hex([math.fsum(s) for s in segments])

    def test_ties_round_half_to_even(self):
        even, odd = 1.0, 1.0 + 2.0**-52
        segments = [[even, 2.0**-53], [odd, 2.0**-53],
                    [even, 2.0**-53, 2.0**-300], [2.0**-53, even]]
        got = _sums(*_flat(segments))
        assert got == [1.0, 1.0 + 2.0**-51, 1.0 + 2.0**-52, 1.0]
        assert _hex(got) == _hex([math.fsum(s) for s in segments])

    def test_long_segment_in_blocks(self):
        rng = np.random.default_rng(5)
        values = rng.random(1000) * 10.0 ** rng.integers(-300, 300, 1000)
        starts = [0, 1, 999]
        with mock.patch.object(poisson_core, "_BATCH_ELEMENTS", 64):
            got = _sums(values, starts)
        want = [math.fsum(values[:1]), math.fsum(values[1:999]),
                math.fsum(values[999:])]
        assert _hex(got) == _hex(want)

    @pytest.mark.parametrize("bad", (-1.0, -0.0, math.nan, math.inf))
    def test_negative_or_non_finite_values_raise(self, bad):
        values = np.array([2.0, 0.5, 0.0, bad, 1.0])
        with pytest.raises(ArithmeticError, match="finite values >= 0"):
            _sums(values, [0, 2])

    def test_overflow_raises_like_fsum(self):
        big = [1.7e308, 1.7e308]
        with pytest.raises(OverflowError):
            math.fsum(big)
        with pytest.raises(OverflowError):
            _sums(big, [0])

    @pytest.mark.parametrize("e", (-1000, -3, 0, 52, 960))
    def test_exact_at_the_edge_of_sigma(self, e):
        # Lengths 2^k - 3 ... 2^k step e_cnt, the exponent of n + 2, at
        # 2^k - 2; values equal to a power-of-two maximum 2^e, equal to the
        # double just below it, or with random mantissas in [2^(e-1), 2^e),
        # whose sum reaches about 1.5 sigma at n = 2^k - 3, where a sigma
        # half as large loses bits. Blocks of 64 values split the longer
        # segments.
        rng = np.random.default_rng(e + 1074)
        segments = []
        for n in (2**k - d for k in (2, 3, 6, 9) for d in (3, 2, 1, 0)):
            top = math.ldexp(1.0, e)
            segments += [[top] * n, [math.nextafter(top, 0.0)] * n,
                         list(np.ldexp(rng.uniform(0.5, 1.0, n), e))]
        values, starts = _flat(segments)
        want = _hex([math.fsum(s) for s in segments])
        for size in (poisson_core._BATCH_ELEMENTS, 64):
            with mock.patch.object(poisson_core, "_BATCH_ELEMENTS", size):
                assert _hex(_sums(values, starts)) == want

    @pytest.mark.parametrize("segment", (
        [1.0, 2.0**-53],  # a tie, to even below
        [1.0 + 2.0**-52, 2.0**-53],  # a tie, to even above
        [1.0, 2.0**-53, 2.0**-300],  # just above a tie
        [1.0, 2.0**-53, 2.0**-600, 2.0**-1074],
        [1.7e308],  # sigma overflows, the sum does not
    ))
    def test_near_ties_take_fsum(self, segment):
        values, starts = _flat([[3.0, 0.5], segment, [2.0**-40] * 5])
        want = _hex([3.5, math.fsum(segment), math.fsum([2.0**-40] * 5)])
        with mock.patch.object(math, "fsum", wraps=math.fsum) as fsum:
            got = _sums(values, starts)
        assert _hex(got) == want
        assert fsum.call_count == 1
        assert _hex(fsum.call_args.args[0]) == _hex(segment)

    def test_empty_and_zero_segments(self):
        assert _hex(_sums(np.zeros(3), [0, 2])) == _hex([0.0] * 2)


def _reference(f, tol, order):
    """(moments(f) or its error, the tails of f's window): the window of a
    one-functional call of the reference driver below, its terms built with
    scalar rate and caps and re-summed with math.fsum."""
    (w,) = _certified_windows([f], tol, order, MAX_TERMS)
    if isinstance(w, TruncationError):
        return w, ()
    sums = [0.0] * order
    if w.terms:
        x = np.arange(w.lo, w.hi + 1, dtype=np.float64)
        p, fv = _pmf(x, math.log(f.lam), f.lam), functional_value(x, f)
        fpow = np.ones_like(fv)
        for k in range(order):
            fpow = fpow * fv
            sums[k] = math.fsum(fpow * p)
    w = w._replace(sums=tuple(sums))
    try:
        point = (f.lam, f.cap_a, f.cap_b)
        return poisson_core._moments(point, w, order, _fp_rel(f.lam)), w.trunc
    except TruncationError as exc:
        return exc, w.trunc


# lam = 0 and a zero cap; an effectively uncapped functional (a = 1e9 lies
# above every x summed) that widens at order 4; a variance that fails its
# guard; a window past MAX_TERMS; then rates whose first windows fill more
# than one batch. Each has one infinite cap or K = 16e6 > lam / 2, so
# every one keeps its window at every order (the decomposition is checked
# in test_decomposed_bits_do_not_depend_on_the_batch).
_MIXED = (
    CappedFunctional(0.0, 2.0, 4.0),
    CappedFunctional(3.0, 0.0, 4.0),
    CappedFunctional(1e4, 1e9, math.inf),
    CappedFunctional(5e6, 2.0, math.inf),
    CappedFunctional(1e13, 2.0, math.inf),
    *(CappedFunctional(lam, 2.0, 16e6)
      for lam in (0.3, 1.0, 10.0, 1e2, 1e3, 2e4, 4e4, 8e4, 1e5, 2e5, 3e5)),
)


class TestMomentsMany:
    @pytest.mark.parametrize("order", [1, 2, 4])
    @pytest.mark.parametrize("batch", [None, 2**17])
    def test_matches_scalar_reference(self, order, batch):
        # batch 2^17 also lays lam = 5e6's 62,643-term window in a batch.
        self._check_reference(order, batch, DEFAULT_TOL)

    @pytest.mark.parametrize("order", [1, 2, 4])
    @pytest.mark.parametrize("batch", [None, 2**17])
    def test_widened_windows_match_scalar_reference(self, order, batch):
        # At tol 1e-300 every window of a rate > 0 widens, from lam = 1e3 on
        # on the left side too, and the widened windows share passes.
        self._check_reference(order, batch, 1e-300)

    def _check_reference(self, order, batch, tol):
        size = batch or poisson_core._BATCH_ELEMENTS
        with mock.patch.object(poisson_core, "_BATCH_ELEMENTS", size):
            got = list(moments_many(_MIXED, tol, order))
        assert len(got) == len(_MIXED)
        for f, m in zip(_MIXED, got):
            ref, tails = _reference(f, tol, order)
            # Each side's tail is below tol/16.
            assert all(t <= tol / 8 for t in tails), f
            if isinstance(ref, Exception):
                assert type(m) is type(ref), f
                assert str(m) == str(ref)
                continue
            for name in ("mean", "variance", "mu4"):
                a, b = getattr(m, name), getattr(ref, name)
                assert (a is None) == (b is None), (f, name)
                if a is not None:
                    assert (a.value, a.tail_bound, a.terms_used) == (
                        b.value, b.tail_bound, b.terms_used), (f, name)

    @pytest.mark.parametrize("order", [1, 2])
    def test_decomposed_bits_do_not_depend_on_the_batch(self, order):
        # Decomposed functionals (K terms summed, or none past the Chernoff
        # cut) beside windows, several pairs to a rate. Passes of 64
        # elements split lam = 1e2's corrections between two passes, after
        # a pass that holds lam = 8's. Every entry has the bits of its
        # functional taken alone.
        fs = [CappedFunctional(lam, *ab) for lam in (8.0, 1e2, 3e3, 1e6)
              for ab in ((2.0, 16.0), (4.0, 4.0), (math.inf, math.inf),
                         (2.0, math.inf))]
        with mock.patch.object(poisson_core, "_BATCH_ELEMENTS", 64):
            got = list(moments_many(fs, DEFAULT_TOL, order))
        alone = [next(moments_many([f], DEFAULT_TOL, order)) for f in fs]
        assert got == alone
        terms = [m.mean.terms_used for m in got]
        assert terms[:4] == [terms[0], 4, 4, terms[3]] and terms[0] > 16
        assert terms[4:8] == [16, 4, 4, terms[7]] and terms[7] > 16
        assert terms[8:12] == [0, 0, 0, terms[11]] and terms[11] > 16

    def test_mixed_batch_covers_its_cases(self):
        first = [_first_window(f, 10**13) for f in _MIXED[5:]]
        assert sum(hi + 2 - lo for lo, hi in first) > poisson_core._BATCH_ELEMENTS
        got = list(moments_many(_MIXED, DEFAULT_TOL, 4))
        lo, hi = _first_window(_MIXED[2], MAX_TERMS)
        assert got[2].mean.terms_used > hi - lo + 1  # widened
        assert "exceeds the variance" in str(got[3])
        assert "budget" in str(got[4])
        assert got[0].mean.terms_used == got[1].mean.terms_used == 0

    def test_stops_at_the_first_error(self):
        # bad's window is wider than a batch, so it takes a pass of its own,
        # and its variance fails the guard: the first result is known after
        # one pass, and the wide windows after it are not summed.
        bad = CappedFunctional(419430400.0, 2048.0, math.inf)
        spy = mock.patch.object(poisson_core, "_window_pass",
                                wraps=poisson_core._window_pass)
        with spy as passes:
            first = next(moments_many([bad] * 3, DEFAULT_TOL, 2))
        assert "exceeds the variance" in str(first)
        assert passes.call_count == 1

    def test_failure_stays_with_its_functional(self):
        good = CappedFunctional(10.0, 2.0, 4.0)
        bad = CappedFunctional(5e6, 2.0, math.inf)
        first, mid, last = moments_many([bad, good, bad], DEFAULT_TOL, 2)
        assert isinstance(first, TruncationError)
        assert isinstance(last, TruncationError)
        assert mid == moments(good)
        with pytest.raises(TruncationError, match="exceeds the variance"):
            moments(bad)

    def test_bad_arguments_fail_the_batch(self):
        f = CappedFunctional(1.0, 2.0, 2.0)
        with pytest.raises(ValueError, match="order"):
            moments_many([f], DEFAULT_TOL, 3)
        with pytest.raises(ValueError, match="tolerance"):
            moments_many([f], 0.0, 2)


# The window driver, pass and term builder as they were before one pass
# summed a rate's cap rows as rows of one window: one window per
# functional, its rate and caps repeated over its elements. They are kept
# verbatim as the reference; in this module the bare names _first_window,
# _window_terms, _window_pass and _certified_windows are theirs, and the
# engine's are read from poisson_core.
_BATCH_ELEMENTS = 2**15


def _first_window(f, max_terms):
    # The engine's first window, in the form the reference takes it.
    first = poisson_core._first_window(f.lam, max_terms)
    if isinstance(first, TruncationError):
        raise first
    return first[:2]


def _window_terms(x: np.ndarray, fs, reps) -> tuple[np.ndarray, np.ndarray]:
    """p and f at the integer-valued floats x, the one builder of window
    terms: functional i's rate and caps fill reps[i] elements in turn."""
    p = _pmf(x, np.repeat([math.log(f.lam) for f in fs], reps),
             np.repeat([f.lam for f in fs], reps))
    return p, _capped(x, np.repeat([f.cap_a for f in fs], reps),
                      np.repeat([f.cap_b for f in fs], reps))


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

def _results(windows):
    """Each yielded result as a _Window's fields, floats as hex, or an
    error's type and message."""
    return [(w.lo, w.hi, [v.hex() for v in w.sums], [v.hex() for v in w.trunc],
             w.ptail.hex()) if isinstance(w, _Window) else (type(w), str(w))
            for w in windows]


_RATES = st.sampled_from((0.0, 0.01, 0.5, 3.0, 40.0, 200.0, 1e4, 1e13))
_PAIRS = st.sampled_from(((0.0, 1.0), (0.5, 4.0), (2.0, 8.0), (64.0, 64.0),
                          (math.inf, math.inf)))


@settings(max_examples=100, deadline=None)
@given(lams=st.lists(_RATES, min_size=1, max_size=8),
       pairs=st.lists(_PAIRS, min_size=1, max_size=4),
       per_rate=st.booleans(),
       tol=st.sampled_from((1e-10, 1e-300)),
       max_power=st.sampled_from((1, 2, 4)),
       max_terms=st.sampled_from((400, 10**7)))
def test_grid_driver_matches_the_reference(lams, pairs, per_rate, tol,
                                           max_power, max_terms):
    # A grid of rates (repeated and unsorted; 1e4 uncapped widens, 1e13
    # exceeds the budget) by a column of cap pairs, or each rate with its
    # own pair. Batches of 512 elements split a rate's rows across passes,
    # take a window at lam = 1e4 alone, and at tol 1e-300 send widened
    # cells to one-row passes between the grid's passes.
    if per_rate:
        pairs = (pairs * len(lams))[: len(lams)]
        fs = [CappedFunctional(lam, *ab) for lam, ab in zip(lams, pairs)]
        grid = _points(fs)
    else:
        fs = [CappedFunctional(lam, *ab) for lam in lams for ab in pairs]
        grid = (lams, *np.array(pairs).T.reshape(2, -1, 1))
    with mock.patch.object(poisson_core, "_BATCH_ELEMENTS", 512):
        got = _results(poisson_core._certified_windows(
            *grid, tol, max_power, max_terms))
    assert got == _results(_certified_windows(fs, tol, max_power, max_terms))


def _window_of(result, i):
    """Window i's sums, tails (hex) and tail tests from a _window_pass."""
    w, left_ok, right_ok = result[i]
    return (w.lo, w.hi, [s.hex() for s in w.sums],
            [t.hex() for t in w.trunc], w.ptail.hex(), left_ok, right_ok)


class TestWindowPass:
    @pytest.mark.parametrize("max_power", [1, 2, 4])
    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-300])
    def test_each_window_as_if_alone(self, tol, max_power):
        # _MIXED's rates > 0 within the budget: windows from 0 up to
        # lam = 1e2, above it from lam = 1e3 on. At tol 1e-300 every first
        # window fails its tail tests. One pass gives each window its own
        # pair (one row), another gives every window three pairs (a column
        # of rows): each cell is as if summed alone.
        fs = [f for f in _MIXED if 0.0 < f.lam < 1e13]
        lams = [f.lam for f in fs]
        lo, hi, _ = zip(*(poisson_core._first_window(lam, MAX_TERMS)
                          for lam in lams))
        assert lo[0] == 0 < lo[-1]
        window_pass = poisson_core._window_pass
        pairs = ((0.5, 4.0), (2.0, 16.0), (math.inf, math.inf))
        own = window_pass(lams, lo, hi, *_points(fs)[1:], tol, max_power)
        rows = window_pass(lams, lo, hi, *np.array(pairs).T.reshape(2, -1, 1),
                           tol, max_power)
        n = len(fs)
        for i, f in enumerate(fs):
            cells = [(own, (f.cap_a, f.cap_b)),
                     *((rows[j * n :], ab) for j, ab in enumerate(pairs))]
            for row, caps in cells:
                alone = window_pass([f.lam], lo[i : i + 1], hi[i : i + 1],
                                    *np.reshape(caps, (2, 1, 1)), tol,
                                    max_power)
                assert _window_of(row, i) == _window_of(alone, 0), (f, caps)

    def test_peak_memory_of_a_wide_window(self):
        # One window of 280,035 terms at lam = 1e8. A one-window pass takes
        # its rate and caps as single values: 21.6 MiB here, against 25.9
        # MiB with per-element rate and cap arrays and about 30 MiB with
        # all four at once.
        f = CappedFunctional(1e8, 2.0, 4.0)
        tracemalloc.start()
        try:
            list(moments_many([f], DEFAULT_TOL, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20
