"""The summation kernel: exact segment sums and batched moments."""

import math
import tracemalloc
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
    _certified_windows,
    _exact_sums,
    _first_window,
    _pmf,
    _window_pass,
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
    one-functional _certified_windows call, its terms built with scalar
    rate and caps and re-summed with math.fsum."""
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
        return poisson_core._moments(f, w, order), w.trunc
    except TruncationError as exc:
        return exc, w.trunc


# lam = 0 and a zero cap; an uncapped functional that widens at order 4; a
# variance that fails its guard; a window past MAX_TERMS; then rates whose
# first windows fill more than one batch.
_MIXED = (
    CappedFunctional(0.0, 2.0, 4.0),
    CappedFunctional(3.0, 0.0, 4.0),
    CappedFunctional(1e4, math.inf, math.inf),
    CappedFunctional(5e6, 2.0, 4.0),
    CappedFunctional(1e13, 2.0, 4.0),
    *(CappedFunctional(lam, 2.0, 16.0)
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
        bad = CappedFunctional(419430400.0, 2048.0, 2048.0)
        spy = mock.patch.object(poisson_core, "_window_pass",
                                wraps=poisson_core._window_pass)
        with spy as passes:
            first = next(moments_many([bad] * 3, DEFAULT_TOL, 2))
        assert "exceeds the variance" in str(first)
        assert passes.call_count == 1

    def test_failure_stays_with_its_functional(self):
        good = CappedFunctional(10.0, 2.0, 4.0)
        bad = CappedFunctional(5e6, 2.0, 4.0)
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


def _queue_driver(fs, tol, max_power, max_terms):
    """The window driver as it was before its one list of entries: a
    result map, a pending queue that widened windows rejoin at its front
    and a yield counter. It reads _BATCH_ELEMENTS, _first_window and
    _window_pass from poisson_core at each call, so a patch or spy there
    acts on it as on _certified_windows."""
    known = {}  # index -> result, until it is yielded

    def queued(i, lo, hi):
        # [(i, lo, hi, elements)] within the budget, else [] with the error
        # in known[i].
        size = hi + 2 - (lo - (lo > 0))
        if size <= max_terms:
            return [(i, lo, hi, size)]
        known[i] = TruncationError(
            f"summation window of {size} terms exceeds the "
            f"{max_terms}-term budget"
        )
        return []

    pending = []
    for i, f in enumerate(fs):
        if f.lam == 0.0 or f.cap_a == 0.0:
            zero = (0.0,) * max_power
            known[i] = poisson_core._Window(0, -1, zero, zero, 0.0)
            continue
        try:
            pending += queued(i, *poisson_core._first_window(f, max_terms))
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
            if chunk and used + item[3] > poisson_core._BATCH_ELEMENTS:
                break
            chunk.append(item)
            used += item[3]
        del pending[: len(chunk)]
        idx, lo, hi, _ = zip(*chunk)
        passed = poisson_core._window_pass([fs[i] for i in idx], lo, hi, tol,
                                           max_power)
        widened = []
        for i, (w, left_ok, right_ok) in zip(idx, passed):
            if left_ok and right_ok:
                known[i] = w
                continue
            lo, hi, lam = w.lo, w.hi, fs[i].lam
            if not left_ok:
                lo = max(0, lo - max(16, math.ceil(lam - lo)))
            if not right_ok:
                hi += max(16, math.ceil(hi - lam))
            widened += queued(i, lo, hi)
        pending[:0] = widened


def _driven(driver, fs, tol, max_power, max_terms):
    """(the _window_pass calls, the results) of one driver run: each call
    as its rates, caps, lo, hi, tol and power; each result as a _Window's
    fields or an error's type and message."""
    calls, window_pass = [], poisson_core._window_pass

    def spy(fs, lo, hi, tol, power):
        calls.append(([(f.lam, f.cap_a, f.cap_b) for f in fs], list(lo),
                      list(hi), tol, power))
        return window_pass(fs, lo, hi, tol, power)

    with mock.patch.object(poisson_core, "_window_pass", spy):
        results = [tuple(r) if isinstance(r, tuple) else (type(r), str(r))
                   for r in driver(fs, tol, max_power, max_terms)]
    return calls, results


_DRIVER_FUNCTIONALS = st.builds(
    lambda lam, caps: CappedFunctional(lam, *caps),
    st.sampled_from((0.0, 0.01, 0.5, 3.0, 40.0, 200.0, 1e4, 1e13)),
    st.sampled_from(((0.0, 1.0), (0.5, 4.0), (2.0, 8.0), (64.0, 64.0),
                     (math.inf, math.inf))),
)


@settings(max_examples=100, deadline=None)
@given(fs=st.lists(_DRIVER_FUNCTIONALS, min_size=1, max_size=12),
       tol=st.sampled_from((1e-10, 1e-300)),
       max_power=st.sampled_from((1, 2, 4)),
       max_terms=st.sampled_from((400, 10**7)))
def test_driver_makes_the_queue_drivers_passes(fs, tol, max_power, max_terms):
    # Batches of 512 elements take several passes, a window at lam = 1e4
    # one of its own, and at tol 1e-300 widened windows share passes with
    # windows not yet summed.
    with mock.patch.object(poisson_core, "_BATCH_ELEMENTS", 512):
        got = _driven(_certified_windows, fs, tol, max_power, max_terms)
        want = _driven(_queue_driver, fs, tol, max_power, max_terms)
    assert got == want


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
        # window fails its tail tests.
        fs = [f for f in _MIXED if 0.0 < f.lam < 1e13]
        lo, hi = zip(*(_first_window(f, MAX_TERMS) for f in fs))
        assert lo[0] == 0 < lo[-1]
        together = _window_pass(fs, lo, hi, tol, max_power)
        for i, f in enumerate(fs):
            alone = _window_pass([f], lo[i : i + 1], hi[i : i + 1], tol,
                                 max_power)
            assert _window_of(together, i) == _window_of(alone, 0), f

    def test_peak_memory_of_a_wide_window(self):
        # One window of 280,035 terms at lam = 1e8. The pass builds the
        # pmf's per-element rate arrays and then the functional's caps, one
        # pair at a time: all four at once peak at about 30 MiB.
        f = CappedFunctional(1e8, 2.0, 4.0)
        tracemalloc.start()
        try:
            list(moments_many([f], DEFAULT_TOL, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 28 * 2**20
