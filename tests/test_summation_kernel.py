"""The summation kernel: exact segment sums and batched moments."""

import math
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
    _pmf_window,
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
    st.lists(_DOUBLES, max_size=12),
    st.lists(_SUBNORMALS, min_size=1, max_size=12),
    st.lists(_SPREAD, min_size=1, max_size=12),
    st.lists(st.just(0.0), min_size=1, max_size=3),
    st.lists(st.one_of(_DOUBLES, st.just(0.0), _SUBNORMALS), max_size=12),
    _tie(),
    _DOUBLES.map(lambda v: [v]),
)


def _hex(values):
    return [v.hex() for v in values]


def _flat(segments):
    values = np.array([v for s in segments for v in s], dtype=np.float64)
    starts = np.cumsum([0] + [len(s) for s in segments[:-1]])
    return values, starts


class TestExactSums:
    @settings(max_examples=300, deadline=None)
    @given(segments=st.lists(_SEGMENT, min_size=1, max_size=6),
           budget=st.sampled_from((None, 1, 3, 7)))
    def test_bits_of_fsum(self, segments, budget):
        # budget: values binned at a time; a small one makes segments span
        # several blocks, as a window longer than the default would.
        values, starts = _flat(segments)
        size = budget or poisson_core._EXACT_ELEMENTS
        with mock.patch.object(poisson_core, "_EXACT_ELEMENTS", size):
            got = _exact_sums(values, starts)
        assert _hex(got) == _hex([math.fsum(s) for s in segments])

    def test_ties_round_half_to_even(self):
        even, odd = 1.0, 1.0 + 2.0**-52
        segments = [[even, 2.0**-53], [odd, 2.0**-53],
                    [even, 2.0**-53, 2.0**-300], [2.0**-53, even]]
        got = _exact_sums(*_flat(segments))
        assert got == [1.0, 1.0 + 2.0**-51, 1.0 + 2.0**-52, 1.0]
        assert _hex(got) == _hex([math.fsum(s) for s in segments])

    def test_long_segment_in_blocks(self):
        rng = np.random.default_rng(5)
        values = rng.random(1000) * 10.0 ** rng.integers(-300, 300, 1000)
        starts = [0, 1, 999]
        with mock.patch.object(poisson_core, "_EXACT_ELEMENTS", 64):
            got = _exact_sums(values, starts)
        want = [math.fsum(values[:1]), math.fsum(values[1:999]),
                math.fsum(values[999:])]
        assert _hex(got) == _hex(want)

    def test_other_values_take_fsum(self):
        segments = [[1.0, math.inf], [-1.0, 3.0], [2.0, 0.5], [-0.0]]
        got = _exact_sums(*_flat(segments))
        assert _hex(got) == _hex([math.fsum(s) for s in segments])
        nan = _exact_sums(np.array([0.5, math.nan, 1.0]), [0, 1])
        assert nan[0] == 0.5 and math.isnan(nan[1])

    def test_overflow_raises_like_fsum(self):
        big = [1.7e308, 1.7e308]
        with pytest.raises(OverflowError):
            math.fsum(big)
        with pytest.raises(OverflowError):
            _exact_sums(np.array(big), [0])

    def test_empty_and_zero_segments(self):
        assert _hex(_exact_sums(np.zeros(3), [0, 0, 2, 3])) == _hex([0.0] * 4)


def _reference(f, tol, order):
    """(moments(f) or its error, the tails of f's window): the window of a
    one-functional _certified_windows call, re-summed with math.fsum."""
    (w,) = _certified_windows([f], f.threshold, tol, order, MAX_TERMS)
    if isinstance(w, TruncationError):
        return w, {}
    sums = dict.fromkeys(w.sums, 0.0)
    if w.terms:
        x, p = _pmf_window(f.lam, w.lo, w.hi)
        fv = functional_value(x, f)
        fpow = np.ones_like(fv)
        for k in sums:
            fpow = fpow * fv
            sums[k] = math.fsum(fpow * p)
    try:
        return poisson_core._moments(f, sums, w.trunc, w.terms, order), w.trunc
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
            assert all(t <= tol / 8 for t in tails.values()), f
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
        first = [_first_window(f, f.threshold, 10**13) for f in _MIXED[5:]]
        assert sum(hi + 2 - lo for lo, hi in first) > poisson_core._BATCH_ELEMENTS
        got = list(moments_many(_MIXED, DEFAULT_TOL, 4))
        lo, hi = _first_window(_MIXED[2], 4, MAX_TERMS)
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
