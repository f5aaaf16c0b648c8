"""Core moment engine: pmf, certified sums, variance oracles, sampling."""

import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poissonlab.inequality_lab import default_grid
from poissonlab.poisson_core import (
    DEFAULT_TOL,
    MAX_TERMS,
    CappedFunctional,
    ORACLE_POINTS,
    TruncationError,
    _LOG_FACTORIAL,
    _MC_CHUNK,
    _certified_windows,
    _draw_counts,
    _log_factorial_series,
    _pmf_window,
    expectation,
    fourth_central_moment,
    functional_value,
    moments,
    moments_many,
    monte_carlo_moments,
    thread_map,
    variance,
    variance_pairwise,
)


def log_pmf(lam: float, x: int) -> float:
    """Scalar reference: log of the Poisson pmf via log-gamma.

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


# Frozen reference values, computed independently with 40-digit arithmetic
# (mpmath) by direct summation over a very wide window.
EXPECTATION_ORACLE = {
    (10.0, 3.0, 7.0): 45.351376662859243,
    (0.5, 2.0, 2.0): 0.014387677966970687,
    (100.0, 10.0, 50.0): 2236.0679772603437,
    (2.0, 0.5, 4.0): 0.91449719453797162,
}
VARIANCE_ORACLE = {
    (10.0, 3.0, 7.0): 236.4133468352628,
    (0.5, 2.0, 2.0): 0.11877236108770998,
    (100.0, 10.0, 50.0): 50000.000570997985,
    (2.0, 0.5, 4.0): 5.2089424187712208,
}
PLAIN_EXPECTATION_ORACLE = {
    0.5: 0.0071938389834853433,
    4.0: 3.0475867777858226,
    10.0: 9.9723060428448842,
}


class TestLogPmf:
    def test_matches_closed_form_small(self):
        for lam in (0.3, 1.0, 5.0, 20.0):
            for x in range(0, 40):
                direct = lam**x * math.exp(-lam) / math.factorial(x)
                assert pmf(lam, x) == pytest.approx(direct, rel=1e-12)

    def test_matches_mpmath_large(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        for lam, x in [(1e4, 10000), (1e4, 9500), (5000.0, 5200), (1e4, 10450)]:
            ref = float(
                mp.e ** (x * mp.log(lam) - lam - mp.loggamma(x + 1))
            )
            # log-space evaluation cancels O(lam log lam) magnitudes, so the
            # achievable relative accuracy degrades with lam
            assert pmf(lam, x) == pytest.approx(ref, rel=1e-10)

    def test_degenerate_rate(self):
        assert log_pmf(0.0, 0) == 0.0
        assert log_pmf(0.0, 3) == -math.inf

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            log_pmf(-1.0, 0)
        with pytest.raises(ValueError):
            log_pmf(1.0, -1)


class TestFunctionalValue:
    def test_below_threshold_is_zero(self):
        f = CappedFunctional(5.0, 2.0, 2.0)
        for x in range(0, 4):
            assert functional_value(x, f) == 0.0

    def test_at_threshold(self):
        # x=4, caps 2 and 2: 4 * sqrt(2*2) = 8
        f = CappedFunctional(5.0, 2.0, 2.0)
        assert functional_value(4, f) == pytest.approx(8.0)

    def test_uncapped_region(self):
        # x=5 below both caps: 5 * sqrt(4*9) ... min(5,4)=4, min(5,9)=5
        f = CappedFunctional(5.0, 4.0, 9.0)
        assert functional_value(5, f) == pytest.approx(5.0 * math.sqrt(20.0))

    def test_vectorized_matches_scalar(self):
        f = CappedFunctional(5.0, 3.0, 7.0)
        xs = np.arange(0, 30)
        vec = functional_value(xs, f)
        for x in xs:
            assert vec[x] == functional_value(int(x), f)

    def test_cap_swap_is_transparent(self):
        # constructor normalizes to cap_a <= cap_b; values are symmetric
        f1 = CappedFunctional(5.0, 7.0, 3.0)
        f2 = CappedFunctional(5.0, 3.0, 7.0)
        assert f1.cap_a == 3.0 and f1.cap_b == 7.0
        for x in range(0, 20):
            assert functional_value(x, f1) == functional_value(x, f2)


class TestExpectation:
    @pytest.mark.parametrize("point", sorted(EXPECTATION_ORACLE))
    def test_frozen_oracle(self, point):
        lam, a, b = point
        est = expectation(CappedFunctional(lam, a, b))
        assert est.value == pytest.approx(EXPECTATION_ORACLE[point], abs=1e-9)
        assert abs(est.value - EXPECTATION_ORACLE[point]) <= est.tail_bound

    def test_zero_rate(self):
        est = expectation(CappedFunctional(0.0, 2.0, 2.0))
        assert est.value == 0.0

    def test_zero_cap(self):
        est = expectation(CappedFunctional(10.0, 0.0, 5.0))
        assert est.value == 0.0

    def test_closed_form_complement_squared(self):
        # With both caps at +inf the functional is x^2 * 1(x >= 4);
        # E[X^2] = lam + lam^2, so subtract the four head terms.
        lam = 10.0
        head = sum(x * x * pmf(lam, x) for x in range(4))
        est = expectation(CappedFunctional(lam, math.inf, math.inf))
        assert est.value == pytest.approx(lam + lam * lam - head, rel=1e-12)

    def test_tail_bound_is_small(self):
        est = expectation(CappedFunctional(50.0, 10.0, 10.0), tol=1e-10)
        assert est.tail_bound < 1e-6

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            expectation(CappedFunctional(5.0, 2.0, 2.0), tol=0.0)


class TestVariance:
    @pytest.mark.parametrize("point", sorted(VARIANCE_ORACLE))
    def test_frozen_oracle(self, point):
        lam, a, b = point
        est = variance(CappedFunctional(lam, a, b))
        assert est.value == pytest.approx(VARIANCE_ORACLE[point], rel=1e-8)

    def test_clt_regime(self):
        # For lam far above both caps, Var ~ lam * a * b and E ~ lam*sqrt(ab)
        f = CappedFunctional(1e4, 100.0, 100.0)
        var = variance(f).value
        mean = expectation(f).value
        assert var == pytest.approx(1e8, rel=0.05)
        assert mean == pytest.approx(1e6, rel=0.01)

    def test_pairwise_triangle(self):
        for lam, a, b in ORACLE_POINTS:
            f = CappedFunctional(lam, a, b)
            direct = variance(f)
            pair = variance_pairwise(f)
            gap = abs(direct.value - pair.value)
            assert gap <= direct.tail_bound + pair.tail_bound, (lam, a, b)

    def test_nonnegative(self):
        for lam, a, b in ORACLE_POINTS:
            assert variance(CappedFunctional(lam, a, b)).value >= 0.0


class TestPlainIndicator:
    # Caps of 1 make the sqrt factor identically 1 on x >= threshold, which
    # reduces the capped functional to X * 1(X >= 4).
    @staticmethod
    def plain(lam):
        m = moments(CappedFunctional(lam, 1.0, 1.0), order=2)
        return m.mean, m.variance

    @pytest.mark.parametrize("lam", sorted(PLAIN_EXPECTATION_ORACLE))
    def test_frozen_oracle(self, lam):
        est, _var = self.plain(lam)
        assert est.value == pytest.approx(PLAIN_EXPECTATION_ORACLE[lam], rel=1e-11)

    def test_complement_identity(self):
        # E[X 1(X>=4)] = lam - sum_{x<4} x p(x)
        lam = 7.0
        head = sum(x * pmf(lam, x) for x in range(4))
        est, _ = self.plain(lam)
        assert est.value == pytest.approx(lam - head, rel=1e-12)

    def test_variance_positive(self):
        _, var = self.plain(3.0)
        assert var.value > 0.0


class TestFourthCentralMoment:
    def test_gaussian_limit(self):
        # At large lam the functional is approximately Gaussian, so the
        # kurtosis ratio mu4 / var^2 approaches 3.
        f = CappedFunctional(2000.0, 10.0, 10.0)
        mu4 = fourth_central_moment(f).value
        var = variance(f).value
        assert mu4 / var**2 == pytest.approx(3.0, rel=0.05)

    def test_exceeds_squared_variance(self):
        for lam, a, b in [(2.0, 2.0, 2.0), (10.0, 3.0, 7.0), (50.0, 8.0, 8.0)]:
            f = CappedFunctional(lam, a, b)
            assert fourth_central_moment(f).value >= variance(f).value ** 2 * (1 - 1e-9)


class TestTwoSidedWindow:
    @settings(max_examples=40, deadline=None)
    @given(
        lam=st.floats(0.0, 1e5),
        a=st.floats(0.5, 1e3),
        b=st.floats(0.5, 1e3),
        order=st.sampled_from((1, 2, 4)),
    )
    def test_matches_wide_window(self, lam, a, b, order):
        # Reference: fsum of the same terms over [t, >= 3 lam], far wider
        # than the mass. Both sums are correctly rounded, so they differ by
        # at most the dropped tails and two ulps.
        f = CappedFunctional(lam, a, b)
        (w,) = _certified_windows([f], f.threshold, DEFAULT_TOL, order,
                                  MAX_TERMS)
        sums, trunc = w.sums, w.trunc
        hi = max(3.0 * lam, f.cap_b + 16, lam + 12.0 * math.sqrt(lam + 1.0))
        if lam > 0.0:
            x, p = _pmf_window(lam, f.threshold, math.ceil(hi) + 48)
            fv = functional_value(x, f)
        else:
            fv = p = np.zeros(1)
        fpow = np.ones_like(fv)
        for k in range(1, order + 1):
            fpow = fpow * fv
            ref = math.fsum(fpow * p)
            assert abs(sums[k] - ref) <= trunc[k] + 2.0 * math.ulp(ref), k

    @pytest.mark.parametrize("lam", [1e4, 1e6])
    @pytest.mark.parametrize("caps", [(2.0, 4.0), (0.5, 1e3), (64.0, 64.0)])
    def test_terms_grow_like_sqrt_lambda(self, lam, caps):
        for order in (1, 2, 4):
            f = CappedFunctional(lam, *caps)
            (w,) = _certified_windows([f], f.threshold, DEFAULT_TOL, order,
                                      MAX_TERMS)
            assert w.terms <= 30.0 * math.sqrt(lam + 1.0) + 64.0, order

    def test_terms_used_counts_the_window(self):
        # At lam = 1 the window is [threshold, 48]: nothing is dropped on
        # the left, and the right end is the floor of 48.
        assert moments(CappedFunctional(1.0, 2.0, 2.0)).mean.terms_used == 45

    def test_cancelled_variance_rejected(self):
        # lam = 100 * 2048^2 on the falsify schedule: the window fits the
        # budget and the mean is certified, but E[f^2] - E[f]^2 is roundoff.
        f = CappedFunctional(419430400.0, 2048.0, 2048.0)
        mean = moments(f, order=1).mean
        assert mean.tail_bound <= mean.value
        with pytest.raises(TruncationError, match="exceeds the variance"):
            moments(f, order=2)

    def test_one_variance_route(self, monkeypatch):
        # moments takes its variance from its own sums only: on the falsify
        # schedule (a = b = k, lam = 100 k^2) and at the default lemma1
        # grid's corners it returns or raises TruncationError, and never
        # enters the pairwise oracle.
        calls = []

        def oracle(*args, **kwargs):
            calls.append(args)
            raise AssertionError("moments entered variance_pairwise")

        monkeypatch.setattr("poissonlab.poisson_core.variance_pairwise", oracle)
        grid = default_grid("lemma1")
        points = [(100.0 * k * k, k, k) for k in (2.0**j for j in range(2, 12))]
        c0, c1 = grid.cap_pairs[0][0], grid.cap_pairs[-1][1]
        for lam in (grid.lambda_points[0], grid.lambda_points[-1]):
            points += [(lam, c0, c0), (lam, c0, c1), (lam, c1, c1)]
        for point in points:
            try:
                moments(CappedFunctional(*point), order=2)
            except TruncationError:
                pass
        assert calls == []


class TestMonteCarlo:
    def test_deterministic(self):
        f = CappedFunctional(10.0, 3.0, 7.0)
        r1 = monte_carlo_moments(f, 10_000, seed=42)
        r2 = monte_carlo_moments(f, 10_000, seed=42)
        assert r1.mean == r2.mean and r1.variance == r2.variance

    def test_seed_changes_stream(self):
        f = CappedFunctional(10.0, 3.0, 7.0)
        assert (
            monte_carlo_moments(f, 10_000, seed=1).mean
            != monte_carlo_moments(f, 10_000, seed=2).mean
        )

    def test_agrees_with_exact(self):
        f = CappedFunctional(10.0, 3.0, 7.0)
        draws = 200_000
        mc = monte_carlo_moments(f, draws, seed=7)
        exact_mean = expectation(f).value
        exact_var = variance(f).value
        mu4 = fourth_central_moment(f).value
        se_mean = math.sqrt(exact_var / draws)
        se_var = math.sqrt((mu4 - exact_var**2) / draws)
        assert abs(mc.mean - exact_mean) <= 4 * se_mean
        assert abs(mc.variance - exact_var) <= 4 * se_var

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            monte_carlo_moments(CappedFunctional(1.0, 1.0, 1.0), 1, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.floats(0.0, 1e4),
        a=st.sampled_from((0.25, 1.0, 2.0, 7.5, 64.0, 1e6)),
        b=st.sampled_from((0.5, 4.0, 36.0, 1e6)),
        draws=st.integers(2, 10**4),
        seed=st.integers(0, 2**32),
    )
    def test_histogram_matches_per_draw(self, lam, a, b, draws, seed):
        # Reference: f on every draw of the same stream, numpy's mean and
        # ddof=1 variance.
        f = CappedFunctional(lam, a, b)
        mc = monte_carlo_moments(f, draws, seed)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        vals = functional_value(rng.poisson(lam, size=draws), f)
        assert mc.mean == pytest.approx(vals.mean(), rel=1e-14, abs=0.0)
        assert mc.variance == pytest.approx(vals.var(ddof=1), rel=1e-14, abs=0.0)

    def test_histogram_not_rate_sized(self):
        # 10^4 draws at lambda = 1e12 spread over ~1e7 values; counting them
        # in a bincount over that span would take ~60 MiB.
        f = CappedFunctional(1e12, 2.0, 4.0)
        tracemalloc.start()
        try:
            mc = monte_carlo_moments(f, 10**4, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert mc.mean == pytest.approx(math.sqrt(8.0) * 1e12, rel=1e-4)


def one_draw_counts(lam, draws, seed):
    """Reference: one rng.poisson call for all draws, counted by np.unique."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return np.unique(rng.poisson(lam, size=draws), return_counts=True)


def one_draw_moments(f, draws, seed):
    """monte_carlo_moments' fsum formulas on one_draw_counts."""
    seen, counts = one_draw_counts(f.lam, draws, seed)
    vals = functional_value(seen, f)
    mean = math.fsum(counts * vals) / draws
    var = math.fsum(counts * (vals - mean) ** 2) / (draws - 1)
    return mean.hex(), var.hex()


class TestChunkedDraws:
    # Counting the draws chunk by chunk must give the one-call histogram,
    # so the mean and variance keep their bits.
    @pytest.mark.parametrize("draws", (_MC_CHUNK - 1, _MC_CHUNK + 1,
                                       3 * _MC_CHUNK + 5))
    @pytest.mark.parametrize("lam", (0.01, 10.0, 1e4))
    def test_same_bits_as_one_draw(self, lam, draws):
        seen, counts = _draw_counts(
            np.random.default_rng(np.random.SeedSequence(5)), lam, draws)
        ref_seen, ref_counts = one_draw_counts(lam, draws, 5)
        assert np.array_equal(seen, ref_seen)
        assert np.array_equal(counts, ref_counts)
        f = CappedFunctional(lam, 2.0, 36.0)
        mc = monte_carlo_moments(f, draws, 5)
        assert (mc.mean.hex(), mc.variance.hex()) == one_draw_moments(f, draws, 5)

    def test_span_past_the_draws(self):
        # At lambda = 1e15 the draws spread over ~2.7e8 values: a bincount
        # over that span would take ~2 GiB, the sorted merge O(draws).
        f, draws = CappedFunctional(1e15, 2.0, 4.0), _MC_CHUNK + 1
        tracemalloc.start()
        try:
            mc = monte_carlo_moments(f, draws, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8 * draws
        assert (mc.mean.hex(), mc.variance.hex()) == one_draw_moments(f, draws, 3)

    def test_switch_from_bincount_to_sorted_merge(self):
        # Seed 1 at lambda = 4.8e8: the first chunk spans fewer values than
        # there are draws, all of them span more, so the running bincount
        # turns into sorted counts part way.
        lam, draws = 4.8e8, 3 * _MC_CHUNK + 5
        ref_seen, ref_counts = one_draw_counts(lam, draws, 1)
        rng = np.random.default_rng(np.random.SeedSequence(1))
        first = rng.poisson(lam, size=_MC_CHUNK)
        assert first.max() - first.min() < draws <= ref_seen[-1] - ref_seen[0]
        seen, counts = _draw_counts(
            np.random.default_rng(np.random.SeedSequence(1)), lam, draws)
        assert np.array_equal(seen, ref_seen)
        assert np.array_equal(counts, ref_counts)


class TestThreadMap:
    @pytest.fixture
    def started(self, monkeypatch):
        # Counts the threads thread_map starts.
        count = []

        class Counted(threading.Thread):
            def start(self):
                count.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Counted)
        return count

    @pytest.mark.parametrize("threads", (1, 2, 3, 8))
    def test_results_in_item_order(self, threads):
        assert thread_map(lambda x: x * x, range(20), threads) == [
            x * x for x in range(20)]

    @pytest.mark.parametrize("threads, items, workers",
                             ((1, 5, 0), (2, 5, 1), (8, 2, 1), (8, 1, 0),
                              (3, 0, 0)))
    def test_never_more_threads_than_items(self, started, threads, items,
                                           workers):
        # The caller is one of the threads.
        thread_map(str, range(items), threads)
        assert len(started) == workers

    @pytest.mark.parametrize("threads", (1, 2, 3))
    def test_first_error_in_item_order_reaches_the_caller(self, threads):
        # Item 3 fails late and item 5 at once; item 3's error comes back.
        def fn(i):
            if i == 3:
                time.sleep(0.05)
                raise KeyError(i)
            if i == 5:
                raise ValueError(i)
            return i

        with pytest.raises(KeyError):
            thread_map(fn, range(8), threads)

    def test_each_item_once_under_fast_switching(self):
        # More threads than cores and a thread switch every microsecond: a
        # lost update of the shared item order would run an item twice or
        # skip one.
        ran = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.perf_counter()
            out = thread_map(lambda i: ran.append(i) or -i, range(5000), 8)
            assert time.perf_counter() - start < 10.0
        finally:
            sys.setswitchinterval(interval)
        assert out == [-i for i in range(5000)]
        assert sorted(ran) == list(range(5000))

    def test_no_item_starts_after_an_error(self):
        ran = []

        def fn(i):
            ran.append(i)
            if i == 0:
                raise ValueError(i)

        with pytest.raises(ValueError):
            thread_map(fn, range(100), 1)
        assert ran == [0]


@pytest.mark.parametrize("call", (
    lambda tol: list(moments_many([CappedFunctional(1.0, 2.0, 2.0)], tol)),
    lambda tol: variance_pairwise(CappedFunctional(1.0, 2.0, 2.0), tol),
), ids=("moments_many", "variance_pairwise"))
def test_nan_tolerance_raises_at_once(call):
    # A NaN passes `tol <= 0`; no tail test then holds, and every window
    # widened to the 10^7-term budget (~3.8 s) before failing.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="tolerance must be positive"):
        call(math.nan)
    assert time.perf_counter() - start < 0.5


class TestInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        lam=st.floats(0.01, 500.0),
        a=st.floats(0.1, 64.0),
        b=st.floats(0.1, 64.0),
    )
    def test_expectation_monotone_in_caps(self, lam, a, b):
        small = expectation(CappedFunctional(lam, a, b)).value
        large = expectation(CappedFunctional(lam, 2 * a, 2 * b)).value
        assert large >= small - 1e-9 * max(1.0, large)

    @settings(max_examples=25, deadline=None)
    @given(lam=st.floats(0.01, 500.0))
    def test_mass_identity(self, lam):
        # With unit caps, f(x) = x for x >= 4, so adding back the four head
        # terms must recover E[X] = lam to within the certified bound.
        est = moments(CappedFunctional(lam, 1.0, 1.0), order=2).mean
        head = sum(x * pmf(lam, x) for x in range(4))
        assert est.value + head == pytest.approx(lam, rel=1e-9, abs=1e-11)

    @settings(max_examples=25, deadline=None)
    @given(
        lam=st.floats(0.01, 200.0),
        a=st.floats(0.1, 32.0),
        b=st.one_of(st.floats(0.1, 32.0), st.just(math.inf)),
        tol=st.sampled_from((1e-10, 1e-30)),
    )
    def test_variance_oracles_agree(self, lam, a, b, tol):
        # At tol 1e-30 the shared window widens past its first width, also
        # under the oracle's floor 0.
        f = CappedFunctional(lam, a, b)
        direct = variance(f, tol)
        pair = variance_pairwise(f, tol)
        assert abs(direct.value - pair.value) <= direct.tail_bound + pair.tail_bound


class TestLogFactorial:
    # The window's log k! against SciPy's gammaln(k + 1), a test-only
    # reference; both run Cephes' Stirling series from k = 12 on.

    @staticmethod
    def assert_within_one_ulp(got, k):
        special = pytest.importorskip("scipy.special")
        ref = special.gammaln(k + 1.0)
        gap = np.abs(got - ref)
        assert np.all(gap <= np.spacing(np.abs(ref))), k[np.argmax(gap)]

    def test_table_matches_gammaln(self):
        k = np.arange(2**14, dtype=np.float64)
        self.assert_within_one_ulp(_LOG_FACTORIAL, k)

    def test_series_matches_gammaln_up_to_1e12(self):
        k = np.unique(np.floor(np.geomspace(12.0, 1e12, 4000)))
        # At 9169, 102326 and 351496 np.log's vector path rounds log(k + 1)
        # away from the C library's log.
        k = np.concatenate([k, [9169.0, 102326.0, 351496.0]])
        self.assert_within_one_ulp(_log_factorial_series(k), k)

    def test_small_counts_are_exact(self):
        for k in range(12):
            assert _LOG_FACTORIAL[k] == math.log(math.factorial(k))

    def test_window_straddling_the_table(self):
        # The top index past 2^14 takes the series path; below 2^14 it
        # must give the table's values.
        lam, top = 16000.0, 2**14
        x, p = _pmf_window(lam, top - 40, top + 40)
        _, p_table = _pmf_window(lam, top - 40, top - 1)
        assert x[40] == top
        assert np.array_equal(p[:40], p_table)

    def test_series_window_starting_below_twelve(self):
        # A series-path window that starts at k = 4 still takes log k! for
        # k < 12 from the exact values.
        lam = 5.0
        _, p = _pmf_window(lam, 4, 2**14 + 8)
        _, p_table = _pmf_window(lam, 4, 200)
        assert np.array_equal(p[:197], p_table)
        for k in range(4, 12):
            exact = math.exp(k * math.log(lam) - lam - math.log(math.factorial(k)))
            assert p[k - 4] == exact


def test_pairwise_chunks_sized_by_bytes():
    # At lam = 1e4 the window is ~2400 terms; 1024-row chunks made each
    # temporary ~20 MB, byte-sized ones keep it at 1 MiB.
    f = CappedFunctional(1e4, 100.0, 100.0)
    tracemalloc.start()
    try:
        variance_pairwise(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_pairwise_on_the_engine_window():
    # At lambda = 1e5 the engine's window is ~8,900 terms, so the O(W^2)
    # sum takes well under a second. For lambda >> caps 2, 4 the variance
    # is 8 lambda up to a tail far below the certified bound.
    lam = 1e5
    start = time.perf_counter()
    pw = variance_pairwise(CappedFunctional(lam, 2.0, 4.0))
    assert time.perf_counter() - start < 2.0
    assert abs(pw.value - 8.0 * lam) <= pw.tail_bound


def test_pairwise_budget_on_the_width():
    # lambda = 1e8 needs ~280,000 terms, past the pair budget: it raises
    # before anything is allocated.
    start = time.perf_counter()
    with pytest.raises(TruncationError, match="exceeds the 32768-term"):
        variance_pairwise(CappedFunctional(1e8, 2.0, 4.0))
    assert time.perf_counter() - start < 1.0


def test_truncation_error_carries_diagnostics():
    err = TruncationError("no convergence", best_bound=0.5, terms_used=99)
    assert err.best_bound == 0.5
    assert err.terms_used == 99


def test_truncation_raised_for_huge_rate():
    # the window for lam this large exceeds the term budget
    with pytest.raises(TruncationError):
        expectation(CappedFunctional(1e15, 2.0, 2.0))
