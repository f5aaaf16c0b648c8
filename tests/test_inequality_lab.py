"""Ratio certification, witness search, and the closed-form rate function."""

import math

import pytest

from poissonlab import cli, inequality_lab, poisson_core
from poissonlab.inequality_lab import (
    GridSpec,
    SkippedPoint,
    _golden_section,
    _ratio,
    _ratios,
    correction_factor,
    corrected_ratio,
    default_grid,
    find_counterexample,
    h_function,
    h_infimum,
    indicator_ratio,
    original_ratio,
    plateau_check,
    sweep,
)
from poissonlab.poisson_core import DEFAULT_TOL


def mean_lower_ratio(lam, a, b):
    """E[f(X)] / min(lam*sqrt(min(lam,a)*min(lam,b)), lam^4), integer caps >= 2."""
    return _ratio("claim23", lam, a, b, DEFAULT_TOL)[0]


# Frozen values produced by the engine and cross-checked against the
# asymptotic forms Var ~ lam*a*b, E ~ lam*sqrt(ab) for lam >> b.
CLT_POINTS = {
    # (lam, a, b): (corrected, original); corrected -> sqrt(ab)*... / factor,
    # original -> sqrt(a*b) in the limit
    (1e4, 100.0, 100.0): (0.01, 100.0),
    (1e4, 25.0, 25.0): (25.0 / 625.0, 25.0),
}


class TestCorrectionFactor:
    def test_large_caps(self):
        assert correction_factor(100.0, 100.0) == 10_000.0

    def test_small_caps(self):
        # a*b = 1/16 and sqrt(a)*b = 1/8 lose to sqrt(ab) = 1/4 below 1
        assert correction_factor(0.25, 0.25) == 0.25

    def test_mixed(self):
        assert correction_factor(0.25, 4.0) == max(1.0, 2.0, 1.0)


class TestRatios:
    @pytest.mark.parametrize("point", sorted(CLT_POINTS))
    def test_clt_limit(self, point):
        lam, a, b = point
        want_corr, want_orig = CLT_POINTS[point]
        corr, _num, _den = corrected_ratio(lam, a, b)
        assert corr == pytest.approx(want_corr, rel=1e-4)
        assert original_ratio(lam, a, b) == pytest.approx(want_orig, rel=1e-4)

    def test_corrected_is_original_over_factor(self):
        lam, a, b = 7.0, 3.0, 5.0
        corr, _, _ = corrected_ratio(lam, a, b)
        assert corr == pytest.approx(
            original_ratio(lam, a, b) / correction_factor(a, b), rel=1e-12
        )

    def test_unit_caps_reduce_to_indicator(self):
        # caps a=b=2 at lam=2: f differs from the plain x-indicator only
        # through the constant sqrt(4)=2, which cancels as ratio/2
        corr, _, _ = corrected_ratio(2.0, 2.0, 2.0)
        assert corr == pytest.approx(indicator_ratio(2.0) / 2.0, rel=1e-12)


class TestIndicatorRatio:
    def test_moderate_rate(self):
        # indicator negligible: Var/E -> 1
        assert indicator_ratio(100.0) == pytest.approx(1.0, abs=1e-9)

    def test_rare_event_limit(self):
        # as lam -> 0 the mass concentrates at x=4: Var/E -> 4
        assert indicator_ratio(1e-6) == pytest.approx(4.0, rel=1e-5)


class TestMeanLowerRatio:
    def test_positive_at_small_rate(self):
        assert mean_lower_ratio(0.1, 2, 2) > 0.0

    def test_exact_regime(self):
        assert mean_lower_ratio(100.0, 2, 2) == pytest.approx(1.0, rel=1e-10)

    def test_uncapped_regime(self):
        # lam << caps: lower bound min(lam*sqrt(lam^2), lam^4) = lam^2...
        # at lam=100 with caps 10^6 the bound is lam^2 vs E ~ lam^2 + lam
        assert mean_lower_ratio(100.0, 10**6, 10**6) == pytest.approx(1.01, rel=1e-6)

    def test_vanishing_envelope_skipped(self):
        for lam in (0.0, 1e-100):
            with pytest.raises(SkippedPoint):
                mean_lower_ratio(lam, 2, 2)

    def test_rejects_fractional_caps(self):
        with pytest.raises(ValueError):
            mean_lower_ratio(1.0, 1.5, 2)

    def test_rejects_small_caps(self):
        with pytest.raises(ValueError):
            mean_lower_ratio(1.0, 1, 2)


class TestHFunction:
    def test_value_at_one(self):
        # numerator min(1,1)=1; denominator 15 * (1+1+1/2+1/6) e^{-1}
        want = 1.0 / (15.0 * (1 + 1 + 0.5 + 1 / 6) * math.exp(-1.0))
        assert h_function(1.0) == pytest.approx(want, rel=1e-12)

    def test_grows_without_bound(self):
        assert h_function(200.0) > h_function(50.0) > h_function(10.0)

    def test_infimum(self):
        res = h_infimum()
        assert res.value == pytest.approx(0.0119, abs=1e-3)
        assert res.arg == pytest.approx(4.52, abs=0.05)
        assert res.tail_certified

    def test_overflows_to_inf(self):
        # The polynomials overflow from lam ~ 1.2e77 on; h must not read 0
        # there, or the infimum over a wide range comes out 0.
        for lam in (1e3, 1e77, 1e100, 1e300):
            assert h_function(lam) == math.inf
        res = h_infimum(lambda_max=1e100)
        assert res.value == h_function(1.0)
        assert not res.tail_certified  # NaN differences past lam ~ 750

    def test_restricted_range_monotone(self):
        # on [1, 1.5] the function is decreasing, so the infimum over a
        # restricted search interval sits at the right endpoint
        res = h_infimum(lambda_max=1.5)
        assert res.value == pytest.approx(h_function(1.5), rel=1e-6)
        assert not res.tail_certified  # no grid left past the minimizer


class TestSweep:
    def test_default_grid_shapes(self):
        g = default_grid("lemma1")
        assert len(g.lambda_points) >= 25
        assert len(g.cap_pairs) >= 28

    def test_lemma1_sweep(self):
        g = GridSpec(
            lambda_points=(0.1, 1.0, 10.0, 100.0),
            cap_pairs=((1.0, 1.0), (2.0, 8.0), (0.5, 4.0)),
        )
        cert = sweep(g, "corrected")
        assert math.isfinite(cert.sup_ratio)
        assert cert.sup_ratio > cert.inf_ratio > 0.0
        assert len(cert.records) == 12

    def test_thread_determinism(self):
        g = default_grid("lemma1")
        c1 = sweep(g, "corrected", threads=1)
        c8 = sweep(g, "corrected", threads=8)
        assert c1 == c8

    def test_zero_cap_points_skipped(self):
        g = GridSpec(lambda_points=(1.0,), cap_pairs=((0.0, 1.0), (1.0, 1.0)))
        cert = sweep(g, "corrected")
        assert len(cert.records) == 1
        assert len(cert.skipped) == 1

    def test_plateau(self):
        assert plateau_check(((4.0, 4.0), (16.0, 64.0)))

    def test_plateau_fails_where_ratio_overflows(self):
        # a finite factor of 1e304 times a mean of ~1e6 at lam = 1e3
        assert not plateau_check(((1e152, 1e152),))

    @pytest.mark.parametrize("tol", (math.nan, 0.0, -1.0))
    def test_grid_rejects_bad_tolerance(self, tol):
        # A NaN grid tolerance used to reach the engine, where every window
        # widened to the 10^7-term budget (~3.8 s) before failing.
        with pytest.raises(ValueError, match="tolerance must be positive"):
            GridSpec((1.0,), ((2.0, 2.0),), tol=tol)

    def test_overflowing_envelope_errored(self):
        cert = sweep(GridSpec((1e300, 2.0), ((2.0, 2.0),)), "claim23")
        assert cert.errored == 1 and len(cert.records) == 1
        assert cert.skipped[0][3].startswith("OverflowError")

    def test_claim23_checks_come_before_the_moments(self):
        # The caps' ValueError beats the TruncationError at 1e13, and a
        # negative rate with integer caps is vacuous, not a bad rate. A cap
        # of 1e13 keeps lambda = 1e13 below 2K, on its window.
        cert = sweep(GridSpec((-1.0, 1e13), ((2.5, 3.0), (2.0, 1e13))), "claim23")
        assert cert.records == [] and cert.errored == 3
        assert [s[3] for s in cert.skipped] == [
            "ValueError: caps must be integers >= 2, got 2.5",
            "denominator -1.0 below floor at (-1.0, 2.0, 10000000000000.0)",
            "ValueError: caps must be integers >= 2, got 2.5",
            "TruncationError: summation window of 8.85438e+07 terms exceeds "
            "the 10000000-term budget",
        ]

    def test_corrected_edge_points(self):
        # A cap of 1e13 keeps lambda = 1e13 below 2K, on its window.
        cert = sweep(GridSpec((-1.0, 1e13, 1.0), ((0.0, 1.0), (2.0, 1e13))),
                     "corrected")
        assert [r.key() for r in cert.records] == [(1.0, 2.0, 1e13)]
        assert cert.errored == 3
        assert [s[3] for s in cert.skipped] == [
            "ValueError: rate must be finite and >= 0, got -1.0",
            "ValueError: rate must be finite and >= 0, got -1.0",
            "denominator 0.0 below floor at (10000000000000.0, 0.0, 1.0)",
            "TruncationError: summation window of 8.85438e+07 terms exceeds "
            "the 10000000-term budget",
            "denominator 0.0 below floor at (1.0, 0.0, 1.0)",
        ]

    @pytest.mark.parametrize("tol", (0.0, math.nan, -1.0))
    def test_bad_tolerance_shows_no_plateau_and_no_ratio(self, tol):
        assert not plateau_check(((4.0, 4.0),), tol=tol)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            _ratio("corrected", 1.0, 2.0, 2.0, tol)


class TestWitnessSearch:
    def test_finds_modest_target(self):
        res = find_counterexample(50.0)
        assert res.found
        assert res.ratio >= 50.0
        assert res.cap_a == res.cap_b
        assert res.lam == pytest.approx(100.0 * res.cap_a**2)

    def test_trail_doubles(self):
        res = find_counterexample(50.0)
        trail = [ratio for _k, _lam, ratio in res.trail]
        for lo, hi in zip(trail, trail[1:]):
            assert hi >= 2.0 * lo * (1 - 1e-9)

    def test_unreachable_target_reports_best(self):
        res = find_counterexample(1e9)
        assert not res.found
        assert res.ratio > 100.0  # best witness before the engine gave up

    def test_witness_is_certified_by_ratio_lo(self):
        # At k = 64 the point ratio is 64, its true value, and reaches the
        # target 64; ratio_lo, rounded down past the bounds, does not. So
        # the witness is k = 128, whose ratio_lo is within 1e-14 of 128.
        res = find_counterexample(64.0)
        assert res.found and res.cap_a == 128.0
        assert res.trail[-2] == (64, 409600.0, 64.0)
        assert [k for k, _lam, _r in res.trail] == [4, 8, 16, 32, 64, 128]
        assert 128.0 * (1.0 - 1e-14) < res.ratio_lo < res.ratio == 128.0
        res = find_counterexample(50.0)
        assert res.found and res.cap_a == 64.0
        assert 64.0 * (1.0 - 1e-14) < res.ratio_lo < res.ratio == 64.0


def test_sweep_one_summation_pass_per_point(summation_calls):
    g = GridSpec(lambda_points=(1.0, 10.0), cap_pairs=((2.0, 2.0), (4.0, 16.0)))
    cert = sweep(g, "corrected")
    assert len(cert.records) == 4
    assert len(summation_calls) == 4


@pytest.fixture
def engine(monkeypatch):
    """Spies on the summation engine: the number of functionals of each
    _batched_moments call (rates times rows of caps), and the largest rate
    of each _window_pass."""
    calls, passes = [], []
    batched, window_pass = poisson_core._batched_moments, poisson_core._window_pass

    def batch(lams, caps_a, *args):
        calls.append(len(lams) * len(caps_a))
        return batched(lams, caps_a, *args)

    def one_pass(lam, *args):
        passes.append(max(lam))
        return window_pass(lam, *args)

    monkeypatch.setattr(poisson_core, "_batched_moments", batch)
    monkeypatch.setattr(poisson_core, "_window_pass", one_pass)
    return calls, passes


def test_sweep_one_batch_on_default_grid(engine):
    calls, _ = engine
    grid = default_grid("lemma1")
    sweep(grid, "corrected")
    assert calls == [len(grid.lambda_points) * len(grid.cap_pairs)]


def test_plateau_one_batch_on_default_grid(engine):
    calls, _ = engine
    assert plateau_check(default_grid("lemma1").cap_pairs)
    assert calls == [42]  # 21 pairs with both caps >= 1, at 1e3 and 1e4


def test_certify_lemma1_sums_nothing_after_its_sweep(engine, monkeypatch,
                                                     tmp_path):
    _, passes = engine
    after_sweep = []

    def spy(*args):
        cert = sweep(*args)
        after_sweep.append(len(passes))
        return cert

    monkeypatch.setattr(inequality_lab, "sweep", spy)
    code = cli.main(["certify", "lemma1", "--out", str(tmp_path / "r.json")])
    assert code == 0
    assert after_sweep == [len(passes)] and passes


@pytest.mark.parametrize("lambdas, pairs, summed", [
    (None, None, 0),  # the default grid holds every plateau point
    ((1e4,), None, 21),  # --lambda 1e4: the 21 pairs' points at 1e3
    ((1e3, 1e4), ((4.0, 4.0), (1e152, 1e152)), 0),  # 1e152: errored, NaN
    ((1.0,), ((1e152, 1e152), (4.0, 4.0)), 4),  # the grid lacks them all
])
def test_plateau_reads_the_sweep_ratios(engine, lambdas, pairs, summed):
    calls, _ = engine
    grid = default_grid("lemma1", lambda_points=lambdas, cap_pairs=pairs)
    known = sweep(grid, "corrected").ratios
    del calls[:]
    got = plateau_check(grid.cap_pairs, grid.tol, known)
    assert calls == [summed]
    assert got == plateau_check(grid.cap_pairs, grid.tol)
    assert got == (pairs is None)


def test_witness_walk_sums_nothing_past_the_witness(engine):
    # Every point of the schedule has lambda = 100 k^2 >= 2k: its moments
    # come from the decomposition, whose correction the Chernoff bound
    # stands in for, so the walk sums no window at all.
    calls, passes = engine
    assert find_counterexample(50.0).found  # at k = 64, lambda = 409,600
    assert len(calls) == 1
    assert passes == []


def test_claim23_sums_no_pair_its_caps_fail(engine):
    # Caps 2.5 fail claim23's vet at every rate: the pair is not summed, and
    # each of its 25 points keeps the check's message.
    calls, passes = engine
    cert = sweep(default_grid("claim23", cap_pairs=((2.5, 3.0),)), "claim23")
    assert passes == [] and cert.records == [] and cert.errored == 25
    assert {s[3] for s in cert.skipped} == {
        "ValueError: caps must be integers >= 2, got 2.5"}


def test_grid_stream_sums_one_rate_for_its_first_point(engine):
    # lambda = 1e3's 28 rows of 921 elements fill one pass, and one row of
    # lambda = 1e4 (2,837 elements) would not fit beside them: a consumer
    # that stops after the first point sums that rate's block alone. Caps
    # b * 1e6 keep both rates below 2K, on their windows.
    calls, passes = engine
    pairs = [(a, b * 1e6) for a, b in default_grid("lemma1").cap_pairs]
    point, first = next(_ratios("corrected", (1e3, 1e4), pairs, DEFAULT_TOL))
    assert point == (1e3, *pairs[0])
    assert first == _ratio("corrected", *point, DEFAULT_TOL)
    assert calls[0] == 2 * len(pairs) and passes[0] == 1e3
    assert len(passes) == 2  # the stream's pass, then _ratio's own


def test_claim21_grid_ignores_caps():
    g = default_grid("claim21", lambda_points=(1.0, 5.0), cap_pairs=((2.0, 4.0),))
    assert g.cap_pairs == ((math.inf, math.inf),)
    assert len(sweep(g, "claim21").records) == 2


@pytest.mark.parametrize("bracket", [(4.0, 4.5, 5.0), (3.0, 3.2, 9.0),
                                     (1.0, 4.52, 4.6)])
def test_golden_section_matches_scipy(bracket):
    from scipy.optimize import minimize_scalar

    ref = minimize_scalar(h_function, bracket=bracket, method="golden",
                          options={"xtol": 1e-12})
    fun, x = _golden_section(h_function, *bracket)
    assert (fun, x) == (float(ref.fun), float(ref.x))
