"""Certified bounds against 40-digit truths: every moment the engine and the
pairwise oracle return lies within its tail_bound of the true value, and
every window's tails cover the true sums outside it; the decomposition's
moments and correction sums, against 40- and 50-digit truths, likewise."""

import math

import pytest

from poissonlab import poisson_core
from poissonlab.inequality_lab import default_grid
from poissonlab.poisson_core import (
    DEFAULT_TOL,
    MAX_TERMS,
    CappedFunctional,
    _certified_windows,
    _corrections,
    _fp_rel,
    _points,
    moments,
    moments_many,
    variance_pairwise,
)

mp = pytest.importorskip("mpmath")

INF = math.inf
# (lambda, caps, tol, order): rates from 0.01 to 1e4, small, mixed, huge and
# infinite caps, and at two points tol 1e-300, at which every window widens.
POINTS = (
    (0.01, (2.0, 4.0), 1e-10, 2),
    (0.01, (INF, INF), 1e-10, 4),
    (1.0, (2.0, 4.0), 1e-10, 4),
    (1.0, (0.5, 256.0), 1e-10, 1),
    (10.0, (1e6, 1e6), 1e-10, 4),
    (10.0, (2.0, 4.0), 1e-300, 2),
    (100.0, (0.5, 256.0), 1e-10, 4),
    (100.0, (INF, INF), 1e-10, 1),
    (1e4, (2.0, 4.0), 1e-10, 2),
    (1e4, (INF, INF), 1e-10, 4),
    (1e4, (1e6, 1e6), 1e-300, 4),
    (1e4, (0.5, 256.0), 1e-10, 1),
)


def _truth(f, lo, hi):
    """(E f, Var f, mu4, tails) at 40 digits. The sums run over lambda +-
    (20 sqrt(lambda) + 100), down to 0, past which the terms are below
    e^-200 of the largest; tails[k] is the sum of f^k p outside [lo, hi],
    k = 0..4, p by the recurrence p(x + 1) = p(x) lambda / (x + 1)."""
    reach = 20.0 * math.sqrt(f.lam) + 100.0
    x0 = max(0, math.floor(f.lam - reach))
    with mp.workdps(40):
        lam = mp.mpf(f.lam)
        p = mp.exp(x0 * mp.log(lam) - lam - mp.loggamma(x0 + 1))
        inside, outside = [mp.mpf(0)] * 5, [mp.mpf(0)] * 5
        for x in range(x0, math.ceil(f.lam + reach) + 1):
            fx = 0
            if x >= CappedFunctional.threshold:
                fx = x * mp.sqrt(mp.mpf(min(x, f.cap_a)) * min(x, f.cap_b))
            sums = inside if lo <= x <= hi else outside
            term = p
            for k in range(5):
                sums[k] += term
                term *= fx
            p = p * lam / (x + 1)
        s0, s1, s2, s3, s4 = (a + b for a, b in zip(inside, outside))
        mean = s1 / s0
        var = s2 / s0 - mean**2
        mu4 = (s4 - 4 * mean * s3 + 6 * mean**2 * s2) / s0 - 3 * mean**4
        return mean, var, mu4, outside


def _covers(bound, tail):
    """A tail below half the least double rounds to 0.0, and so may its
    bound."""
    return bound >= tail or tail < mp.ldexp(1, -1075)


def _within(est, truth):
    with mp.workdps(40):
        return abs(mp.mpf(est.value) - truth) <= est.tail_bound


@pytest.mark.parametrize("lam, caps, tol, order", POINTS)
def test_truth_within_bounds(lam, caps, tol, order):
    f = CappedFunctional(lam, *caps)
    (w,) = _certified_windows(*_points([f]), tol, order, MAX_TERMS)
    mean, var, mu4, tails = _truth(f, w.lo, w.hi)
    assert _covers(w.ptail, tails[0])
    for k in range(order):
        assert _covers(w.trunc[k], tails[k + 1]), k + 1
    m = moments(f, tol, order)
    assert _within(m.mean, mean)
    assert order < 2 or _within(m.variance, var)
    assert order < 4 or _within(m.mu4, mu4)
    assert _within(variance_pairwise(f, tol), var)


# The decomposition f = P - g (poisson_core._corrections): (lambda, caps)
# from lambda = 2K to 1e12. Up to 1e4 the truth is the direct 40-digit sum
# above, which does not use the identity; above, the identity at 50 digits.
DECOMPOSED = (
    (8.0, (2.0, 4.0)),
    (30.0, (2.0, 4.0)),
    (500.0, (2.0, 4.0)),
    (1e6, (2.0, 4.0)),
    (1e12, (2.0, 4.0)),
    (512.0, (256.0, 256.0)),
    (1e4, (256.0, 256.0)),
    (1e8, (256.0, 256.0)),
    (2048.0, (1024.0, 1024.0)),
    (1e5, (1024.0, 1024.0)),
    (1e12, (1024.0, 1024.0)),
    (8.0, (INF, INF)),
    (30.0, (INF, INF)),
    (500.0, (INF, INF)),
    (1e4, (INF, INF)),
    (1e12, (INF, INF)),
)


def _k(f):
    return 4 if f.cap_a == INF else max(math.ceil(f.cap_b), 4)


def _correction_truth(f):
    """(E[g], E[P g], E[g^2], E[P], Var[P]) at 50 digits: P = sqrt(ab) x,
    or x^2 for infinite caps, and g = P - f on x < K."""
    with mp.workdps(50):
        lam = mp.mpf(f.lam)
        c = 1 if f.cap_a == INF else mp.sqrt(mp.mpf(f.cap_a) * f.cap_b)
        sums = [mp.mpf(0)] * 3
        for x in range(_k(f)):
            p = mp.exp(x * mp.log(lam) - lam - mp.loggamma(x + 1))
            poly = x * x if f.cap_a == INF else c * x
            fx = 0
            if x >= CappedFunctional.threshold:
                fx = x * mp.sqrt(mp.mpf(min(x, f.cap_a)) * min(x, f.cap_b))
            g = poly - fx
            for j, term in enumerate((g, poly * g, g * g)):
                sums[j] += term * p
        if f.cap_a == INF:
            return (*sums, lam + lam**2, 4 * lam**3 + 6 * lam**2 + lam)
        return (*sums, c * lam, c * c * lam)


def _relative(est, truth):
    with mp.workdps(50):
        return abs(mp.mpf(est.value) - truth) / truth


@pytest.mark.parametrize("lam, caps", DECOMPOSED)
def test_decomposed_truth_within_bounds(lam, caps):
    f = CappedFunctional(lam, *caps)
    g1, g2, g3, mean_p, var_p = _correction_truth(f)
    if lam <= 1e4:
        mean, var = _truth(f, 0, -1)[:2]
    else:
        with mp.workdps(50):
            mean = mean_p - g1
            var = var_p - 2 * (g2 - mean_p * g1) + g3 - g1**2
    m1, m2 = moments(f, order=1), moments(f, order=2)
    assert m1.mean == m2.mean
    assert m2.mean.terms_used in (0, _k(f))
    assert _within(m2.mean, mean) and _within(m2.variance, var)
    assert _relative(m2.mean, mean) <= 1e-14
    assert _relative(m2.variance, var) <= 1e-14


@pytest.mark.parametrize("lam, caps", DECOMPOSED)
def test_correction_sums_within_bounds(lam, caps):
    # Each of E[g], E[P g] and E[g^2] against its 50-digit truth: summed,
    # or 0 with the Chernoff bound, which must cover the whole sum.
    f = CappedFunctional(lam, *caps)
    (c,) = _corrections([(lam, *caps, _k(f), _fp_rel(lam))])
    truths = _correction_truth(f)[:3]
    with mp.workdps(50):
        for value, bound, truth in zip(c.sums, c.bounds, truths):
            assert abs(mp.mpf(value) - truth) <= bound, (value, bound)
    assert (c.terms == 0) == (c.sums == (0.0, 0.0, 0.0))


def test_routes_agree_on_the_default_grid():
    # Every default lemma1 point with 2K <= lambda <= 1e4: the decomposed
    # moments and the window's, each within the sum of their bounds.
    grid = default_grid("lemma1")
    points = [CappedFunctional(lam, a, b) for lam in grid.lambda_points
              for a, b in grid.cap_pairs
              if 2 * max(math.ceil(b), 4) <= lam <= 1e4]
    assert len(points) > 100
    windows = _certified_windows(*_points(points), DEFAULT_TOL, 2, MAX_TERMS)
    for f, w, m in zip(points, windows, moments_many(points, DEFAULT_TOL, 2)):
        point = (f.lam, f.cap_a, f.cap_b)
        ref = poisson_core._moments(point, w, 2, _fp_rel(f.lam))
        assert m.mean.terms_used < w.terms
        for a, b in ((m.mean, ref.mean), (m.variance, ref.variance)):
            assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound, point
