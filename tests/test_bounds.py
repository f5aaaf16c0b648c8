"""Certified bounds against 40-digit truths: every moment the engine and the
pairwise oracle return lies within its tail_bound of the true value, and
every window's tails cover the true sums outside it."""

import math

import pytest

from poissonlab.poisson_core import (
    MAX_TERMS,
    CappedFunctional,
    _certified_windows,
    _points,
    moments,
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
