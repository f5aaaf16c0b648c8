"""Exact and Monte Carlo moments of the Poissonized weighted statistic.

The statistic is sum_z sigma_z * sqrt(min(sigma_z, l1) * min(sigma_z, l2))
* w_z * 1(sigma_z >= 4) with independent sigma_z ~ Poisson(rate_z). Exact
moments reduce, by independence across z, to sums of per-slice capped
functional moments; the Monte Carlo harness and the two-step bound chain
check provide the cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ci_model import DStatisticModel
from .poisson_core import (
    DEFAULT_TOL,
    DENOMINATOR_FLOOR,
    CappedFunctional,
    _capped,
    moments_many,
)
from .inequality_lab import SkippedPoint


@dataclass(frozen=True)
class DMoments:
    """Exact mean/variance, summed over slices by independence.

    per_z holds (z, weight, mean, variance) for every slice with nonzero
    weight and rate, the moments being those of the unweighted capped
    functional; cap_product is l1 * l2. The variance-to-mean ratio and the
    bound chain are read off these without evaluating any slice again.
    """

    mean: float
    variance: float
    tail_bound: float
    per_z: tuple
    cap_product: float

    def variance_mean_ratio(self) -> float:
        """Var/E of the weighted statistic; degenerate models are skipped."""
        if self.mean < DENOMINATOR_FLOOR:
            raise SkippedPoint("statistic mean below the denominator floor")
        return self.variance / self.mean

    def chain_check(self) -> ChainCheck:
        """The two-step variance bound, audited on these slice moments."""
        ll = self.cap_product
        mid_sum = math.fsum(w * w * ll * e for _, w, e, _ in self.per_z)
        c1 = 0.0
        for _, _, e, v in self.per_z:
            if e > DENOMINATOR_FLOOR:
                c1 = max(c1, v / (ll * e))
        first_ok = self.variance <= c1 * mid_sum * (1.0 + 1e-9) + 1e-300
        quarter_ok = mid_sum <= 0.25 * self.mean * (1.0 + 1e-12) + 1e-300
        return ChainCheck(self.variance, self.mean, mid_sum, c1, first_ok,
                          quarter_ok)


@dataclass(frozen=True)
class MCResult:
    replications: int
    mean_hat: float
    var_hat: float
    se_mean: float
    se_var: float


def _slice_rng(seed: int, z: int) -> np.random.Generator:
    # Per-slice streams derived from the root seed keep every output
    # independent of evaluation order and thread count.
    return np.random.default_rng(np.random.SeedSequence([seed, z]))


def exact_moments(model: DStatisticModel, tol: float = DEFAULT_TOL) -> DMoments:
    """Per-slice capped-functional moments scaled by the slice weights,
    from one batched summation pass over all slices."""
    cap_a, cap_b = float(model.cap_a), float(model.cap_b)
    zs = np.flatnonzero((model.weights != 0.0) & (model.rates != 0.0)).tolist()
    fs = [CappedFunctional(float(model.rates[z]), cap_a, cap_b) for z in zs]
    per_z = []
    tail = 0.0
    for z, m in zip(zs, moments_many(fs, tol, 2)):
        if isinstance(m, ArithmeticError):
            raise m
        w = float(model.weights[z])
        tail += w * m.mean.tail_bound + w * w * m.variance.tail_bound
        per_z.append((z, w, m.mean.value, m.variance.value))
    return DMoments(
        math.fsum(w * e for _, w, e, _ in per_z),
        math.fsum(w * w * v for _, w, _, v in per_z),
        tail,
        tuple(per_z),
        float(model.cap_a * model.cap_b),
    )


def mc_moments(model: DStatisticModel, replications: int, seed: int) -> MCResult:
    """Sample mean/variance over seeded replications, with standard errors
    from the same draws (variance SE via the fourth central moment)."""
    if replications < 2:
        raise ValueError("need at least 2 replications")
    totals = np.zeros(replications)
    for z in range(model.n):
        w = float(model.weights[z])
        rate = float(model.rates[z])
        if w == 0.0 or rate == 0.0:
            continue
        sigma = _slice_rng(seed, z).poisson(rate, size=replications)
        totals += w * _capped(sigma.astype(np.float64), model.cap_a, model.cap_b)
    mean_hat = float(totals.mean())
    var_hat = float(totals.var(ddof=1))
    se_mean = math.sqrt(var_hat / replications)
    m4 = float(np.mean((totals - mean_hat) ** 4))
    r = replications
    se_var = math.sqrt(max(m4 - (r - 3.0) / (r - 1.0) * var_hat**2, 0.0) / r)
    return MCResult(replications, mean_hat, var_hat, se_mean, se_var)


def variance_mean_ratio(model: DStatisticModel) -> float:
    """Var/E of the weighted statistic; degenerate models are skipped."""
    return exact_moments(model).variance_mean_ratio()


@dataclass(frozen=True)
class ChainCheck:
    """Numeric audit of the two-step variance bound.

    var_total <= c1_observed * mid_sum (per-slice capped ratio bound, with
    c1_observed the largest observed Var/(l1*l2*E)), and
    mid_sum <= mean_total / 4 exactly, because every weight is at most
    1/(4*l1*l2).
    """

    var_total: float
    mean_total: float
    mid_sum: float
    c1_observed: float
    first_step_ok: bool
    quarter_step_ok: bool


def bound_chain_check(model: DStatisticModel) -> ChainCheck:
    return exact_moments(model).chain_check()
