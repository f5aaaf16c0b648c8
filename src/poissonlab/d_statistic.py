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
from . import poisson_core
from .poisson_core import (DEFAULT_TOL, DENOMINATOR_FLOOR, _MC_CHUNK,
                           CappedFunctional, SkippedPoint, _capped, thread_map)


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
    # Per-slice streams derived from the root seed: a slice's draws do not
    # depend on which thread takes them, or when.
    return np.random.default_rng(np.random.SeedSequence([seed, z]))


def exact_moments(model: DStatisticModel, tol: float = DEFAULT_TOL) -> DMoments:
    """Per-slice capped-functional moments scaled by the slice weights, from
    one batched summation: the slices' rates by the model's one cap pair."""
    weights, rates = model.weights.tolist(), model.rates.tolist()
    zs = [z for z in range(model.n) if weights[z] != 0.0 and rates[z] != 0.0]
    caps = poisson_core._points([CappedFunctional(  # one column of one pair
        0.0, float(model.cap_a), float(model.cap_b))])[1:]
    ms = poisson_core._batched_moments([rates[z] for z in zs], *caps, tol, 2)
    per_z = []
    tail = 0.0
    for z, m in zip(zs, ms):
        if isinstance(m, ArithmeticError):
            raise m
        w = weights[z]
        tail += w * m.mean.tail_bound + w * w * m.variance.tail_bound
        per_z.append((z, w, m.mean.value, m.variance.value))
    return DMoments(
        math.fsum(w * e for _, w, e, _ in per_z),
        math.fsum(w * w * v for _, w, _, v in per_z),
        tail,
        tuple(per_z),
        float(model.cap_a * model.cap_b),
    )


def _fill(block):
    """Row i: slice i's weight times f (_capped) at its stream's next `size`
    draws. A block is plain data, (group, streams, size, caps): (weight,
    rate, z) slices, their _slice_rng streams, built by the caller, and caps."""
    group, rngs, size, caps = block
    x = np.empty((len(group), size))
    for row, (_, rate, _), rng in zip(x, group, rngs):
        row[:] = rng.poisson(rate, size=size)
    f = _capped(x, *caps)
    f *= np.array([[w] for w, _, _ in group])
    return f


def mc_moments(model: DStatisticModel, replications: int, seed: int,
               threads: int = 1) -> MCResult:
    """Sample mean/variance over seeded replications, with standard errors
    from the same draws (variance SE via the fourth central moment).

    Replication r's total is the sum, in slice order, of each slice's
    weighted functional at the r-th draw of its _slice_rng stream. The
    contributions come in blocks of at most _MC_CHUNK: whole slices when
    the replications fit, else one slice's next run of draws. Per round the
    caller builds up to `threads` groups' streams, threads fill one block
    each (_fill), and the caller adds the rows into the totals in slice
    order, so every bit of the result is the same for any thread count. A
    rate past what numpy's sampler takes raises OverflowError.
    """
    if replications < 2:
        raise ValueError("need at least 2 replications")
    slices = [(w, rate, z) for z, (w, rate) in
              enumerate(zip(model.weights.tolist(), model.rates.tolist()))
              if w != 0.0 and rate != 0.0]
    top = np.iinfo(np.int64).max  # numpy's sampler takes rates to about this
    if any(rate > top - 10.0 * math.sqrt(top) for _, rate, _ in slices):
        raise OverflowError("a slice rate exceeds what numpy's sampler takes")
    cols = min(replications, _MC_CHUNK)
    per_block = _MC_CHUNK // cols
    groups = [slices[i : i + per_block] for i in range(0, len(slices), per_block)]
    caps = (model.cap_a, model.cap_b)
    totals = np.zeros(replications)
    for g in range(0, len(groups), threads):
        streams = [(group, [_slice_rng(seed, z) for _, _, z in group])
                   for group in groups[g : g + threads]]
        for c0 in range(0, replications, cols):
            size = min(cols, replications - c0)
            blocks = [(group, rngs, size, caps) for group, rngs in streams]
            for rows in thread_map(_fill, blocks, threads):
                for row in rows:
                    totals[c0 : c0 + size] += row
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
