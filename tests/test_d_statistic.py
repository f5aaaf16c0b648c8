"""Weighted Poissonized sum: exact moments, sampling, and the bound chain."""

import math

import numpy as np
import pytest

from poissonlab.ci_model import DStatisticModel, build_model, generate_null, perturb
from poissonlab.d_statistic import (
    _slice_rng,
    bound_chain_check,
    exact_moments,
    mc_moments,
    variance_mean_ratio,
)
from poissonlab.poisson_core import (
    CappedFunctional,
    _capped,
    expectation,
    variance,
)


def _single_slice(lam, weight, l1=2, l2=2):
    return DStatisticModel(
        n=1,
        rates=np.array([lam]),
        weights=np.array([weight]),
        cap_a=l1,
        cap_b=l2,
    )


def _model(seed, l1=4, l2=4, n=50, m=1000.0, magnitude=0.5):
    joint = perturb(generate_null(l1, l2, n, seed=seed), magnitude, seed=seed)
    return build_model(joint, m)


class TestExactMoments:
    def test_single_slice_closed_form(self):
        # one slice at lam=10, caps (2,2), maximal weight 1/16:
        # f(x) = 2x 1(x>=4), so E[D] = 2 * E[X 1(X>=4)] / 16
        model = _single_slice(10.0, 1.0 / 16.0)
        got = exact_moments(model)
        f = CappedFunctional(10.0, 2.0, 2.0)
        assert got.mean == pytest.approx(expectation(f).value / 16.0, rel=1e-12)
        assert got.mean == pytest.approx(1.2465382553556135, rel=1e-12)
        assert got.variance == pytest.approx(
            variance(f).value / 16.0**2, rel=1e-10
        )

    def test_additive_over_slices(self):
        m1 = _single_slice(5.0, 0.01)
        m2 = _single_slice(20.0, 0.02)
        both = DStatisticModel(
            n=2,
            rates=np.array([5.0, 20.0]),
            weights=np.array([0.01, 0.02]),
            cap_a=2,
            cap_b=2,
        )
        assert exact_moments(both).mean == pytest.approx(
            exact_moments(m1).mean + exact_moments(m2).mean, rel=1e-12
        )
        assert exact_moments(both).variance == pytest.approx(
            exact_moments(m1).variance + exact_moments(m2).variance, rel=1e-12
        )

    def test_weight_scaling(self):
        # mean scales linearly in the weight, variance quadratically
        lo = exact_moments(_single_slice(10.0, 0.01))
        hi = exact_moments(_single_slice(10.0, 0.02))
        assert hi.mean == pytest.approx(2 * lo.mean, rel=1e-12)
        assert hi.variance == pytest.approx(4 * lo.variance, rel=1e-12)

    def test_zero_weight_slices_drop_out(self):
        got = exact_moments(
            DStatisticModel(
                n=2,
                rates=np.array([5.0, 9.0]),
                weights=np.array([0.0, 0.01]),
                cap_a=2,
                cap_b=2,
            )
        )
        assert got.mean == pytest.approx(
            exact_moments(_single_slice(9.0, 0.01)).mean, rel=1e-12
        )


class TestSampling:
    def test_mc_agrees_with_exact(self):
        model = _model(seed=1)
        exact = exact_moments(model)
        mc = mc_moments(model, 100_000, seed=1)
        assert abs(mc.mean_hat - exact.mean) <= 4 * mc.se_mean
        assert abs(mc.var_hat - exact.variance) <= 4 * mc.se_var

    def test_mc_reproducible(self):
        model = _model(seed=2)
        a = mc_moments(model, 5_000, seed=11)
        b = mc_moments(model, 5_000, seed=11)
        assert a.mean_hat == b.mean_hat and a.var_hat == b.var_hat


    # 3000 replications: 21 whole slices per block, 50 slices in three
    # blocks. 70001: two blocks per slice, the second of 4465. At m = 1e5
    # most slices add to every total, so adding them out of slice order
    # moves the bits.
    @pytest.mark.parametrize("reps", (3000, 70_001))
    def test_mc_bits_do_not_depend_on_threads(self, reps):
        model = _model(seed=3, m=1e5)
        runs = [mc_moments(model, reps, seed=5, threads=t) for t in (1, 2, 3)]
        assert runs[1] == runs[0] and runs[2] == runs[0]
        # Reference: each slice's whole stream in one call, added in slice
        # order, as one thread without blocks would add them.
        totals = np.zeros(reps)
        for z in range(model.n):
            w, rate = float(model.weights[z]), float(model.rates[z])
            if w != 0.0 and rate != 0.0:
                sigma = _slice_rng(5, z).poisson(rate, size=reps)
                totals += w * _capped(sigma.astype(np.float64), model.cap_a,
                                      model.cap_b)
        assert runs[0].mean_hat.hex() == float(totals.mean()).hex()
        assert runs[0].var_hat.hex() == float(totals.var(ddof=1)).hex()


class TestBoundChain:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_chain_holds(self, seed):
        check = bound_chain_check(_model(seed=seed))
        assert check.first_step_ok
        assert check.quarter_step_ok
        assert check.mid_sum <= check.mean_total / 4.0 * (1 + 1e-12)

    def test_ratio_well_below_one(self):
        # the whole point: Var[D] is dominated by E[D] at desk scale
        assert variance_mean_ratio(_model(seed=1)) < 0.01

    def test_homogeneity(self):
        # doubling every weight doubles mid_sum and mean but quadruples var,
        # so the observed first-step constant is weight-scale covariant
        model = _model(seed=1)
        half = DStatisticModel(
            n=model.n,
            rates=model.rates,
            weights=model.weights * 0.5,
            cap_a=model.cap_a,
            cap_b=model.cap_b,
        )
        full_m = exact_moments(model)
        half_m = exact_moments(half)
        assert full_m.mean == pytest.approx(2 * half_m.mean, rel=1e-10)
        assert full_m.variance == pytest.approx(4 * half_m.variance, rel=1e-10)
