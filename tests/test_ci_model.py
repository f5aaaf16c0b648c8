"""Joint distributions, per-slice TV gaps, and model construction."""

import itertools

import numpy as np
import pytest

from poissonlab.ci_model import (
    DStatisticModel,
    JointDistribution,
    build_model,
    conditional_slice,
    generate_null,
    perturb,
)


def _joint_from_slices(slices):
    """Stack (l1, l2) slice tables (already summing to their z-mass)."""
    arr = np.stack(slices, axis=-1)
    return JointDistribution(arr.shape[0], arr.shape[1], arr.shape[2], arr)


class TestConditionalSlice:
    def test_product_slice_has_zero_gap(self):
        px = np.array([0.2, 0.8])
        py = np.array([0.5, 0.3, 0.2])
        joint = _joint_from_slices([np.outer(px, py)])
        s = conditional_slice(joint, 0)
        assert s.eps == pytest.approx(0.0, abs=1e-15)
        assert s.mass == pytest.approx(1.0)

    def test_perfectly_correlated_slice(self):
        # p = diag(1/2, 1/2); marginals are uniform, product is 1/4 each:
        # half-L1 gap = (|1/2-1/4|*2 + |0-1/4|*2)/2 = 1/2
        joint = _joint_from_slices([np.array([[0.5, 0.0], [0.0, 0.5]])])
        s = conditional_slice(joint, 0)
        assert s.eps == pytest.approx(0.5, rel=1e-14)
        assert s.eps_prime == pytest.approx(0.5 / 4.0, rel=1e-14)

    def test_zero_mass_slice(self):
        table = np.zeros((2, 2, 2))
        table[:, :, 0] = 0.25
        joint = JointDistribution(2, 2, 2, table)
        s = conditional_slice(joint, 1)
        assert s.mass == 0.0 and s.eps == 0.0
        assert s.cond is None

    def test_out_of_range(self):
        joint = generate_null(2, 2, 3, seed=0)
        with pytest.raises(IndexError):
            conditional_slice(joint, 3)

    def test_eps_matches_subset_supremum(self):
        # TV over a finite space equals the largest subset discrepancy;
        # verify the half-L1 shortcut against exhaustive enumeration.
        rng = np.random.default_rng(314)
        for _ in range(50):
            l1, l2 = rng.choice([(2, 2), (2, 3), (3, 4), (2, 6), (4, 3)])
            t = rng.standard_exponential((l1, l2))
            t /= t.sum()
            s = conditional_slice(_joint_from_slices([t]), 0)
            gap = (s.cond - s.product).ravel()
            cells = len(gap)
            sup = max(
                abs(gap[list(sub)].sum())
                for r in range(cells + 1)
                for sub in itertools.combinations(range(cells), r)
            )
            assert abs(s.eps - sup) <= 1e-12

    def test_eps_prime_normalization_bound(self):
        # eps <= 1 always, so eps' <= 1/sqrt(4 l1 l2)
        for seed in range(5):
            joint = perturb(generate_null(3, 5, 10, seed=seed), 1.0, seed=seed)
            for z in range(10):
                s = conditional_slice(joint, z)
                assert s.eps_prime <= 1.0 / np.sqrt(4 * 3 * 5) + 1e-15


class TestGenerateNull:
    def test_is_conditionally_independent(self):
        joint = generate_null(4, 4, 50, seed=1)
        for z in range(50):
            assert conditional_slice(joint, z).eps <= 1e-12

    def test_normalized_and_reproducible(self):
        j1 = generate_null(3, 4, 7, seed=9)
        j2 = generate_null(3, 4, 7, seed=9)
        assert j1.pmf.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.array_equal(j1.pmf, j2.pmf)

    def test_seed_matters(self):
        assert not np.array_equal(
            generate_null(3, 4, 7, seed=1).pmf, generate_null(3, 4, 7, seed=2).pmf
        )


class TestPerturb:
    def test_moves_off_null(self):
        joint = perturb(generate_null(4, 4, 50, seed=2), 0.5, seed=2)
        eps = [conditional_slice(joint, z).eps for z in range(50)]
        assert max(eps) > 1e-3

    def test_preserves_mass_and_marginals(self):
        base = generate_null(4, 4, 20, seed=3)
        pert = perturb(base, 0.5, seed=3)
        assert abs(pert.pmf.sum() - 1.0) <= 1e-12
        # the checkerboard bump keeps both conditional marginals fixed
        np.testing.assert_allclose(
            base.pmf.sum(axis=1), pert.pmf.sum(axis=1), atol=1e-15
        )
        np.testing.assert_allclose(
            base.pmf.sum(axis=0), pert.pmf.sum(axis=0), atol=1e-15
        )

    def test_magnitude_validation(self):
        base = generate_null(2, 2, 3, seed=0)
        with pytest.raises(ValueError):
            perturb(base, 0.0, seed=0)
        with pytest.raises(ValueError):
            perturb(base, 1.5, seed=0)

    def test_needs_two_levels(self):
        table = np.full((1, 2, 2), 0.25)
        with pytest.raises(ValueError):
            perturb(JointDistribution(1, 2, 2, table), 0.5, seed=0)


class TestModel:
    def test_build_small_example(self):
        table = np.zeros((2, 2, 2))
        table[:, :, 0] = np.array([[0.3, 0.1], [0.1, 0.1]])  # mass 0.6
        table[:, :, 1] = np.array([[0.1, 0.1], [0.1, 0.1]])  # mass 0.4
        joint = JointDistribution(2, 2, 2, table)
        model = build_model(joint, m=100.0)
        np.testing.assert_allclose(model.rates, [60.0, 40.0])
        s0 = conditional_slice(joint, 0)
        assert model.weights[0] == pytest.approx(s0.eps_prime**2, rel=1e-14)
        # slice 1 is exactly independent
        assert model.weights[1] == pytest.approx(0.0, abs=1e-28)

    def test_weight_cap_enforced(self):
        with pytest.raises(ValueError):
            DStatisticModel(
                n=1,
                rates=np.array([10.0]),
                weights=np.array([1.0]),  # far above 1/(4 l1 l2)
                cap_a=2,
                cap_b=2,
            )

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            JointDistribution(2, 2, 1, np.full((2, 2, 1), 1.0))
        with pytest.raises(ValueError):
            JointDistribution(2, 2, 1, np.full((2, 2, 1), -0.25))
