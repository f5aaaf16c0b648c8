"""Discrete joints on [l1] x [l2] x [n] with per-slice dependence measures.

A joint pmf table is decomposed per z-slice into the conditional joint of
(X, Y), the product of its marginals, and the total-variation gap between
the two (half the L1 distance). Generators produce seeded conditionally
independent tables and mass-preserving within-slice perturbations; the slice
quantities feed the Poissonized weighted-statistic model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MASS_TOL = 1e-12


@dataclass(frozen=True)
class JointDistribution:
    """Dense pmf table indexed (x, y, z), x in [0, l1), y in [0, l2), z in [0, n)."""

    l1: int
    l2: int
    n: int
    pmf: np.ndarray

    def __post_init__(self):
        if min(self.l1, self.l2, self.n) < 1:
            raise ValueError("alphabet sizes must be positive")
        table = np.asarray(self.pmf, dtype=np.float64)
        if table.shape != (self.l1, self.l2, self.n):
            raise ValueError(
                f"pmf shape {table.shape} does not match "
                f"({self.l1}, {self.l2}, {self.n})"
            )
        if np.any(table < 0):
            raise ValueError("pmf entries must be nonnegative")
        if abs(float(table.sum()) - 1.0) > MASS_TOL:
            raise ValueError(f"total mass {table.sum()} is not 1 within {MASS_TOL}")
        table = table.copy()
        table.flags.writeable = False
        object.__setattr__(self, "pmf", table)


@dataclass(frozen=True)
class ConditionalSlice:
    """Per-z conditional joint, product of marginals, and their TV gap."""

    z: int
    mass: float
    cond: np.ndarray | None  # conditional joint of (X, Y) given Z=z
    product: np.ndarray | None  # outer product of the conditional marginals
    eps: float  # TV distance, equal to half the L1 gap
    eps_prime: float  # eps / sqrt(4 * l1 * l2)


def conditional_slice(joint: JointDistribution, z: int) -> ConditionalSlice:
    """Slice quantities at z; a zero-mass slice contributes eps = 0."""
    if not (0 <= z < joint.n):
        raise IndexError(f"slice index {z} out of range [0, {joint.n})")
    block = joint.pmf[:, :, z]
    mass = float(block.sum())
    norm = math.sqrt(4.0 * joint.l1 * joint.l2)
    if mass <= 0.0:
        return ConditionalSlice(z, 0.0, None, None, 0.0, 0.0)
    cond = block / mass
    q = np.outer(cond.sum(axis=1), cond.sum(axis=0))
    eps = 0.5 * float(np.abs(cond - q).sum())
    return ConditionalSlice(z, mass, cond, q, eps, eps / norm)


@dataclass(frozen=True)
class DStatisticModel:
    """Rates, weights and caps of the Poissonized weighted statistic
    sum_z sigma_z * sqrt(min(sigma_z, l1) * min(sigma_z, l2)) * w_z * 1(sigma_z >= 4).
    """

    n: int
    rates: np.ndarray
    weights: np.ndarray
    cap_a: int
    cap_b: int

    def __post_init__(self):
        rates = np.asarray(self.rates, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if rates.shape != (self.n,) or weights.shape != (self.n,):
            raise ValueError("rates and weights must both have length n")
        if np.any(rates < 0) or np.any(weights < 0):
            raise ValueError("rates and weights must be nonnegative")
        cap = 1.0 / (4.0 * self.cap_a * self.cap_b)
        if np.any(weights > cap * (1.0 + 1e-12)):
            raise ValueError("weights must not exceed 1/(4*l1*l2)")
        for arr in (rates, weights):
            arr.flags.writeable = False
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "weights", weights)


def build_model(joint: JointDistribution, m: float) -> DStatisticModel:
    """Rates m*P(Z=z) and weights eps_prime^2 for the weighted statistic."""
    if m <= 0:
        raise ValueError("sample-size parameter m must be positive")
    rates = np.empty(joint.n)
    weights = np.empty(joint.n)
    for z in range(joint.n):
        s = conditional_slice(joint, z)
        rates[z] = m * s.mass
        weights[z] = s.eps_prime**2
    return DStatisticModel(joint.n, rates, weights, joint.l1, joint.l2)


def generate_null(l1: int, l2: int, n: int, seed: int) -> JointDistribution:
    """Seeded conditionally independent joint: every slice is a product.

    The z-marginal and per-slice marginals come from normalized exponential
    draws (flat Dirichlet), so all entries are positive almost surely.
    """
    if min(l1, l2, n) < 1:
        raise ValueError("alphabet sizes must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    zm = rng.standard_exponential(n)
    zm /= zm.sum()
    px = rng.standard_exponential((n, l1))
    px /= px.sum(axis=1, keepdims=True)
    py = rng.standard_exponential((n, l2))
    py /= py.sum(axis=1, keepdims=True)
    table = np.einsum("z,zx,zy->xyz", zm, px, py)
    table /= table.sum()
    return JointDistribution(l1, l2, n, table)


def perturb(
    joint: JointDistribution, magnitude: float, seed: int
) -> JointDistribution:
    """Mass- and marginal-preserving within-slice tilt creating dependence.

    Each slice gets a +d/-d checkerboard on a random 2x2 cell pattern with
    d = magnitude * mass_z / 4, clipped so entries stay nonnegative.
    """
    if not (0.0 < magnitude <= 1.0):
        raise ValueError("magnitude must lie in (0, 1]")
    if joint.l1 < 2 or joint.l2 < 2:
        raise ValueError("each slice must be at least 2x2 to perturb")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    table = joint.pmf.copy()
    for z in range(joint.n):
        block = table[:, :, z]
        mass = float(block.sum())
        if mass <= 0.0:
            continue
        i1, i2 = rng.choice(joint.l1, size=2, replace=False)
        j1, j2 = rng.choice(joint.l2, size=2, replace=False)
        d = min(magnitude * mass / 4.0, float(min(block[i1, j2], block[i2, j1])))
        block[i1, j1] += d
        block[i2, j2] += d
        block[i1, j2] -= d
        block[i2, j1] -= d
    return JointDistribution(joint.l1, joint.l2, joint.n, table)
