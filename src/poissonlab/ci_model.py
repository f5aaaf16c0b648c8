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
_CHUNK_ENTRIES = 2**14


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
            raise ValueError(f"pmf shape {table.shape} does not match "
                             f"({self.l1}, {self.l2}, {self.n})")
        if not np.all((table >= 0.0) & (table < math.inf)):
            raise ValueError("pmf entries must be finite and nonnegative")
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


def _slices(pmf: np.ndarray):
    """(mass, cond, product, eps) of consecutive chunks of slices, each a
    (z, x, y)-contiguous copy of at most about _CHUNK_ENTRIES entries. Each
    sum has the bits of one over pmf[:, :, z]; a zero-mass slice gets 0s."""
    l1, l2, n = pmf.shape
    step = max(1, _CHUNK_ENTRIES // (l1 * l2))
    for z0 in range(0, n, step):
        block = np.ascontiguousarray(pmf[:, :, z0 : z0 + step].transpose(2, 0, 1))
        mass = block.sum(axis=(1, 2))
        cond = block / np.where(mass > 0.0, mass, 1.0)[:, None, None]
        q = cond.sum(axis=2)[:, :, None] * cond.sum(axis=1)[:, None, :]
        yield mass, cond, q, 0.5 * np.abs(cond - q).sum(axis=(1, 2))


def conditional_slice(joint: JointDistribution, z: int) -> ConditionalSlice:
    """Slice quantities at z; a zero-mass slice contributes eps = 0."""
    if not (0 <= z < joint.n):
        raise IndexError(f"slice index {z} out of range [0, {joint.n})")
    ((mass,), (cond,), (q,), (eps,)), = _slices(joint.pmf[:, :, z : z + 1])
    if mass <= 0.0:
        return ConditionalSlice(z, 0.0, None, None, 0.0, 0.0)
    eps, norm = float(eps), math.sqrt(4.0 * joint.l1 * joint.l2)
    return ConditionalSlice(z, float(mass), cond, q, eps, eps / norm)


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
        for arr in (rates, weights):
            if not np.all((arr >= 0.0) & (arr < math.inf)):
                raise ValueError("rates and weights must be finite and >= 0")
            arr.flags.writeable = False
        cap = 1.0 / (4.0 * self.cap_a * self.cap_b)
        if np.any(weights > cap * (1.0 + 1e-12)):
            raise ValueError("weights must not exceed 1/(4*l1*l2)")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "weights", weights)


def build_model(joint: JointDistribution, m: float) -> DStatisticModel:
    """Rates m*P(Z=z) and weights eps_prime^2 for the weighted statistic."""
    if not (0.0 < m < math.inf):
        raise ValueError("sample-size parameter m must be positive and finite")
    mass, eps = map(np.concatenate, zip(*[(c[0], c[3]) for c in _slices(joint.pmf)]))
    eps_prime = eps / math.sqrt(4.0 * joint.l1 * joint.l2)
    # Python's ** is C pow, which rounds a few squares unlike x*x (np.square).
    weights = np.array([v**2 for v in eps_prime.tolist()])
    return DStatisticModel(joint.n, m * mass, weights, joint.l1, joint.l2)


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
    mass = np.concatenate([c[0] for c in _slices(joint.pmf)])
    zs = np.flatnonzero(mass > 0.0)  # one rng.choice pair each, in slice order
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cells = np.empty((len(zs), 4), dtype=np.intp)
    for row in cells:
        row[:2] = rng.choice(joint.l1, size=2, replace=False)
        row[2:] = rng.choice(joint.l2, size=2, replace=False)
    i1, i2, j1, j2 = cells.T
    table = joint.pmf.copy()
    d = np.minimum(magnitude * mass[zs] / 4.0,
                   np.minimum(table[i1, j2, zs], table[i2, j1, zs]))
    for i, j, delta in ((i1, j1, d), (i2, j2, d), (i1, j2, -d), (i2, j1, -d)):
        table[i, j, zs] += delta
    return JointDistribution(joint.l1, joint.l2, joint.n, table)
