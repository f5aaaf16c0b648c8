"""Evaluator for the max/min of five power-law sample-size terms.

The bound is max{ min{ n^(7/8) l1^(1/4) l2^(1/4) / eps,
n^(6/7) l1^(2/7) l2^(2/7) / eps^(8/7) }, n^(3/4) l1^(1/2) l2^(1/2) / eps,
n^(2/3) l1^(2/3) l2^(1/3) / eps^(4/3), n^(1/2) l1^(1/2) l2^(1/2) / eps^2 },
evaluated with implied constant 1 ("up to constants"). All terms are
computed in log space; ties follow the display order above. A term above
the largest float raises ValueError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# name -> exponents of (n, l1, l2, 1/eps)
_EXPONENTS = {
    "T1a": (7.0 / 8.0, 1.0 / 4.0, 1.0 / 4.0, 1.0),
    "T1b": (6.0 / 7.0, 2.0 / 7.0, 2.0 / 7.0, 8.0 / 7.0),
    "T2": (3.0 / 4.0, 1.0 / 2.0, 1.0 / 2.0, 1.0),
    "T3": (2.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0, 4.0 / 3.0),
    "T4": (1.0 / 2.0, 1.0 / 2.0, 1.0 / 2.0, 2.0),
}

TERM_NAMES = tuple(_EXPONENTS)
# Keys of a result row, in CSV order.
COLUMNS = ("n", "l1", "l2", "eps", *TERM_NAMES, "value", "active_term",
           "dominant_regime")
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class ComplexityInputs:
    """Problem sizes; the constructor normalizes to the l1 <= l2 convention."""

    n: int
    l1: int
    l2: int
    eps: float

    def __post_init__(self):
        if min(self.n, self.l1, self.l2) < 1:
            raise ValueError("sizes must be positive integers")
        if not (0.0 < self.eps <= 1.0):
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")
        if self.l1 > self.l2:
            a, b = self.l2, self.l1
            object.__setattr__(self, "l1", a)
            object.__setattr__(self, "l2", b)


@dataclass(frozen=True)
class ComplexityResult:
    value: float
    terms: dict
    active_term: str  # the term whose value equals the result
    dominant_regime: str  # which max-candidate wins: T1 (the min pair), T2..T4


def _log_terms(n, l1, l2, eps):
    ln = (math.log(n), math.log(l1), math.log(l2), -math.log(eps))
    return {
        name: sum(e * v for e, v in zip(exps, ln))
        for name, exps in _EXPONENTS.items()
    }


def _evaluate_raw(n, l1, l2, eps) -> ComplexityResult:
    lt = _log_terms(n, l1, l2, eps)
    for name, v in lt.items():
        if v > _LOG_FLOAT_MAX:
            raise ValueError(f"term {name} = exp({v:.6g}) is not a finite float")
    min_name = "T1a" if lt["T1a"] <= lt["T1b"] else "T1b"
    candidates = (
        (lt[min_name], "T1", min_name),
        (lt["T2"], "T2", "T2"),
        (lt["T3"], "T3", "T3"),
        (lt["T4"], "T4", "T4"),
    )
    best = max(candidates, key=lambda c: c[0])  # the first of equal values
    terms = {name: math.exp(v) for name, v in lt.items()}
    return ComplexityResult(math.exp(best[0]), terms, best[2], best[1])


def evaluate(inputs: ComplexityInputs, both_orders: bool = False) -> ComplexityResult:
    """Evaluate the bound at the given sizes.

    The expression is not symmetric in (l1, l2); by default it is evaluated
    with the canonical l1 <= l2 ordering. With both_orders=True both
    orderings are evaluated and the smaller result is returned.
    """
    result = _evaluate_raw(inputs.n, inputs.l1, inputs.l2, inputs.eps)
    if both_orders:
        swapped = _evaluate_raw(inputs.n, inputs.l2, inputs.l1, inputs.eps)
        if swapped.value < result.value:
            return swapped
    return result


def row(inputs: ComplexityInputs, res: ComplexityResult) -> dict:
    """One result row, keyed by COLUMNS."""
    return dict(zip(COLUMNS, (
        inputs.n, inputs.l1, inputs.l2, inputs.eps,
        *(res.terms[name] for name in TERM_NAMES),
        res.value, res.active_term, res.dominant_regime,
    )))


def regime_map(n_values, l1: int, l2: int, eps_values,
               both_orders: bool = False) -> list:
    """Dominant-regime table over a grid of (n, eps); rows sorted by (n, eps)
    and each point evaluated as evaluate(inputs, both_orders)."""
    rows = []
    for n in sorted(int(v) for v in n_values):
        for eps in sorted(float(v) for v in eps_values):
            inputs = ComplexityInputs(n, l1, l2, eps)
            rows.append(row(inputs, evaluate(inputs, both_orders)))
    return rows


def log_spaced(lo: float, hi: float, count: int) -> np.ndarray:
    if count < 1 or not 0.0 < lo <= hi < math.inf:
        raise ValueError("need a nonempty positive log-spaced range")
    return np.geomspace(lo, hi, count)
