"""Benchmark workloads: the CLI commands each one runs and the checks on
their records.

A check compares named record fields only, so fields added to a record
later do not fail it. References are either values captured from the
published default grid (which does not depend on the seed) or recomputed
here with numpy and the standard library alone, never with poissonlab.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Captured from `poissonlab certify lemma1` on the default 25x28 grid.
LEMMA1_SUP_RATIO = 4.210315295713968
LEMMA1_ARG_SUP = [1.0, 0.5, 0.5]
LEMMA1_POINTS = 25 * 28
# Captured from `poissonlab h` with its default grid.
H_INFIMUM = 0.01191768407325337
H_ARG = 4.522850880019174
# `falsify --target 50` walks a = b = k, lambda = 100 k^2 and stops at k = 64.
FALSIFY_K = 64.0
# Tight enough to catch any change of the summation, loose enough for a
# reordered sum that moves the last few bits.
REL_TOL = 1e-12
ORACLE_POINTS = 20

# simulate-d parameters of the slices workload; --magnitude keeps its
# default, which the reference must mirror.
SLICES = {"l1": 4, "l2": 8, "n": 5000, "m": 1e5, "reps": 1000}
SLICES_MAGNITUDE = 0.5
MAP_N_RANGE = (1e2, 1e9, 8)
MAP_EPS_RANGE = (0.01, 0.5, 4)


@dataclass
class Command:
    argv: list
    check: Callable[[dict], list]  # record -> list of failure messages


def _close(value, ref, rel=REL_TOL) -> bool:
    return isinstance(value, (int, float)) and abs(value - ref) <= rel * abs(ref)


def _expect(failures: list, ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def check_certify_lemma1(record: dict) -> list:
    res = record["result"]
    failures = []
    _expect(failures, res["certified"] is True, "certified is not true")
    _expect(failures, res["plateau"] is True, "plateau is not true")
    _expect(failures, _close(res["sup_ratio"], LEMMA1_SUP_RATIO),
            f"sup_ratio {res['sup_ratio']!r} != {LEMMA1_SUP_RATIO!r}")
    _expect(failures, res["arg_sup"] == LEMMA1_ARG_SUP,
            f"arg_sup {res['arg_sup']!r} != {LEMMA1_ARG_SUP!r}")
    _expect(failures, len(res["records"]) == LEMMA1_POINTS,
            f"{len(res['records'])} records, expected {LEMMA1_POINTS}")
    return failures


def check_falsify(record: dict) -> list:
    res = record["result"]
    failures = []
    _expect(failures, res["found"] is True, "no witness found")
    _expect(failures, res["a"] == FALSIFY_K and res["b"] == FALSIFY_K,
            f"witness caps {res['a']!r},{res['b']!r}, expected k = {FALSIFY_K}")
    _expect(failures, res["lambda"] == 100.0 * FALSIFY_K**2,
            f"witness rate {res['lambda']!r}")
    _expect(failures, res["ratio"] >= 50.0, f"witness ratio {res['ratio']!r} < 50")
    return failures


def check_h(record: dict) -> list:
    res = record["result"]
    failures = []
    _expect(failures, res["in_band"] is True, "infimum not in band")
    _expect(failures, res["tail_certified"] is True, "tail not certified")
    _expect(failures, _close(res["infimum"], H_INFIMUM, 1e-9),
            f"infimum {res['infimum']!r} != {H_INFIMUM!r}")
    _expect(failures, _close(res["arg_lambda"], H_ARG, 1e-6),
            f"arg_lambda {res['arg_lambda']!r} != {H_ARG!r}")
    return failures


def check_oracle(record: dict) -> list:
    res = record["result"]
    failures = []
    _expect(failures, res["all_ok"] is True, "all_ok is not true")
    _expect(failures, len(res["points"]) == ORACLE_POINTS,
            f"{len(res['points'])} oracle points, expected {ORACLE_POINTS}")
    bad = [p["lambda"] for p in res["points"] if p["triangle_ok"] is not True]
    _expect(failures, not bad, f"triangle_ok false at lambda {bad}")
    return failures


def _bound_terms(n, l1, l2, eps):
    """The five sample-size terms, by direct powers (the CLI uses logs)."""
    return {
        "T1a": n ** (7 / 8) * l1 ** (1 / 4) * l2 ** (1 / 4) / eps,
        "T1b": n ** (6 / 7) * l1 ** (2 / 7) * l2 ** (2 / 7) / eps ** (8 / 7),
        "T2": n ** (3 / 4) * l1 ** (1 / 2) * l2 ** (1 / 2) / eps,
        "T3": n ** (2 / 3) * l1 ** (2 / 3) * l2 ** (1 / 3) / eps ** (4 / 3),
        "T4": n ** (1 / 2) * l1 ** (1 / 2) * l2 ** (1 / 2) / eps**2,
    }


def check_complexity_map(record: dict) -> list:
    rows = record["result"]["rows"]
    failures = []
    expected = MAP_N_RANGE[2] * MAP_EPS_RANGE[2]
    _expect(failures, len(rows) == expected, f"{len(rows)} rows, expected {expected}")
    for row in rows:
        t = _bound_terms(row["n"], row["l1"], row["l2"], row["eps"])
        ref = max(min(t["T1a"], t["T1b"]), t["T2"], t["T3"], t["T4"])
        if not _close(row["value"], ref, 1e-12):
            failures.append(f"bound at n={row['n']} eps={row['eps']}: "
                            f"{row['value']!r} != {ref!r}")
    return failures


def slice_model(l1, l2, n, m, seed, magnitude):
    """Rates and weights of the perturbed null model, rebuilt from the seed.

    Mirrors the draw order of ci_model.generate_null and ci_model.perturb so
    that the same seed gives the same joint distribution.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    zm = rng.standard_exponential(n)
    zm /= zm.sum()
    px = rng.standard_exponential((n, l1))
    px /= px.sum(axis=1, keepdims=True)
    py = rng.standard_exponential((n, l2))
    py /= py.sum(axis=1, keepdims=True)
    table = np.einsum("z,zx,zy->xyz", zm, px, py)
    table /= table.sum()

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for z in range(n):
        block = table[:, :, z]
        i1, i2 = rng.choice(l1, size=2, replace=False)
        j1, j2 = rng.choice(l2, size=2, replace=False)
        d = min(magnitude * float(block.sum()) / 4.0,
                float(min(block[i1, j2], block[i2, j1])))
        block[i1, j1] += d
        block[i2, j2] += d
        block[i1, j2] -= d
        block[i2, j1] -= d

    mass = table.sum(axis=(0, 1))
    cond = table / mass
    product = np.einsum("xz,yz->xyz", cond.sum(axis=1), cond.sum(axis=0))
    eps = 0.5 * np.abs(cond - product).sum(axis=(0, 1))
    return m * mass, eps**2 / (4.0 * l1 * l2)


def d_moments(rates, weights, cap_a, cap_b, threshold=4, chunk=256):
    """Exact mean and variance of D by direct summation over every count
    that carries mass, with the per-slice variance centred on its mean."""
    keep = (rates > 0) & (weights > 0)
    rates, weights = rates[keep], weights[keep]
    top = int(math.ceil(rates.max() + 40.0 * math.sqrt(rates.max() + 1.0) + 60.0))
    x = np.arange(top + 1, dtype=np.float64)
    log_fact = np.array([math.lgamma(v + 1.0) for v in range(top + 1)])
    f = np.where(x >= threshold,
                 x * np.sqrt(np.minimum(x, cap_a) * np.minimum(x, cap_b)), 0.0)
    means, variances = [], []
    for i in range(0, len(rates), chunk):
        r = rates[i:i + chunk, None]
        p = np.exp(x * np.log(r) - r - log_fact)
        mean = (p * f).sum(axis=1)
        means.append(mean)
        variances.append((p * (f - mean[:, None]) ** 2).sum(axis=1))
    mean_z = np.concatenate(means)
    var_z = np.concatenate(variances)
    return (math.fsum(weights * mean_z), math.fsum(weights**2 * var_z))


def make_simulate_d_check(seed: int) -> Callable[[dict], list]:
    rates, weights = slice_model(SLICES["l1"], SLICES["l2"], SLICES["n"],
                                 SLICES["m"], seed, SLICES_MAGNITUDE)
    ref_mean, ref_var = d_moments(rates, weights, SLICES["l1"], SLICES["l2"])

    def check(record: dict) -> list:
        res = record["result"]
        exact = res["exact"]
        failures = []
        bound = exact["tail_bound"]
        _expect(failures, abs(exact["mean"] - ref_mean) <= bound,
                f"exact mean {exact['mean']!r} vs reference {ref_mean!r} "
                f"exceeds tail_bound {bound!r}")
        _expect(failures, abs(exact["variance"] - ref_var) <= bound,
                f"exact variance {exact['variance']!r} vs reference {ref_var!r} "
                f"exceeds tail_bound {bound!r}")
        _expect(failures, res["mc_within_4se"] is True, "mc_within_4se is not true")
        _expect(failures, res["chain"]["quarter_step_ok"] is True,
                "quarter_step_ok is not true")
        return failures

    return check


def _range(spec) -> str:
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in spec)


def commands(workload: str, seed: int) -> list:
    """The commands of a workload. The seed reaches the program only as
    --seed of simulate-d and oracle-check."""
    if workload == "certify-large-lambda":
        return [
            Command(["certify", "lemma1"], check_certify_lemma1),
            Command(["falsify", "--target", "50"], check_falsify),
        ]
    if workload == "slices-small-lambda":
        s = SLICES
        return [
            Command(["simulate-d", "--l1", str(s["l1"]), "--l2", str(s["l2"]),
                     "--n", str(s["n"]), "--m", repr(s["m"]),
                     "--reps", str(s["reps"]), "--seed", str(seed)],
                    make_simulate_d_check(seed)),
            Command(["h"], check_h),
            Command(["complexity", "--map", "--n-range", _range(MAP_N_RANGE),
                     "--eps-range", _range(MAP_EPS_RANGE),
                     "--l1", str(s["l1"]), "--l2", str(s["l2"])],
                    check_complexity_map),
        ]
    if workload == "oracle-verify":
        return [Command(["oracle-check", "--seed", str(seed)], check_oracle)]
    raise KeyError(workload)


WORKLOADS = ("certify-large-lambda", "slices-small-lambda", "oracle-verify")
