"""Power-law max-min bound: exponent signatures, monotonicity, regime map."""

import json
import math

import pytest

from poissonlab.cli import EX_OK, main
from poissonlab.sample_complexity import (
    COLUMNS,
    ComplexityInputs,
    TERM_NAMES,
    evaluate,
    log_spaced,
    regime_map,
    row,
)

# per-term exponents of (n, l1, l2, 1/eps), duplicated here on purpose so a
# typo in the implementation cannot hide in the test
SIGNATURES = {
    "T1a": (7 / 8, 1 / 4, 1 / 4, 1.0),
    "T1b": (6 / 7, 2 / 7, 2 / 7, 8 / 7),
    "T2": (3 / 4, 1 / 2, 1 / 2, 1.0),
    "T3": (2 / 3, 2 / 3, 1 / 3, 4 / 3),
    "T4": (1 / 2, 1 / 2, 1 / 2, 2.0),
}


def _value(n, l1, l2, eps):
    return evaluate(ComplexityInputs(n, l1, l2, eps)).value


class TestUnitCase:
    def test_exactly_one(self):
        res = evaluate(ComplexityInputs(1, 1, 1, 1.0))
        assert res.value == 1.0
        assert all(v == 1.0 for v in res.terms.values())


class TestSignatures:
    @pytest.mark.parametrize("name", sorted(SIGNATURES))
    def test_doubling_each_argument(self, name):
        en, e1, e2, ee = SIGNATURES[name]
        base = evaluate(ComplexityInputs(10**6, 4, 8, 1e-3)).terms[name]
        scaled_n = evaluate(ComplexityInputs(2 * 10**6, 4, 8, 1e-3)).terms[name]
        assert scaled_n / base == pytest.approx(2.0**en, rel=1e-12)
        scaled_l2 = evaluate(ComplexityInputs(10**6, 4, 16, 1e-3)).terms[name]
        assert scaled_l2 / base == pytest.approx(2.0**e2, rel=1e-12)
        scaled_eps = evaluate(ComplexityInputs(10**6, 4, 8, 5e-4)).terms[name]
        assert scaled_eps / base == pytest.approx(2.0**ee, rel=1e-12)
        # l1 doubles from 4 to 8 while staying the smaller side
        scaled_l1 = evaluate(ComplexityInputs(10**6, 8, 8, 1e-3)).terms[name]
        assert scaled_l1 / base == pytest.approx(2.0**e1, rel=1e-12)

    def test_log_space_matches_direct(self):
        n, l1, l2, eps = 123_456, 7, 29, 0.0137
        res = evaluate(ComplexityInputs(n, l1, l2, eps))
        for name, (en, e1, e2, ee) in SIGNATURES.items():
            direct = n**en * l1**e1 * l2**e2 * (1.0 / eps) ** ee
            assert res.terms[name] == pytest.approx(direct, rel=1e-12)


class TestMonotonicity:
    def test_in_n(self):
        vals = [_value(n, 4, 8, 0.05) for n in (10, 10**3, 10**5, 10**7)]
        assert vals == sorted(vals) and len(set(vals)) == 4

    def test_in_l1(self):
        vals = [_value(10**5, l1, 64, 0.05) for l1 in (2, 4, 16, 64)]
        assert vals == sorted(vals) and len(set(vals)) == 4

    def test_in_l2(self):
        vals = [_value(10**5, 4, l2, 0.05) for l2 in (4, 16, 64, 256)]
        assert vals == sorted(vals) and len(set(vals)) == 4

    def test_in_inverse_eps(self):
        vals = [_value(10**5, 4, 8, eps) for eps in (0.5, 0.1, 0.02, 0.004)]
        assert vals == sorted(vals) and len(set(vals)) == 4


class TestStructure:
    def test_result_is_max_of_min(self):
        res = evaluate(ComplexityInputs(10**6, 4, 8, 1e-2))
        t = res.terms
        want = max(min(t["T1a"], t["T1b"]), t["T2"], t["T3"], t["T4"])
        assert res.value == pytest.approx(want, rel=0)
        assert res.value == t[res.active_term]

    def test_l_order_normalized(self):
        assert _value(10**5, 64, 4, 0.05) == _value(10**5, 4, 64, 0.05)

    def test_both_orders_never_larger(self):
        inp = ComplexityInputs(10**5, 4, 64, 0.05)
        assert evaluate(inp, both_orders=True).value <= evaluate(inp).value

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ComplexityInputs(0, 1, 1, 0.5)
        with pytest.raises(ValueError):
            ComplexityInputs(10, 2, 2, 0.0)
        with pytest.raises(ValueError):
            ComplexityInputs(10, 2, 2, 1.5)


class TestRegimeMap:
    def test_single_point(self):
        rows = regime_map([100], 4, 4, [0.01])
        assert len(rows) == 1
        assert rows[0]["dominant_regime"] == "T4"

    def test_regimes_shift_with_n(self):
        # at fixed small eps the sqrt term wins for small n and the min-pair
        # takes over for very large n
        rows = regime_map([100, 10**9], 4, 4, [0.01])
        assert rows[0]["dominant_regime"] == "T4"
        assert rows[-1]["dominant_regime"] == "T1"

    def test_rows_sorted_and_complete(self):
        rows = regime_map([10**4, 100], 2, 3, [0.5, 0.1])
        assert [(r["n"], r["eps"]) for r in rows] == [
            (100, 0.1), (100, 0.5), (10**4, 0.1), (10**4, 0.5)
        ]
        for row in rows:
            assert set(TERM_NAMES) <= set(row)

    def test_csv_render(self, capsys):
        # the map's n and eps come from numpy; the CSV holds plain numbers
        code = main(["complexity", "--map", "--l1", "4", "--l2", "4",
                     "--n-range", "100,100,1", "--eps-range", "0.01,0.01,1",
                     "--format", "csv"])
        assert code == EX_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == ",".join(COLUMNS)
        assert lines[0].startswith("n,l1,l2,eps,")
        assert "np.float64" not in lines[1]

    def test_map_honours_both_orders(self, capsys):
        code = main(["complexity", "--map", "--l1", "2", "--l2", "3",
                     "--n-range", "1e2,1e9,8", "--eps-range", "0.01,0.5,4",
                     "--both-orders"])
        assert code == EX_OK
        rows = json.loads(capsys.readouterr().out)["result"]["rows"]
        assert len(rows) == 32
        moved = 0
        for got in rows:
            inputs = ComplexityInputs(got["n"], 2, 3, got["eps"])
            assert got == row(inputs, evaluate(inputs, both_orders=True))
            moved += got != row(inputs, evaluate(inputs))
        assert moved  # n = 1e8, eps = 0.5 takes the swapped order


def test_log_spaced():
    grid = log_spaced(1.0, 100.0, 3)
    assert list(grid) == pytest.approx([1.0, 10.0, 100.0])
    with pytest.raises(ValueError):
        log_spaced(0.0, 1.0, 3)
