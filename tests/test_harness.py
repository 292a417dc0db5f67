import math
from datetime import date, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from econarrative.harness import (
    TASKS,
    EntryError,
    McNemarResult,
    evaluate,
    make_labels,
    mcnemar,
    moves,
)
from econarrative.ingest import FinancialSeries


def _series(values, start=date(2020, 1, 1)):
    dates = tuple(start + timedelta(days=i) for i in range(len(values)))
    return FinancialSeries("TEST", dates, tuple(float(v) for v in values))


class TestMakeLabels:
    def test_pct_change_next_day(self):
        labels = make_labels(_series([100.0, 110.0]), "pct-change", 1)
        assert labels.values == (10.0,)

    def test_direction_next_day(self):
        labels = make_labels(_series([100.0, 110.0]), "direction-change", 1)
        assert labels.values == ("increase",)

    def test_tie_labels_decrease(self):
        labels = make_labels(_series([5.0, 5.0]), "direction-change", 1)
        assert labels.values == ("decrease",)

    def test_tie_convention_consistent_under_perturbation(self):
        # any upward nudge flips to increase, any downward stays decrease
        for eps in (1e-12, 1e-9, 1e-6, 1e-3):
            up = make_labels(_series([5.0, 5.0 + eps]), "direction-change", 1)
            down = make_labels(_series([5.0, 5.0 - eps]), "direction-change", 1)
            assert up.values == ("increase",)
            assert down.values == ("decrease",)

    def test_next_value(self):
        labels = make_labels(_series([1.0, 2.0, 3.0]), "next-value", 1)
        assert labels.values == (2.0, 3.0)

    def test_horizon_consumes_tail(self):
        labels = make_labels(_series(range(10)), "next-value", 7)
        assert len(labels.dates) == 3
        assert labels.values == (7.0, 8.0, 9.0)

    def test_horizon_longer_than_series(self):
        with pytest.raises(ValueError, match="horizon"):
            make_labels(_series([1.0, 2.0]), "next-value", 7)

    def test_label_uses_horizon_edge_pair(self):
        # h=7: label compares V(t+7) against V(t+6), not against V(t)
        values = [10.0] * 7 + [20.0, 5.0]
        labels = make_labels(_series(values), "direction-change", 7)
        assert labels.values == ("increase", "decrease")

    @pytest.mark.parametrize("horizon", [1, 7])
    def test_zero_base_names_the_base_day(self, horizon):
        values = [float(v) for v in range(1, 13)]
        values[9] = 0.0  # the base of the move that labels day t = 10 - horizon
        series = _series(values)
        with pytest.raises(ZeroDivisionError) as caught:
            make_labels(series, "pct-change", horizon)
        # the base day t+h-1, not the labelled day t
        assert str(caught.value) == f"zero base value at {series.dates[9]}"


class TestEvaluate:
    def test_perfect_predictions(self):
        report = evaluate([1.0, 2.0], [1.0, 2.0], "next-value")
        assert report.mse == 0.0
        report = evaluate(["increase"], ["increase"], "direction-change")
        assert report.accuracy == 1.0 and report.f1 == 1.0

    def test_up_predictor_identity(self):
        labels = ["increase"] * 576 + ["decrease"] * 424
        report = evaluate(["increase"] * 1000, labels, "direction-change")
        assert report.accuracy == pytest.approx(0.576)
        assert report.f1 == pytest.approx(2 * 0.576 / 1.576)
        assert report.f1 == pytest.approx(0.731, abs=5e-4)

    def test_down_predictor_zero_f1(self):
        labels = ["increase"] * 576 + ["decrease"] * 424
        report = evaluate(["decrease"] * 1000, labels, "direction-change")
        assert report.accuracy == pytest.approx(0.424)
        assert report.f1 == 0.0

    def test_mse(self):
        report = evaluate([1.0, 3.0], [2.0, 1.0], "pct-change")
        assert report.mse == pytest.approx((1.0 + 4.0) / 2)

    def test_overflowing_squared_error_names_the_prediction(self):
        # (1e200 - 1.0) ** 2 overflows a float: a plain ValueError that names
        # the prediction, not a bare OverflowError
        with pytest.raises(ValueError, match=r"prediction 1 is 1e\+200"):
            evaluate([1.0, 1e200, 2.0], [1.0, 1.0, 2.0], "next-value")

    @pytest.mark.parametrize("predictions, labels, message", [
        ([1.0, "x", 2.0], [1.0, 1.0, 2.0], "prediction 1 is 'x', not a number"),
        ([1.0, 1.0], ["1.0", None], "label 1 is None, not a number"),
    ])
    def test_non_numeric_regression_entry_is_named(self, predictions, labels, message):
        with pytest.raises(EntryError, match=message) as caught:
            evaluate(predictions, labels, "pct-change")
        assert caught.value.index == 1

    def test_int_beyond_float_range_is_named(self):
        with pytest.raises(EntryError, match="prediction 0 is beyond float range") as caught:
            evaluate([10**400], [1.0], "next-value")
        assert caught.value.index == 0

    @pytest.mark.parametrize("predictions, labels, index, message", [
        (["increase", "up", 1.5], ["increase", "decrease", "Increase"], 1,
         "prediction 1 is 'up', not 'increase' or 'decrease'"),
        (["increase", "decrease"], ["increase", "Increase"], 1,
         "label 1 is 'Increase', not 'increase' or 'decrease'"),
        ([1.5], ["increase"], 0, "prediction 0 is 1.5, not 'increase' or 'decrease'"),
    ])
    def test_non_direction_classification_entry_is_named(self, predictions, labels, index,
                                                        message):
        with pytest.raises(EntryError, match=message) as caught:
            evaluate(predictions, labels, "direction-change")
        assert caught.value.index == index

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="predictions"):
            evaluate([1.0], [1.0, 2.0], "next-value")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate([], [], "next-value")

    @given(st.lists(st.sampled_from(["increase", "decrease"]), min_size=1, max_size=200))
    def test_up_predictor_accuracy_equals_increase_fraction(self, labels):
        report = evaluate(["increase"] * len(labels), labels, "direction-change")
        fraction = labels.count("increase") / len(labels)
        assert report.accuracy == pytest.approx(fraction)
        if fraction > 0:
            assert report.f1 == pytest.approx(2 * fraction / (fraction + 1))


def exact_binomial_two_sided(b, c):
    """Independent oracle: direct two-sided binomial tail sum."""
    n = b + c
    if n == 0:
        return 1.0
    k = min(b, c)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2.0**n
    return min(1.0, 2.0 * tail)


class TestMcNemar:
    def test_identical_vectors(self):
        result = mcnemar([True, False, True], [True, False, True])
        assert (result.b, result.c) == (0, 0)
        assert result.p_value == 1.0

    def test_exact_case_matches_oracle(self):
        a = [True] * 5 + [False] * 15 + [True] * 30
        b = [False] * 5 + [True] * 15 + [True] * 30
        result = mcnemar(a, b)
        assert result.method == "exact"
        assert (result.b, result.c) == (5, 15)
        assert result.p_value == pytest.approx(exact_binomial_two_sided(5, 15), abs=1e-9)
        assert result.p_value == pytest.approx(0.0414, abs=5e-5)

    def test_balanced_large_disagreement_near_one(self):
        a = [True] * 50 + [False] * 50
        b = [False] * 50 + [True] * 50
        result = mcnemar(a, b)
        assert result.method == "chi-square-corrected"
        assert result.p_value > 0.9

    def test_switches_to_chi_square_at_25(self):
        a = [True] * 13 + [False] * 12
        b = [False] * 13 + [True] * 12
        assert mcnemar(a, b).method == "chi-square-corrected"
        assert mcnemar(a[:-1], b[:-1]).method == "exact"

    def test_chi_square_against_erfc_identity(self):
        a = [True] * 40 + [False] * 10 + [True] * 50
        b = [False] * 40 + [True] * 10 + [True] * 50
        result = mcnemar(a, b)
        statistic = (abs(40 - 10) - 1) ** 2 / 50
        assert result.p_value == pytest.approx(math.erfc(math.sqrt(statistic / 2)), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mcnemar([True], [True, False])

    @given(
        st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=120)
    )
    def test_symmetric_under_model_swap(self, pairs):
        a = [x for x, _ in pairs]
        b = [y for _, y in pairs]
        ab = mcnemar(a, b)
        ba = mcnemar(b, a)
        assert ab.p_value == pytest.approx(ba.p_value, abs=1e-12)
        assert (ab.b, ab.c) == (ba.c, ba.b)


def test_direction_moves():
    assert moves([1.0, 2.0], "direction-change") == ["increase"]
    assert moves([2.0, 1.0], "direction-change") == ["decrease"]
    assert moves([2.0, 2.0], "direction-change") == ["decrease"]


def _scalar_moves(values, task):
    """Independent oracle: the move rule one pair at a time in float arithmetic;
    a zero pct-change base raises ZeroDivisionError."""
    if values and isinstance(values[0], list):
        return [_scalar_moves(row, task) for row in values]
    out = []
    for before, ahead in zip(values, values[1:]):
        if task == "next-value":
            out.append(ahead)
        elif task == "pct-change":
            out.append(100.0 * (ahead - before) / before)
        else:
            out.append("increase" if ahead > before else "decrease")
    return out


def _bits(labels):
    """Each label's type and exact bits, nested as given."""
    if isinstance(labels, list):
        return [_bits(label) for label in labels]
    return type(labels), labels.hex() if isinstance(labels, float) else labels


# any finite float, or one of a few values so that flat moves come up often
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-2.0, -0.5, 1.5, 3.0])
ARRAYS = st.lists(FINITE, max_size=12) | st.integers(0, 6).flatmap(
    lambda width: st.lists(st.lists(FINITE, min_size=width, max_size=width), min_size=1, max_size=5))


@settings(max_examples=300, deadline=None)
@given(values=ARRAYS, task=st.sampled_from(TASKS))
def test_moves_match_a_scalar_loop_bit_for_bit(values, task):
    try:
        expected = _scalar_moves(values, task)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError, match="zero base value"):
            moves(values, task)
        return
    assert _bits(moves(values, task)) == _bits(expected)
