import pytest

from econarrative.harness import direction_of
from econarrative.models import financial_baseline

# hand-built 10-point series and its hand-derived facts
SERIES = [3.0, 3.5, 3.2, 3.8, 4.0, 4.0, 3.9, 4.2, 4.5, 4.4]
# directions of the 9 moves, by hand:
#  3.0->3.5 inc, 3.5->3.2 dec, 3.2->3.8 inc, 3.8->4.0 inc, 4.0->4.0 dec (tie),
#  4.0->3.9 dec, 3.9->4.2 inc, 4.2->4.5 inc, 4.5->4.4 dec
DIRECTIONS = ["increase", "decrease", "increase", "increase", "decrease",
              "decrease", "increase", "increase", "decrease"]
# one test row: the 8 values ending at the series' last day, its last 7 moves
WEEKS = [SERIES[-8:]]
# 5 of the 9 moves are up
TRAIN_LABELS = DIRECTIONS


def test_hand_directions_match_convention():
    computed = [direction_of(a, b) for a, b in zip(SERIES, SERIES[1:])]
    assert computed == DIRECTIONS


def _classify(kind, weeks=WEEKS, train_labels=TRAIN_LABELS):
    return financial_baseline(kind, "direction-change", weeks, train_labels)


class TestAllSevenKinds:
    def test_as_previous_regression(self):
        # the series read backwards ends at its first value
        weeks = [SERIES[-8:], SERIES[7::-1]]
        assert financial_baseline("as-previous", "next-value", weeks, []) == [4.4, 3.0]

    def test_as_previous_pct_change(self):
        assert financial_baseline("as-previous", "pct-change", WEEKS, []) == [
            100.0 * (4.4 - 4.5) / 4.5]

    def test_as_previous_classification(self):
        assert _classify("as-previous") == ["decrease"]

    def test_inverse_previous(self):
        assert _classify("inverse-previous") == ["increase"]
        # the week ending at 4.5 ends on an up move
        assert _classify("inverse-previous", [SERIES[-9:-1]]) == ["decrease"]

    def test_week_majority(self):
        # DIRECTIONS[-7:] = [inc, inc, dec, dec, inc, inc, dec]: 4 of 7 up
        assert _classify("week-majority") == ["increase"]

    def test_week_majority_explicit_five_of_seven(self):
        # moves inc, inc, inc, dec, dec, inc, inc
        assert _classify("week-majority", [[1.0, 2.0, 3.0, 4.0, 3.0, 2.0, 3.0, 4.0]]) == [
            "increase"]

    def test_train_majority(self):
        assert _classify("train-majority") == ["increase"]
        # a tie resolves to decrease
        assert _classify("train-majority", train_labels=["increase", "decrease"]) == ["decrease"]

    def test_up_down(self):
        assert _classify("up") == ["increase"]
        assert _classify("down") == ["decrease"]

    def test_train_mean(self):
        assert financial_baseline("train-mean", "next-value", WEEKS, [1.0, 2.0, 3.0]) == [2.0]
        assert financial_baseline("train-mean", "pct-change", WEEKS, SERIES) == [
            pytest.approx(3.85)]

    def test_one_prediction_per_row(self):
        weeks = [SERIES[:8], SERIES[1:9], SERIES[2:]]
        assert _classify("as-previous", weeks) == DIRECTIONS[-3:]
        assert _classify("up", weeks) == ["increase"] * 3
        assert financial_baseline("train-mean", "next-value", weeks, [1.0, 3.0]) == [2.0] * 3

    def test_purity(self):
        for kind in ("as-previous", "inverse-previous", "week-majority",
                     "train-majority", "up", "down"):
            assert _classify(kind) == _classify(kind)


class TestErrors:
    @pytest.mark.parametrize("kind, task", [
        ("inverse-previous", "next-value"),
        ("week-majority", "pct-change"),
        ("up", "next-value"),
        ("train-mean", "direction-change"),
    ])
    def test_kind_on_a_task_it_cannot_predict(self, kind, task):
        with pytest.raises(ValueError, match=f"'{kind}' baselines only fit .* not '{task}'"):
            financial_baseline(kind, task, WEEKS, TRAIN_LABELS)

    def test_unknown_task(self):
        with pytest.raises(ValueError, match="unknown task 'sideways'"):
            financial_baseline("as-previous", "sideways", WEEKS, [])

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown baseline"):
            financial_baseline("oracle", "direction-change", WEEKS, TRAIN_LABELS)

    @pytest.mark.parametrize("weeks", [SERIES[-8:], [SERIES[-7:]], [SERIES[-9:]]],
                             ids=["one-dimensional", "7-values", "9-values"])
    def test_weeks_not_rows_of_8_values(self, weeks):
        with pytest.raises(ValueError, match=r"weeks must have shape \(rows, 8\)"):
            financial_baseline("week-majority", "direction-change", weeks, TRAIN_LABELS)

    def test_zero_base_value_for_pct_change(self):
        with pytest.raises(ZeroDivisionError, match="zero base value"):
            financial_baseline("as-previous", "pct-change", [[1.0] * 6 + [0.0, 4.4]], [])
