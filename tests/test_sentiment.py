import itertools
import math
import re
from datetime import date

import numpy as np
import pytest
from hypothesis import given, strategies as st

from econarrative import sentiment
from econarrative.experiment import _windows
from econarrative.ingest import AlignedDataset, TweetCorpus, TweetRecord
from econarrative.sentiment import (
    NEGATION_SCALE,
    NORMALIZATION_ALPHA,
    daily_sentiment,
    daily_sentiment_column,
    load_lexicon,
    score,
    sentiment_histogram,
    word_frequency_timeline,
)

ALPHA = 15.0


def _compound(s):
    return s / math.sqrt(s * s + ALPHA)


class TestScore:
    def test_empty_text(self):
        assert score("") == 0.0

    def test_all_unknown_tokens(self):
        assert score("the of and") == 0.0

    def test_single_known_token(self):
        # bundled valence for "good" is 1.9; normalization hand-evaluated
        assert score("good") == pytest.approx(1.9 / math.sqrt(1.9**2 + 15), abs=1e-12)
        assert score("good") == pytest.approx(0.4404, abs=1e-4)

    def test_negation_flips_and_dampens(self):
        expected = _compound(1.9 * -0.74)
        assert score("not good") == pytest.approx(expected, abs=1e-12)

    def test_negation_window_is_three_tokens(self):
        inside = score("not a very good day")  # negator 3 tokens before "good"
        outside = score("not a very very good day")  # 4 tokens before
        assert inside == pytest.approx(_compound(1.9 * -0.74), abs=1e-12)
        assert outside == pytest.approx(_compound(1.9), abs=1e-12)

    def test_order_independent_sum(self):
        assert score("good bad") == score("bad good")

    def test_bounded(self):
        text = " ".join(["great"] * 200)
        assert abs(score(text)) < 1.0

    @given(st.floats(min_value=-500, max_value=500, allow_nan=False))
    def test_normalization_bound_and_monotone(self, s):
        value = _compound(s)
        assert abs(value) < 1.0
        assert _compound(s + 1.0) > value

    def test_lexicon_constants(self):
        assert -1.0 < NEGATION_SCALE < 0.0
        assert NORMALIZATION_ALPHA > 0
        assert all(math.isfinite(v) for v in load_lexicon().valences.values())


def _aligned(day_texts):
    """day_texts: list of (date, [texts])."""
    dates = tuple(d for d, _ in day_texts)
    corpus = TweetCorpus.from_records(
        TweetRecord(f"{i}-{j}", d, t, 1000)
        for i, (d, texts) in enumerate(day_texts)
        for j, t in enumerate(texts)
    )
    offsets = tuple(itertools.accumulate((len(texts) for _, texts in day_texts), initial=0))
    return AlignedDataset(dates=dates, values=tuple(1.0 for _ in dates), corpus=corpus,
                          offsets=offsets, indicator="T")


class TestDailySentiment:
    def test_symmetric_scores_average_to_zero(self):
        # rise (+1.2) and fall (-1.2) are symmetric in the bundled lexicon
        dataset = _aligned([(date(2021, 1, 4), ["rise", "fall"])])
        assert daily_sentiment(dataset, date(2021, 1, 4)) == pytest.approx(0.0, abs=1e-12)

    def test_empty_day_is_zero(self):
        dataset = _aligned([(date(2021, 1, 4), [])])
        assert daily_sentiment(dataset, date(2021, 1, 4)) == 0.0

    def test_single_tweet_identity(self):
        dataset = _aligned([(date(2021, 1, 4), ["good"])])
        assert daily_sentiment(dataset, date(2021, 1, 4)) == pytest.approx(score("good"))

    def test_unknown_date_rejected(self):
        dataset = _aligned([(date(2021, 1, 4), [])])
        with pytest.raises(KeyError):
            daily_sentiment(dataset, date(2021, 1, 5))

    def test_mean_within_tweet_score_range(self):
        dataset = _aligned([(date(2021, 1, 4), ["great win", "bad loss", "fine"])])
        scores = [score(t) for t in ["great win", "bad loss", "fine"]]
        value = daily_sentiment(dataset, date(2021, 1, 4))
        assert min(scores) <= value <= max(scores)


    def test_column_equals_per_day_means_exactly(self):
        dataset = _aligned(
            [
                (date(2021, 1, 4), ["great win", "bad loss", "fine"]),
                (date(2021, 1, 5), []),
                (date(2021, 1, 6), ["not good", "rise and fall", "the of and"]),
            ]
        )
        column = daily_sentiment_column(dataset)
        assert column.tolist() == [daily_sentiment(dataset, d) for d in dataset.dates]


REPEATS = [
    (date(2021, 1, 4), ["great win", "bad loss", "great win"]),
    (date(2021, 1, 5), []),
    (date(2021, 1, 6), ["bad loss", "fine", "great win", "fine"]),
    (date(2021, 1, 7), ["great win"]),
]


def _count_scores(monkeypatch):
    """The texts sentiment.score is called on, from here on."""
    calls = []

    def counting_score(text):
        calls.append(text)
        return score(text)

    monkeypatch.setattr(sentiment, "score", counting_score)
    return calls


class TestDistinctTexts:
    def test_column_scores_each_distinct_aligned_text_once(self, monkeypatch):
        dataset = _aligned(REPEATS)
        want = [daily_sentiment(dataset, d) for d in dataset.dates]
        calls = _count_scores(monkeypatch)
        assert daily_sentiment_column(dataset).tolist() == want
        assert calls == ["great win", "bad loss", "fine"]

    def test_histogram_scores_each_distinct_text_once(self, monkeypatch):
        texts = [t for _, day in REPEATS for t in day]
        corpus = _corpus([TweetRecord(str(i), date(2021, 1, 4), t, 1000) for i, t in enumerate(texts)])
        want = dict.fromkeys(sentiment_histogram(_corpus([]), 0.25), 0)
        for text in texts:
            want[list(want)[min(int((score(text) + 1.0) / 0.25), 7)]] += 1
        calls = _count_scores(monkeypatch)
        assert sentiment_histogram(corpus, 0.25) == want
        assert calls == ["great win", "bad loss", "fine"]


class TestSentimentWindow:
    """The sentiment-window feature: the 7 daily scores ending at a row's
    day, cut from the daily score column as build_features cuts them."""

    def _week(self, texts_per_day):
        days = [(date(2021, 1, 4 + i), texts) for i, texts in enumerate(texts_per_day)]
        return _aligned(days)

    def _window(self, dataset, end_date):
        column = daily_sentiment_column(dataset)[:, None]
        block, last_read = _windows(column, 7, np.array([dataset.index_of(end_date)]))
        assert dataset.dates[last_read[0]] == end_date
        return block[0].tolist()

    def test_all_quiet(self):
        dataset = self._week([[]] * 7)
        assert self._window(dataset, date(2021, 1, 10)) == [0.0] * 7

    def test_date_order_oldest_first(self):
        texts = [["good"] * (i + 1) + ["bad"] for i in range(7)]  # increasing positivity
        dataset = self._week(texts)
        values = self._window(dataset, date(2021, 1, 10))
        assert values == sorted(values)
        assert values[0] < values[-1]

    def test_insufficient_history(self):
        dataset = self._week([[]] * 7)
        with pytest.raises(ValueError, match="7 trading days"):
            self._window(dataset, date(2021, 1, 9))


def _corpus(records):
    return TweetCorpus.from_records(records)


class TestWordFrequency:
    def test_counts_per_month(self):
        corpus = _corpus(
            [
                TweetRecord("1", date(2011, 7, 1), "debt ceiling talks", 1000),
                TweetRecord("2", date(2011, 7, 15), "more debt worries", 1000),
                TweetRecord("3", date(2011, 7, 30), "the debt keeps growing", 1000),
            ]
        )
        timeline = word_frequency_timeline(corpus, "debt", "month")
        assert timeline == [("2011-07", 3)]

    def test_absent_term_all_zero(self):
        corpus = _corpus(
            [
                TweetRecord("1", date(2011, 7, 1), "markets are open", 1000),
                TweetRecord("2", date(2011, 9, 1), "markets are closed", 1000),
            ]
        )
        timeline = word_frequency_timeline(corpus, "debt", "month")
        assert timeline == [("2011-07", 0), ("2011-08", 0), ("2011-09", 0)]

    def test_case_insensitive_token_match(self):
        corpus = _corpus([TweetRecord("1", date(2011, 7, 1), "DEBT and indebted", 1000)])
        timeline = word_frequency_timeline(corpus, "debt", "day")
        assert timeline == [("2011-07-01", 1)]  # token match, not substring

    def test_empty_term_rejected(self):
        with pytest.raises(ValueError):
            word_frequency_timeline(_corpus([]), "")

    @pytest.mark.parametrize("term", ["markets rally", "U.S.", " debt "])
    def test_term_of_more_than_one_token_rejected(self, term):
        # none of these can equal a token, so the timeline would be all zeros
        corpus = _corpus([TweetRecord("1", date(2011, 7, 1), "markets rally on U.S. debt", 1000)])
        with pytest.raises(ValueError, match=f"term {re.escape(repr(term))} is not one token"):
            word_frequency_timeline(corpus, term)


class TestSentimentHistogram:
    def test_two_scores_two_bins(self):
        # "terrible loss" lands in [-1, -0.5); "fine" in [0, 0.5)
        corpus = _corpus(
            [
                TweetRecord("1", date(2021, 1, 4), "terrible terrible loss crash", 1000),
                TweetRecord("2", date(2021, 1, 4), "fine", 1000),
            ]
        )
        hist = sentiment_histogram(corpus, 0.5)
        assert hist[(-1.0, -0.5)] == 1
        assert hist[(0.0, 0.5)] == 1
        assert sum(hist.values()) == 2

    def test_single_wide_bin(self):
        corpus = _corpus(
            [
                TweetRecord("1", date(2021, 1, 4), "great", 1000),
                TweetRecord("2", date(2021, 1, 4), "awful", 1000),
            ]
        )
        hist = sentiment_histogram(corpus, 2.0)
        assert list(hist.keys()) == [(-1.0, 1.0)]
        assert hist[(-1.0, 1.0)] == 2

    def test_empty_corpus(self):
        hist = sentiment_histogram(_corpus([]), 0.5)
        assert sum(hist.values()) == 0

    def test_non_positive_width_rejected(self):
        with pytest.raises(ValueError):
            sentiment_histogram(_corpus([]), 0.0)

    @pytest.mark.parametrize("width", [-0.5, 0.0, math.inf, math.nan])
    def test_width_that_is_not_positive_and_finite_is_named(self, width):
        with pytest.raises(ValueError, match=f"^bin_width must be positive and finite, not {width!r}$"):
            sentiment_histogram(_corpus([]), width)

    @given(
        st.lists(st.sampled_from(["great win", "bad loss", "fine", "the", "panic crash"]), max_size=30),
        st.sampled_from([0.1, 0.25, 0.5, 0.7, 1.0, 2.0]),
    )
    def test_counts_sum_to_corpus_size(self, texts, width):
        corpus = _corpus(
            [TweetRecord(str(i), date(2021, 1, 4), t, 1000) for i, t in enumerate(texts)]
        )
        hist = sentiment_histogram(corpus, width)
        assert sum(hist.values()) == len(texts)
