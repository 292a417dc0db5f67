import math
from datetime import date

import pytest
from hypothesis import given, strategies as st

from econarrative.ingest import AlignedDataset, TweetCorpus, TweetRecord
from econarrative.sentiment import (
    DailySentimentVector,
    SentimentLexicon,
    daily_sentiment,
    daily_sentiment_column,
    load_lexicon,
    score,
    sentiment_histogram,
    sentiment_window,
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
        lex = load_lexicon()
        assert -1.0 < lex.negation_scale < 0.0
        assert lex.normalization_alpha > 0
        assert all(math.isfinite(v) for v in lex.valences.values())

    def test_bad_lexicon_constants_rejected(self):
        with pytest.raises(ValueError):
            SentimentLexicon(valences={}, negation_scale=0.5)


def _aligned(day_texts):
    """day_texts: list of (date, [texts])."""
    dates = tuple(d for d, _ in day_texts)
    tweets = tuple(
        tuple(TweetRecord(f"{i}-{j}", d, t, 1000) for j, t in enumerate(texts))
        for i, (d, texts) in enumerate(day_texts)
    )
    return AlignedDataset(dates=dates, values=tuple(1.0 for _ in dates), tweets=tweets, indicator="T")


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


class TestSentimentWindow:
    def _week(self, texts_per_day):
        days = [(date(2021, 1, 4 + i), texts) for i, texts in enumerate(texts_per_day)]
        return _aligned(days)

    def test_all_quiet(self):
        dataset = self._week([[]] * 7)
        vec = sentiment_window(dataset, date(2021, 1, 10))
        assert vec.values == (0.0,) * 7

    def test_date_order_oldest_first(self):
        texts = [["good"] * (i + 1) for i in range(7)]  # increasing positivity
        dataset = self._week(texts)
        vec = sentiment_window(dataset, date(2021, 1, 10))
        assert list(vec.values) == sorted(vec.values)
        assert vec.end_date == date(2021, 1, 10)

    def test_insufficient_history(self):
        dataset = self._week([[]] * 7)
        with pytest.raises(ValueError, match="7 trading days"):
            sentiment_window(dataset, date(2021, 1, 9))

    def test_vector_length_enforced(self):
        with pytest.raises(ValueError):
            DailySentimentVector(end_date=date(2021, 1, 4), values=(0.0,) * 6)


def _corpus(records):
    records = sorted(records, key=lambda r: r.date)
    return TweetCorpus(
        records=tuple(records),
        date_range=(records[0].date, records[-1].date) if records else None,
    )


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
