import sys
from datetime import date

import pytest
from hypothesis import given, strategies as st

from econarrative import ingest
from econarrative.ingest import (
    FinancialSeries,
    IngestError,
    PreprocessRules,
    TweetCorpus,
    TweetRecord,
    align,
    blocking_split,
    chrono_split,
    load_series,
    load_tweets,
    preprocess,
)


def _record(i, d, text="hello world", followers=2000):
    return {"id": str(i), "date": d, "text": text, "followers": followers}


class TestLoadTweets:
    def test_follower_filter(self, write_jsonl):
        path = write_jsonl(
            [
                _record(1, "2021-09-01", followers=5000),
                _record(2, "2021-09-02", followers=500),
                _record(3, "2021-09-03", followers=1000),
            ]
        )
        corpus = load_tweets(path, min_followers=1000)
        assert len(corpus) == 2
        assert [r.id for r in corpus.records] == ["1", "3"]

    def test_empty_file(self, write_jsonl):
        corpus = load_tweets(write_jsonl([]))
        assert len(corpus) == 0
        assert corpus.date_range is None

    def test_invalid_date_names_line(self, write_jsonl):
        path = write_jsonl([_record(1, "2021-09-01"), _record(2, "2021-13-01")])
        with pytest.raises(IngestError, match="line 2"):
            load_tweets(path)

    def test_duplicate_id_rejected(self, write_jsonl):
        path = write_jsonl([_record(7, "2021-09-01"), _record(7, "2021-09-02")])
        with pytest.raises(IngestError, match="duplicate tweet id"):
            load_tweets(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="not found"):
            load_tweets(tmp_path / "nope.jsonl")

    def test_sorted_by_date(self, write_jsonl):
        path = write_jsonl([_record(1, "2021-09-05"), _record(2, "2021-09-01")])
        corpus = load_tweets(path)
        assert [r.date.isoformat() for r in corpus.records] == ["2021-09-01", "2021-09-05"]
        assert corpus.date_range == (date(2021, 9, 1), date(2021, 9, 5))


def _corpus(*records):
    records = sorted(records, key=lambda r: r.date)
    return TweetCorpus(
        records=tuple(records),
        date_range=(records[0].date, records[-1].date) if records else None,
    )


class TestPreprocess:
    def test_strips_links(self):
        corpus = _corpus(TweetRecord("1", date(2021, 1, 4), "Markets up! http://x.co/ab", 2000))
        out = preprocess(corpus)
        assert out.records[0].text == "Markets up!"

    def test_collapses_same_day_duplicates(self):
        corpus = _corpus(
            TweetRecord("1", date(2021, 1, 4), "Buy the dip", 2000),
            TweetRecord("2", date(2021, 1, 4), "buy  the DIP", 3000),
            TweetRecord("3", date(2021, 1, 5), "Buy the dip", 3000),
        )
        out = preprocess(corpus)
        assert len(out) == 2
        assert {r.date for r in out.records} == {date(2021, 1, 4), date(2021, 1, 5)}

    def test_url_only_tweet_dropped(self):
        corpus = _corpus(TweetRecord("1", date(2021, 1, 4), "http://x.co/ab", 2000))
        assert len(preprocess(corpus)) == 0

    def test_emoji_mapped_to_alias(self):
        corpus = _corpus(TweetRecord("1", date(2021, 1, 4), "Markets \U0001f4c9 today", 2000))
        out = preprocess(corpus)
        assert out.records[0].text == "Markets chart decreasing today"

    def test_idempotent(self):
        corpus = _corpus(
            TweetRecord("1", date(2021, 1, 4), "Rally \U0001f680 https://t.co/x  now", 2000),
            TweetRecord("2", date(2021, 1, 4), "rally \U0001f680  NOW", 900),
        )
        once = preprocess(corpus)
        twice = preprocess(once)
        assert [r.text for r in once.records] == [r.text for r in twice.records]
        assert len(once) == len(twice)

    @given(st.text(max_size=80))
    def test_idempotent_property(self, text):
        corpus = _corpus(TweetRecord("1", date(2021, 1, 4), text, 2000))
        once = preprocess(corpus)
        twice = preprocess(once)
        assert [r.text for r in once.records] == [r.text for r in twice.records]


    def test_unchanged_record_is_reused(self):
        rec = TweetRecord("1", date(2021, 1, 4), "clean text already", 2000)
        out = preprocess(_corpus(rec))
        assert out.records[0] is rec

    def test_casefold_neither_makes_nor_changes_whitespace(self):
        # the dedupe key skips a second whitespace pass on this property
        for cp in range(sys.maxunicode + 1):
            ch = chr(cp)
            folded = ch.casefold()
            if ingest.WS_RE.fullmatch(ch):
                assert folded == ch, hex(cp)
            else:
                assert ingest.WS_RE.search(folded) is None, hex(cp)
                assert not any(c.isspace() for c in folded), hex(cp)


class TestLoadSeries:
    def test_basic(self, write_csv):
        path = write_csv(["2021-01-04,1.0", "2021-01-05,2.0", "2021-01-06,3.0"])
        series = load_series(path)
        assert len(series) == 3
        assert series.values == [1.0, 2.0, 3.0]

    def test_duplicate_date_rejected(self, write_csv):
        path = write_csv(["2021-01-04,1.0", "2021-01-04,2.0"])
        with pytest.raises(IngestError, match="2021-01-04"):
            load_series(path)

    def test_missing_cell_skipped_and_counted(self, write_csv):
        path = write_csv(["2021-01-04,1.0", "2021-01-05,N/A", "2021-01-06,3.0"])
        series = load_series(path)
        assert len(series) == 2
        assert series.skipped_rows == 1

    def test_missing_column(self, write_csv):
        path = write_csv(["2021-01-04,1.0"], header="date,close")
        with pytest.raises(IngestError, match="'value'"):
            load_series(path)

    def test_non_numeric_value(self, write_csv):
        path = write_csv(["2021-01-04,abc"])
        with pytest.raises(IngestError, match="non-numeric"):
            load_series(path)

    def test_positive_indicator_enforced(self):
        with pytest.raises(IngestError, match="strictly positive"):
            FinancialSeries("VIX", points=((date(2021, 1, 4), -1.0),))


def _series(*pairs, name="TEST"):
    return FinancialSeries(name, points=tuple((d, float(v)) for d, v in pairs))


class TestAlign:
    # Fri 2021-01-08, Mon 2021-01-11, Tue 2021-01-12: a hand-built
    # three-day trading calendar around one weekend
    CAL = ((date(2021, 1, 8), 10.0), (date(2021, 1, 11), 11.0), (date(2021, 1, 12), 12.0))

    def test_weekend_tweet_attaches_to_next_trading_day(self):
        corpus = _corpus(
            TweetRecord("fri", date(2021, 1, 8), "friday news", 2000),
            TweetRecord("sat", date(2021, 1, 9), "weekend news", 2000),
        )
        dataset = align(corpus, _series(*self.CAL))
        assert [r.id for r in dataset.tweets_on(date(2021, 1, 8))] == ["fri"]
        assert [r.id for r in dataset.tweets_on(date(2021, 1, 11))] == ["sat"]

    def test_weekend_only_corpus_attaches_forward(self):
        corpus = _corpus(TweetRecord("sat", date(2021, 1, 9), "weekend news", 2000))
        dataset = align(corpus, _series(*self.CAL))
        assert dataset.dates == (date(2021, 1, 11),)
        assert [r.id for r in dataset.tweets_on(date(2021, 1, 11))] == ["sat"]

    def test_tweet_outside_series_range_excluded(self):
        corpus = _corpus(
            TweetRecord("1", date(2021, 1, 1), "too early", 2000),
            TweetRecord("2", date(2021, 1, 11), "in range", 2000),
        )
        dataset = align(corpus, _series(*self.CAL))
        all_ids = [r.id for day in dataset.tweets for r in day]
        assert all_ids == ["2"]

    def test_no_tweets_full_value_coverage(self):
        dataset = align(TweetCorpus(records=(), date_range=None), _series(*self.CAL))
        assert len(dataset) == 3
        assert all(day == () for day in dataset.tweets)

    def test_values_preserved_bit_exactly(self):
        values = (10.123456789012345, 11.000000000000002, 0.1 + 0.2)
        series = _series(*zip([d for d, _ in self.CAL], values))
        dataset = align(TweetCorpus(records=(), date_range=None), series)
        assert dataset.values == values

    def test_index_of_agrees_with_tuple_index(self):
        corpus = _corpus(TweetRecord("1", date(2021, 1, 9), "weekend news", 2000))
        dataset = align(corpus, _series(*self.CAL, (date(2021, 1, 13), 13.0)))
        for d in dataset.dates:
            assert dataset.index_of(d) == dataset.dates.index(d)
        with pytest.raises(KeyError, match="not in dataset"):
            dataset.index_of(date(2021, 1, 9))

    def test_empty_overlap(self):
        corpus = _corpus(TweetRecord("1", date(2030, 1, 1), "future", 2000))
        with pytest.raises(IngestError, match="overlap"):
            align(corpus, _series(*self.CAL))


class TestBlockingSplit:
    def _ten_points(self):
        return _series(*((date(2021, 1, i + 1), float(i)) for i in range(10)))

    def test_boundary_after_point_4(self):
        series = self._ten_points()
        blocks = blocking_split(series, [date(2021, 1, 5)])
        assert [b.sample_count for b in blocks] == [4, 6]

    def test_no_boundaries_identity(self):
        series = self._ten_points()
        blocks = blocking_split(series, [])
        assert len(blocks) == 1
        assert blocks[0].sample_count == 10
        assert blocks[0].start == date(2021, 1, 1)
        assert blocks[0].end == date(2021, 1, 10)

    def test_partition_reproduces_series(self):
        series = self._ten_points()
        blocks = blocking_split(series, [date(2021, 1, 3), date(2021, 1, 8)])
        assert sum(b.sample_count for b in blocks) == len(series)
        rebuilt = []
        for block in blocks:
            rebuilt.extend(p for p in series.points if block.start <= p[0] <= block.end)
        assert tuple(rebuilt) == series.points

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(IngestError, match="sorted"):
            blocking_split(self._ten_points(), [date(2021, 1, 8), date(2021, 1, 3)])

    def test_policy_rate_regime_block_count(self):
        # calendar-daily series spanning 2007..2020 split at the two
        # regime edges; the middle (zero-rate era) block holds 2207 days
        start, end = date(2007, 1, 1), date(2020, 12, 31)
        days = []
        d = start
        while d <= end:
            days.append((d, 1.0))
            d = d.fromordinal(d.toordinal() + 1)
        series = FinancialSeries("FFR", points=tuple(days), frequency="daily")
        blocks = blocking_split(series, [date(2008, 12, 16), date(2015, 1, 1)])
        assert blocks[1].sample_count == 2207


class TestChronoSplit:
    def _aligned(self, n):
        series = _series(*((date(2020, 1, 1) + (date(2020, 1, 2) - date(2020, 1, 1)) * i, float(i)) for i in range(n)))
        return align(TweetCorpus(records=(), date_range=None), series)

    def test_80_20(self):
        train, test = chrono_split(self._aligned(100), 0.8)
        assert len(train) == 80
        assert len(test) == 20

    def test_half(self):
        train, test = chrono_split(self._aligned(10), 0.5)
        assert len(train) == 5
        assert max(train.dates) < min(test.dates)

    def test_single_point_rejected(self):
        with pytest.raises(IngestError):
            chrono_split(self._aligned(1), 0.8)

    @given(st.integers(min_value=3, max_value=60), st.floats(min_value=0.1, max_value=0.9))
    def test_never_leaks(self, n, fraction):
        import math

        n_train = math.floor(fraction * n)
        if n_train in (0, n):
            return
        train, test = chrono_split(self._aligned(n), fraction)
        assert max(train.dates) < min(test.dates)
        assert len(train) + len(test) == n
