import json
import re
import sys
from datetime import date, timedelta

import pytest
from hypothesis import given, strategies as st

from econarrative import ingest
from econarrative.ingest import (
    FinancialSeries,
    IngestError,
    TweetCorpus,
    TweetRecord,
    align,
    distinct_index,
    load_series,
    load_tweets,
    preprocess,
    train_size,
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

    @pytest.mark.parametrize("line", ["[1, 2]", '"x"', "5", "null"])
    def test_json_value_that_is_not_an_object_names_line(self, tmp_path, line):
        path = tmp_path / "tweets.jsonl"
        path.write_text(json.dumps(_record(1, "2021-09-01")) + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(IngestError, match="line 2: expected a JSON object"):
            load_tweets(path)

    @pytest.mark.parametrize("field", ingest.REQUIRED_FIELDS)
    def test_null_field_names_line_and_field(self, write_jsonl, field):
        bad = {**_record(2, "2021-09-02"), field: None}
        with pytest.raises(IngestError, match=f"line 2: field '{field}' is null"):
            load_tweets(write_jsonl([_record(1, "2021-09-01"), bad]))

    def test_follower_count_of_wrong_type_names_line(self, write_jsonl):
        bad = {**_record(2, "2021-09-02"), "followers": [5]}
        with pytest.raises(IngestError, match="line 2: int"):
            load_tweets(write_jsonl([_record(1, "2021-09-01"), bad]))

    @pytest.mark.parametrize("field, value, kind", [
        ("followers", 1500.9, "integer"),
        ("followers", True, "integer"),
        ("followers", "1500", "integer"),
        ("text", 5, "string"),
        ("text", ["a"], "string"),
        ("date", 20150105, "string"),  # not read as 2015-01-05
        ("topic", [1, 2], "string"),
    ])
    def test_field_of_wrong_type_names_line_and_field(self, write_jsonl, field, value, kind):
        bad = {**_record(2, "2021-09-02"), field: value}
        expected = f"line 2: {kind} expected in '{field}', got {type(value).__name__}"
        with pytest.raises(IngestError, match=re.escape(expected)):
            load_tweets(write_jsonl([_record(1, "2021-09-01"), bad]))

    def test_null_user_id_names_line_and_field(self, write_jsonl):
        bad = {**_record(2, "2021-09-02"), "user_id": None}  # not read as "None"
        with pytest.raises(IngestError, match="line 2: field 'user_id' is null"):
            load_tweets(write_jsonl([_record(1, "2021-09-01"), bad]))

    def test_numeric_user_id_and_null_topic_load(self, write_jsonl):
        corpus = load_tweets(write_jsonl([{**_record(1, "2021-09-01"), "user_id": 42,
                                           "topic": None}]))
        assert (corpus.user_ids, corpus.topics) == (("42",), (None,))

    @pytest.mark.parametrize("line, message", [
        ('{"id": "2"} x', "Extra data"),
        ('{"id": "2",', "Expecting property name enclosed in double quotes"),
        ("\ufeff{}", "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        ("\u3000{}", "Expecting value"),
    ])
    def test_invalid_json_message_is_json_loads_message(self, tmp_path, line, message):
        path = tmp_path / "tweets.jsonl"
        path.write_text(json.dumps(_record(1, "2021-09-01")) + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(json.JSONDecodeError, match=re.escape(message)):
            json.loads(line)
        with pytest.raises(IngestError, match=re.escape(f"line 2: invalid JSON ({message})")):
            load_tweets(path)

    def test_whitespace_lines_are_skipped(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        lines = ["", " \t", "\u3000\x0c", "  " + json.dumps(_record(1, "2021-09-01")) + " \r"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert load_tweets(path).ids == ("1",)

    def test_numeric_id_is_read_as_text(self, write_jsonl):
        corpus = load_tweets(write_jsonl([{**_record(1, "2021-09-01"), "id": 123456789}]))
        assert corpus.records[0].id == "123456789"

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
    return TweetCorpus.from_records(records)


def test_rank_by_followers_keeps_posting_order_on_ties():
    day = [TweetRecord(str(i), date(2021, 9, 1), f"t{i}", followers=f)
           for i, f in enumerate([5, 9, 5, 9, 1])]
    assert ingest.rank_counts([t.followers for t in day]) == [1, 3, 0, 2, 4]


@given(st.lists(st.sampled_from(["a", "A", "a ", "b", ""]), max_size=20))
def test_distinct_index_rebuilds_the_texts_in_first_seen_order(texts):
    distinct, index = distinct_index(texts)
    assert distinct == list(dict.fromkeys(texts))
    assert [distinct[i] for i in index] == texts


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
        # the columns hold no record objects: an unchanged text keeps its string
        corpus = _corpus(TweetRecord("1", date(2021, 1, 4), "clean text already", 2000))
        out = preprocess(corpus)
        assert out.texts[0] is corpus.texts[0]

    def test_casefold_neither_makes_nor_changes_whitespace(self):
        # the dedupe key skips a second whitespace pass on this property
        for cp in range(sys.maxunicode + 1):
            ch = chr(cp)
            folded = ch.casefold()
            if ch.isspace():
                assert folded == ch, hex(cp)
            else:
                assert not any(c.isspace() for c in folded), hex(cp)


def _clean_text_loop(text):
    """_clean_text before str.translate: emoji mapped one character at a
    time, whitespace collapsed with a regex."""
    aliases = ingest.load_emoji_aliases()
    text = ingest.URL_RE.sub(" ", text)
    text = "".join(f" {aliases[ch]} " if ch in aliases else ch for ch in text)
    return re.sub(r"\s+", " ", text).strip()


WHITESPACE = [chr(cp) for cp in range(sys.maxunicode + 1) if re.fullmatch(r"\s", chr(cp))]


class TestCleanText:
    def test_regex_whitespace_is_str_isspace(self):
        # " ".join(text.split()) collapses exactly what \s+ matched
        assert WHITESPACE == [chr(cp) for cp in range(sys.maxunicode + 1) if chr(cp).isspace()]

    @given(
        st.lists(
            st.sampled_from(
                ["w", "W", "ww", "www.", "wWw.", "ſ", "K", "\u212a", ":", "/", "://", ".", "http",
                 "HTTPS", "httpſ", "a", " ", "\u3000"]
            )
        ).map("".join)
    )
    def test_url_precheck_skips_only_texts_without_a_match(self, text):
        # _clean_text runs URL_RE only on texts holding "://" or a
        # case-insensitive "www."; re.IGNORECASE also folds ſ into s and the
        # Kelvin sign into k, so the alphabet carries both; none of its
        # characters is an emoji alias key
        assert ingest._clean_text(text) == " ".join(ingest.URL_RE.sub(" ", text).split())

    def test_no_alias_key_is_ascii(self):
        # _clean_text skips the emoji table for ASCII text
        assert not any(ch.isascii() for ch in ingest.load_emoji_aliases())

    def test_every_alias_matches_loop(self):
        for ch in ingest.load_emoji_aliases():
            for text in (ch, f"up{ch}", f" {ch}{ch} rally ", f"see http://x.co/{ch} now{ch}"):
                assert ingest._clean_text(text) == _clean_text_loop(text), hex(ord(ch))

    def test_every_whitespace_matches_loop(self):
        for ws in WHITESPACE:
            for text in (ws, f"{ws}a{ws}{ws}b{ws}", f"x\U0001f680{ws}www.a.b{ws}y"):
                assert ingest._clean_text(text) == _clean_text_loop(text), hex(ord(ws))

    @given(
        st.lists(
            st.sampled_from(
                list(ingest.load_emoji_aliases())
                + WHITESPACE[:8]
                + ["\u3000", "\u2028", "http://", "https://t.co/", "WWW.", "rally", "Fed", "é"]
            )
            | st.text(max_size=3)
        ).map("".join)
    )
    def test_mixed_strings_match_loop(self, text):
        assert ingest._clean_text(text) == _clean_text_loop(text)


class TestLoadSeries:
    def test_basic(self, write_csv):
        path = write_csv(["2021-01-04,1.0", "2021-01-05,2.0", "2021-01-06,3.0"])
        series = load_series(path)
        assert len(series) == 3
        assert series.values == (1.0, 2.0, 3.0)

    def test_duplicate_date_rejected(self, write_csv):
        path = write_csv(["2021-01-04,1.0", "2021-01-04,2.0"])
        with pytest.raises(IngestError, match="line 3: series dates not strictly increasing at 2021-01-04"):
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

    @pytest.mark.parametrize("cell", ["2015-13-06", "Jan 5 2015", ""])
    def test_bad_date_names_line_and_cell(self, write_csv, cell):
        path = write_csv(["2015-01-05,1.0", f"{cell},2.0"])
        with pytest.raises(IngestError, match=re.escape(f"line 3: bad date {cell!r}")):
            load_series(path)

    def test_bad_date_with_missing_value_is_not_skipped(self, write_csv):
        # the date is read before the value cell is tested for a missing marker
        path = write_csv(["2015-01-05,1.0", "2015-13-06,N/A"])
        with pytest.raises(IngestError, match=re.escape("line 3: bad date '2015-13-06'")):
            load_series(path)

    def test_non_numeric_value(self, write_csv):
        path = write_csv(["2021-01-04,abc"])
        with pytest.raises(IngestError, match="line 2: non-numeric value 'abc' at 2021-01-04"):
            load_series(path)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity"])  # "nan" marks a missing cell
    def test_non_finite_value_names_line(self, write_csv, cell):
        path = write_csv(["2015-01-05,1.0", f"2015-01-06,{cell}"])
        with pytest.raises(IngestError, match=re.escape(f"line 3: non-finite value {cell!r} at 2015-01-06")):
            load_series(path)

    @pytest.mark.parametrize("row, problem", [
        ("2021-01-05,1,234.5", "line 3: 3 fields under 2 column headers"),  # a thousands separator
        ("2021-01-05", "line 3: no value for column 'value'"),
        ("", "line 3: no value for column 'date'"),
    ], ids=["wide", "short", "blank"])
    def test_row_of_another_width_names_its_line(self, write_csv, row, problem):
        path = write_csv(["2021-01-04,1.0", row, "2021-01-06,3.0"])
        with pytest.raises(IngestError, match=re.escape(f"{path} {problem}")):
            load_series(path)

    def test_trailing_blank_line_is_a_row_of_no_fields(self, write_csv):
        path = write_csv(["2021-01-04,1.0", "2021-01-05,2.0", ""])
        with pytest.raises(IngestError, match="line 4: no value for column 'date'"):
            load_series(path)

    def test_series_built_in_code_rejects_non_finite_value(self):
        with pytest.raises(IngestError, match="non-finite value at 2021-01-04"):
            FinancialSeries("TEST", (date(2021, 1, 4),), (float("inf"),))

    def test_positive_indicator_enforced(self):
        with pytest.raises(IngestError, match="strictly positive"):
            FinancialSeries("VIX", (date(2021, 1, 4),), (-1.0,))

    def test_dates_and_values_must_be_parallel(self):
        with pytest.raises(IngestError, match="parallel"):
            FinancialSeries("VIX", (date(2021, 1, 4), date(2021, 1, 5)), (1.0,))


def _series(*pairs, name="TEST"):
    return FinancialSeries(name, tuple(d for d, _ in pairs), tuple(float(v) for _, v in pairs))


class TestAlignProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=60), min_size=1, unique=True),
        st.lists(st.integers(min_value=-10, max_value=70), min_size=1),
    )
    def test_tweets_land_on_first_trading_day_on_or_after(self, day_offsets, tweet_offsets):
        origin = date(2021, 1, 4)
        trading = sorted(origin + timedelta(days=o) for o in day_offsets)
        series = _series(*((d, 1.0 + i) for i, d in enumerate(trading)))
        corpus = _corpus(
            *(
                TweetRecord(str(i), origin + timedelta(days=o), f"tweet {i}", 2000)
                for i, o in enumerate(tweet_offsets)
            )
        )
        covered = [r for r in corpus.records if trading[0] <= r.date <= trading[-1]]
        try:
            dataset = align(corpus, series)
        except IngestError:
            assert covered == []  # only a corpus wholly outside the series fails
            return
        landed = {r.id: d for d, day in zip(dataset.dates, dataset.tweets) for r in day}
        assert sorted(landed) == sorted(r.id for r in covered)  # none lost, none outside
        for rec in covered:
            assert landed[rec.id] == min(d for d in trading if d >= rec.date), rec
        assert sum(len(day) for day in dataset.tweets) == len(covered)


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
        assert [r.id for r in dataset.tweets[dataset.index_of(date(2021, 1, 8))]] == ["fri"]
        assert [r.id for r in dataset.tweets[dataset.index_of(date(2021, 1, 11))]] == ["sat"]

    def test_weekend_only_corpus_attaches_forward(self):
        corpus = _corpus(TweetRecord("sat", date(2021, 1, 9), "weekend news", 2000))
        dataset = align(corpus, _series(*self.CAL))
        assert dataset.dates == (date(2021, 1, 11),)
        assert [r.id for r in dataset.tweets[dataset.index_of(date(2021, 1, 11))]] == ["sat"]

    def test_tweet_outside_series_range_excluded(self):
        corpus = _corpus(
            TweetRecord("1", date(2021, 1, 1), "too early", 2000),
            TweetRecord("2", date(2021, 1, 11), "in range", 2000),
        )
        dataset = align(corpus, _series(*self.CAL))
        all_ids = [r.id for day in dataset.tweets for r in day]
        assert all_ids == ["2"]

    def test_no_tweets_full_value_coverage(self):
        dataset = align(TweetCorpus(), _series(*self.CAL))
        assert len(dataset) == 3
        assert all(day == () for day in dataset.tweets)

    def test_values_preserved_bit_exactly(self):
        values = (10.123456789012345, 11.000000000000002, 0.1 + 0.2)
        series = _series(*zip([d for d, _ in self.CAL], values))
        dataset = align(TweetCorpus(), series)
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


class TestChronoSplit:
    """train_size: the training part of a chronological split is the first
    floor(fraction * n) of n date-ordered rows; the test part is the rest."""

    def _aligned(self, n):
        series = _series(*((date(2020, 1, 1) + (date(2020, 1, 2) - date(2020, 1, 1)) * i, float(i)) for i in range(n)))
        return align(TweetCorpus(), series)

    def test_80_20(self):
        assert train_size(100, 0.8) == 80

    def test_half(self):
        dates = self._aligned(10).dates
        n_train = train_size(len(dates), 0.5)
        assert n_train == 5
        assert max(dates[:n_train]) < min(dates[n_train:])

    def test_single_point_rejected(self):
        with pytest.raises(ValueError, match="degenerate split: 0 of 1"):
            train_size(1, 0.8)
        with pytest.raises(ValueError, match="train_fraction must be in"):
            train_size(10, 1.0)

    @given(st.integers(min_value=1, max_value=60), st.floats(min_value=0.01, max_value=0.99))
    def test_never_leaks(self, n, fraction):
        import math

        dates = self._aligned(n).dates
        if math.floor(fraction * n) in (0, n):
            with pytest.raises(ValueError, match="degenerate split"):
                train_size(n, fraction)
            return
        n_train = train_size(n, fraction)
        assert 0 < n_train < n
        assert max(dates[:n_train]) < min(dates[n_train:])


class TestArtifactWriters:
    """`write_json` and `write_csv` hold the byte format of every artifact."""

    def test_json_has_sorted_keys_an_indent_and_a_final_newline(self, tmp_path):
        path = tmp_path / "a.json"
        ingest.write_json(path, {"b": 1, "a": [1.5, "é"]})
        assert path.read_bytes() == b'{\n  "a": [\n    1.5,\n    "\\u00e9"\n  ],\n  "b": 1\n}\n'

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_json_refuses_a_non_finite_number_before_writing(self, tmp_path, value):
        fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
        kept.write_text("{}\n", encoding="utf-8")
        for path in (fresh, kept):
            with pytest.raises(ValueError, match="not JSON compliant"):
                ingest.write_json(path, {"mse": value})
        assert not fresh.exists()
        assert kept.read_text("utf-8") == "{}\n"

    def test_csv_has_one_header_row_then_the_rows(self, tmp_path):
        path = tmp_path / "a.csv"
        ingest.write_csv(path, ["a", "b"], iter([[1, "x,y"], [2.5, "é"]]))
        assert path.read_bytes() == 'a,b\r\n1,"x,y"\r\n2.5,é\r\n'.encode("utf-8")

    def test_csv_reads_back_what_it_wrote(self, tmp_path):
        path = tmp_path / "a.csv"
        header, rows = ["date", "note"], [["2021-01-04", 'a, "b"\nc'], ["2021-01-05", "d"]]
        ingest.write_csv(path, header, rows)
        # the first record's note spans lines 2 and 3, so the second starts on line 4
        assert ingest.read_csv(path) == (header, [(2, rows[0]), (4, rows[1])])

    @pytest.mark.parametrize("content", ["", "\n"], ids=["empty", "blank"])
    def test_csv_without_a_header_row_is_refused(self, tmp_path, content):
        path = tmp_path / "a.csv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(IngestError, match=re.escape(f"{path} has no header row")):
            ingest.read_csv(path)
