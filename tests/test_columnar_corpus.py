"""The columnar corpus against the record-based pipeline it replaced.

The reference below is load -> preprocess -> align as it was written on one
frozen record per tweet: every tweet parsed with json.loads, cleaned
character by character, deduped and bucketed by bisecting each tweet's date.
Generated dumps must come out of both with equal texts, dates, followers,
order, day grouping and daily sentiment.
"""

import bisect
import json
import re
from dataclasses import dataclass
from datetime import date, timedelta

from hypothesis import given, settings, strategies as st

from econarrative import ingest
from econarrative.embed import AGGREGATION_MODES, HashingEmbedder, daily_embeddings
from econarrative.ingest import FinancialSeries
from econarrative.sentiment import daily_sentiment_column, score

FLOOR = 1000
ORIGIN = date(2021, 1, 4)  # a Monday


@dataclass(frozen=True)
class Record:
    id: str
    date: date
    text: str
    followers: int


def reference_load(path, min_followers):
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            if obj["followers"] < min_followers:
                continue
            records.append(Record(str(obj["id"]), date.fromisoformat(obj["date"]), obj["text"],
                                  obj["followers"]))
    records.sort(key=lambda r: r.date)
    return records


def reference_clean(text):
    aliases = ingest.load_emoji_aliases()
    text = ingest.URL_RE.sub(" ", text)
    text = "".join(f" {aliases[ch]} " if ch in aliases else ch for ch in text)
    return re.sub(r"\s+", " ", text).strip()


def reference_preprocess(records):
    kept, seen = [], set()
    for rec in records:
        text = reference_clean(rec.text)
        if not text:
            continue
        key = (rec.date, text.casefold())
        if key in seen:
            continue
        seen.add(key)
        kept.append(Record(rec.id, rec.date, text, rec.followers))
    return kept


def reference_align(records, series):
    """(trading dates, each day's records); tweets on a non-trading day go
    to the next trading day within the ranges' overlap."""
    s_start, s_end = series.range()
    lo = max(s_start, records[0].date) if records else s_start
    hi = min(s_end, records[-1].date) if records else s_end
    dates = series.dates
    first = dates[bisect.bisect_left(dates, lo)]
    last = dates[bisect.bisect_left(dates, hi)]
    trading = [d for d in dates if first <= d <= last]
    buckets = {d: [] for d in trading}
    for rec in records:
        if s_start <= rec.date <= s_end:
            i = bisect.bisect_left(trading, rec.date)
            if i < len(trading):
                buckets[trading[i]].append(rec)
    return trading, [buckets[d] for d in trading]


def reference_day_scores(days):
    return [sum(score(r.text) for r in day) / len(day) if day else 0.0 for day in days]


EMOJI = sorted(ingest.load_emoji_aliases())
WORDS = ["rates", "rally", "Fed", "crash", "good", "bad", "not", "markets", "up", "down", "é"]


@st.composite
def tweet_texts(draw):
    base = draw(st.lists(st.sampled_from(WORDS + EMOJI), min_size=0, max_size=6))
    if draw(st.booleans()):
        url = "https://t.co/" + draw(st.sampled_from(["ab", "x1"]))
        base.insert(draw(st.integers(0, len(base))), url)
    if draw(st.booleans()):
        base.append("www.example.com/" + draw(st.sampled_from(EMOJI)))
    return draw(st.sampled_from([" ", "  ", "\t", "　"])).join(base)


@st.composite
def dumps(draw):
    """A tweet dump (lines in file order) with same-day case and spacing
    duplicates, authors below the floor, dates out of order and on weekends,
    and blank lines."""
    lines, tweets = [], []
    for i in range(draw(st.integers(0, 30))):
        if tweets and draw(st.integers(0, 4)) == 0:  # a near-duplicate of an earlier tweet
            day, text = draw(st.sampled_from(tweets))
            text = draw(st.sampled_from([text.upper(), text.lower(), f"  {text} ",
                                         text.replace(" ", "  ")]))
        else:
            day, text = draw(st.integers(-3, 24)), draw(tweet_texts())
        tweets.append((day, text))
        followers = draw(st.sampled_from([0, FLOOR - 1, FLOOR, 5000, 5000, 20000]))
        obj = {"id": f"t{i}", "date": (ORIGIN + timedelta(days=day)).isoformat(), "text": text,
               "followers": followers, "user_id": f"u{i % 3}"}
        lines.append(json.dumps(obj, ensure_ascii=draw(st.booleans())))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
    return "\n".join(lines) + "\n"


def _series(first, days):
    """Weekday closes from ORIGIN + first over `days` calendar days."""
    dates = tuple(d for d in (ORIGIN + timedelta(days=o) for o in range(first, first + days))
                  if d.weekday() < 5)
    return FinancialSeries("SYNTH", dates, tuple(100.0 + (d - ORIGIN).days for d in dates))


@settings(max_examples=150, deadline=None)
@given(dumps(), st.integers(-2, 10), st.integers(3, 25))
def test_columns_equal_the_record_pipeline(tmp_path_factory, dump, first, days):
    path = tmp_path_factory.mktemp("dump") / "tweets.jsonl"
    path.write_text(dump, encoding="utf-8")

    loaded = ingest.load_tweets(path, min_followers=FLOOR)
    want = reference_load(path, FLOOR)
    assert (loaded.ids, loaded.dates, loaded.texts, loaded.followers) == tuple(
        tuple(getattr(r, f) for r in want) for f in ("id", "date", "text", "followers"))

    corpus = ingest.preprocess(loaded)
    want = reference_preprocess(want)
    assert list(corpus.ids) == [r.id for r in want]  # kept rows, in order
    assert list(corpus.dates) == [r.date for r in want]
    assert list(corpus.texts) == [r.text for r in want]
    assert list(corpus.followers) == [r.followers for r in want]

    series = _series(first, days)
    if not series.points:
        return
    try:
        aligned = ingest.align(corpus, series)
    except ingest.IngestError:
        # only a corpus wholly outside the series fails
        assert want and (want[0].date > series.range()[1] or want[-1].date < series.range()[0])
        return
    trading, days_want = reference_align(want, series)
    assert list(aligned.dates) == trading
    assert [[r.id for r in day] for day in aligned.tweets] == [
        [r.id for r in day] for day in days_want]
    for column, field in (("texts", "text"), ("followers", "followers")):
        assert [list(day) for day in aligned.per_day(column)] == [
            [getattr(r, field) for r in day] for day in days_want]
    assert daily_sentiment_column(aligned).tolist() == reference_day_scores(days_want)
    embedder = HashingEmbedder(dimension=8, seed=1)
    for mode in AGGREGATION_MODES:  # column slices against the records
        rows = daily_embeddings(embedder, aligned.per_day("texts"), mode, 2, aligned.per_day("followers"))
        want_rows = daily_embeddings(embedder, [[r.text for r in day] for day in days_want], mode, 2,
                                     [[r.followers for r in day] for day in days_want])
        assert rows.tobytes() == want_rows.tobytes()


def test_repeated_texts_give_the_reference_day_scores():
    # a small pool of valenced texts over 30 tweets a day, so each day and
    # the corpus repeat texts, and a summation order other than the posting
    # order (pairwise, as np.mean and np.add.reduceat take it) changes the sums
    pool = ["great win", "bad loss", "not good", "panic crash", "fine rally", "rates up",
            "good good good", "awful", "the of and", "great"]
    records = [Record(f"t{day}-{j}", ORIGIN + timedelta(days=day), pool[(day * 7 + j * j) % len(pool)],
                      FLOOR)
               for day in range(12) if day not in (2, 8) for j in range(30 if day != 3 else 1)]
    corpus = ingest.TweetCorpus.from_records(
        (r.id, r.date, r.text, r.followers, None, "") for r in records)
    series = _series(0, 12)
    aligned = ingest.align(corpus, series)
    trading, days_want = reference_align(records, series)
    assert list(aligned.dates) == trading and [] in days_want
    assert len(set(corpus.texts)) < max(len(day) for day in days_want)
    assert daily_sentiment_column(aligned).tolist() == reference_day_scores(days_want)
