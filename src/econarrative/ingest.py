"""Loading, cleaning, alignment and splitting of tweet and indicator data.

Tweets arrive as JSONL (one object per line with id/date/text/followers),
indicators as a two-column CSV (date,value). Everything here is pure and
deterministic; the resulting datasets are immutable snapshots.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import re
from dataclasses import dataclass, field
from datetime import date, timedelta
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence


class IngestError(ValueError):
    """Raised for malformed input files or inconsistent date structure."""


URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)

# Indicators that must stay strictly positive (index levels, vol gauges).
POSITIVE_INDICATORS = {"SP500", "S&P 500", "VIX"}


@dataclass(frozen=True)
class TweetRecord:
    id: str
    date: date
    text: str
    followers: int
    topic: str | None = None
    user_id: str = ""


def rank_by_followers(tweets: Sequence) -> list[int]:
    """Positions of a day's tweets, most followers first; equal counts keep
    posting order. A plain string counts as a tweet with 0 followers."""
    followers = [t.followers if isinstance(t, TweetRecord) else 0 for t in tweets]
    return sorted(range(len(followers)), key=followers.__getitem__, reverse=True)


@dataclass(frozen=True)
class TweetCorpus:
    records: tuple[TweetRecord, ...]
    date_range: tuple[date, date] | None
    provenance: Mapping[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class FinancialSeries:
    name: str
    points: tuple[tuple[date, float], ...]
    frequency: str = "trading-daily"
    skipped_rows: int = 0

    def __post_init__(self) -> None:
        last = None
        for d, v in self.points:
            if last is not None and d <= last:
                raise IngestError(f"series dates not strictly increasing at {d}")
            last = d
            if not math.isfinite(v):
                raise IngestError(f"non-finite value at {d}")
            if self.name in POSITIVE_INDICATORS and v <= 0:
                raise IngestError(f"{self.name} must be strictly positive, got {v} at {d}")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dates(self) -> list[date]:
        return [d for d, _ in self.points]

    @property
    def values(self) -> list[float]:
        return [v for _, v in self.points]

    def range(self) -> tuple[date, date]:
        if not self.points:
            raise IngestError("empty series has no range")
        return self.points[0][0], self.points[-1][0]


@dataclass(frozen=True)
class AlignedDataset:
    """Trading dates with their indicator value and attached tweets.

    Tweets posted on non-trading days are attached to the next trading
    day (the first session on which the information is tradable).
    """

    dates: tuple[date, ...]
    values: tuple[float, ...]
    tweets: tuple[tuple[TweetRecord, ...], ...]
    indicator: str
    lag_rule: str = "next-trading-day"
    _index: dict[date, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (len(self.dates) == len(self.values) == len(self.tweets)):
            raise IngestError("dates, values and tweet lists must be parallel")
        # first occurrence wins, as with tuple.index
        index = {d: i for i, d in reversed(tuple(enumerate(self.dates)))}
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.dates)

    def index_of(self, d: date) -> int:
        try:
            return self._index[d]
        except KeyError:
            raise KeyError(f"date {d} not in dataset") from None

    def tweets_on(self, d: date) -> tuple[TweetRecord, ...]:
        return self.tweets[self.index_of(d)]

    def value_on(self, d: date) -> float:
        return self.values[self.index_of(d)]


@dataclass(frozen=True)
class Block:
    start: date
    end: date
    sample_count: int


@dataclass(frozen=True)
class PreprocessRules:
    strip_urls: bool = True
    map_emoji: bool = True
    dedupe: bool = True
    drop_empty: bool = True


@lru_cache(maxsize=1)
def load_emoji_aliases() -> dict[str, str]:
    """Codepoint -> alias phrase table bundled with the package."""
    table: dict[str, str] = {}
    src = resources.files("econarrative.assets").joinpath("emoji_aliases.tsv")
    for line in src.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        code, alias = line.split("\t", 1)
        table[chr(int(code, 16))] = alias.strip()
    return table


@lru_cache(maxsize=1)
def _emoji_table() -> dict[str, str]:
    """Each aliased character -> its alias between spaces; no key is ASCII."""
    return {ch: f" {alias} " for ch, alias in load_emoji_aliases().items()}


@lru_cache(maxsize=1)
def _emoji_re() -> re.Pattern:
    """One character class of every aliased character. re.sub passes over
    unmapped characters in C; str.translate with a dict table would raise
    and clear a KeyError for each of them."""
    return re.compile("[" + "".join(map(re.escape, _emoji_table())) + "]")


def _emoji_alias(match: re.Match) -> str:
    return _emoji_table()[match[0]]


REQUIRED_FIELDS = ("id", "date", "text", "followers")


def load_tweets(path: str | Path, min_followers: int = 0) -> TweetCorpus:
    """Read a JSONL tweet dump, dropping authors below the follower floor.

    Every malformed line is reported with its 1-based line number.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"tweet file not found: {path}")
    records: list[TweetRecord] = []
    seen_ids: set[str] = set()
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
            try:
                fields = obj["id"], obj["date"], obj["text"], obj["followers"]
            except KeyError as exc:
                raise IngestError(f"line {lineno}: missing field {exc}") from exc
            except TypeError as exc:  # valid JSON, but not an object
                raise IngestError(
                    f"line {lineno}: expected a JSON object, got {type(obj).__name__}"
                ) from exc
            if None in fields:
                name = REQUIRED_FIELDS[fields.index(None)]
                raise IngestError(f"line {lineno}: field {name!r} is null")
            raw_id, raw_date, text, followers = fields
            # exact types: int() and str() would load 1500.9, true, 5 and ["a"] as something else
            if type(followers) is not int:
                kind = type(followers).__name__
                raise IngestError(f"line {lineno}: integer expected in 'followers', got {kind}")
            if type(text) is not str:
                kind = type(text).__name__
                raise IngestError(f"line {lineno}: string expected in 'text', got {kind}")
            try:
                rec_date = date.fromisoformat(str(raw_date))
            except ValueError as exc:
                raise IngestError(f"line {lineno}: {exc}") from exc
            rec_id = str(raw_id)
            if followers < 0:
                raise IngestError(f"line {lineno}: negative follower count")
            if rec_id in seen_ids:
                raise IngestError(f"line {lineno}: duplicate tweet id {rec_id!r}")
            seen_ids.add(rec_id)
            if followers < min_followers:
                continue
            records.append(
                TweetRecord(
                    id=rec_id,
                    date=rec_date,
                    text=text,
                    followers=followers,
                    topic=obj.get("topic"),
                    user_id=str(obj.get("user_id", "")),
                )
            )
    records.sort(key=lambda r: r.date)
    date_range = (records[0].date, records[-1].date) if records else None
    return TweetCorpus(
        records=tuple(records),
        date_range=date_range,
        provenance={"source": str(path), "min_followers": min_followers, "preprocessing": ()},
    )


def _clean_text(text: str, rules: PreprocessRules) -> str:
    # URL_RE can only match where "://" or a case-insensitive "www." occurs
    if rules.strip_urls and ("://" in text or "www." in text.lower()):
        text = URL_RE.sub(" ", text)
    if rules.map_emoji and not text.isascii():
        text = _emoji_re().sub(_emoji_alias, text)
    # str.split() splits on exactly the code points regex \s matches
    return " ".join(text.split())


def preprocess(corpus: TweetCorpus, rules: PreprocessRules | None = None) -> TweetCorpus:
    """Strip links, map emoji to text aliases, collapse per-day duplicates.

    Idempotent: running it twice yields the same corpus.
    """
    rules = rules or PreprocessRules()
    kept: list[TweetRecord] = []
    seen: set[tuple[date, str]] = set()
    for rec in corpus.records:
        text = _clean_text(rec.text, rules)
        if rules.drop_empty and not text:
            continue
        if rules.dedupe:
            # casefold neither makes nor changes whitespace, so the cleaned
            # text's collapsed spacing carries over to the key
            key = (rec.date, text.casefold())
            if key in seen:
                continue
            seen.add(key)
        if text != rec.text:
            # the constructor directly: dataclasses.replace takes about twice as long
            rec = TweetRecord(
                id=rec.id,
                date=rec.date,
                text=text,
                followers=rec.followers,
                topic=rec.topic,
                user_id=rec.user_id,
            )
        kept.append(rec)
    kept.sort(key=lambda r: r.date)
    date_range = (kept[0].date, kept[-1].date) if kept else None
    applied = tuple(
        name
        for name, on in (
            ("strip_urls", rules.strip_urls),
            ("map_emoji", rules.map_emoji),
            ("dedupe", rules.dedupe),
            ("drop_empty", rules.drop_empty),
        )
        if on
    )
    provenance = dict(corpus.provenance)
    provenance["preprocessing"] = applied
    return TweetCorpus(records=tuple(kept), date_range=date_range, provenance=provenance)


MISSING_CELLS = {"", "na", "n/a", "nan", "null", "."}


def load_series(path: str | Path, column: str = "value", name: str | None = None) -> FinancialSeries:
    """Read one indicator column from a headed CSV keyed by ISO date."""
    path = Path(path)
    if not path.exists():
        raise IngestError(f"series file not found: {path}")
    points: list[tuple[date, float]] = []
    skipped = 0
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        if "date" not in header:
            raise IngestError(f"missing 'date' column in {path.name}")
        if column not in header:
            raise IngestError(f"missing {column!r} column in {path.name}")
        for row in reader:
            raw = (row[column] or "").strip()
            if raw.lower() in MISSING_CELLS:
                skipped += 1
                continue
            d = date.fromisoformat(row["date"].strip())
            try:
                v = float(raw)
            except ValueError as exc:
                raise IngestError(f"non-numeric value {raw!r} at {d}") from exc
            if points and d <= points[-1][0]:
                raise IngestError(f"series dates not strictly increasing at {d}")
            points.append((d, v))
    return FinancialSeries(name=name or column, points=tuple(points), skipped_rows=skipped)


def align(corpus: TweetCorpus, series: FinancialSeries) -> AlignedDataset:
    """Attach tweets to trading days, restricted to the ranges' overlap.

    The overlap's endpoints snap forward to trading days, so tweets on
    a non-trading day at either edge keep their next-session target.
    """
    if not series.points:
        raise IngestError("cannot align against an empty series")
    s_start, s_end = series.range()
    if corpus.date_range is None:
        lo, hi = s_start, s_end
    else:
        c_start, c_end = corpus.date_range
        lo, hi = max(s_start, c_start), min(s_end, c_end)
        if lo > hi:
            raise IngestError("tweet corpus and series date ranges do not overlap")
    all_dates = [d for d, _ in series.points]
    first = _next_trading_day(all_dates, lo)
    last = _next_trading_day(all_dates, hi)
    if first is None:
        raise IngestError("tweet corpus and series date ranges do not overlap")
    last = last or s_end
    trading = [(d, v) for d, v in series.points if first <= d <= last]
    trading_dates = [d for d, _ in trading]
    buckets: dict[date, list[TweetRecord]] = {d: [] for d in trading_dates}
    for rec in corpus.records:
        if rec.date < s_start or rec.date > s_end:
            continue  # outside the series' coverage entirely
        target = _next_trading_day(trading_dates, rec.date)
        if target is not None:
            buckets[target].append(rec)
    return AlignedDataset(
        dates=tuple(trading_dates),
        values=tuple(v for _, v in trading),
        tweets=tuple(tuple(buckets[d]) for d in trading_dates),
        indicator=series.name,
    )


def _next_trading_day(trading_dates: Sequence[date], d: date) -> date | None:
    """First trading date >= d, via bisection; None when past the end."""
    i = bisect.bisect_left(trading_dates, d)
    return trading_dates[i] if i < len(trading_dates) else None


def blocking_split(series: FinancialSeries, boundaries: Sequence[date]) -> list[Block]:
    """Partition a series into contiguous date blocks at the given cut dates.

    Each boundary starts a new block; block k covers [b_k, b_{k+1}).
    Concatenating the blocks in order reproduces the series exactly.
    """
    if not series.points:
        raise IngestError("cannot split an empty series")
    bounds = list(boundaries)
    if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
        raise IngestError("boundaries must be sorted and distinct")
    s_start, s_end = series.range()
    for b in bounds:
        if not (s_start < b <= s_end):
            raise IngestError(f"boundary {b} outside series range ({s_start}..{s_end})")
    edges = [s_start] + bounds + [None]  # None marks the open tail
    blocks: list[Block] = []
    for i in range(len(edges) - 1):
        lo = edges[i]
        hi = edges[i + 1]
        inside = [d for d in series.dates if d >= lo and (hi is None or d < hi)]
        block_end = (hi - timedelta(days=1)) if hi is not None else s_end
        blocks.append(Block(start=lo, end=block_end, sample_count=len(inside)))
    return blocks


def train_size(n: int, train_fraction: float) -> int:
    """Rows in the training part of a chronological split of n date-ordered
    rows: the first floor(train_fraction * n); the rest are the test part."""
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be in (0, 1)")
    n_train = math.floor(train_fraction * n)
    if n_train == 0 or n_train == n:
        raise ValueError(f"degenerate split: {n_train} of {n}")
    return n_train


def write_tweets_jsonl(corpus: TweetCorpus, path: str | Path) -> None:
    """Serialize a corpus back to the standard JSONL exchange format."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for rec in corpus.records:
            obj = {
                "id": rec.id,
                "date": rec.date.isoformat(),
                "text": rec.text,
                "followers": rec.followers,
                "user_id": rec.user_id,
            }
            if rec.topic is not None:
                obj["topic"] = rec.topic
            fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n")


def write_series_csv(series: FinancialSeries, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "value"])
        for d, v in series.points:
            writer.writerow([d.isoformat(), repr(v)])
