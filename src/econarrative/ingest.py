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
from dataclasses import dataclass
from datetime import date
from functools import lru_cache
from importlib import resources
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence


class IngestError(ValueError):
    """Raised for malformed input files or inconsistent date structure."""


URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)

# Indicators that must stay strictly positive (index levels, vol gauges).
POSITIVE_INDICATORS = {"SP500", "S&P 500", "VIX"}


class TweetRecord(NamedTuple):
    """One tweet: a row of a TweetCorpus."""

    id: str
    date: date
    text: str
    followers: int
    topic: str | None = None
    user_id: str = ""


def rank_counts(followers: Sequence[int]) -> list[int]:
    """Positions of a day's follower counts, largest first, ties in posting order."""
    return sorted(range(len(followers)), key=followers.__getitem__, reverse=True)


@dataclass(frozen=True)
class TweetCorpus:
    """Tweets as parallel columns in date order, equal dates in input order;
    row i of every column is one tweet (TweetRecord's fields, plural)."""

    ids: tuple[str, ...] = ()
    dates: tuple[date, ...] = ()
    texts: tuple[str, ...] = ()
    followers: tuple[int, ...] = ()
    topics: tuple[str | None, ...] = ()
    user_ids: tuple[str, ...] = ()

    @classmethod
    def from_records(cls, records: Iterable[tuple]) -> TweetCorpus:
        """A corpus of TweetRecords or plain tuples of their fields, in any order."""
        rows = sorted(records, key=itemgetter(1))  # by date
        return cls(*map(tuple, zip(*rows)))

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def columns(self) -> tuple[tuple, ...]:
        return self.ids, self.dates, self.texts, self.followers, self.topics, self.user_ids

    @property
    def date_range(self) -> tuple[date, date] | None:
        return (self.dates[0], self.dates[-1]) if self.dates else None

    @property
    def records(self) -> tuple[TweetRecord, ...]:
        """Every tweet as a record, in row order."""
        return tuple(map(TweetRecord, *self.columns))


@dataclass(frozen=True)
class FinancialSeries:
    """An indicator as parallel columns: strictly increasing dates and their values."""

    name: str
    dates: tuple[date, ...]
    values: tuple[float, ...]
    skipped_rows: int = 0

    def __post_init__(self) -> None:
        if len(self.dates) != len(self.values):
            raise IngestError("series dates and values must be parallel")
        for i, (d, v) in enumerate(zip(self.dates, self.values)):
            if i and d <= self.dates[i - 1]:
                raise IngestError(f"series dates not strictly increasing at {d}")
            if not math.isfinite(v):
                raise IngestError(f"non-finite value at {d}")
            if self.name in POSITIVE_INDICATORS and v <= 0:
                raise IngestError(f"{self.name} must be strictly positive, got {v} at {d}")

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def points(self) -> tuple[tuple[date, float], ...]:
        """The series as (date, value) pairs."""
        return tuple(zip(self.dates, self.values))

    def range(self) -> tuple[date, date]:
        if not self.dates:
            raise IngestError("empty series has no range")
        return self.dates[0], self.dates[-1]


@dataclass(frozen=True)
class AlignedDataset:
    """Trading dates with their indicator value and attached tweets.

    Tweets posted on non-trading days are attached to the next trading
    day (the first session on which the information is tradable). Day i's
    tweets are rows offsets[i]:offsets[i + 1] of `corpus`, as in CSR.
    """

    dates: tuple[date, ...]
    values: tuple[float, ...]
    corpus: TweetCorpus
    offsets: tuple[int, ...]
    indicator: str

    def __post_init__(self) -> None:
        if not (len(self.dates) == len(self.values) == len(self.offsets) - 1):
            raise IngestError("dates, values and day offsets must be parallel")

    def __len__(self) -> int:
        return len(self.dates)

    def index_of(self, d: date) -> int:
        """The position of trading day `d`; the dates strictly increase."""
        i = bisect.bisect_left(self.dates, d)
        if i == len(self.dates) or self.dates[i] != d:
            raise KeyError(f"date {d} not in dataset")
        return i

    def per_day(self, column: str) -> tuple[tuple, ...]:
        """A corpus column (or `records`), cut into trading days."""
        values, bounds = getattr(self.corpus, column), self.offsets
        return tuple(values[a:b] for a, b in zip(bounds, bounds[1:]))

    @property
    def tweets(self) -> tuple[tuple[TweetRecord, ...], ...]:
        return self.per_day("records")


def asset_lines(name: str) -> list[str]:
    """The lines of the bundled asset file `name` that are not blank."""
    text = resources.files("econarrative.assets").joinpath(name).read_text("utf-8")
    return [line for line in text.splitlines() if line.strip()]


@lru_cache(maxsize=1)
def load_emoji_aliases() -> dict[str, str]:
    """Codepoint -> alias phrase table bundled with the package."""
    rows = (line.split("\t", 1) for line in asset_lines("emoji_aliases.tsv"))
    return {chr(int(code, 16)): alias.strip() for code, alias in rows}


@lru_cache(maxsize=1)
def _emoji_table() -> dict[str, str]:
    """Each aliased character -> its alias between spaces; no key is ASCII."""
    return {ch: f" {alias} " for ch, alias in load_emoji_aliases().items()}


# No alias key is ASCII, so emoji mapping visits only these characters: one
# range check per character in C. A class of just the aliased characters,
# most of them beyond the BMP, is tried member by member on every character.
NON_ASCII_RE = re.compile(r"[^\x00-\x7f]")


def _emoji_alias(match: re.Match) -> str:
    return _emoji_table().get(match[0], match[0])


REQUIRED_FIELDS = ("id", "date", "text", "followers")
# exact JSON types: int() and str() would load 1500.9, true, 20150105 and ["a"] as
# something else; `id` and `user_id` keep their str() coercion
FIELD_TYPES = {"followers": int, "text": str, "date": str, "topic": str}


def _wrong_type(lineno: int, obj: dict) -> IngestError:
    """The error for the first field of `obj` of the wrong type; a null topic is allowed."""
    for name, kind in FIELD_TYPES.items():
        value = obj.get(name)
        if type(value) is not kind and not (name == "topic" and value is None):
            expected = "integer" if kind is int else "string"
            got = type(value).__name__
            return IngestError(f"line {lineno}: {expected} expected in {name!r}, got {got}")


def load_tweets(path: str | Path, min_followers: int = 0) -> TweetCorpus:
    """Read a JSONL tweet dump, dropping authors below the follower floor.

    Every malformed line is reported with its 1-based line number. Lines
    are parsed one at a time, so only one line's objects live at once.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"tweet file not found: {path}")
    rows: list[tuple] = []  # TweetRecord's fields
    seen_ids: set[str] = set()
    parsed: dict[str, date] = {}  # each distinct date string is parsed once
    decode = json.JSONDecoder().raw_decode  # json.loads less its two whitespace regex scans
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.strip(" \t\n\r")  # the whitespace json.loads skips around a value
            if not body or body.isspace():
                continue
            try:
                obj, end = decode(body)
                if end < len(body):
                    raise json.JSONDecodeError("Extra data", body, end)
            except json.JSONDecodeError as exc:
                bom = line[0] == "\ufeff"  # json.loads's message for a leading byte order mark
                msg = "Unexpected UTF-8 BOM (decode using utf-8-sig)" if bom else exc.msg
                raise IngestError(f"line {lineno}: invalid JSON ({msg})") from exc
            try:
                fields = obj["id"], obj["date"], obj["text"], obj["followers"]
            except KeyError as exc:
                raise IngestError(f"line {lineno}: missing field {exc}") from exc
            except TypeError as exc:  # valid JSON, but not an object
                raise IngestError(
                    f"line {lineno}: expected a JSON object, got {type(obj).__name__}"
                ) from exc
            topic, user_id = obj.get("topic"), obj.get("user_id", "")
            if None in fields or user_id is None:
                name = (*REQUIRED_FIELDS, "user_id")[(*fields, user_id).index(None)]
                raise IngestError(f"line {lineno}: field {name!r} is null")
            raw_id, raw_date, text, followers = fields
            if (type(followers) is not int or type(text) is not str or type(raw_date) is not str
                    or (topic is not None and type(topic) is not str)):
                raise _wrong_type(lineno, obj)
            rec_date = parsed.get(raw_date)
            if rec_date is None:
                try:
                    rec_date = parsed[raw_date] = date.fromisoformat(raw_date)
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
            rows.append((rec_id, rec_date, text, followers, topic, str(user_id)))
    return TweetCorpus.from_records(rows)


def _clean_text(text: str) -> str:
    # URL_RE can only match where "://" or a case-insensitive "www." occurs
    if "://" in text or "www." in text.lower():
        text = URL_RE.sub(" ", text)
    if not text.isascii():
        text = NON_ASCII_RE.sub(_emoji_alias, text)
    # str.split() splits on exactly the code points regex \s matches
    return " ".join(text.split())


def preprocess(corpus: TweetCorpus) -> TweetCorpus:
    """Strip links, map emoji to text aliases, drop texts left empty and
    collapse per-day duplicates.

    Idempotent: running it twice yields the same corpus. A text cleaning
    leaves as it was keeps its string object.
    """
    kept: list[int] = []
    texts: list[str] = []
    seen: set[tuple[date, str]] = set()
    for row, (day, raw) in enumerate(zip(corpus.dates, corpus.texts)):
        text = _clean_text(raw)
        if not text:
            continue
        # casefold neither makes nor changes whitespace, so the cleaned
        # text's collapsed spacing carries over to the key
        key = (day, text.casefold())
        if key in seen:
            continue
        seen.add(key)
        kept.append(row)
        texts.append(raw if text == raw else text)
    columns = [tuple(map(column.__getitem__, kept)) for column in corpus.columns]
    columns[2] = tuple(texts)
    return TweetCorpus(*columns)


MISSING_CELLS = {"", "na", "n/a", "nan", "null", "."}


def load_series(path: str | Path, column: str = "value", name: str | None = None) -> FinancialSeries:
    """Read one indicator column from a headed CSV keyed by ISO date."""
    path = Path(path)
    if not path.exists():
        raise IngestError(f"series file not found: {path}")
    header, records = read_csv(path)
    for needed in ("date", column):
        if needed not in header:
            raise IngestError(f"missing {needed!r} column in {path.name}")
    at_date, at_value = header.index("date"), header.index(column)
    dates: list[date] = []
    values: list[float] = []
    skipped = 0
    for line, fields in records:
        where, cell = f"line {line}", fields[at_date]
        try:
            d = date.fromisoformat(cell.strip())
        except ValueError as exc:
            raise IngestError(f"{where}: bad date {cell!r} ({exc})") from exc
        raw = fields[at_value].strip()
        if raw.lower() in MISSING_CELLS:
            skipped += 1
            continue
        try:
            v = float(raw)
        except ValueError as exc:
            raise IngestError(f"{where}: non-numeric value {raw!r} at {d}") from exc
        if not math.isfinite(v):
            raise IngestError(f"{where}: non-finite value {raw!r} at {d}")
        if dates and d <= dates[-1]:
            raise IngestError(f"{where}: series dates not strictly increasing at {d}")
        dates.append(d)
        values.append(v)
    return FinancialSeries(name or column, tuple(dates), tuple(values), skipped_rows=skipped)


def align(corpus: TweetCorpus, series: FinancialSeries) -> AlignedDataset:
    """Attach tweets to trading days, restricted to the ranges' overlap.

    The overlap's endpoints snap forward to trading days, so tweets on
    a non-trading day at either edge keep their next-session target.
    """
    if not series.dates:
        raise IngestError("cannot align against an empty series")
    s_start, s_end = series.range()
    if corpus.date_range is None:
        lo, hi = s_start, s_end
    else:
        c_start, c_end = corpus.date_range
        lo, hi = max(s_start, c_start), min(s_end, c_end)
        if lo > hi:
            raise IngestError("tweet corpus and series date ranges do not overlap")
    # the first trading days on or after lo and hi, or the series' end
    days = slice(bisect.bisect_left(series.dates, lo), bisect.bisect_left(series.dates, hi) + 1)
    trading_dates = series.dates[days]
    # the corpus is in date order, so each day's tweets are one run of rows:
    # those after the previous trading day up to this one, and for the first
    # day those from the series' start on
    start = bisect.bisect_left(corpus.dates, s_start)
    ends = [bisect.bisect_right(corpus.dates, d) - start for d in trading_dates]
    cut = slice(start, start + ends[-1])
    return AlignedDataset(
        dates=trading_dates,
        values=series.values[days],
        corpus=TweetCorpus(*(column[cut] for column in corpus.columns)),
        offsets=(0, *ends),
        indicator=series.name,
    )


def distinct_index(texts: Sequence[str]) -> tuple[list[str], list[int]]:
    """The distinct texts in first-seen order, and each text's position among them."""
    first: dict[str, int] = {}
    index = [first.setdefault(text, len(first)) for text in texts]
    return list(first), index


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
    write_csv(path, ["date", "value"],
              ([d.isoformat(), repr(v)] for d, v in zip(series.dates, series.values)))


# The artifact format: every JSON and CSV file the package writes goes through
# `write_json` or `write_csv` (bar the LLM cache and tweets.jsonl); `read_csv` reads CSV.
def json_text(payload) -> str:
    """Artifact JSON: sorted keys, a two-space indent, a final newline; NaN and infinity refused."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path: str | Path, payload) -> None:
    """`json_text(payload)` as UTF-8 at `path`, which is not opened if encoding fails."""
    Path(path).write_text(json_text(payload), encoding="utf-8")


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """One header row, then `rows`, as UTF-8 CSV at `path`."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path: str | Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header row of the UTF-8 CSV at `path` and each record as (its first line, its fields).
    A record, or blank line, of another width than the header fails; errors start with `path`."""
    with Path(path).open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if not header:
            raise IngestError(f"{path} has no header row")
        records, start, width = [], reader.line_num + 1, len(header)
        for fields in reader:
            if len(fields) != width:
                problem = (f"no value for column {header[len(fields)]!r}" if len(fields) < width
                           else f"{len(fields)} fields under {width} column headers")
                raise IngestError(f"{path} line {start}: {problem}")
            records.append((start, fields))
            start = reader.line_num + 1
    return header, records
