"""Lexicon sentiment scoring and corpus-level text analyses.

The scorer is the deterministic core of a valence-lexicon approach:
token valences, a negation window, and the bounded normalization
s / sqrt(s^2 + alpha). Heuristics beyond that (boosters, punctuation,
capitalization) are deliberately out of scope.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import date
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .ingest import AlignedDataset, TweetCorpus, TweetRecord

TOKEN_RE = re.compile(r"[\w']+")

NEGATION_WINDOW = 3

DEFAULT_NEGATORS = frozenset(
    {
        "not", "no", "never", "none", "neither", "nor", "nothing",
        "cannot", "cant", "can't", "dont", "don't", "doesnt", "doesn't",
        "didnt", "didn't", "isnt", "isn't", "wasnt", "wasn't",
        "arent", "aren't", "werent", "weren't", "wont", "won't",
        "wouldnt", "wouldn't", "shouldnt", "shouldn't", "couldnt", "couldn't",
        "aint", "ain't", "hardly", "barely", "scarcely", "rarely", "seldom",
        "without",
    }
)


@dataclass(frozen=True)
class SentimentLexicon:
    valences: Mapping[str, float]
    negators: frozenset[str] = DEFAULT_NEGATORS
    negation_scale: float = -0.74
    normalization_alpha: float = 15.0

    def __post_init__(self) -> None:
        if not -1.0 < self.negation_scale < 0.0:
            raise ValueError("negation_scale must lie in (-1, 0)")
        if self.normalization_alpha <= 0:
            raise ValueError("normalization_alpha must be positive")


@dataclass(frozen=True)
class DailySentimentVector:
    """Seven daily scores ending at end_date, oldest first."""

    end_date: date
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != 7:
            raise ValueError("daily sentiment vector must hold exactly 7 scores")


def tokenize(text: str) -> list[str]:
    return [t.lower() for t in TOKEN_RE.findall(text)]


@lru_cache(maxsize=4)
def load_lexicon(path: str | None = None) -> SentimentLexicon:
    """Load a token<TAB>valence table; defaults to the bundled lexicon."""
    if path is None:
        raw = resources.files("econarrative.assets").joinpath("lexicon.tsv").read_text("utf-8")
    else:
        raw = Path(path).read_text("utf-8")
    valences: dict[str, float] = {}
    for line in raw.splitlines():
        if not line.strip():
            continue
        token, value = line.split("\t")
        valences[token.strip().lower()] = float(value)
    return SentimentLexicon(valences=valences)


def score(text: str, lexicon: SentimentLexicon | None = None) -> float:
    """Compound sentiment in (-1, 1); 0.0 for empty or all-unknown text."""
    lexicon = lexicon or load_lexicon()
    tokens = tokenize(text)
    total = 0.0
    for i, token in enumerate(tokens):
        valence = lexicon.valences.get(token)
        if valence is None:
            continue
        window = tokens[max(0, i - NEGATION_WINDOW):i]
        if any(t in lexicon.negators for t in window):
            valence *= lexicon.negation_scale
        total += valence
    if total == 0.0:
        return 0.0
    return total / math.sqrt(total * total + lexicon.normalization_alpha)


def day_score(tweets: Sequence[TweetRecord], lexicon: SentimentLexicon) -> float:
    """Mean per-tweet compound score of one day's tweets; 0.0 when empty."""
    if not tweets:
        return 0.0
    scores = [score(t.text, lexicon) for t in tweets]
    return sum(scores) / len(scores)


def daily_sentiment(dataset: AlignedDataset, d: date, lexicon: SentimentLexicon | None = None) -> float:
    """Mean per-tweet compound score for one trading day; 0.0 when empty."""
    return day_score(dataset.tweets_on(d), lexicon or load_lexicon())


def daily_sentiment_column(
    dataset: AlignedDataset, lexicon: SentimentLexicon | None = None
) -> np.ndarray:
    """day_score of every trading day, in date order; each tweet is scored once."""
    lexicon = lexicon or load_lexicon()
    return np.array([day_score(day, lexicon) for day in dataset.tweets], dtype=float)


def sentiment_window(
    dataset: AlignedDataset, end_date: date, lexicon: SentimentLexicon | None = None
) -> DailySentimentVector:
    """Daily scores for the 7 most recent trading days ending at end_date."""
    idx = dataset.index_of(end_date)
    if idx < 6:
        raise ValueError(f"need 7 trading days of history before {end_date}, have {idx + 1}")
    lexicon = lexicon or load_lexicon()
    values = tuple(day_score(day, lexicon) for day in dataset.tweets[idx - 6:idx + 1])
    return DailySentimentVector(end_date=end_date, values=values)


def word_frequency_timeline(
    corpus: TweetCorpus, term: str, granularity: str = "month"
) -> list[tuple[str, int]]:
    """Case-insensitive token counts of `term` per period, zero-filled."""
    if not term:
        raise ValueError("term must be non-empty")
    if granularity not in ("month", "day"):
        raise ValueError("granularity must be 'month' or 'day'")
    term = term.lower()
    counts: dict[str, int] = {}
    for rec in corpus.records:
        period = rec.date.isoformat() if granularity == "day" else rec.date.strftime("%Y-%m")
        hits = sum(1 for t in tokenize(rec.text) if t == term)
        counts[period] = counts.get(period, 0) + hits
    if corpus.date_range is None:
        return []
    periods = _periods_between(corpus.date_range[0], corpus.date_range[1], granularity)
    return [(p, counts.get(p, 0)) for p in periods]


def _periods_between(start: date, end: date, granularity: str) -> list[str]:
    if granularity == "day":
        out = []
        d = start
        while d <= end:
            out.append(d.isoformat())
            d = d.fromordinal(d.toordinal() + 1)
        return out
    out = []
    y, m = start.year, start.month
    while (y, m) <= (end.year, end.month):
        out.append(f"{y:04d}-{m:02d}")
        y, m = (y + 1, 1) if m == 12 else (y, m + 1)
    return out


def sentiment_histogram(
    corpus: TweetCorpus, bin_width: float, lexicon: SentimentLexicon | None = None
) -> dict[tuple[float, float], int]:
    """Histogram of per-tweet compound scores over bins partitioning [-1, 1]."""
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    lexicon = lexicon or load_lexicon()
    n_bins = max(1, math.ceil(2.0 / bin_width))
    edges = [-1.0 + i * bin_width for i in range(n_bins)] + [1.0]
    hist = {(edges[i], min(edges[i + 1], 1.0)): 0 for i in range(n_bins)}
    keys = list(hist.keys())
    for rec in corpus.records:
        s = score(rec.text, lexicon)
        idx = min(int((s + 1.0) / bin_width), n_bins - 1)
        hist[keys[idx]] += 1
    return hist
