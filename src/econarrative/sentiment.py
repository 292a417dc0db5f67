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
from functools import cache
from typing import Mapping, Sequence

import numpy as np

from .ingest import AlignedDataset, TweetCorpus, asset_lines, distinct_index

TOKEN_RE = re.compile(r"[\w']+")

# VADER's rule (Hutto & Gilbert, 2014): a valence preceded within
# NEGATION_WINDOW tokens by a negator is scaled by NEGATION_SCALE, and the
# summed valence s is normalised to s / sqrt(s^2 + NORMALIZATION_ALPHA)
NEGATION_WINDOW = 3
NEGATION_SCALE = -0.74
NORMALIZATION_ALPHA = 15.0

NEGATORS = frozenset(
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


def tokenize(text: str) -> list[str]:
    return [t.lower() for t in TOKEN_RE.findall(text)]


@cache
def load_lexicon() -> SentimentLexicon:
    """The bundled token<TAB>valence table."""
    rows = (line.split("\t") for line in asset_lines("lexicon.tsv"))
    return SentimentLexicon(valences={token.strip().lower(): float(value) for token, value in rows})


def score(text: str) -> float:
    """Compound sentiment in (-1, 1); 0.0 for empty or all-unknown text."""
    valences = load_lexicon().valences
    tokens = tokenize(text)
    total = 0.0
    for i, token in enumerate(tokens):
        valence = valences.get(token)
        if valence is None:
            continue
        window = tokens[max(0, i - NEGATION_WINDOW):i]
        if any(t in NEGATORS for t in window):
            valence *= NEGATION_SCALE
        total += valence
    if total == 0.0:
        return 0.0
    return total / math.sqrt(total * total + NORMALIZATION_ALPHA)


def _mean(scores: Sequence[float]) -> float:
    """Builtin sum of the scores in order over their count; 0.0 when empty."""
    return sum(scores) / len(scores) if scores else 0.0


def daily_sentiment(dataset: AlignedDataset, d: date) -> float:
    """Mean per-tweet compound score for one trading day; 0.0 when empty."""
    i = dataset.index_of(d)
    texts = dataset.corpus.texts[dataset.offsets[i]:dataset.offsets[i + 1]]
    return _mean([score(text) for text in texts])


def daily_sentiment_column(dataset: AlignedDataset) -> np.ndarray:
    """daily_sentiment of every trading day, in date order.

    Each distinct aligned text is scored once. A day's mean sums its
    tweets' scores in posting order, as daily_sentiment does, so every
    entry is daily_sentiment of that day to the bit.
    """
    distinct, index = distinct_index(dataset.corpus.texts)
    scores = [score(text) for text in distinct]
    per_tweet = [scores[i] for i in index]
    bounds = dataset.offsets
    return np.array([_mean(per_tweet[a:b]) for a, b in zip(bounds, bounds[1:])], dtype=float)


def word_frequency_timeline(
    corpus: TweetCorpus, term: str, granularity: str = "month"
) -> list[tuple[str, int]]:
    """Case-insensitive token counts of `term` per period, zero-filled.
    The term must be one token, as `tokenize` splits text."""
    if tokenize(term) != [term.lower()]:
        raise ValueError(f"term {term!r} is not one token, so no tweet token can match it")
    if granularity not in ("month", "day"):
        raise ValueError("granularity must be 'month' or 'day'")
    term = term.lower()
    counts: dict[str, int] = {}
    for day, text in zip(corpus.dates, corpus.texts):
        period = day.isoformat() if granularity == "day" else day.strftime("%Y-%m")
        hits = sum(1 for t in tokenize(text) if t == term)
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


def sentiment_histogram(corpus: TweetCorpus, bin_width: float) -> dict[tuple[float, float], int]:
    """Histogram of per-tweet compound scores over bins partitioning [-1, 1]."""
    if not 0 < bin_width < math.inf:
        raise ValueError(f"bin_width must be positive and finite, not {bin_width!r}")
    n_bins = max(1, math.ceil(2.0 / bin_width))
    edges = [-1.0 + i * bin_width for i in range(n_bins)] + [1.0]
    hist = {(edges[i], min(edges[i + 1], 1.0)): 0 for i in range(n_bins)}
    keys = list(hist.keys())
    distinct, index = distinct_index(corpus.texts)
    bins = [min(int((score(text) + 1.0) / bin_width), n_bins - 1) for text in distinct]
    for i in index:
        hist[keys[bins[i]]] += 1
    return hist
