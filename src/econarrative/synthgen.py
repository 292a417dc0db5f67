"""Synthetic corpora and series for counterfactual checks.

Three text sources bracket a model's use of narrative content: random
word salad (no signal), date-shuffled corpora (signal destroyed), and
planted cue sentences whose polarity matches the indicator's next move
(perfect signal, tunable via the alignment probability).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from functools import lru_cache
from importlib import resources
from typing import Sequence

import numpy as np

from .harness import make_labels
from .ingest import FinancialSeries, TweetCorpus, TweetRecord

POSITIVE_CUES = (
    "markets rally as optimism and confidence keep growing",
    "strong gains today with investors upbeat about growth",
    "great profits and a healthy recovery lift every sector",
    "impressive rebound as traders celebrate rising prosperity",
    "bullish surge brings relief and renewed trust in the economy",
    "robust growth and solid progress cheer wealthy investors",
)

NEGATIVE_CUES = (
    "markets plunge as fear and panic keep spreading",
    "heavy losses today with investors worried about recession",
    "terrible declines and a gloomy slump hurt every sector",
    "dismal crash as traders suffer rising turmoil",
    "bearish selloff brings distress and deep doubt about the economy",
    "weak growth and grim stagnation scare anxious investors",
)

SENTENCE_LENGTH = (5, 12)  # words per random sentence, both ends included

WALK_START = date(2015, 1, 5)  # a Monday: the first date of every random walk


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    alignment_p: float = 1.0
    per_day: int = 3

    def __post_init__(self) -> None:
        if not 0.0 <= self.alignment_p <= 1.0:
            raise ValueError("alignment_p must lie in [0, 1]")
        if self.per_day < 1:
            raise ValueError("per_day must be >= 1")


@lru_cache(maxsize=1)
def load_wordlist() -> tuple[str, ...]:
    raw = resources.files("econarrative.assets").joinpath("wordlist.txt").read_text("utf-8")
    words = tuple(w.strip() for w in raw.splitlines() if w.strip())
    if not words:
        raise ValueError("wordlist is empty")
    return words


def _record(tweet_id: str, d: date, text: str) -> TweetRecord:
    return TweetRecord(id=tweet_id, date=d, text=text, followers=1000, user_id="synthetic")


def gen_random_texts(cfg: SynthConfig, dates: Sequence[date]) -> TweetCorpus:
    """Uniform word-salad sentences for every date; no planted signal."""
    words = load_wordlist()
    rng = np.random.default_rng(cfg.seed)
    lo, hi = SENTENCE_LENGTH
    records = []
    for d in sorted(dates):
        for i in range(cfg.per_day):
            length = int(rng.integers(lo, hi + 1))
            text = " ".join(words[int(j)] for j in rng.integers(0, len(words), size=length))
            records.append(_record(f"rnd-{d.isoformat()}-{i}", d, text))
    return TweetCorpus.from_records(records)


def shuffle_dates(corpus: TweetCorpus, seed: int) -> TweetCorpus:
    """Reassign dates across records by a uniform permutation.

    The multiset of texts and the multiset of dates are both preserved;
    only the pairing between them is destroyed.
    """
    if len(set(corpus.dates)) < 2:
        raise ValueError("need at least 2 distinct dates to shuffle")
    order = np.random.default_rng(seed).permutation(len(corpus))
    records = [rec._replace(date=corpus.dates[j]) for rec, j in zip(corpus.records, order)]
    return TweetCorpus.from_records(records)


def gen_synthetic_narratives(series: FinancialSeries, horizon: int, cfg: SynthConfig) -> TweetCorpus:
    """Cue sentences aligned (with probability p) to each day's direction-change label."""
    labels = make_labels(series, "direction-change", horizon)
    rng = np.random.default_rng(cfg.seed)
    records = []
    for d, label in zip(labels.dates, labels.values):
        up = label == "increase"
        for j in range(cfg.per_day):
            aligned = rng.random() < cfg.alignment_p
            positive = up if aligned else not up
            pool = POSITIVE_CUES if positive else NEGATIVE_CUES
            text = pool[int(rng.integers(0, len(pool)))]
            records.append(_record(f"cue-{d.isoformat()}-{j}", d, text))
    return TweetCorpus.from_records(records)


def gen_random_walk(n: int, sigma: float, v0: float, seed: int, name: str = "SYNTH") -> FinancialSeries:
    """Geometric random walk on consecutive weekdays; strictly positive."""
    if n < 2:
        raise ValueError("need at least 2 points")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if v0 <= 0:
        raise ValueError("v0 must be positive")
    rng = np.random.default_rng(seed)
    steps = rng.standard_normal(n - 1)
    values = [float(v0)]
    for z in steps:
        values.append(values[-1] * float(np.exp(sigma * z)))
    dates = []
    d = WALK_START
    while len(dates) < n:
        if d.weekday() < 5:
            dates.append(d)
        d += timedelta(days=1)
    return FinancialSeries(name, tuple(dates), tuple(values))
