"""LLM narrative analysis: prompts, response parsing, cached client.

Prompt builders are pure string templating and byte-reproducible, so
their outputs can be pinned as golden files. The client speaks a
chat-completion-compatible HTTP API and caches every successful
analysis on disk, keyed by a hash of (model, temperature, prompt).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import threading
from dataclasses import dataclass, replace
from datetime import date
from pathlib import Path
from typing import Mapping, Sequence

from .ingest import TweetRecord, rank_counts
from .retry import JsonService, check_settings

MAX_TWEETS_PER_DAY = 10
TIMEOUT_S = 60.0  # seconds each chat request may wait for the endpoint

REFUSAL_PHRASES = (
    "as a language model",
    "as an ai language model",
    "i cannot provide financial advice",
    "i can't provide financial advice",
    "unable to provide a prediction",
    "cannot provide predictions",
    "i cannot predict",
)


class ParseError(ValueError):
    """Model response did not contain the expected tagged sections."""

    def __init__(self, message: str, raw: str = "") -> None:
        super().__init__(message)
        self.raw = raw


class RefusalError(RuntimeError):
    """Model declined to produce a prediction."""

    def __init__(self, message: str, raw: str = "") -> None:
        super().__init__(message)
        self.raw = raw


class LlmRequestError(RuntimeError):
    """Chat endpoint unreachable after retries, or it rejected the request."""


@dataclass(frozen=True)
class AnalysisPrompt:
    text: str
    window: tuple[date, date]


@dataclass(frozen=True)
class LlmAnalysis:
    tweet_analysis: str
    impact_analysis: str
    window: tuple[date, date]
    cache_key: str = ""


@dataclass
class LlmClientConfig:
    endpoint: str
    model: str
    temperature: float = 0.5
    max_parallel: int = 4
    cache_dir: str | Path | None = None
    api_key: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.temperature < float("inf"):  # False for NaN too
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature!r}")
        check_settings(self.max_parallel)


def _financial_block(values_by_date: Mapping[date, float], dates: Sequence[date]) -> str:
    lines = [f"{d.isoformat()}: {float(values_by_date[d])!r}" for d in dates]
    return "<Financial values>\n" + "\n".join(lines) + "\n</Financial values>"


def _tweet_block(tweets_by_date: Mapping[date, Sequence[TweetRecord]], dates: Sequence[date]) -> str:
    """Each day's tweets, capped at MAX_TWEETS_PER_DAY by follower count."""
    lines = []
    for d in dates:
        tweets = tweets_by_date[d]
        ranked = rank_counts([t.followers for t in tweets])
        keep = sorted(ranked[:MAX_TWEETS_PER_DAY])  # back in posting order
        lines += [f"{d.isoformat()}: {tweets[i].text}" for i in keep]
    return "<Tweets>\n" + "\n".join(lines) + "\n</Tweets>"


def build_analysis_prompt(
    tweets_by_date: Mapping[date, Sequence[TweetRecord]],
    values_by_date: Mapping[date, float],
    target: str,
) -> AnalysisPrompt:
    """Render the monthly analysis prompt for one indicator window.

    Per-day tweets are capped at MAX_TWEETS_PER_DAY by follower count.
    Identical inputs produce byte-identical prompt text.
    """
    tweet_dates = sorted(d for d, recs in tweets_by_date.items() if recs)
    if not tweet_dates:
        raise ValueError("tweet window is empty")
    value_dates = sorted(values_by_date)
    if not value_dates:
        raise ValueError("financial window is empty")

    instruction = (
        "You are a financial and NLP expert, assisting on creating a summarised analysis "
        "on textual and financial data.\n"
        f"Your task is to create an analysis on given tweets from Twitter and on {target} "
        "values from the same time period.\n"
        f"Your output will be used for producing {target} predictions in the close-future.\n"
        f"Your input 'Financial values' is a dictionary of {target} values with their "
        "corresponding date (yyyy-mm-dd), from a time period of a month.\n"
        "Your input 'Tweets' is a dictionary of tweets from Twitter with their publication "
        "date (yyyy-mm-dd), from the same time period. The tweets were posted by opinion "
        "leaders and discuss about the news, current affairs, economy, finance, and politics.\n"
        "To produce this analysis, first analyse the fear, stability and stress expressed "
        f"in the tweets, and then analyse their possible effects on the close-future {target} value.\n"
        "Produce your output in the format:  "
        "<Analysis of Tweets>PLACE_HOLDER</Analysis of Tweets>\n"
        f"<Potential Effects on {target}>PLACE_HOLDER</Potential Effects on {target}>"
    )

    window = (min(tweet_dates[0], value_dates[0]), max(tweet_dates[-1], value_dates[-1]))
    text = (
        f"{instruction}\n\nInput:\n{_financial_block(values_by_date, value_dates)}\n\n"
        f"{_tweet_block(tweets_by_date, tweet_dates)}\n\nOutput:\n"
    )
    return AnalysisPrompt(text=text, window=window)


ANALYSIS_TAG_RE = re.compile(
    r"<\s*Analysis of Tweets\s*>(.*?)</\s*Analysis of Tweets\s*>",
    re.IGNORECASE | re.DOTALL,
)
IMPACT_TAG_RE = re.compile(
    r"<\s*Potential Effects? on [^>]*>(.*?)</\s*Potential Effects? on [^>]*>",
    re.IGNORECASE | re.DOTALL,
)


def parse_analysis(response: str, window: tuple[date, date] | None = None) -> LlmAnalysis:
    """Extract the two tagged sections from a model response."""
    analysis_match = ANALYSIS_TAG_RE.search(response)
    if analysis_match is None or not analysis_match.group(1).strip():
        raise ParseError("missing analysis section", raw=response)
    impact_match = IMPACT_TAG_RE.search(response)
    if impact_match is None or not impact_match.group(1).strip():
        raise ParseError("missing impact section", raw=response)
    return LlmAnalysis(
        tweet_analysis=analysis_match.group(1).strip(),
        impact_analysis=impact_match.group(1).strip(),
        window=window or (date.min, date.min),
    )


def render_analysis(analysis: LlmAnalysis, target: str) -> str:
    """Inverse of parse_analysis for well-formed sections (round-trip aid)."""
    return (
        f"<Analysis of Tweets>{analysis.tweet_analysis}</Analysis of Tweets>\n"
        f"<Potential Effects on {target}>{analysis.impact_analysis}</Potential Effects on {target}>"
    )


def _write_atomic(path: Path, text: str) -> None:
    """Write text to path through a temp file in the same directory and
    os.replace, so a reader sees the old entry or the whole new one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class LlmClient:
    """Chat-completion client with retries and a content-addressed cache."""

    def __init__(self, config: LlmClientConfig) -> None:
        self.config = config
        self.service = JsonService(config.endpoint, "chat endpoint", LlmRequestError, config.api_key,
                                   config.max_parallel, TIMEOUT_S)
        self._locks: dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()

    # -- cache ---------------------------------------------------------

    def cache_key(self, prompt_text: str) -> str:
        payload = f"{self.config.model}\n{self.config.temperature!r}\n{prompt_text}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _cache_path(self, key: str) -> Path | None:
        if self.config.cache_dir is None:
            return None
        return Path(self.config.cache_dir) / f"{key}.json"

    def _key_lock(self, key: str) -> threading.Lock:
        with self._locks_guard:
            return self._locks.setdefault(key, threading.Lock())

    def _persist_failure(self, key: str, raw: str) -> None:
        path = self._cache_path(key)
        if path is None:
            return
        _write_atomic(
            path.with_suffix(".failed.json"),
            json.dumps({"prompt_hash": key, "raw_response": raw}, sort_keys=True, indent=2),
        )

    @staticmethod
    def _read_cached(path: Path, key: str) -> LlmAnalysis | None:
        """The cached analysis, or None when the entry is absent or unreadable
        (truncated JSON or a missing field), so that it is requested again."""
        try:
            doc = json.loads(path.read_text("utf-8"))
            return LlmAnalysis(
                tweet_analysis=doc["tweet_analysis"],
                impact_analysis=doc["impact_analysis"],
                window=(date.fromisoformat(doc["window"][0]), date.fromisoformat(doc["window"][1])),
                cache_key=key,
            )
        # ValueError covers JSONDecodeError and a malformed window date
        except (FileNotFoundError, ValueError, KeyError, IndexError, TypeError):
            return None

    # -- transport -----------------------------------------------------

    def complete(self, prompt_text: str) -> str:
        """One chat call; retries transport and server failures with backoff."""
        body = {
            "model": self.config.model,
            "temperature": self.config.temperature,
            "messages": [{"role": "user", "content": prompt_text}],
        }
        return self.service.post(body, lambda reply: reply["choices"][0]["message"]["content"])

    # -- analysis protocol ----------------------------------------------

    def request_analysis(self, prompt: AnalysisPrompt) -> LlmAnalysis:
        """Return the parsed analysis for a prompt, hitting the cache first."""
        key = self.cache_key(prompt.text)
        with self._key_lock(key):
            path = self._cache_path(key)
            if path is not None:
                cached = self._read_cached(path, key)
                if cached is not None:
                    return cached
            raw = self.complete(prompt.text)
            try:
                parsed = parse_analysis(raw, window=prompt.window)
            except ParseError:
                self._persist_failure(key, raw)
                raise
            analysis = replace(parsed, cache_key=key)
            if path is not None:
                _write_atomic(
                    path,
                    json.dumps(
                        {
                            "prompt_hash": key,
                            "window": [prompt.window[0].isoformat(), prompt.window[1].isoformat()],
                            "raw_response": raw,
                            "tweet_analysis": analysis.tweet_analysis,
                            "impact_analysis": analysis.impact_analysis,
                        },
                        sort_keys=True,
                        indent=2,
                    ),
                )
            return analysis

    def request_analyses(self, prompts: Sequence[AnalysisPrompt]) -> list[LlmAnalysis]:
        """Bounded-parallel request_analysis over several prompts."""
        return self.service.map(self.request_analysis, prompts)


def render_directions(directions: Sequence) -> str:
    """Comma-join directions as 'decrease=0' / 'increase=1' tokens."""
    parts = []
    for d in directions:
        if d in (1, "1", "increase", True):
            parts.append("increase=1")
        elif d in (0, "0", "decrease", False):
            parts.append("decrease=0")
        else:
            raise ValueError(f"unknown direction {d!r}")
    return ", ".join(parts)


def _horizon_phrase(horizon: int) -> str:
    if horizon == 1:
        return "tomorrow"
    if horizon == 7:
        return "next week"
    if horizon == 30:
        return "next month"
    return f"in {horizon} days"


def build_integration_prompt(
    analysis: LlmAnalysis,
    recent_directions: Sequence,
    target: str,
    horizon: int = 1,
) -> str:
    """Segment prompt feeding an analysis plus direction history to a classifier."""
    if not recent_directions:
        raise ValueError("recent_directions must be non-empty")
    return (
        f"[CLS] Summary of recent tweets: {analysis.tweet_analysis} "
        f"[SEP] Recent {target} directions of change: {render_directions(recent_directions)}. "
        f"[EOS] Predict {target} direction of change {_horizon_phrase(horizon)}:"
    )


# -- end-to-end weekly prediction ---------------------------------------

NUMBER_RE = re.compile(r"-?\d+(?:,\d{3})*(?:\.\d+)?")
RANGE_RE = re.compile(
    r"(-?\d+(?:\.\d+)?)\s*(?:-|–|—|to)\s*(-?\d+(?:\.\d+)?)"
)


@dataclass(frozen=True)
class WeeklyPrediction:
    value: float
    low: float | None
    high: float | None
    raw: str


def detect_refusal(text: str) -> bool:
    lowered = text.lower()
    return any(p in lowered for p in REFUSAL_PHRASES)


def _final_answer_segment(text: str) -> str:
    """Last line of the response that carries a number."""
    for line in reversed(text.splitlines()):
        if NUMBER_RE.search(line):
            return line
    return ""


def parse_weekly_answer(text: str, target: str = "") -> tuple[float, float | None, float | None]:
    """Pull the first number or numeric range out of the final answer segment.

    Ranges collapse to their midpoint; the bounds are reported alongside.
    Mentions of the target name are removed first so that e.g. an index
    called 'S&P 500' does not contribute a spurious 500.
    """
    segment = _final_answer_segment(text)
    if target:
        segment = re.sub(re.escape(target), " ", segment, flags=re.IGNORECASE)
    segment = re.sub(r"S&P\s*500", " ", segment, flags=re.IGNORECASE)
    range_match = RANGE_RE.search(segment)
    if range_match:
        low, high = float(range_match.group(1)), float(range_match.group(2))
        if low > high:
            low, high = high, low
        return (low + high) / 2.0, low, high
    number_match = NUMBER_RE.search(segment)
    if number_match is None:
        raise ParseError("no numeric prediction found", raw=text)
    return float(number_match.group(0).replace(",", "")), None, None


def build_weekly_prompt(
    tweets_by_date: Mapping[date, Sequence[TweetRecord]],
    values_by_date: Mapping[date, float],
    target: str,
    mode: str = "zero-shot",
    examples: Sequence[tuple[str, str]] | None = None,
) -> str:
    """Prompt asking for the average target value over the following week."""
    if mode not in ("zero-shot", "few-shot", "cot"):
        raise ValueError(f"unknown prediction mode {mode!r}")
    value_dates = sorted(values_by_date)
    tweet_dates = sorted(tweets_by_date)
    if not value_dates or not tweet_dates:
        raise ValueError("need both tweets and values in the window")
    if (tweet_dates[0], tweet_dates[-1]) != (value_dates[0], value_dates[-1]):
        raise ValueError("tweet and value windows must cover the same dates")

    header = (
        f"You are given one month of tweets and {target} values, both keyed by date "
        "(yyyy-mm-dd).\n"
        f"Predict the average {target} value over the week that follows the last given date."
    )
    if mode == "cot":
        header += (
            "\nWork in three steps: first analyse the tweets, then explain how they could "
            f"influence {target}, and finally state the predicted weekly average with a short "
            "rationale. End with the prediction on its own line."
        )
    parts = [header]
    if mode == "few-shot":
        if not examples:
            raise ValueError("few-shot mode requires example input-output pairs")
        for i, (example_in, example_out) in enumerate(examples, start=1):
            parts.append(f"Example {i} input:\n{example_in}\nExample {i} output:\n{example_out}")

    parts += [
        _financial_block(values_by_date, value_dates),
        _tweet_block(tweets_by_date, tweet_dates),
        "Prediction:",
    ]
    return "\n\n".join(parts)


def llm_predict_weekly_average(
    client: LlmClient,
    tweets_by_date: Mapping[date, Sequence[TweetRecord]],
    values_by_date: Mapping[date, float],
    target: str,
    mode: str = "zero-shot",
    examples: Sequence[tuple[str, str]] | None = None,
) -> WeeklyPrediction:
    """Ask the model for next week's average value and parse the answer."""
    prompt = build_weekly_prompt(tweets_by_date, values_by_date, target, mode, examples)
    raw = client.complete(prompt)
    if detect_refusal(raw):
        raise RefusalError("model declined to predict", raw=raw)
    value, low, high = parse_weekly_answer(raw, target=target)
    return WeeklyPrediction(value=value, low=low, high=high, raw=raw)
