"""Text embedding with two backends and daily aggregation strategies.

The reference backend is a seeded feature-hashing bag of words: each
token lands in a hash bucket with a deterministic sign, and the count
vector is L2-normalized. It is fully reproducible offline. Transformer
or other hosted encoders are reached through the external-service
backend, which speaks a minimal JSON batch protocol.
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import requests

from .ingest import TweetRecord
from .retry import post_with_retries

SEP_TOKEN = "⟂SEP⟂"  # reserved joiner for joint-mode encoding

AGGREGATION_MODES = ("individual-mean", "individual-concat", "joint")


class EmbeddingServiceError(RuntimeError):
    """External embedding endpoint unreachable, rejected the request or returned bad vectors."""


@dataclass(frozen=True)
class HashingEmbedder:
    """Deterministic hashed bag-of-words embedder."""

    dimension: int
    seed: int = 0
    kind: str = "reference-hash"
    # token -> (bucket, sign): a pure function of (token, seed), so threads
    # sharing an embedder can only store the same value
    _memo: dict[str, tuple[int, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.dimension <= 0:
            raise ValueError("dimension must be positive")

    def _bucket(self, token: str) -> tuple[int, float]:
        digest = hashlib.blake2b(
            token.encode("utf-8"), digest_size=9, key=str(self.seed).encode()
        ).digest()
        bucket = int.from_bytes(digest[:8], "little") % self.dimension
        sign = 1.0 if digest[8] & 1 == 0 else -1.0
        return bucket, sign

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dimension)
        memo = self._memo
        for token in text.split():
            hashed = memo.get(token)
            if hashed is None:
                hashed = memo[token] = self._bucket(token.casefold())
            bucket, sign = hashed
            vec[bucket] += sign
        # np.linalg.norm's own formula for a float vector, without its dispatch
        norm = math.sqrt(vec.dot(vec))
        return vec / norm if norm > 0 else vec


class ExternalEmbedder:
    """Client for a hosted embedding service (POST {"texts": [...]})."""

    kind = "external-service"

    def __init__(
        self,
        endpoint: str,
        dimension: int,
        api_key: str | None = None,
        max_parallel: int = 4,
        max_retries: int = 3,
        backoff: float = 0.5,
        timeout: float = 30.0,
        batch_size: int = 32,
    ) -> None:
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.endpoint = endpoint
        self.dimension = dimension
        self.api_key = api_key if api_key is not None else os.environ.get("NARRATIVE_LLM_API_KEY")
        self.max_parallel = max(1, max_parallel)
        self.max_retries = max_retries
        self.backoff = backoff
        self.timeout = timeout
        self.batch_size = batch_size
        self._session = requests.Session()

    def _post(self, texts: list[str]) -> list[list[float]]:
        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        return post_with_retries(
            self._session,
            self.endpoint,
            {"texts": texts},
            headers,
            timeout=self.timeout,
            retries=self.max_retries,
            backoff=self.backoff,
            extract=lambda reply: reply["vectors"],
            error_cls=EmbeddingServiceError,
            service="embedding service",
        )

    def embed(self, text: str) -> np.ndarray:
        return self.embed_batch([text])[0]

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        chunks = [list(texts[i:i + self.batch_size]) for i in range(0, len(texts), self.batch_size)]
        if not chunks:
            return []
        with ThreadPoolExecutor(max_workers=self.max_parallel) as pool:
            results = list(pool.map(self._post, chunks))
        out: list[np.ndarray] = []
        for vectors in results:
            for vec in vectors:
                arr = np.asarray(vec, dtype=float)
                if arr.shape != (self.dimension,):
                    raise EmbeddingServiceError(
                        f"expected dimension {self.dimension}, got {arr.shape}"
                    )
                out.append(arr)
        return out


def _as_text_and_followers(tweet) -> tuple[str, int]:
    if isinstance(tweet, TweetRecord):
        return tweet.text, tweet.followers
    return str(tweet), 0


def daily_embedding(embedder, tweets: Sequence, mode: str, k: int = 10) -> np.ndarray:
    """Aggregate one day's tweets into a fixed-dimension vector.

    individual-mean   mean of per-tweet vectors (dim d)
    individual-concat top-k tweets by follower count, concatenated with
                      zero-vector padding (dim k*d)
    joint             single encoding of all tweets joined by SEP_TOKEN
    """
    if mode not in AGGREGATION_MODES:
        raise ValueError(f"unknown aggregation mode {mode!r}")
    d = embedder.dimension
    pairs = [_as_text_and_followers(t) for t in tweets]
    if mode == "individual-mean":
        if not pairs:
            return np.zeros(d)
        vectors = [embedder.embed(text) for text, _ in pairs]
        return np.mean(vectors, axis=0)
    if mode == "individual-concat":
        if k <= 0:
            raise ValueError("concat mode needs a positive per-day tweet count k")
        ranked = sorted(range(len(pairs)), key=lambda i: (-pairs[i][1], i))[:k]
        slots = [embedder.embed(pairs[i][0]) for i in ranked]
        slots += [np.zeros(d)] * (k - len(slots))
        return np.concatenate(slots)
    joined = f" {SEP_TOKEN} ".join(text for text, _ in pairs)
    return embedder.embed(joined)
