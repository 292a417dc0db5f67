"""Text embedding with two backends and daily aggregation strategies.

The reference backend is a seeded feature-hashing bag of words: each
token lands in a hash bucket with a deterministic sign, and the count
vector is L2-normalized. It is fully reproducible offline. Transformer
or other hosted encoders are reached through the external-service
backend, which speaks a minimal JSON batch protocol.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .ingest import rank_counts
from .retry import JsonService

SEP_TOKEN = "⟂SEP⟂"  # reserved joiner for joint-mode encoding

AGGREGATION_MODES = ("individual-mean", "individual-concat", "joint")

# texts HashingEmbedder.embed_batch counts at a time: a block's per-token
# arrays stay small, and its few numpy calls cost little per text
TEXTS_PER_BLOCK = 1024

TEXTS_PER_REQUEST = 32  # texts ExternalEmbedder sends in one request
TIMEOUT_S = 30.0  # seconds each embedding request may wait for the service


class EmbeddingServiceError(RuntimeError):
    """External embedding endpoint unreachable, rejected the request or returned bad vectors."""


@dataclass(frozen=True)
class HashingEmbedder:
    """Deterministic hashed bag-of-words embedder."""

    dimension: int
    seed: int = 0
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
        return self.embed_batch([text])[0]

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """One L2-normalised row per text, shape (len(texts), dimension)."""
        vecs = np.zeros((len(texts), self.dimension))
        for start in range(0, len(texts), TEXTS_PER_BLOCK):
            stop = start + TEXTS_PER_BLOCK
            self._add_token_signs(texts[start:stop], vecs[start:stop])
        # the entries are small integers, so the sums and squared norms are
        # exact in any order and every row equals a token-by-token count
        norms = np.sqrt(np.einsum("ij,ij->i", vecs, vecs))[:, None]
        return np.divide(vecs, norms, out=vecs, where=norms > 0)

    def _add_token_signs(self, texts: Sequence[str], out: np.ndarray) -> None:
        """Add each token's ±1 into its bucket of its text's row of `out`."""
        memo = self._memo
        words = [text.split() for text in texts]
        tokens = list(chain.from_iterable(words))
        distinct = list(set(tokens))
        for token in distinct:
            if token not in memo:
                memo[token] = self._bucket(token.casefold())
        # each token as the index of its distinct token, so the per-token work runs in C
        index = dict(zip(distinct, range(len(distinct))))
        ids = np.fromiter(map(index.__getitem__, tokens), np.intp, count=len(tokens))
        buckets = np.array([memo[token][0] for token in distinct], dtype=np.intp)
        signs = np.array([memo[token][1] for token in distinct], dtype=float)
        cells = np.repeat(np.arange(0, out.size, self.dimension), [len(w) for w in words])
        cells += buckets[ids]
        out += np.bincount(cells, weights=signs[ids], minlength=out.size).reshape(out.shape)


class ExternalEmbedder:
    """Client for a hosted embedding service (POST {"texts": [...]})."""

    def __init__(
        self,
        endpoint: str,
        dimension: int,
        api_key: str | None = None,
        max_parallel: int = 4,
    ) -> None:
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self.service = JsonService(endpoint, "embedding service", EmbeddingServiceError, api_key,
                                   max_parallel, TIMEOUT_S)

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """One row per text, shape (len(texts), dimension), in order; the
        texts go out in requests of TEXTS_PER_REQUEST, `max_parallel` at a time."""
        chunks = [list(texts[i:i + TEXTS_PER_REQUEST]) for i in range(0, len(texts), TEXTS_PER_REQUEST)]
        if not chunks:
            return np.zeros((0, self.dimension))
        results = self.service.map(
            lambda chunk: self.service.post({"texts": chunk}, lambda reply: reply["vectors"]), chunks
        )
        out: list[np.ndarray] = []
        for chunk, vectors in zip(chunks, results):
            try:
                arr = np.asarray(vectors, dtype=float)
            except (TypeError, ValueError) as exc:  # not numbers, or rows of unequal length
                raise EmbeddingServiceError(f"reply vectors are not a numeric matrix: {exc}") from exc
            # a short or long reply would shift every later vector onto the wrong text
            if arr.ndim == 0 or len(arr) != len(chunk):
                got = len(arr) if arr.ndim else "a single number"
                raise EmbeddingServiceError(f"expected {len(chunk)} vectors, got {got}")
            if arr.shape != (len(chunk), self.dimension):
                raise EmbeddingServiceError(
                    f"expected dimension {self.dimension}, got vectors of shape {arr.shape[1:]}"
                )
            if not np.isfinite(arr).all():
                raise EmbeddingServiceError("reply vectors hold non-finite entries")
            out.append(arr)
        return np.concatenate(out)


def daily_embeddings(embedder, days: Sequence[Sequence[str]], mode: str, k: int,
                     followers: Sequence[Sequence[int]]) -> np.ndarray:
    """Aggregate each day's texts into one fixed-width row, shape (len(days), width).

    individual-mean   mean of per-tweet vectors (width d)
    individual-concat top-k tweets by follower count, concatenated with
                      zero-vector padding (width k*d)
    joint             single encoding of all tweets joined by SEP_TOKEN (width d)

    `followers` holds each day's follower counts, parallel to its texts. All
    the texts the mode needs go to the embedder in one embed_batch call.
    """
    if mode not in AGGREGATION_MODES:
        raise ValueError(f"unknown aggregation mode {mode!r}")
    texts = days
    if mode == "individual-concat":
        if k <= 0:
            raise ValueError("concat mode needs a positive per-day tweet count k")
        texts = [[day[i] for i in rank_counts(counts)[:k]] for day, counts in zip(days, followers)]
    if mode == "joint":
        return embedder.embed_batch([f" {SEP_TOKEN} ".join(day) for day in texts])
    # the days in order of tweet count, so the days with n tweets are one
    # (days, n, d) block of the batch's rows
    counts = np.array([len(day) for day in texts], dtype=np.intp)
    order = np.argsort(counts, kind="stable")
    vectors = embedder.embed_batch([text for i in order.tolist() for text in texts[i]])
    d = embedder.dimension
    width = k * d if mode == "individual-concat" else d
    out = np.zeros((len(days), k, d) if mode == "individual-concat" else (len(days), d))
    row = 0
    for n, first, m in zip(*np.unique(counts[order], return_index=True, return_counts=True)):
        if n == 0:
            continue
        block, picked = vectors[row:row + m * n].reshape(m, n, d), order[first:first + m]
        if mode == "individual-concat":
            out[picked, :n] = block
        else:
            # np.mean over the block sums each day's rows in the same order
            # as np.mean over that day alone
            out[picked] = block.mean(axis=1)
        row += m * n
    return out.reshape(len(days), width)


def daily_embedding(
    embedder, texts: Sequence[str], mode: str, k: int = 10, followers: Sequence[int] | None = None
) -> np.ndarray:
    """One day's row of daily_embeddings; without `followers`, every count is 0."""
    counts = [0] * len(texts) if followers is None else followers
    return daily_embeddings(embedder, [texts], mode, k, [counts])[0]
