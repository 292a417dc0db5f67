import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from econarrative import embed, retry
from econarrative.embed import (
    AGGREGATION_MODES,
    EmbeddingServiceError,
    ExternalEmbedder,
    HashingEmbedder,
    SEP_TOKEN,
    daily_embedding,
    daily_embeddings,
)
from econarrative.ingest import TweetRecord
from datetime import date


def _cosine(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(a @ b / (na * nb))


class TestHashingEmbedder:
    def test_empty_text_zero_vector(self):
        e = HashingEmbedder(dimension=16, seed=0)
        assert np.array_equal(e.embed(""), np.zeros(16))

    def test_deterministic(self):
        e = HashingEmbedder(dimension=32, seed=3)
        assert np.array_equal(e.embed("markets are up"), e.embed("markets are up"))

    def test_bag_of_words(self):
        e = HashingEmbedder(dimension=32, seed=0)
        assert np.array_equal(e.embed("a b"), e.embed("b a"))

    def test_unit_norm(self):
        e = HashingEmbedder(dimension=64, seed=1)
        assert np.linalg.norm(e.embed("inflation fears grow")) == pytest.approx(1.0)

    def test_self_similarity_one(self):
        e = HashingEmbedder(dimension=64, seed=1)
        v = e.embed("rates rise again")
        assert _cosine(v, v) == pytest.approx(1.0)

    def test_disjoint_texts_nearly_orthogonal(self):
        rng = np.random.default_rng(0)
        sims = []
        for seed in range(20):
            e = HashingEmbedder(dimension=256, seed=seed)
            a = " ".join(f"tok{int(i)}" for i in rng.integers(0, 10_000, size=60))
            b = " ".join(f"w{int(i)}" for i in rng.integers(0, 10_000, size=60))
            sims.append(abs(_cosine(e.embed(a), e.embed(b))))
        assert float(np.mean(sims)) < 0.2

    def test_seed_changes_embedding(self):
        a = HashingEmbedder(dimension=64, seed=0).embed("same text")
        b = HashingEmbedder(dimension=64, seed=1).embed("same text")
        assert not np.array_equal(a, b)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            HashingEmbedder(dimension=0)


def _embed_uncached(embedder, text):
    """The embed loop before per-token memoisation: hash every token each call."""
    vec = np.zeros(embedder.dimension)
    for token in text.split():
        bucket, sign = embedder._bucket(token.casefold())
        vec[bucket] += sign
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


CASE_VARIANTS = (str, str.upper, str.lower, str.title, str.swapcase, str.casefold)
WORDS = st.sampled_from(["rates", "Rates", "up", "UP", "Straße", "strasse", "a", "é", SEP_TOKEN])
TEXTS = st.lists(WORDS, max_size=6).map(" ".join)


class TestTokenMemo:
    @settings(deadline=None)
    @given(
        st.lists(st.tuples(st.text(min_size=1, max_size=4), st.sampled_from(CASE_VARIANTS))),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=3),
    )
    def test_memoised_embed_equals_uncached_loop(self, tokens, dimension, seed):
        embedder = HashingEmbedder(dimension=dimension, seed=seed)
        # every prefix re-embeds earlier tokens, so later calls read the memo;
        # case variants of one token share a bucket through casefold
        for end in range(len(tokens) + 1):
            text = " ".join(case(token) for token, case in tokens[:end])
            assert np.array_equal(embedder.embed(text), _embed_uncached(embedder, text))

    @settings(deadline=None)
    @given(st.lists(TEXTS, max_size=8), st.integers(min_value=1, max_value=64), st.integers(0, 3))
    def test_batch_rows_equal_uncached_loop(self, texts, dimension, seed):
        embedder = HashingEmbedder(dimension=dimension, seed=seed)
        batch = embedder.embed_batch(texts)
        assert batch.shape == (len(texts), dimension) and batch.dtype == np.float64
        for text, row in zip(texts, batch):
            assert np.array_equal(row, _embed_uncached(embedder, text))

    @pytest.mark.parametrize("block", [1, 3, 4])
    def test_blocks_of_texts_give_the_same_rows(self, monkeypatch, block):
        texts = [f"tok{i % 5} w{i} Tok{i % 3}" for i in range(10)] + ["", " \t "]
        monkeypatch.setattr(embed, "TEXTS_PER_BLOCK", block)
        embedder = HashingEmbedder(dimension=8, seed=1)
        for text, row in zip(texts, embedder.embed_batch(texts)):
            assert np.array_equal(row, _embed_uncached(embedder, text))

    def test_case_variants_share_a_bucket(self):
        e = HashingEmbedder(dimension=64, seed=2)
        assert np.array_equal(e.embed("Straße STRASSE"), _embed_uncached(e, "strasse strasse"))
        assert e._memo["Straße"] == e._memo["STRASSE"] == e._bucket("strasse")

    def test_memo_is_not_part_of_identity(self):
        used, fresh = HashingEmbedder(dimension=8, seed=1), HashingEmbedder(dimension=8, seed=1)
        used.embed("rates rise")
        assert used._memo and not fresh._memo
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)

    def test_shared_embedder_under_threads(self):
        # threads sharing one embedder only ever store the same (bucket, sign)
        texts = [f"tok{i % 37} Tok{i % 11} TOK{i % 5} w{i}" for i in range(400)]
        embedder = HashingEmbedder(dimension=32, seed=5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda: [embedder.embed(t) for t in texts]) for _ in range(8)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        expected = [_embed_uncached(embedder, t) for t in texts]
        for vectors in results:
            assert all(np.array_equal(a, b) for a, b in zip(vectors, expected))
        assert all(embedder._memo[t] == embedder._bucket(t.casefold()) for t in embedder._memo)


def _daily_embedding_loop(embed, d, tweets, mode, k=10):
    """daily_embedding before batching: one day at a time, one embed call
    per text and np.mean over the day's vectors."""
    pairs = [(t.text, t.followers) if isinstance(t, TweetRecord) else (str(t), 0) for t in tweets]
    if mode == "individual-mean":
        if not pairs:
            return np.zeros(d)
        return np.mean([embed(text) for text, _ in pairs], axis=0)
    if mode == "individual-concat":
        ranked = sorted(range(len(pairs)), key=lambda i: (-pairs[i][1], i))[:k]
        slots = [embed(pairs[i][0]) for i in ranked]
        slots += [np.zeros(d)] * (k - len(slots))
        return np.concatenate(slots)
    return embed(f" {SEP_TOKEN} ".join(text for text, _ in pairs))


class _TableEmbedder:
    """A fixed random vector per text: unlike hashed vectors, whose entries
    are multiples of one norm, these make every summation order show."""

    def __init__(self, texts, dimension, seed):
        rng = np.random.default_rng(seed)
        self.dimension = dimension
        self.vectors = {text: rng.standard_normal(dimension) / 3 for text in texts}

    def embed_batch(self, texts):
        return np.array([self.vectors[t] for t in texts]).reshape(len(texts), self.dimension)


def _assert_rows_match_loop(embedder, embed, days, mode, k):
    texts = [[getattr(t, "text", t) for t in day] for day in days]
    followers = [[getattr(t, "followers", 0) for t in day] for day in days]
    rows = daily_embeddings(embedder, texts, mode, k, followers)
    assert rows.shape[0] == len(days)
    for tweets, row in zip(days, rows):
        assert np.array_equal(row, _daily_embedding_loop(embed, embedder.dimension, tweets, mode, k))


class TestDailyEmbeddings:
    @given(
        st.lists(st.lists(st.tuples(TEXTS, st.sampled_from([0, 10, 500])), max_size=12), max_size=6),
        st.sampled_from([1, 2, 3, 16]),
        st.sampled_from(AGGREGATION_MODES),
        st.integers(min_value=1, max_value=4),
    )
    def test_rows_equal_per_day_loop(self, days, dimension, mode, k):
        records = [
            [TweetRecord(str(i), date(2021, 1, 4), text, followers) for i, (text, followers) in enumerate(day)]
            for day in days
        ]
        embedder = HashingEmbedder(dimension=dimension, seed=1)
        _assert_rows_match_loop(embedder, lambda text: _embed_uncached(embedder, text), records, mode, k)

    @pytest.mark.parametrize("dimension", [1, 2, 32])
    def test_mean_matches_np_mean_on_long_days(self, dimension):
        # np.mean sums a one-wide day pairwise from 8 rows on, a wider one row
        # by row; day sizes straddle its 8- and 128-row steps
        sizes = (0, 1, 7, 8, 9, 16, 17, 127, 128, 129, 300, 9, 1, 0)
        days = [[f"day {i} tweet {j}" for j in range(n)] for i, n in enumerate(sizes)]
        embedder = _TableEmbedder([t for day in days for t in day], dimension, seed=dimension)
        _assert_rows_match_loop(embedder, embedder.vectors.__getitem__, days, "individual-mean", 10)

    def test_external_embedder_posts_batches_in_tweet_order(self, stub_server, monkeypatch):
        # each vector holds its text's position, so a reordering shows
        stub_server.state.set_raw(
            lambda payload: {"vectors": [[float(t.split()[1])] * 4 for t in payload["texts"]]}
        )
        monkeypatch.setattr(embed, "TEXTS_PER_REQUEST", 4)
        e = ExternalEmbedder(endpoint=stub_server.url, dimension=4)
        days = [[f"tweet {5 * day + i}" for i in range(5)] for day in range(3)]
        concat = daily_embeddings(e, days, "individual-concat", 5, [[0] * 5] * 3)
        assert stub_server.calls == math.ceil(15 / 4)
        assert np.array_equal(concat.reshape(3, 5, 4)[..., 0], np.arange(15.0).reshape(3, 5))
        mean = daily_embeddings(e, days, "individual-mean", 10, [[0] * 5] * 3)
        assert stub_server.calls == 2 * math.ceil(15 / 4)
        assert np.array_equal(mean, np.repeat([[2.0], [7.0], [12.0]], 4, axis=1))


class TestDailyEmbedding:
    E = HashingEmbedder(dimension=16, seed=5)

    def test_mean_of_identical_equals_single(self):
        one = daily_embedding(self.E, ["same tweet"], "individual-mean")
        two = daily_embedding(self.E, ["same tweet", "same tweet"], "individual-mean")
        assert np.allclose(one, two)

    def test_mean_of_nothing_is_zero(self):
        assert np.array_equal(daily_embedding(self.E, [], "individual-mean"), np.zeros(16))

    def test_concat_pads_with_zero_vectors(self):
        out = daily_embedding(self.E, ["only one"], "individual-concat", k=3)
        assert out.shape == (48,)
        assert np.array_equal(out[:16], self.E.embed("only one"))
        assert np.array_equal(out[16:], np.zeros(32))

    def test_concat_truncates_by_followers(self):
        texts = ["small account", "big account"]
        out = daily_embedding(self.E, texts, "individual-concat", k=1, followers=[10, 10_000])
        assert np.array_equal(out, self.E.embed("big account"))

    def test_joint_equals_joined_embedding(self):
        texts = ["rates up", "stocks down"]
        joint = daily_embedding(self.E, texts, "joint")
        assert np.array_equal(joint, self.E.embed(f"rates up {SEP_TOKEN} stocks down"))

    def test_output_dimension_fixed(self):
        for tweets in ([], ["one"], ["one", "two", "three"]):
            assert daily_embedding(self.E, tweets, "individual-mean").shape == (16,)
            assert daily_embedding(self.E, tweets, "individual-concat", k=10).shape == (160,)
            assert daily_embedding(self.E, tweets, "joint").shape == (16,)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            daily_embedding(self.E, [], "mystery")

    def test_concat_requires_positive_k(self):
        with pytest.raises(ValueError):
            daily_embedding(self.E, ["x"], "individual-concat", k=0)


class TestExternalEmbedder:
    @pytest.mark.parametrize("setting", ["max_parallel"])
    def test_setting_below_one_rejected(self, setting):
        # 0 was clamped to 1
        with pytest.raises(ValueError, match=f"{setting} must be >= 1"):
            ExternalEmbedder(endpoint="http://unused.invalid/", dimension=4, **{setting: 0})

    def test_round_trip_against_stub(self, stub_server):
        stub_server.state.set_embedding(dimension=8)
        e = ExternalEmbedder(endpoint=stub_server.url, dimension=8)
        vectors = e.embed_batch(["alpha", "beta", "gamma"])
        assert len(vectors) == 3
        assert all(v.shape == (8,) for v in vectors)

    def test_reply_with_too_few_vectors(self, stub_server):
        stub_server.state.set_raw(lambda payload: {"vectors": [[0.0] * 4]})
        e = ExternalEmbedder(endpoint=stub_server.url, dimension=4)
        with pytest.raises(EmbeddingServiceError, match="expected 2 vectors, got 1"):
            e.embed_batch(["alpha", "beta"])

    @pytest.mark.parametrize("vectors, message", [
        (5, "expected 2 vectors, got a single number"),
        ("ab", "not a numeric matrix"),
        (["ab"], "not a numeric matrix"),
        ([[1, "x"]], "not a numeric matrix"),
        ([[1.0, 2.0], [1.0]], "not a numeric matrix"),
        ([1.0, 2.0], "expected dimension 2"),
        ([[1.0, 2.0], [float("nan"), 2.0]], "non-finite"),
    ])
    def test_malformed_reply_is_a_service_error(self, stub_server, vectors, message):
        stub_server.state.set_raw(lambda payload: {"vectors": vectors})
        e = ExternalEmbedder(endpoint=stub_server.url, dimension=2)
        with pytest.raises(EmbeddingServiceError, match=message):
            e.embed_batch(["alpha", "beta"])
        assert stub_server.calls == 1

    def test_reply_that_is_not_an_object_is_retried(self, stub_server, sleeps):
        stub_server.state.set_raw(lambda payload: [1, 2])
        e = ExternalEmbedder(endpoint=stub_server.url, dimension=2)
        with pytest.raises(EmbeddingServiceError, match="failed after 3 tries"):
            e.embed_batch(["alpha", "beta"])
        assert stub_server.calls == 3
        assert sleeps == [retry.BACKOFF_S, 2 * retry.BACKOFF_S]

    def test_dimension_mismatch(self, stub_server):
        stub_server.state.set_embedding(dimension=4)
        e = ExternalEmbedder(endpoint=stub_server.url, dimension=8)
        with pytest.raises(EmbeddingServiceError, match="dimension"):
            e.embed_batch(["alpha"])

    def test_unreachable_endpoint(self, sleeps):
        e = ExternalEmbedder(endpoint="http://127.0.0.1:1/", dimension=4)
        with pytest.raises(EmbeddingServiceError, match="failed after 3"):
            e.embed_batch(["alpha"])
        assert sleeps == [retry.BACKOFF_S, 2 * retry.BACKOFF_S]

    def test_client_error_is_not_retried(self, stub_server, sleeps):
        stub_server.state.status = 401
        e = ExternalEmbedder(endpoint=stub_server.url, dimension=4)
        with pytest.raises(EmbeddingServiceError, match="client error 401"):
            e.embed_batch(["alpha"])
        assert stub_server.calls == 1
        assert sleeps == []
