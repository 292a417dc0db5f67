from types import SimpleNamespace

import numpy as np
import pytest

from econarrative import retry
from econarrative.embed import (
    EmbeddingServiceError,
    ExternalEmbedder,
    HashingEmbedder,
    SEP_TOKEN,
    daily_embedding,
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


class TestDailyEmbedding:
    E = HashingEmbedder(dimension=16, seed=5)

    def _tweet(self, text, followers):
        return TweetRecord("x", date(2021, 1, 4), text, followers)

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
        tweets = [self._tweet("small account", 10), self._tweet("big account", 10_000)]
        out = daily_embedding(self.E, tweets, "individual-concat", k=1)
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
    def test_round_trip_against_stub(self, stub_server):
        stub_server.state.set_embedding(dimension=8)
        e = ExternalEmbedder(endpoint=stub_server.url, dimension=8, backoff=0.01)
        vectors = e.embed_batch(["alpha", "beta", "gamma"])
        assert len(vectors) == 3
        assert all(v.shape == (8,) for v in vectors)

    def test_dimension_mismatch(self, stub_server):
        stub_server.state.set_embedding(dimension=4)
        e = ExternalEmbedder(endpoint=stub_server.url, dimension=8, backoff=0.01)
        with pytest.raises(EmbeddingServiceError, match="dimension"):
            e.embed("alpha")

    def test_unreachable_endpoint(self):
        e = ExternalEmbedder(
            endpoint="http://127.0.0.1:1/", dimension=4, max_retries=2, backoff=0.01
        )
        with pytest.raises(EmbeddingServiceError, match="failed after 2"):
            e.embed("alpha")

    def test_client_error_is_not_retried(self, stub_server, monkeypatch):
        sleeps = []
        monkeypatch.setattr(retry, "time", SimpleNamespace(sleep=sleeps.append))
        stub_server.state.status = 401
        e = ExternalEmbedder(endpoint=stub_server.url, dimension=4, backoff=0.01)
        with pytest.raises(EmbeddingServiceError, match="client error 401"):
            e.embed("alpha")
        assert stub_server.calls == 1
        assert sleeps == []
