from collections import Counter
from datetime import date, timedelta

import numpy as np
import pytest

from econarrative import synthgen
from econarrative.harness import make_labels
from econarrative.sentiment import score
from econarrative.synthgen import (
    NEGATIVE_CUES,
    POSITIVE_CUES,
    SENTENCE_LENGTH,
    SynthConfig,
    gen_random_texts,
    gen_random_walk,
    gen_synthetic_narratives,
    load_wordlist,
    shuffle_dates,
)

DATES = [date(2021, 1, 4) + timedelta(days=i) for i in range(30)]


class TestRandomTexts:
    def test_seed_determinism(self):
        cfg = SynthConfig(seed=1)
        a = gen_random_texts(cfg, DATES)
        b = gen_random_texts(cfg, DATES)
        assert [r.text for r in a.records] == [r.text for r in b.records]
        assert [r.id for r in a.records] == [r.id for r in b.records]

    def test_sentence_lengths_cover_the_fixed_range(self):
        corpus = gen_random_texts(SynthConfig(seed=2), DATES)
        lo, hi = SENTENCE_LENGTH
        assert {len(r.text.split()) for r in corpus.records} == set(range(lo, hi + 1))

    def test_expected_sentiment_near_zero(self):
        cfg = SynthConfig(seed=3, per_day=1)
        days = [date(2020, 1, 1) + timedelta(days=i) for i in range(1000)]
        corpus = gen_random_texts(cfg, days)
        mean = float(np.mean([score(r.text) for r in corpus.records]))
        assert abs(mean) < 0.05

    def test_per_day_count(self):
        cfg = SynthConfig(seed=4, per_day=3)
        corpus = gen_random_texts(cfg, DATES[:5])
        counts = Counter(r.date for r in corpus.records)
        assert all(c == 3 for c in counts.values())

    def test_empty_wordlist_rejected(self, tmp_path, monkeypatch):
        (tmp_path / "wordlist.txt").write_text("\n \n", encoding="utf-8")
        monkeypatch.setattr(synthgen.resources, "files", lambda package: tmp_path)
        load_wordlist.cache_clear()  # the bundled list may be cached; a raise caches nothing
        with pytest.raises(ValueError, match="wordlist is empty"):
            load_wordlist()

    def test_bundled_wordlist_loads(self):
        words = load_wordlist()
        assert len(words) > 50


class TestShuffleDates:
    def _corpus(self):
        cfg = SynthConfig(seed=5, per_day=2)
        return gen_random_texts(cfg, DATES[:10])

    def test_text_multiset_preserved(self):
        corpus = self._corpus()
        shuffled = shuffle_dates(corpus, seed=9)
        assert Counter(r.text for r in shuffled.records) == Counter(r.text for r in corpus.records)

    def test_date_multiset_preserved(self):
        corpus = self._corpus()
        shuffled = shuffle_dates(corpus, seed=9)
        assert Counter(r.date for r in shuffled.records) == Counter(r.date for r in corpus.records)

    def test_seed_determinism(self):
        corpus = self._corpus()
        a = shuffle_dates(corpus, seed=9)
        b = shuffle_dates(corpus, seed=9)
        assert [(r.id, r.date) for r in a.records] == [(r.id, r.date) for r in b.records]

    def test_actually_moves_records(self):
        corpus = self._corpus()
        shuffled = shuffle_dates(corpus, seed=9)
        by_id_orig = {r.id: r.date for r in corpus.records}
        moved = sum(1 for r in shuffled.records if by_id_orig[r.id] != r.date)
        assert moved > 0

    def test_single_date_rejected(self):
        cfg = SynthConfig(seed=0)
        corpus = gen_random_texts(cfg, DATES[:1])
        with pytest.raises(ValueError, match="2 distinct dates"):
            shuffle_dates(corpus, seed=0)


class TestSyntheticNarratives:
    def test_full_alignment_matches_next_move(self):
        series = gen_random_walk(n=50, sigma=0.02, v0=100.0, seed=1)
        cfg = SynthConfig(seed=2, alignment_p=1.0, per_day=1)
        corpus = gen_synthetic_narratives(series, 1, cfg)
        labels = dict(zip(*[make_labels(series, "direction-change", 1).dates,
                            make_labels(series, "direction-change", 1).values]))
        for rec in corpus.records:
            expected_positive = labels[rec.date] == "increase"
            assert (rec.text in POSITIVE_CUES) == expected_positive

    def test_zero_alignment_anti_aligned(self):
        series = gen_random_walk(n=50, sigma=0.02, v0=100.0, seed=1)
        cfg = SynthConfig(seed=2, alignment_p=0.0, per_day=1)
        corpus = gen_synthetic_narratives(series, 1, cfg)
        labels = dict(zip(*[make_labels(series, "direction-change", 1).dates,
                            make_labels(series, "direction-change", 1).values]))
        for rec in corpus.records:
            expected_positive = labels[rec.date] == "increase"
            assert (rec.text in NEGATIVE_CUES) == expected_positive

    def test_aligned_corpus_sentiment_separates_up_and_down_days(self):
        series = gen_random_walk(n=500, sigma=0.015, v0=100.0, seed=3)
        cfg = SynthConfig(seed=4, alignment_p=1.0, per_day=3)
        corpus = gen_synthetic_narratives(series, 1, cfg)
        labels = make_labels(series, "direction-change", 1)
        label_map = dict(zip(labels.dates, labels.values))
        daily = {}
        for rec in corpus.records:
            daily.setdefault(rec.date, []).append(score(rec.text))
        up_means = [np.mean(v) for d, v in daily.items() if label_map[d] == "increase"]
        down_means = [np.mean(v) for d, v in daily.items() if label_map[d] == "decrease"]
        assert float(np.mean(up_means)) - float(np.mean(down_means)) > 0.3

    def test_cue_pools_scored_by_bundled_lexicon(self):
        assert all(score(c) > 0.2 for c in POSITIVE_CUES)
        assert all(score(c) < -0.2 for c in NEGATIVE_CUES)

    def test_horizon_too_large(self):
        series = gen_random_walk(n=5, sigma=0.01, v0=100.0, seed=0)
        with pytest.raises(ValueError, match="horizon"):
            gen_synthetic_narratives(series, 7, SynthConfig(seed=0))


class TestRandomWalk:
    def test_strictly_positive(self):
        series = gen_random_walk(n=5000, sigma=0.05, v0=10.0, seed=7)
        assert all(v > 0 for v in series.values)

    def test_tiny_sigma_nearly_constant(self):
        series = gen_random_walk(n=100, sigma=1e-12, v0=100.0, seed=1)
        assert max(series.values) - min(series.values) < 1e-8

    def test_direction_balance(self):
        series = gen_random_walk(n=10_000, sigma=0.01, v0=100.0, seed=11)
        labels = make_labels(series, "direction-change", 1).values
        fraction = labels.count("increase") / len(labels)
        assert abs(fraction - 0.5) < 0.05

    def test_seed_determinism(self):
        a = gen_random_walk(n=50, sigma=0.01, v0=100.0, seed=3)
        b = gen_random_walk(n=50, sigma=0.01, v0=100.0, seed=3)
        assert a.points == b.points

    def test_weekday_grid(self):
        series = gen_random_walk(n=30, sigma=0.01, v0=100.0, seed=0)
        assert all(d.weekday() < 5 for d in series.dates)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_random_walk(n=1, sigma=0.01, v0=1.0, seed=0)
        with pytest.raises(ValueError):
            gen_random_walk(n=10, sigma=0.0, v0=1.0, seed=0)
        with pytest.raises(ValueError):
            gen_random_walk(n=10, sigma=0.1, v0=-1.0, seed=0)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(alignment_p=1.5)
    with pytest.raises(ValueError):
        SynthConfig(per_day=0)
