"""Two-stage flow: narrative analyses rendered into integration prompts,
then classified by the embedding-backed logistic head."""

from datetime import date, timedelta

import numpy as np

from econarrative.embed import HashingEmbedder
from econarrative.harness import mcnemar
from econarrative.models import fit_text_classifier
from econarrative.narrative import LlmAnalysis, build_integration_prompt

BULLISH_THEMES = (
    "Tweets celebrate strong profits and growing optimism across sectors.",
    "Opinion leaders cheer robust gains and healthy growth this month.",
    "Investors express confidence and rising enthusiasm about recovery.",
)
BEARISH_THEMES = (
    "Tweets dwell on heavy losses and spreading fear across sectors.",
    "Opinion leaders warn of crashes and deepening recession this month.",
    "Investors express panic and rising worry about defaults.",
)


def _analysis(theme, day):
    return LlmAnalysis(
        tweet_analysis=theme,
        impact_analysis="Direction pressure follows the dominant mood.",
        window=(day, day + timedelta(days=30)),
    )


def _prompts(n, rng):
    prompts, labels = [], []
    day = date(2022, 1, 3)
    for i in range(n):
        up = bool(rng.integers(0, 2))
        themes = BULLISH_THEMES if up else BEARISH_THEMES
        analysis = _analysis(themes[int(rng.integers(0, len(themes)))], day)
        directions = [int(rng.integers(0, 2)) for _ in range(7)]
        prompts.append(build_integration_prompt(analysis, directions, target="S&P 500", horizon=1))
        labels.append(1 if up else 0)
        day += timedelta(days=1)
    return prompts, labels


def test_classifier_learns_analysis_polarity_through_prompts():
    rng = np.random.default_rng(3)
    prompts, labels = _prompts(60, rng)
    embedder = HashingEmbedder(dimension=128, seed=1)
    clf = fit_text_classifier(prompts, labels, embedder, lam=0.01)
    held_in = float((clf.predict(prompts) == np.array(labels)).mean())
    assert held_in == 1.0
    # unseen prompts built from the same theme pools classify correctly too
    fresh_prompts, fresh_labels = _prompts(30, np.random.default_rng(11))
    fresh_acc = float((clf.predict(fresh_prompts) == np.array(fresh_labels)).mean())
    assert fresh_acc == 1.0


def test_prompt_carries_both_analysis_and_directions():
    rng = np.random.default_rng(5)
    prompts, _ = _prompts(1, rng)
    text = prompts[0]
    assert text.startswith("[CLS] Summary of recent tweets:")
    assert "[SEP] Recent S&P 500 directions of change:" in text
    assert text.endswith("direction of change tomorrow:")


def test_paired_comparison_of_two_heads_is_symmetric():
    rng = np.random.default_rng(7)
    prompts, labels = _prompts(40, rng)
    labels = np.array(labels)
    strong = fit_text_classifier(prompts, labels, HashingEmbedder(dimension=128, seed=1))
    weak = fit_text_classifier(prompts, labels, HashingEmbedder(dimension=4, seed=2), lam=5.0)
    a_correct = strong.predict(prompts) == labels
    b_correct = weak.predict(prompts) == labels
    forward = mcnemar(list(a_correct), list(b_correct))
    backward = mcnemar(list(b_correct), list(a_correct))
    assert forward.p_value == backward.p_value
    assert (forward.b, forward.c) == (backward.c, backward.b)
