"""Acceptance gate: one test per release criterion, each printing a
PASS line with its measured value and runtime. Run with `pytest -s`
to see the lines; the assertions hold either way.
"""

import json
import math
import time
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from econarrative.experiment import run_experiment
from econarrative.harness import evaluate, mcnemar
from econarrative.ingest import TweetRecord
from econarrative.models import financial_baseline, fit_linear, linear_objective
from econarrative.models.darnn import AttentionRnn, gradient_check
from econarrative.narrative import (
    LlmAnalysis,
    LlmClient,
    LlmClientConfig,
    ParseError,
    RefusalError,
    build_analysis_prompt,
    build_integration_prompt,
    llm_predict_weekly_average,
)

GOLDENS = Path(__file__).parent / "goldens"


def _report(name, detail, elapsed, budget):
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE PASS [{name}] {detail} ({elapsed:.2f}s < {budget}s)")


# -- 1. baseline arithmetic -------------------------------------------------

def test_baseline_arithmetic_against_hand_computation():
    start = time.monotonic()
    values = [3.0, 3.5, 3.2, 3.8, 4.0, 4.0, 3.9, 4.2, 4.5, 4.4]
    # hand-derived: moves are +, -, +, +, tie, -, +, +, -
    directions = ["increase", "decrease", "increase", "increase", "decrease",
                  "decrease", "increase", "increase", "decrease"]
    weeks = [values[-8:]]  # the last day's 8 values: its last 7 moves, 4 of them up
    train_labels = directions  # 5 of 9 up

    def classify(kind):
        return financial_baseline(kind, "direction-change", weeks, train_labels)

    assert classify("as-previous") == ["decrease"]
    assert financial_baseline("as-previous", "next-value", weeks, []) == [4.4]
    assert classify("inverse-previous") == ["increase"]
    assert classify("week-majority") == ["increase"]
    assert classify("train-majority") == ["increase"]
    assert classify("up") == ["increase"]
    assert classify("down") == ["decrease"]
    assert financial_baseline("train-mean", "next-value", weeks, [1.0, 2.0, 3.0]) == [2.0]
    _report("baseline-arithmetic", "7 rule baselines exact", time.monotonic() - start, 1.0)


# -- 2. metric identities ----------------------------------------------------

def test_metric_identities():
    start = time.monotonic()
    labels = ["increase"] * 576 + ["decrease"] * 424
    up = evaluate(["increase"] * 1000, labels, "direction-change")
    assert up.accuracy == pytest.approx(0.576, abs=1e-12)
    assert up.f1 == pytest.approx(2 * 0.576 / (0.576 + 1), abs=1e-12)
    assert round(up.f1, 3) == 0.731
    down = evaluate(["decrease"] * 1000, labels, "direction-change")
    assert down.accuracy == pytest.approx(0.424, abs=1e-12)
    assert down.f1 == 0.0
    # identity holds for arbitrary label mixes
    rng = np.random.default_rng(0)
    for _ in range(25):
        mix = ["increase" if b else "decrease" for b in rng.random(50) < rng.random()]
        if "increase" not in mix:
            continue
        report = evaluate(["increase"] * len(mix), mix, "direction-change")
        a = mix.count("increase") / len(mix)
        assert report.accuracy == pytest.approx(a, abs=1e-12)
        assert report.f1 == pytest.approx(2 * a / (a + 1), abs=1e-12)
    _report("metric-identities", "up 0.576/0.731, down F1=0.0", time.monotonic() - start, 1.0)


# -- 3. McNemar ----------------------------------------------------------------

def test_mcnemar_correctness():
    start = time.monotonic()
    a = [True] * 5 + [False] * 15 + [True] * 30
    b = [False] * 5 + [True] * 15 + [True] * 30
    result = mcnemar(a, b)
    oracle = min(1.0, 2.0 * sum(math.comb(20, i) for i in range(6)) / 2.0**20)
    assert abs(result.p_value - oracle) < 1e-9
    # balanced disagreement: exact branch is exactly 1, corrected branch near 1
    assert mcnemar([True, False], [True, False]).p_value == 1.0
    balanced = mcnemar([True] * 50 + [False] * 50, [False] * 50 + [True] * 50)
    assert balanced.p_value > 0.9
    swapped = mcnemar(b, a)
    assert abs(result.p_value - swapped.p_value) < 1e-12
    _report(
        "mcnemar",
        f"p(5,15)={result.p_value:.9f} vs oracle, swap-symmetric",
        time.monotonic() - start,
        1.0,
    )


# -- 4. gradient fidelity -------------------------------------------------------

def test_gradient_fidelity_twenty_instances():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(20):
        T = int(rng.integers(2, 6))       # T <= 5
        n = int(rng.integers(1, 4))       # n <= 3
        m = int(rng.integers(2, 9))       # m <= 8
        p = int(rng.integers(2, 9))       # p <= 8
        batch = int(rng.integers(2, 5))
        model = AttentionRnn.init(T=T, n=n, m=m, p=p, seed=trial)
        X = rng.normal(size=(batch, T, n))
        Y = rng.normal(size=(batch, T))
        labels = rng.normal(size=batch)
        # np.maximum keeps a NaN error, which the built-in max() would drop
        worst = np.maximum(worst, gradient_check(model, X, Y, labels, step=1e-5))
    assert worst < 1e-4
    _report("gradient-fidelity", f"max rel err {worst:.2e} over 20 instances",
            time.monotonic() - start, 30.0)


# -- 5. optimizer cross-check -----------------------------------------------------

def _ridge_gd(X, y, lam):
    n, d = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])
    lr = 1.0 / (np.linalg.eigvalsh(Xb.T @ Xb).max() + lam)
    wb = np.zeros(d + 1)
    penalty = np.concatenate([np.full(d, lam), [0.0]])
    for _ in range(200_000):
        grad = Xb.T @ (Xb @ wb - y) + penalty * wb
        new = wb - lr * grad
        if np.max(np.abs(new - wb)) < 1e-15:
            return new[:d], new[d]
        wb = new
    return wb[:d], wb[d]


def _lasso_slow(X, y, lam):
    n, d = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])
    lr = 1.0 / np.linalg.eigvalsh(Xb.T @ Xb).max()
    wb = np.zeros(d + 1)
    for _ in range(300_000):
        grad = Xb.T @ (Xb @ wb - y)
        new = wb - lr * grad
        new[:d] = np.sign(new[:d]) * np.maximum(np.abs(new[:d]) - lr * lam, 0.0)
        if np.max(np.abs(new - wb)) < 1e-15:
            return new[:d], new[d]
        wb = new
    return wb[:d], wb[d]


def test_optimizer_cross_checks():
    start = time.monotonic()
    rng = np.random.default_rng(17)
    worst_ridge = worst_lasso = 0.0
    for _ in range(5):
        X = rng.normal(size=(12, 4))
        y = rng.normal(size=12)
        lam = float(rng.uniform(0.1, 2.0))
        model = fit_linear(X, y, reg="l2", lam=lam)
        w_gd, b_gd = _ridge_gd(X, y, lam)
        gap = abs(
            linear_objective(X, y, model.weights, model.bias, "l2", lam)
            - linear_objective(X, y, w_gd, b_gd, "l2", lam)
        )
        worst_ridge = max(worst_ridge, gap)
    for _ in range(5):
        X = rng.normal(size=(5, 3))
        y = rng.normal(size=5)
        lam = float(rng.uniform(0.05, 1.0))
        model = fit_linear(X, y, reg="l1", lam=lam)
        w_slow, b_slow = _lasso_slow(X, y, lam)
        gap = abs(
            linear_objective(X, y, model.weights, model.bias, "l1", lam)
            - linear_objective(X, y, w_slow, b_slow, "l1", lam)
        )
        worst_lasso = max(worst_lasso, gap)
    assert worst_ridge < 1e-6
    assert worst_lasso < 1e-6
    _report("optimizer-cross-check",
            f"ridge gap {worst_ridge:.1e}, lasso gap {worst_lasso:.1e}",
            time.monotonic() - start, 10.0)


# -- 6 / 9 / 10. planted signal, leakage, determinism -------------------------------

def _synthetic_suite():
    """Every synthetic experiment config the acceptance run covers.

    The walk has 508 points; after the 7-step feature warmup and the
    1-step horizon that leaves 500 prediction days, split 400/100.
    """
    walk = {"random_walk": {"n": 508, "sigma": 0.01, "v0": 100.0, "seed": 11}}
    features = {"text": "sentiment-window", "financial": "direction-window", "window": 7}
    models = [
        {"name": "tf-logistic", "type": "logistic", "inputs": "TF", "lam": 0.01},
        {"name": "f-logistic", "type": "logistic", "inputs": "F", "lam": 0.01},
        {"name": "up", "type": "baseline", "kind": "up"},
    ]
    def config(name, text):
        return name, {
            "seed": 7,
            "data": {"series": dict(walk), "text": text},
            "task": {"kind": "direction-change", "horizon": 1},
            "features": dict(features),
            "models": [dict(m) for m in models],
            "eval": {"train_fraction": 0.8},
        }
    return [
        config("narratives", {"synthetic_narratives": {"seed": 13, "p": 1.0, "per_day": 3}}),
        config("random-texts", {"random_texts": {"seed": 13, "per_day": 3}}),
        config("shuffled", {"shuffled_narratives": {"seed": 13, "p": 1.0, "per_day": 3,
                                                    "shuffle_seed": 5}}),
    ]


def _accuracy(report, name):
    return next(r["accuracy"] for r in report.models if r["name"] == name)


def test_planted_signal_recovery():
    start = time.monotonic()
    reports = {name: run_experiment(config) for name, config in _synthetic_suite()}
    tf_planted = _accuracy(reports["narratives"], "tf-logistic")
    f_planted = _accuracy(reports["narratives"], "f-logistic")
    tf_random = _accuracy(reports["random-texts"], "tf-logistic")
    tf_shuffled = _accuracy(reports["shuffled"], "tf-logistic")
    assert reports["narratives"].n_test == 100
    assert tf_planted >= 0.9
    assert abs(f_planted - 0.5) <= 0.1
    assert abs(tf_random - 0.5) <= 0.1
    assert abs(tf_shuffled - 0.5) <= 0.1
    _report(
        "planted-signal",
        f"TF {tf_planted:.3f}, F {f_planted:.3f}, random {tf_random:.3f}, "
        f"shuffled {tf_shuffled:.3f} on 100 test days",
        time.monotonic() - start,
        60.0,
    )


def test_no_leakage_audit_over_all_suite_configs():
    start = time.monotonic()
    for name, config in _synthetic_suite():
        report = run_experiment(config)
        audit = report.leakage_audit
        assert audit["max_feature_date_ok"] is True, name
        assert audit["max_train_date"] < audit["min_test_date"], name
        assert report.train_range[1] < report.test_range[0], name
    _report("no-leakage", "feature/train/test date ordering verified for all configs",
            time.monotonic() - start, 60.0)


def test_report_determinism(tmp_path):
    start = time.monotonic()
    artifacts = ("report.json", "report.md", "predictions.csv", "manifest.json")
    for name, config in _synthetic_suite():
        run_experiment(config, out_dir=tmp_path / "a" / name)
        run_experiment(config, out_dir=tmp_path / "b" / name)
        for artifact in artifacts:
            a = (tmp_path / "a" / name / artifact).read_bytes()
            b = (tmp_path / "b" / name / artifact).read_bytes()
            assert a == b, f"{name}/{artifact} differs between runs"
    _report("determinism", "suite reports byte-identical across two runs",
            time.monotonic() - start, 60.0)


# -- 7. prompt golden files -------------------------------------------------------

def test_prompt_golden_files():
    start = time.monotonic()
    tweets = {
        date(2021, 9, 1): [
            TweetRecord("t1", date(2021, 9, 1), "It is time for a total economic boycott.", 5000),
            TweetRecord("t2", date(2021, 9, 1), "Markets are calm today.", 1200),
        ],
        date(2021, 9, 29): [
            TweetRecord("t3", date(2021, 9, 29),
                        "Pfizer is the 6th most owned stock by Congress.", 9000),
        ],
    }
    values = {date(2021, 9, 1): 4524.09, date(2021, 9, 2): 4536.95,
              date(2021, 10, 1): 4357.04}
    prompt = build_analysis_prompt(tweets, values, "S&P 500")
    assert prompt.text == (GOLDENS / "analysis_prompt_sp500.txt").read_text("utf-8")

    analysis = LlmAnalysis(
        tweet_analysis=(
            "The tweets from the given time period cover a wide range of topics including "
            "politics, economy, finance, and social issues. Several tweets express concerns "
            "about inflation and the impact of government policies on businesses."
        ),
        impact_analysis="Concerns about inflation may lead to increased market volatility.",
        window=(date(2021, 9, 1), date(2021, 10, 1)),
    )
    integration = build_integration_prompt(analysis, [0, 1, 1, 1, 0, 0, 0], "S&P 500", horizon=1)
    assert integration == (GOLDENS / "integration_prompt_sp500.txt").read_text("utf-8")
    assert ("decrease=0, increase=1, increase=1, increase=1, "
            "decrease=0, decrease=0, decrease=0") in integration
    _report("prompt-goldens", "analysis + integration prompts byte-exact",
            time.monotonic() - start, 1.0)


# -- 8. LLM client contract --------------------------------------------------------

WELL_FORMED = (
    "<Analysis of Tweets>Worry about rate hikes dominates.</Analysis of Tweets>\n"
    "<Potential Effects on S&P 500>Choppier sessions likely.</Potential Effects on S&P 500>"
)


def test_llm_client_contract(stub_server, tmp_path):
    start = time.monotonic()
    tweets = {date(2021, 9, 1): [TweetRecord("t1", date(2021, 9, 1), "rates up", 5000)]}
    values = {date(2021, 9, 1): 4500.0}
    prompt = build_analysis_prompt(tweets, values, "S&P 500")

    # cache short-circuit: second identical request makes zero network calls
    stub_server.state.set_chat_content(WELL_FORMED)
    client = LlmClient(LlmClientConfig(endpoint=stub_server.url, model="m",
                                       cache_dir=tmp_path / "cache"))
    client.request_analysis(prompt)
    calls_after_first = stub_server.calls
    client.request_analysis(prompt)
    assert stub_server.calls == calls_after_first == 1

    # refusal on the prediction protocol raises RefusalError
    stub_server.state.set_chat_content(
        "As a language model I cannot provide financial advice."
    )
    month = [date(2021, 9, i) for i in range(1, 31)]
    month_tweets = {d: [TweetRecord(f"t{d}", d, "jumpy markets", 1500)] for d in month}
    month_values = {d: 20.0 for d in month}
    with pytest.raises(RefusalError):
        llm_predict_weekly_average(client, month_tweets, month_values, target="VIX")

    # malformed tags raise ParseError and persist the raw response
    malformed = "no tags at all here"
    stub_server.state.set_chat_content(malformed)
    prompt2 = build_analysis_prompt(tweets, {date(2021, 9, 1): 4501.0}, "S&P 500")
    with pytest.raises(ParseError):
        client.request_analysis(prompt2)
    key = client.cache_key(prompt2.text)
    persisted = json.loads((tmp_path / "cache" / f"{key}.failed.json").read_text("utf-8"))
    assert persisted["raw_response"] == malformed
    _report("llm-client-contract", "cache short-circuit, refusal, parse failure",
            time.monotonic() - start, 5.0)
