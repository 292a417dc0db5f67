import json
import sys
from concurrent.futures import ThreadPoolExecutor
from datetime import date
from pathlib import Path

import pytest

from econarrative import narrative, retry
from econarrative.ingest import TweetRecord
from econarrative.narrative import (
    AnalysisPrompt,
    LlmAnalysis,
    LlmClient,
    LlmClientConfig,
    LlmRequestError,
    ParseError,
    RefusalError,
    build_analysis_prompt,
    build_integration_prompt,
    build_weekly_prompt,
    detect_refusal,
    llm_predict_weekly_average,
    parse_analysis,
    parse_weekly_answer,
    render_analysis,
    render_directions,
)

GOLDENS = Path(__file__).parent / "goldens"


def _month_inputs():
    tweets = {
        date(2021, 9, 1): [
            TweetRecord("t1", date(2021, 9, 1), "It is time for a total economic boycott.", 5000),
            TweetRecord("t2", date(2021, 9, 1), "Markets are calm today.", 1200),
        ],
        date(2021, 9, 29): [
            TweetRecord("t3", date(2021, 9, 29), "Pfizer is the 6th most owned stock by Congress.", 9000),
        ],
    }
    values = {date(2021, 9, 1): 4524.09, date(2021, 9, 2): 4536.95, date(2021, 10, 1): 4357.04}
    return tweets, values


WELL_FORMED = (
    "<Analysis of Tweets>Tweets voice worry about rate hikes and debt.</Analysis of Tweets>\n"
    "<Potential Effects on S&P 500>Volatility may rise in the near term.</Potential Effects on S&P 500>"
)


class TestAnalysisPrompt:
    def test_matches_golden_byte_for_byte(self):
        tweets, values = _month_inputs()
        prompt = build_analysis_prompt(tweets, values, "S&P 500")
        golden = (GOLDENS / "analysis_prompt_sp500.txt").read_text(encoding="utf-8")
        assert prompt.text == golden

    def test_contains_both_tagged_blocks(self):
        tweets, values = _month_inputs()
        text = build_analysis_prompt(tweets, values, "VIX").text
        assert "<Financial values>" in text and "</Financial values>" in text
        assert "<Tweets>" in text and "</Tweets>" in text
        assert "first analyse" in text and "then analyse" in text

    def test_per_day_cap_keeps_top_ten_by_followers(self):
        d = date(2021, 9, 1)
        tweets = {
            d: [TweetRecord(f"t{i}", d, f"tweet number {i}", followers=100 * i) for i in range(15)]
        }
        values = {d: 4500.0}
        text = build_analysis_prompt(tweets, values, "S&P 500").text
        serialized = [l for l in text.splitlines() if l.startswith("2021-09-01: tweet number")]
        assert len(serialized) == 10
        # the five least-followed tweets (0..4) are dropped
        kept = {int(l.rsplit(" ", 1)[1]) for l in serialized}
        assert kept == set(range(5, 15))

    def test_empty_tweet_window_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_analysis_prompt({}, {date(2021, 9, 1): 1.0}, "VIX")

    def test_deterministic(self):
        tweets, values = _month_inputs()
        a = build_analysis_prompt(tweets, values, "S&P 500").text
        b = build_analysis_prompt(dict(tweets), dict(values), "S&P 500").text
        assert a == b


class TestParseAnalysis:
    def test_well_formed(self):
        analysis = parse_analysis(WELL_FORMED)
        assert analysis.tweet_analysis.startswith("Tweets voice worry")
        assert analysis.impact_analysis.startswith("Volatility may rise")

    def test_singular_effect_tag_accepted(self):
        response = (
            "<Analysis of Tweets>stuff</Analysis of Tweets>\n"
            "<Potential Effect on VIX>more stuff</Potential Effect on VIX>"
        )
        assert parse_analysis(response).impact_analysis == "more stuff"

    def test_missing_impact_section(self):
        response = "<Analysis of Tweets>only this</Analysis of Tweets>"
        with pytest.raises(ParseError, match="missing impact section") as err:
            parse_analysis(response)
        assert err.value.raw == response

    def test_empty_string(self):
        with pytest.raises(ParseError):
            parse_analysis("")

    def test_round_trip(self):
        original = LlmAnalysis(
            tweet_analysis="Concerns about inflation dominate.",
            impact_analysis="Expect choppier sessions.",
            window=(date(2021, 9, 1), date(2021, 10, 1)),
        )
        parsed = parse_analysis(render_analysis(original, "S&P 500"))
        assert parsed.tweet_analysis == original.tweet_analysis
        assert parsed.impact_analysis == original.impact_analysis


class TestIntegrationPrompt:
    ANALYSIS = LlmAnalysis(
        tweet_analysis=(
            "The tweets from the given time period cover a wide range of topics including "
            "politics, economy, finance, and social issues. Several tweets express concerns "
            "about inflation and the impact of government policies on businesses."
        ),
        impact_analysis="Concerns about inflation may lead to increased market volatility.",
        window=(date(2021, 9, 1), date(2021, 10, 1)),
    )

    def test_matches_golden_byte_for_byte(self):
        text = build_integration_prompt(self.ANALYSIS, [0, 1, 1, 1, 0, 0, 0], "S&P 500", horizon=1)
        golden = (GOLDENS / "integration_prompt_sp500.txt").read_text(encoding="utf-8")
        assert text == golden

    def test_direction_rendering(self):
        text = build_integration_prompt(self.ANALYSIS, [0, 1, 1, 1, 0, 0, 0], "S&P 500", horizon=1)
        assert (
            "decrease=0, increase=1, increase=1, increase=1, decrease=0, decrease=0, decrease=0"
            in text
        )

    def test_single_direction(self):
        assert render_directions([1]) == "increase=1"
        assert render_directions(["decrease"]) == "decrease=0"

    def test_segment_order(self):
        text = build_integration_prompt(self.ANALYSIS, [1], "VIX", horizon=1)
        assert text.index("[CLS]") < text.index("[SEP]") < text.index("[EOS]")

    def test_horizon_phrasing(self):
        one = build_integration_prompt(self.ANALYSIS, [1], "VIX", horizon=1)
        week = build_integration_prompt(self.ANALYSIS, [1], "VIX", horizon=7)
        month = build_integration_prompt(self.ANALYSIS, [1], "VIX", horizon=30)
        assert one.endswith("direction of change tomorrow:")
        assert week.endswith("direction of change next week:")
        assert month.endswith("direction of change next month:")

    def test_empty_directions_rejected(self):
        with pytest.raises(ValueError):
            build_integration_prompt(self.ANALYSIS, [], "VIX")


class TestClientCache:
    @pytest.mark.parametrize("setting", ["max_parallel"])
    def test_setting_below_one_rejected(self, setting):
        with pytest.raises(ValueError, match=f"{setting} must be >= 1"):
            LlmClientConfig(endpoint="http://unused.invalid/", model="m", **{setting: 0})

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), float("-inf"), -0.1])
    def test_bad_temperature_rejected(self, temperature):
        with pytest.raises(ValueError, match="temperature must be finite and >= 0"):
            LlmClientConfig(endpoint="http://unused.invalid/", model="m", temperature=temperature)

    def _client(self, stub_server, tmp_path, **overrides):
        config = LlmClientConfig(
            endpoint=stub_server.url,
            model="test-model",
            cache_dir=tmp_path / "cache",
            **overrides,
        )
        return LlmClient(config)

    def test_identical_prompt_makes_one_network_call(self, stub_server, tmp_path):
        stub_server.state.set_chat_content(WELL_FORMED)
        client = self._client(stub_server, tmp_path)
        tweets, values = _month_inputs()
        prompt = build_analysis_prompt(tweets, values, "S&P 500")
        first = client.request_analysis(prompt)
        second = client.request_analysis(prompt)
        assert stub_server.calls == 1
        assert first.tweet_analysis == second.tweet_analysis
        assert (tmp_path / "cache" / f"{first.cache_key}.json").exists()

    @pytest.mark.parametrize(
        "entry", ['{"prompt_hash": "abc", "window": ["2021-', '{"prompt_hash": "abc"}']
    )
    def test_unreadable_entry_is_a_miss(self, stub_server, tmp_path, entry):
        # a truncated write or an entry missing a field is requested again
        stub_server.state.set_chat_content(WELL_FORMED)
        client = self._client(stub_server, tmp_path)
        tweets, values = _month_inputs()
        prompt = build_analysis_prompt(tweets, values, "S&P 500")
        path = tmp_path / "cache" / f"{client.cache_key(prompt.text)}.json"
        path.parent.mkdir(parents=True)
        path.write_text(entry, encoding="utf-8")
        analysis = client.request_analysis(prompt)
        assert stub_server.calls == client.service.requests == 1
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["tweet_analysis"] == analysis.tweet_analysis
        assert client.request_analysis(prompt) == analysis
        assert stub_server.calls == 1
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]

    def test_failed_write_leaves_no_entry(self, stub_server, tmp_path, monkeypatch):
        stub_server.state.set_chat_content(WELL_FORMED)
        client = self._client(stub_server, tmp_path)
        tweets, values = _month_inputs()
        prompt = build_analysis_prompt(tweets, values, "S&P 500")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(narrative.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            client.request_analysis(prompt)
        assert list((tmp_path / "cache").iterdir()) == []

    def test_cache_key_depends_on_model_and_temperature(self, stub_server, tmp_path):
        a = self._client(stub_server, tmp_path)
        b = LlmClient(LlmClientConfig(endpoint=stub_server.url, model="other", cache_dir=tmp_path))
        c = LlmClient(
            LlmClientConfig(
                endpoint=stub_server.url, model="test-model", temperature=0.9, cache_dir=tmp_path
            )
        )
        assert a.cache_key("x") != b.cache_key("x")
        assert a.cache_key("x") != c.cache_key("x")
        assert a.cache_key("x") == self._client(stub_server, tmp_path).cache_key("x")

    def test_default_temperature_is_half(self, stub_server):
        config = LlmClientConfig(endpoint=stub_server.url, model="m")
        assert config.temperature == 0.5

    def test_refusal_text_raises_parse_error_and_persists_raw(self, stub_server, tmp_path):
        refusal = "As a language model I cannot provide financial advice."
        stub_server.state.set_chat_content(refusal)
        client = self._client(stub_server, tmp_path)
        tweets, values = _month_inputs()
        prompt = build_analysis_prompt(tweets, values, "S&P 500")
        with pytest.raises(ParseError) as err:
            client.request_analysis(prompt)
        assert err.value.raw == refusal
        key = client.cache_key(prompt.text)
        persisted = (tmp_path / "cache" / f"{key}.failed.json").read_text(encoding="utf-8")
        assert "cannot provide financial advice" in persisted

    def test_transport_failure_after_retries(self, tmp_path, sleeps):
        client = LlmClient(LlmClientConfig(endpoint="http://127.0.0.1:1/", model="m"))
        with pytest.raises(LlmRequestError, match="failed after 3"):
            client.complete("hello")
        assert sleeps == [retry.BACKOFF_S, 2 * retry.BACKOFF_S]

    def test_parallel_requests(self, stub_server, tmp_path):
        stub_server.state.set_chat_content(WELL_FORMED)
        client = self._client(stub_server, tmp_path)
        tweets, values = _month_inputs()
        prompts = [
            build_analysis_prompt(tweets, {k: v + i for k, v in values.items()}, "S&P 500")
            for i in range(6)
        ]
        analyses = client.request_analyses(prompts)
        assert len(analyses) == 6
        assert stub_server.calls == 6
        assert client.service.requests == 6

    def test_network_calls_counted_under_contention(self):
        reply = json.dumps({"choices": [{"message": {"content": "ok"}}]}).encode("utf-8")
        client = LlmClient(LlmClientConfig(endpoint="http://unused.invalid/", model="m"))
        client.service._send = lambda payload: (200, {}, reply)
        threads, calls = 8, 200
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [
                    pool.submit(lambda: [client.complete("x") for _ in range(calls)])
                    for _ in range(threads)
                ]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert client.service.requests == threads * calls

    def test_client_error_is_not_retried(self, stub_server, tmp_path, sleeps):
        stub_server.state.status = 400
        client = self._client(stub_server, tmp_path)
        with pytest.raises(LlmRequestError, match="client error 400"):
            client.complete("hello")
        assert stub_server.calls == client.service.requests == 1
        assert sleeps == []

    def test_body_that_is_not_json_fails_before_sending(self, stub_server, tmp_path, sleeps):
        client = self._client(stub_server, tmp_path)
        with pytest.raises(LlmRequestError, match="body is not JSON: Out of range float"):
            client.service.post({"x": float("nan")}, lambda reply: reply)
        assert stub_server.calls == client.service.requests == 0
        assert sleeps == []

    def test_reply_that_is_not_an_object_is_retried(self, stub_server, tmp_path, sleeps):
        stub_server.state.set_raw(lambda payload: [1, 2])
        client = self._client(stub_server, tmp_path)
        with pytest.raises(LlmRequestError, match="failed after 3 tries"):
            client.complete("hello")
        assert stub_server.calls == client.service.requests == 3
        assert sleeps == [retry.BACKOFF_S, 2 * retry.BACKOFF_S]

    def test_server_error_retried_without_a_final_sleep(self, stub_server, tmp_path, sleeps):
        stub_server.state.status = 503
        client = self._client(stub_server, tmp_path)
        with pytest.raises(LlmRequestError, match="failed after 3 tries: server error 503"):
            client.complete("hello")
        assert stub_server.calls == client.service.requests == 3
        assert sleeps == [retry.BACKOFF_S, 2 * retry.BACKOFF_S]


class TestWeeklyPrediction:
    def _window(self):
        days = [date(2021, 9, i) for i in range(1, 31)]
        tweets = {d: [TweetRecord(f"t{d}", d, "markets stay jumpy", 2000)] for d in days}
        values = {d: 20.0 + i * 0.1 for i, d in enumerate(days)}
        return tweets, values

    def test_range_answer_collapses_to_midpoint(self):
        value, low, high = parse_weekly_answer("I predict the VIX will average 18–20", "VIX")
        assert (value, low, high) == (19.0, 18.0, 20.0)

    def test_plain_number(self):
        value, low, high = parse_weekly_answer("Prediction: 23.5", "VIX")
        assert value == 23.5 and low is None and high is None

    def test_target_name_not_parsed_as_number(self):
        value, _, _ = parse_weekly_answer("The S&P 500 should average 4510 next week.", "S&P 500")
        assert value == 4510.0

    def test_no_digits_raises(self):
        with pytest.raises(ParseError):
            parse_weekly_answer("no idea at all", "VIX")

    def test_refusal_detection(self):
        assert detect_refusal("As a language model I cannot provide financial advice")
        assert not detect_refusal("The VIX should fall to 17")

    def test_end_to_end_against_stub(self, stub_server):
        stub_server.state.set_chat_content("After analysis, I predict the VIX will average 18-20.")
        client = LlmClient(LlmClientConfig(endpoint=stub_server.url, model="m"))
        tweets, values = self._window()
        prediction = llm_predict_weekly_average(client, tweets, values, target="VIX", mode="cot")
        assert prediction.value == 19.0
        assert (prediction.low, prediction.high) == (18.0, 20.0)

    def test_refusal_raises_refusal_error(self, stub_server):
        stub_server.state.set_chat_content(
            "As a language model I cannot provide financial advice."
        )
        client = LlmClient(LlmClientConfig(endpoint=stub_server.url, model="m"))
        tweets, values = self._window()
        with pytest.raises(RefusalError):
            llm_predict_weekly_average(client, tweets, values, target="VIX")

    def test_no_numbers_raises_parse_error(self, stub_server):
        stub_server.state.set_chat_content("the future is uncertain")
        client = LlmClient(LlmClientConfig(endpoint=stub_server.url, model="m"))
        tweets, values = self._window()
        with pytest.raises(ParseError):
            llm_predict_weekly_average(client, tweets, values, target="VIX")

    def test_few_shot_requires_examples(self):
        tweets, values = self._window()
        with pytest.raises(ValueError, match="example"):
            build_weekly_prompt(tweets, values, "VIX", mode="few-shot")

    def test_cot_prompt_lists_three_steps(self):
        tweets, values = self._window()
        text = build_weekly_prompt(tweets, values, "VIX", mode="cot")
        assert "analyse the tweets" in text
        assert "influence" in text
        assert "predicted weekly average" in text

    def test_mismatched_windows_rejected(self):
        tweets, values = self._window()
        del values[date(2021, 9, 30)]
        with pytest.raises(ValueError, match="same dates"):
            build_weekly_prompt(tweets, values, "VIX")
