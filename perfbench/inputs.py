"""Seeded input generator for the benchmark workloads.

Every workload's inputs are written as files (a series CSV, tweet JSONL
dumps and experiment configs with ``path`` sources), so the program under
test only ever receives files. Text comes from ``econarrative.synthgen``
plus noise that gives ``ingest`` real work: URLs, emoji from the bundled
alias table, same-day duplicates that differ only in case and spacing,
and extra authors below the ``min_followers`` floor.

The same seed always writes the same bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from econarrative import ingest, sentiment, synthgen

MIN_FOLLOWERS = 1000

# Each workload with the reason it is in the benchmark (kept identical to
# the "why" lines of BENCHMARK.json).
WORKLOADS = {
    "suite-sentiment": (
        "three text sources through one --jobs 2 CLI call; sentiment rescoring "
        "in the feature stage dominates and the thread pool is exercised"
    ),
    "embed-regression": (
        "hashing embedding plus ridge/lasso on 20k tweets; ingest, embed and linear "
        "solvers dominate and no sentiment is scored"
    ),
    "darnn-train": (
        "attention RNN on a 508-point walk; train_darnn dominates and features are "
        "a small share"
    ),
    "llm-replay": (
        "monthly prompts through LlmClient against a local stub, one cold pass "
        "(HTTP, parse, cache write) and ten warm (cache reads); the only user of narrative"
    ),
}

STUB_ANALYSIS = "Calm tone with scattered worry about rates."
STUB_IMPACT = "Little expected movement in the next session."


def _neutral_emoji() -> list[str]:
    """Alias-table emoji whose alias words carry no lexicon valence.

    Mapped emoji become words the sentiment scorer reads, so only neutral
    ones are added; the planted source then keeps its exact polarity.
    """
    lexicon = sentiment.load_lexicon()
    return sorted(
        ch
        for ch, alias in ingest.load_emoji_aliases().items()
        if not any(t in lexicon.valences for t in sentiment.tokenize(alias))
    )


def _noisy_lines(records, rng: np.random.Generator, id_prefix: str) -> list[str]:
    """JSONL lines for the records plus URL, emoji, duplicate and floor noise."""
    emoji = _neutral_emoji()
    words = synthgen.load_wordlist()
    lines = []
    for k, rec in enumerate(records):
        text = rec.text
        if rng.random() < 0.3:
            text = f"{text} https://t.co/{rng.integers(1 << 40):x}"
        if rng.random() < 0.3:
            pos = int(rng.integers(0, 2))
            mark = emoji[int(rng.integers(len(emoji)))]
            text = f"{mark} {text}" if pos == 0 else f"{text}{mark}"
        followers = int(rng.integers(MIN_FOLLOWERS, 50 * MIN_FOLLOWERS))
        day = rec.date.isoformat()
        lines.append({"id": f"{id_prefix}{k}", "date": day, "text": text,
                      "followers": followers, "user_id": f"u{k % 997}"})
        if rng.random() < 0.1:
            dup = "  ".join(text.upper().split())
            lines.append({"id": f"{id_prefix}{k}d", "date": day, "text": dup,
                          "followers": followers + 1, "user_id": f"u{(k + 1) % 997}"})
        if rng.random() < 0.2:
            salad = " ".join(words[int(j)] for j in rng.integers(0, len(words), size=8))
            lines.append({"id": f"{id_prefix}{k}f", "date": day, "text": salad,
                          "followers": int(rng.integers(0, MIN_FOLLOWERS)), "user_id": "low"})
    return [json.dumps(obj, ensure_ascii=False, sort_keys=True) for obj in lines]


def _write_lines(path: Path, lines: list[str]) -> int:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return len(lines)


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _experiment_config(seed: int, text_file: str, task: str, features: dict, models: list) -> dict:
    return {
        "seed": seed,
        "data": {
            "series": {"path": "series.csv", "column": "value", "name": "SYNTH"},
            "text": {"path": text_file, "min_followers": MIN_FOLLOWERS},
        },
        "task": {"target": "SYNTH", "kind": task, "horizon": 1},
        "features": features,
        "models": models,
        "eval": {"train_fraction": 0.8},
    }


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write one workload's inputs under ``out``; return its manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    s_walk, s_text, s_noise, s_shuffle, s_model = _seeds(seed, 5)
    n = 508 if workload == "darnn-train" else 2032
    series = synthgen.gen_random_walk(n=n, sigma=0.01, v0=100.0, seed=s_walk, name="SYNTH")
    ingest.write_series_csv(series, out / "series.csv")
    rng = np.random.default_rng(s_noise)
    lines: dict[str, int] = {}
    configs: list[str] = []

    def narratives(per_day: int):
        cfg = synthgen.SynthConfig(seed=s_text, alignment_p=1.0, per_day=per_day)
        return synthgen.gen_synthetic_narratives(series, 1, cfg)

    def random_texts(per_day: int):
        cfg = synthgen.SynthConfig(seed=s_text, per_day=per_day)
        return synthgen.gen_random_texts(cfg, series.dates)

    def text_file(name: str, corpus) -> str:
        lines[f"{name}.jsonl"] = _write_lines(
            out / f"{name}.jsonl", _noisy_lines(corpus.records, rng, f"{name[0]}")
        )
        return f"{name}.jsonl"

    if workload == "suite-sentiment":
        features = {"text": "sentiment-window", "financial": "direction-window", "window": 7}
        models = [
            {"name": "tf-logistic", "type": "logistic", "inputs": "TF", "lam": 0.01},
            {"name": "f-logistic", "type": "logistic", "inputs": "F", "lam": 0.01},
            {"name": "up", "type": "baseline", "kind": "up"},
        ]
        planted = narratives(3)
        sources = {
            "planted": planted,
            "random": random_texts(3),
            "shuffled": synthgen.shuffle_dates(planted, seed=s_shuffle),
        }
        for name, corpus in sources.items():
            doc = _experiment_config(
                s_model, text_file(name, corpus), "direction-change", features, models
            )
            _write_json(out / f"{name}.json", doc)
            configs.append(f"{name}.json")
    elif workload == "embed-regression":
        features = {
            "text": "embedding",
            "financial": "value-window",
            "window": 7,
            "embedding": {"dimension": 32, "mode": "individual-mean", "seed": s_model % 1000},
        }
        models = [
            {"name": "ridge-tf", "type": "ridge", "inputs": "TF", "lam": 1.0},
            {"name": "lasso-tf", "type": "lasso", "inputs": "TF", "lam": 50.0},
            {"name": "linear-f", "type": "linear", "inputs": "F"},
            {"name": "as-previous", "type": "baseline", "kind": "as-previous"},
            {"name": "train-mean", "type": "baseline", "kind": "train-mean"},
        ]
        doc = _experiment_config(
            s_model, text_file("random", random_texts(10)), "pct-change", features, models
        )
        _write_json(out / "embed.json", doc)
        configs.append("embed.json")
    elif workload == "darnn-train":
        features = {"text": "sentiment-window", "financial": "value-window", "window": 7}
        models = [
            {"name": "darnn", "type": "darnn", "inputs": "TF", "m": 32, "p": 32,
             "epochs": 20, "batch_size": 32, "lr": 1e-3, "seed": s_model % 1000},
            {"name": "as-previous", "type": "baseline", "kind": "as-previous"},
        ]
        doc = _experiment_config(
            s_model, text_file("planted", narratives(3)), "next-value", features, models
        )
        _write_json(out / "darnn.json", doc)
        configs.append("darnn.json")
    else:  # llm-replay: 12 tweets a day so the 10-per-day follower cap applies
        text_file("random", random_texts(12))

    manifest = {
        "workload": workload,
        "seed": seed,
        "configs": configs,
        "lines": lines,
        "min_followers": MIN_FOLLOWERS,
        "stub": {"analysis": STUB_ANALYSIS, "impact": STUB_IMPACT},
    }
    _write_json(out / "manifest.json", manifest)
    return manifest
