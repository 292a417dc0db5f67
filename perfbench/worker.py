"""Runs one workload's unit of work in a fresh process and reports on it.

Started by run.py with the workload's generated inputs in ``--work``. The
unit of work runs as a user would run it: the three-config suite as one
``--jobs 2`` CLI call, a single config as one CLI call (which is serial
whatever ``--jobs`` says), and llm-replay as one caller issuing
``request_analysis`` in turn. Units repeat until ``--seconds`` have passed;
each records its wall and process CPU seconds, and a fixed reference job
runs between them (see REF_SHARE). The one-thread units' thread is moved
from CPU to CPU (see ROTATED). On the suite one ``--jobs 1`` call runs
first, as warm-up and as the one-worker comparison. Every output is
checked; an operation that raises, exits non-zero or fails a check counts
as failed.

With ``--trace 1`` each round runs the serial unit untraced, then traced
(the per-layer numbers come from this run) and, on the suite, the
``--jobs 2`` unit traced.

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from econarrative import cli, ingest, narrative  # noqa: E402

from stub import StubChatServer  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402

ARTIFACTS = ("report.json", "report.md", "predictions.csv")
# Each vCPU of the 2-vCPU VMs the benchmark was built on drifts in speed on
# its own, by up to 1.8x, and holds a drift for seconds to minutes. The
# scheduler keeps a lone busy thread on one vCPU, so its unit time followed
# that vCPU's state. So the process's threads are moved together to the
# next CPU every ROTATE_S, to see every vCPU in turn, while the units of
# embed-regression and darnn-train run (one thread each, as run.py gives
# the worker one BLAS thread) and while llm-replay's caller and stub
# handler pass each request back and forth. Sharing a CPU, the two make a
# hand-off a local switch instead of a wake-up on the other vCPU, which the
# host may not be running: left to the scheduler, llm-replay's unit wall
# time in one run was 1.6 times its CPU time (medians). The suite's --jobs 2
# pool is left to the scheduler so that work freed from the interpreter
# lock can use both CPUs.
ROTATED = {"embed-regression", "darnn-train", "llm-replay"}
ROTATE_S = 0.05
# A drift that covers every vCPU still moves all unit times together, by
# more than a run of any affordable length averages out. So the units are
# interleaved with a fixed reference job, REF_SHARE seconds of it per
# second of units, and the gated wall_over_ref is the median unit wall time
# over the median reference time. A change to the program moves the units
# and not the reference. Drifts speed up interpreter-bound code more than
# runs of small numpy operations, so DA-RNN training, which is the latter,
# is divided by a job of the same kind (see Reference).
REF_SHARE = 0.5
REF_KIND = {"darnn-train": "numpy"}  # every other workload: "text"
REF_TEXTS = 10000
REF_DIM = 32
REF_STEPS = 3000


def _clock() -> tuple[float, float]:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return perf_counter(), usage.ru_utime + usage.ru_stime


def _since(start: tuple[float, float]) -> tuple[float, float]:
    """(wall, process CPU) seconds since ``start``."""
    return tuple(b - a for a, b in zip(start, _clock()))


class Rotation:
    """Context manager that moves every thread of the process but its own to
    the next allowed CPU every ROTATE_S, all to the same one, and gives them
    every allowed CPU back on exit. A thread started meanwhile inherits its
    creator's one-CPU mask and is moved with the rest."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._rotate, daemon=True)

    def _pin_all(self, cpus: set[int]) -> None:
        me = threading.get_native_id()
        for tid in map(int, os.listdir("/proc/self/task")):
            if tid != me:
                with contextlib.suppress(ProcessLookupError):  # the thread has ended
                    os.sched_setaffinity(tid, cpus)

    def _rotate(self) -> None:
        for cpu in itertools.cycle(self.cpus):
            self._pin_all({cpu})
            if self._stop.wait(ROTATE_S):
                return

    def __enter__(self) -> "Rotation":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._pin_all(set(self.cpus))


class Reference:
    """A fixed job of the kind of work the units do. ``text``: tokenising,
    hashing and counting words in the interpreter, and small matrix-vector
    products in numpy. ``numpy``: steps of a small attention-weighted LSTM
    cell (batch 32, 32 hidden units) in numpy, as in DA-RNN training.
    ``run`` does it once, rotated over the CPUs like the one-busy-thread
    units, and returns its wall seconds."""

    def __init__(self, kind: str) -> None:
        rnd = random.Random(0)
        words = ["".join(rnd.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rnd.randint(2, 9)))
                 for _ in range(500)]
        self.texts = [" ".join(rnd.choice(words) for _ in range(12)) for _ in range(REF_TEXTS)]
        self.weights = np.random.default_rng(0).standard_normal((REF_DIM, REF_DIM)) / REF_DIM
        self._work = {"text": self._text, "numpy": self._numpy}[kind]
        self.answer = self._work()

    def _text(self) -> tuple[int, float]:
        counts: dict[bytes, int] = {}
        state = np.ones(REF_DIM)
        for text in self.texts:
            for token in text.lower().split():
                key = hashlib.blake2b(token.encode(), digest_size=8).digest()
                counts[key] = counts.get(key, 0) + 1
            state = np.tanh(self.weights @ state + 0.5)
        return len(counts), float(state.sum())

    def _numpy(self) -> float:
        rng = np.random.default_rng(0)
        m, n, batch = REF_DIM, 8, 32
        w = rng.standard_normal((4 * m, m + n)) * 0.1
        x = rng.standard_normal((batch, n))
        h = np.zeros((batch, m))
        c = np.zeros((batch, m))
        for _ in range(REF_STEPS):
            e = x @ w[:n, :n]
            alpha = np.exp(e - e.max(axis=1, keepdims=True))
            alpha /= alpha.sum(axis=1, keepdims=True)
            pre = np.concatenate([h, alpha * x], axis=1) @ w.T
            gi = 1.0 / (1.0 + np.exp(-pre[:, :m]))
            gf = 1.0 / (1.0 + np.exp(-pre[:, m:2 * m]))
            go = 1.0 / (1.0 + np.exp(-pre[:, 2 * m:3 * m]))
            c = gf * c + gi * np.tanh(pre[:, 3 * m:])
            h = go * np.tanh(c)
        return float(h.sum())

    def run(self) -> float:
        with Rotation():
            start = perf_counter()
            answer = self._work()
            spent = perf_counter() - start
        if answer != self.answer:
            raise RuntimeError(f"reference job answered {answer}, not {self.answer}")
        return spent


class Outcome:
    """Attempted and failed operation counts with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problems: list[str], ops: int = 1) -> None:
        self.attempted += ops
        if problems:
            self.failed += ops
            self.reasons.extend(problems[:5])


# -- experiment workloads (suite-sentiment, embed-regression, darnn-train) --


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _accuracy(report: dict, model: str) -> float:
    return next(row["accuracy"] for row in report["models"] if row["name"] == model)


def _check_report(workload: str, name: str, out: Path) -> list[str]:
    report = json.loads((out / "report.json").read_text("utf-8"))
    problems = []
    if report["leakage_audit"].get("max_feature_date_ok") is not True:
        problems.append(f"{name}: leakage audit failed")
    with (out / "predictions.csv").open(encoding="utf-8", newline="") as fh:
        rows = sum(1 for _ in csv.reader(fh)) - 1
    if rows != report["n_test"] * len(report["models"]):
        problems.append(f"{name}: {rows} prediction rows for {report['n_test']} test days")
    if workload == "suite-sentiment":
        bands = {"tf-logistic": (0.9, 1.0) if name == "planted" else (0.4, 0.6),
                 "f-logistic": (0.4, 0.6)}
        for model, (lo, hi) in bands.items():
            acc = _accuracy(report, model)
            if not lo <= acc <= hi:
                problems.append(f"{name}: {model} accuracy {acc:.4f} outside [{lo}, {hi}]")
    else:
        # train_darnn raises on a non-finite epoch loss, so a finite test MSE
        # from a zero exit also vouches for a finite epoch_mse
        for row in report["models"]:
            if not math.isfinite(row["mse"]):
                problems.append(f"{name}: {row['name']} MSE is not finite")
    return problems


class ExperimentUnit:
    """One ``econarrative experiment`` CLI call over the workload's configs."""

    latency_ms: dict[str, list[float]] = {}  # no per-request latencies
    last: dict[str, tuple[int, int]] = {}  # and no cache

    def __init__(self, workload: str, manifest: dict) -> None:
        self.workload = workload
        self.configs = manifest["configs"]
        self.jobs = 2 if len(self.configs) > 1 else 1
        self.reference: dict[str, dict[str, str]] | None = None
        self.checked: set[int] = set()

    def _out_dir(self, jobs: int, config: str) -> Path:
        out = Path(f"out-jobs{jobs}")
        return out / Path(config).stem if len(self.configs) > 1 else out

    def run(self, outcome: Outcome, jobs: int | None = None) -> tuple[float, float]:
        jobs = jobs or self.jobs
        argv = ["experiment"]
        for config in self.configs:
            argv += ["--config", config]
        argv += ["--jobs", str(jobs), "--out", f"out-jobs{jobs}"]
        start = _clock()
        with contextlib.redirect_stdout(io.StringIO()):  # keep the result line last
            code = cli.main(argv)
        spent = _since(start)
        outcome.record(self._verify(jobs, code))
        return spent

    def _verify(self, jobs: int, code: int) -> list[str]:
        if code != 0:
            return [f"experiment --jobs {jobs} exited {code}"]
        problems = []
        digests = {}
        for config in self.configs:
            out = self._out_dir(jobs, config)
            digests[config] = {a: _digest(out / a) for a in ARTIFACTS}
            if jobs not in self.checked:
                problems += _check_report(self.workload, Path(config).stem, out)
        self.checked.add(jobs)
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            problems.append(f"--jobs {jobs} reports differ from the first run's")
        return problems

    def close(self) -> None:
        pass


# -- llm-replay ---------------------------------------------------------------


class LlmUnit:
    """Builds the monthly prompts, then one caller requests them in one cold
    pass, where every request misses (HTTP, parse, cache write), and
    WARM_PASSES warm passes, where every request hits (cache read). Several
    warm passes give reads a share of the unit's time comparable to writes,
    so a change that speeds one path and slows the other moves wall time."""

    WARM_PASSES = 10
    jobs = 1  # one caller, so the serial unit is the unit

    def __init__(self, manifest: dict) -> None:
        corpus = ingest.preprocess(
            ingest.load_tweets("random.jsonl", min_followers=manifest["min_followers"])
        )
        series = ingest.load_series("series.csv", name="SYNTH")
        tweets: dict = defaultdict(lambda: defaultdict(list))
        values: dict = defaultdict(dict)
        for rec in corpus.records:
            tweets[(rec.date.year, rec.date.month)][rec.date].append(rec)
        for d, v in series.points:
            values[(d.year, d.month)][d] = v
        self.months = [(tweets[k], values[k]) for k in sorted(tweets) if k in values]
        self.expected = (manifest["stub"]["analysis"], manifest["stub"]["impact"])
        self.stub = StubChatServer(
            f"<Analysis of Tweets>{self.expected[0]}</Analysis of Tweets>\n"
            f"<Potential Effects on SYNTH>{self.expected[1]}</Potential Effects on SYNTH>"
        )
        self.runs = 0
        self.latency_ms: dict[str, list[float]] = {"miss": [], "hit": []}
        self.prompt_bytes: list[int] = []
        # requests and network calls of the last run, per kind
        self.last: dict[str, tuple[int, int]] = {}

    def _pass(self, client, prompts, kind: str) -> tuple[list, int]:
        """Request every prompt once, timing each request; return the answers
        (an analysis or the exception raised) and the network calls made."""
        calls_before = self.stub.calls
        answers = []
        latency = self.latency_ms[kind]
        for prompt in prompts:
            start = perf_counter()
            try:
                answers.append(client.request_analysis(prompt))
            except Exception as exc:  # a raised analysis is a failed operation
                answers.append(exc)
            latency.append((perf_counter() - start) * 1e3)
        return answers, self.stub.calls - calls_before

    def _verify(self, client, prompts, answers, calls, kind, outcome: Outcome) -> None:
        want_calls = len(prompts) if kind == "miss" else 0
        if calls != want_calls:
            outcome.record([f"{kind} pass made {calls} network calls for {len(prompts)} "
                            f"prompts"], ops=len(prompts))
            return
        for prompt, answer in zip(prompts, answers):
            if isinstance(answer, Exception):
                outcome.record([f"{type(answer).__name__}: {answer}"])
                continue
            got = (answer.tweet_analysis, answer.impact_analysis)
            if got != self.expected:
                outcome.record([f"analysis for {prompt.window[0]} parsed as {got!r}"])
            elif answer.window != prompt.window or answer.cache_key != client.cache_key(prompt.text):
                outcome.record([f"analysis for {prompt.window[0]} has the wrong window or key"])
            else:
                outcome.record([])

    def run(self, outcome: Outcome, jobs: int = 1) -> tuple[float, float]:
        """One unit; ``jobs`` is taken for the experiment units' signature,
        the requests always come from one caller."""
        self.runs += 1
        cache = Path(f"llm-cache-{self.runs}")
        shutil.rmtree(cache, ignore_errors=True)
        client = narrative.LlmClient(narrative.LlmClientConfig(
            endpoint=self.stub.url, model="stub", cache_dir=str(cache), max_parallel=1,
        ))
        start = _clock()
        prompts = [narrative.build_analysis_prompt(t, v, "SYNTH") for t, v in self.months]
        passes = [("miss", *self._pass(client, prompts, "miss"))]
        for _ in range(self.WARM_PASSES):
            passes.append(("hit", *self._pass(client, prompts, "hit")))
        spent = _since(start)
        for kind, answers, calls in passes:
            self._verify(client, prompts, answers, calls, kind, outcome)
        self.last = {kind: (sum(len(a) for k, a, _ in passes if k == kind),
                            sum(c for k, _, c in passes if k == kind)) for kind in ("miss", "hit")}
        if not self.prompt_bytes:
            self.prompt_bytes = [len(p.text.encode("utf-8")) for p in prompts]
        del client  # closes its keep-alive connection
        shutil.rmtree(cache, ignore_errors=True)
        return spent

    def close(self) -> None:
        self.stub.close()


# -- measurement ---------------------------------------------------------------


class Counters:
    """Counts taken at layer boundaries for the traced run's ratios."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.files_read: list[str] = []
        self.kept = 0
        self.tweets_featurized = 0
        self.darnn_nonfinite = 0

    def observers(self) -> dict:
        def read(args, kwargs, corpus):
            self.files_read.append(Path(args[0]).name)

        def kept(args, kwargs, corpus):
            self.kept += len(corpus)

        def featurized(args, kwargs, matrix):
            self.tweets_featurized += sum(len(day) for day in args[0].tweets)

        def trained(args, kwargs, model):
            self.darnn_nonfinite += not all(math.isfinite(v) for v in model.epoch_mse)

        return {"ingest.load_tweets": read, "ingest.preprocess": kept,
                "experiment.build_features": featurized, "models.train_darnn": trained}


def _layer_metrics(tracer: Tracer, manifest: dict, counters: Counters) -> dict[str, float]:
    times = tracer.self_times()
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        calls, secs = times.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = secs
    read = sum(manifest["lines"].get(f, 0) for f in counters.files_read)
    out["ingest.kept_per_read"] = counters.kept / read if read else 0.0
    tweets = counters.tweets_featurized
    out["sentiment.score.calls_per_tweet"] = out["sentiment.score.calls"] / tweets if tweets else 0.0
    return out


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload: str, seconds: float, trace: bool) -> dict:
    manifest = json.loads(Path("manifest.json").read_text("utf-8"))
    ingest.load_emoji_aliases()  # lazy set-up, timed by setup_s instead
    unit = LlmUnit(manifest) if workload == "llm-replay" else ExperimentUnit(workload, manifest)
    outcome = Outcome()
    samples: dict[str, list[float]] = defaultdict(list)
    layers: list[dict[str, float]] = []
    counters = Counters()
    tracer = Tracer(counters.observers()) if trace else None
    reference = None if trace else Reference(REF_KIND.get(workload, "text"))
    try:
        if unit.jobs > 1 and not trace:
            samples["wall_jobs1_s"].append(unit.run(outcome, 1)[0])
        start = perf_counter()
        while True:
            if not trace:
                with Rotation() if workload in ROTATED else contextlib.nullcontext():
                    wall, cpu = unit.run(outcome)
                samples["wall_s"].append(wall)
                samples["cpu_s"].append(cpu)
                while sum(samples["ref_s"]) < REF_SHARE * sum(samples["wall_s"]):
                    samples["ref_s"].append(reference.run())
            else:
                samples["wall_jobs1_s"].append(unit.run(outcome, 1)[0])
                layers.append(_traced_round(unit, tracer, manifest, counters, outcome,
                                            samples["wall_jobs1_s"][-1]))
            if perf_counter() - start >= seconds:
                break
    finally:
        unit.close()
    if tracer is not None:
        tracer.write(Path("spans.json"))
    result = {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "reasons": outcome.reasons[:20],
        "samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if isinstance(unit, ExperimentUnit):
        result["digests"] = unit.reference
    else:
        result["latency_ms"] = unit.latency_ms
        result["prompts"] = len(unit.months)
        result["prompt_kb_median"] = _median(unit.prompt_bytes) / 1024.0
    if trace:
        # counts repeat exactly in every round; times are medians over rounds
        result["layers"] = {k: _median([r[k] for r in layers]) for k in layers[0]}
        for k, v in result["layers"].items():
            if k.endswith(".calls"):
                result["layers"][k] = int(v)
    return result


def _traced_round(unit, tracer, manifest, counters, outcome, untraced_s):
    """The serial unit under the tracer, then on the suite the ``--jobs 2``
    unit. Layer numbers come from the serial run, where no layer waits on the
    interpreter lock for another thread."""
    missing = tracer.install()
    if missing:
        outcome.reasons.append(f"layers not found: {missing}")
    try:
        tracer.reset()
        counters.reset()
        marks = {k: len(v) for k, v in unit.latency_ms.items()}
        traced_s = unit.run(outcome, 1)[0]
        row = _layer_metrics(tracer, manifest, counters)
        if counters.darnn_nonfinite:
            outcome.record(["train_darnn returned a non-finite epoch_mse"])
        row["cli.config_wall_s.jobs1"] = _median(tracer.durations("experiment.run_experiment"))
        row["trace.wall_jobs1_s"] = traced_s
        row["trace.overhead_s"] = traced_s - untraced_s
        misses, miss_calls = unit.last.get("miss", (0, 0))
        hits, hit_calls = unit.last.get("hit", (0, 0))
        row["narrative.network_calls_per_miss"] = miss_calls / misses if misses else 0.0
        row["narrative.cache_hit_ratio"] = 1.0 - hit_calls / hits if hits else 0.0
        for kind in ("miss", "hit"):
            latency = unit.latency_ms.get(kind, [])
            row[f"narrative.{kind}_ms"] = _median(latency[marks.get(kind, 0):])
        row["cli.config_wall_s.jobs2"] = 0.0
        if unit.jobs > 1:
            tracer.reset()
            unit.run(outcome, unit.jobs)
            row["cli.config_wall_s.jobs2"] = _median(
                tracer.durations("experiment.run_experiment"))
    finally:
        tracer.uninstall()
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.chdir(args.work)
    result = measure(args.workload, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
