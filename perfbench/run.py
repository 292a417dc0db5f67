"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload suite-sentiment --seed 1 --seconds 24 --trace 0

Run from the repository root. The script generates the workload's inputs
from ``--seed`` under ``.perfbench_work/``, times the library's set-up in
fresh interpreters, runs the workload in a fresh worker process (worker.py,
with one BLAS thread) and checks every output. It prints a readable
summary, a detail line of JSON (versions, sample counts, report digests)
and, as the last line, ``{"correct", "attempted", "failed", "metrics"}``
holding the end-to-end metrics of BENCHMARK.json, or with ``--trace 1`` its
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
DEADLINE_S = 170.0

SETUP_CODE = (
    "import econarrative.cli, econarrative.narrative\n"
    "from econarrative import ingest, sentiment, synthgen\n"
    "sentiment.load_lexicon(); ingest.load_emoji_aliases(); synthgen.load_wordlist()\n"
)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _setup_seconds(env: dict[str, str]) -> tuple[list[float], list[float]]:
    """CPU and wall seconds of fresh interpreters that import the package and
    load its bundled tables."""
    cpu, wall = [], []
    for _ in range(SETUP_PROBES):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True, timeout=60)
        wall.append(perf_counter() - start)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
    return cpu, wall


def _versions() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def _declared(section: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {m["name"]: m["unit"] for m in doc[section]}


def _print_summary(workload, seed, versions, rows, outcome) -> None:
    print(f"workload {workload}  seed {seed}  nproc {versions['nproc']}  "
          f"python {versions['python']}  numpy {versions['numpy']}")
    for name, value, unit, note in rows:
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}")
    attempted, failed, reasons = outcome
    rate = failed / attempted if attempted else 1.0
    print(f"  {'error_rate':<44} {rate:>14.6g} {'ratio':<6} {failed} of {attempted} operations failed")
    for reason in reasons:
        print(f"    failure: {reason}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="econarrative benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = perf_counter()

    if not (SRC / "econarrative" / "__init__.py").is_file():
        print(f"error: no econarrative sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs
    import econarrative.cli  # noqa: F401  writes bytecode caches before the set-up probes
    import econarrative.narrative  # noqa: F401

    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(inputs.WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs.generate(args.workload, args.seed, work)
    env = _env()
    versions = _versions()
    setup, setup_wall = ([], []) if args.trace else _setup_seconds(env)

    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--work", str(work), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            # One BLAS thread. On two CPUs a second one spins and yields between
            # calls: under the CPU rotation of worker.py it switched in 15k to
            # 20k times per embed-regression unit, on the rotated thread's CPU.
            env=dict(env, OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True,
            timeout=max(10.0, DEADLINE_S - (perf_counter() - began)),
        )
    except subprocess.TimeoutExpired:
        print(f"error: the worker did not finish within {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    outcome = (result["attempted"], result["failed"], result["reasons"])
    samples = dict(result["samples"], setup_s=setup, setup_wall_s=setup_wall)

    rows = []
    if args.trace:
        declared = _declared("per_layer")
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in declared.items()}
        for name, m in sorted(metrics.items()):
            rows.append((name, m["value"], m["unit"], ""))
    else:
        values = {name: statistics.median(v) for name, v in samples.items()}
        notes = {name: f"median of {len(v)}" for name, v in samples.items()}
        values["wall_over_ref"] = values["wall_s"] / values["ref_s"]
        notes["wall_over_ref"] = (f"median of {len(samples['wall_s'])} units over median of "
                                  f"{len(samples['ref_s'])} reference jobs")
        values["peak_rss_mb"] = result["peak_rss_mb"]
        notes["peak_rss_mb"] = "one process"
        declared = _declared("end_to_end")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in declared.items()}
        for name in list(declared) + sorted(set(samples) - set(declared)):
            rows.append((name, values[name], "s" if name.endswith("_s") else declared[name],
                         notes[name]))
        for kind, values_ms in result.get("latency_ms", {}).items():
            ordered = sorted(values_ms)
            note = f"median of {len(ordered)}"
            if len(ordered) >= 100:
                note += f", p90 {ordered[int(0.9 * len(ordered))]:.4g} ms"
            rows.append((f"{kind}_ms", statistics.median(ordered), "ms", note))
    _print_summary(args.workload, args.seed, versions, rows, outcome)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "versions": versions,
        "samples": {k: [round(x, 6) for x in v] for k, v in samples.items()},
    }
    for key in ("digests", "prompts", "prompt_kb_median"):
        if key in result:
            detail[key] = result[key]
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
