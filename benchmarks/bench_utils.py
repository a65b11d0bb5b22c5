"""Shared helpers for the benchmark / experiment-reproduction suite.

Every module in this directory regenerates one table or figure from the
FreqyWM paper (the mapping lives in ``docs/paper_mapping.md``). Each
benchmark uses ``benchmark.pedantic(..., rounds=1)`` so the experiment runs
exactly once under timing, and then prints the rows / series the paper
reports so the output can be compared side by side with the publication.

Scale
-----
The paper's synthetic workload is 1 M samples over 1 000 distinct tokens.
Because the watermarking algorithms only consume the token histogram, the
experiments reproduce the paper's *shapes* at a reduced default scale that
runs the full suite in a few minutes. Set ``REPRO_BENCH_SCALE=paper`` to
run at the publication scale (slower), or ``REPRO_BENCH_SCALE=smoke`` for
a quick sanity pass.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

# Allow running the benchmarks from a source checkout without installation.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:  # pragma: no cover - environment dependent
        sys.path.insert(0, str(_SRC))


@dataclass(frozen=True)
class BenchScale:
    """Workload sizes used by the experiment reproductions."""

    name: str
    #: Synthetic power-law workload (Figures 2, 4, 5 and the attack studies).
    synthetic_tokens: int
    synthetic_samples: int
    #: Real-dataset stand-ins (Table II).
    taxi_taxis: int
    taxi_trips: int
    clickstream_urls: int
    clickstream_events: int
    adult_rows: int
    #: Baseline comparison (Figure 3).
    baseline_tokens: int
    baseline_samples: int
    #: Repetitions for randomised attack sweeps.
    attack_repetitions: int
    #: Successive watermarks in the Section VI experiment.
    multiwatermark_rounds: int


_SCALES = {
    "smoke": BenchScale(
        name="smoke",
        synthetic_tokens=120,
        synthetic_samples=60_000,
        taxi_taxis=200,
        taxi_trips=20_000,
        clickstream_urls=200,
        clickstream_events=10_000,
        adult_rows=8_000,
        baseline_tokens=200,
        baseline_samples=100_000,
        attack_repetitions=1,
        multiwatermark_rounds=3,
    ),
    "default": BenchScale(
        name="default",
        synthetic_tokens=300,
        synthetic_samples=300_000,
        taxi_taxis=800,
        taxi_trips=80_000,
        clickstream_urls=600,
        clickstream_events=40_000,
        adult_rows=32_000,
        baseline_tokens=500,
        baseline_samples=500_000,
        attack_repetitions=2,
        multiwatermark_rounds=10,
    ),
    "paper": BenchScale(
        name="paper",
        synthetic_tokens=1_000,
        synthetic_samples=1_000_000,
        taxi_taxis=6_573,
        taxi_trips=500_000,
        clickstream_urls=11_479,
        clickstream_events=500_000,
        adult_rows=32_561,
        baseline_tokens=1_000,
        baseline_samples=1_000_000,
        attack_repetitions=5,
        multiwatermark_rounds=10,
    ),
}




def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample (fraction in [0, 1]).

    Nearest-rank (not interpolated) so a 3-iteration p95 is an actual
    observed timing, never an extrapolation beyond the sample.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be within [0, 1], got {fraction}")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def experiment_banner(identifier: str, description: str) -> None:
    """Print a banner naming the paper artefact being regenerated."""
    line = "=" * 78
    print(f"\n{line}\n{identifier}: {description}\n{line}")  # noqa: T201


# --------------------------------------------------------------------------- #
# Benchmark smoke runner (CI)
# --------------------------------------------------------------------------- #

#: Benchmark scripts exercised by the CI smoke job: every figure
#: reproduction plus the engine-scaling guard (whose speedup assertions
#: surface performance regressions per PR), the streaming/sharding
#: guard (chunked-ingestion parity + sharded screening timings), the
#: detection-service guard (cached+coalesced throughput vs one-shot),
#: the batch-embedding guard (embed_many parity + >=3x amortisation
#: over the sequential generator loop), the experiment-orchestration
#: guard (bundled smoke spec: cache-hit rerun + deterministic reports),
#: the vault-attribution guard (candidate-index parity with the
#: linear scan + its speedup floor), the data-plane guard (>=5x
#: bytes-on-wire dedup for shared remote payloads + the local
#: shared-memory dispatch speedup), and the telemetry-overhead guard
#: (disabled spans are free; instrumented dispatch within 3% of raw).
SMOKE_PATTERNS = (
    "bench_fig*.py",
    "bench_engine_scaling.py",
    "bench_streaming.py",
    "bench_service.py",
    "bench_embed_many.py",
    "bench_experiment.py",
    "bench_registry.py",
    "bench_backend.py",
    "bench_exec_dataplane.py",
    "bench_obs_overhead.py",
)


def run_smoke(output, patterns=SMOKE_PATTERNS, repeat: int = 1) -> dict:
    """Run every matching benchmark on tiny inputs and write a JSON report.

    Each script runs in its own pytest subprocess with
    ``REPRO_BENCH_SCALE=smoke`` so the whole sweep finishes in well under a
    minute; per-script wall-clock times and pass/fail states land in
    ``output`` (the CI job uploads it as the ``BENCH_smoke.json``
    artifact, giving every PR a comparable perf trace).

    ``repeat`` reruns each script that many times and reports tail-aware
    per-iteration latency: ``seconds`` is the median (p50) so a single
    scheduler hiccup no longer poisons the baseline, and
    ``p50_seconds`` / ``p95_seconds`` expose the distribution that
    ``tools/compare_bench.py`` prefers when both reports carry it. A
    failing iteration stops that script's repeats early.
    """
    import json
    import subprocess
    import time

    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    bench_dir = Path(__file__).resolve().parent
    scripts = sorted(
        {script for pattern in patterns for script in bench_dir.glob(pattern)}
    )
    environment = dict(os.environ, REPRO_BENCH_SCALE="smoke")
    results = []
    for script in scripts:
        timings = []
        passed = True
        completed = None
        for _iteration in range(repeat):
            start = time.perf_counter()
            completed = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", script.name],
                cwd=bench_dir,
                env=environment,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            timings.append(time.perf_counter() - start)
            if completed.returncode != 0:
                passed = False
                break
        p50 = percentile(timings, 0.50)
        p95 = percentile(timings, 0.95)
        results.append(
            {
                "benchmark": script.stem,
                "passed": passed,
                "seconds": round(p50, 3),
                "p50_seconds": round(p50, 3),
                "p95_seconds": round(p95, 3),
                "iterations": len(timings),
            }
        )
        status = "ok" if passed else "FAILED"
        print(  # noqa: T201
            f"  {script.stem:<32} p50 {p50:6.1f}s  p95 {p95:6.1f}s  {status}"
        )
        if not passed and completed is not None:
            print(completed.stdout)  # noqa: T201
    report = {
        "scale": "smoke",
        "python": sys.version.split()[0],
        "repeat": repeat,
        "results": results,
        "total_seconds": round(sum(entry["seconds"] for entry in results), 3),
        "failed": sum(1 for entry in results if not entry["passed"]),
    }
    output = Path(output)
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"smoke report written to {output} ({report['total_seconds']}s)")  # noqa: T201
    return report


def main(argv=None) -> int:
    """CLI entry point: ``python benchmarks/bench_utils.py --smoke``."""
    import argparse

    parser = argparse.ArgumentParser(description="Benchmark suite utilities")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run every bench_fig*/engine-scaling script on tiny inputs",
    )
    parser.add_argument(
        "--output",
        default="BENCH_smoke.json",
        help="where to write the JSON smoke report (default: BENCH_smoke.json)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="iterations per script for p50/p95 latency (default 1)",
    )
    arguments = parser.parse_args(argv)
    if not arguments.smoke:
        parser.error("nothing to do: pass --smoke")
    report = run_smoke(arguments.output, repeat=arguments.repeat)
    return 1 if report["failed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
