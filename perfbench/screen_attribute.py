"""``screen-attribute``: the owner's verify side, one in-process caller.

Op classes, interleaved in a fixed seeded sequence and reported apart:

* ``local`` — ``ShardedDetectionPool.detect_files`` over 40 suspect
  files of 100k tokens (half shuffled watermarked copies, half unrelated
  samples) on a two-process local pool;
* ``remote`` — the same screen on two ``freqywm worker --socket``
  processes through the remote scheduler;
* ``attribute`` — ``SecretVault.attribute_leak`` of a leaked copy
  (a buyer's copy or a clean sample) against a 512-buyer vault;
* ``register`` — a new buyer registered into the same vault.

Pools, workers and the vault are started during set-up, so no timed op
starts a process. Exec, detector/batch and dispute are crossed;
selection, transform and the service are not.
"""

from __future__ import annotations

import gc
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from common import (
    Outcome,
    Recorder,
    Speed,
    check,
    median_self_ms,
    p50,
    p95,
    peak_rss_mb,
    reset_peak_rss,
    seeded,
    spawn_cli,
    stop,
    unattributed_pct,
    wait_for_line,
    write_trace,
)
from fixtures import (
    ALPHA,
    LEAKS,
    SMALL_SAMPLES,
    TOKENS,
    LinearAttribution,
    StagedAttribution,
    build_vault,
    scheduler_counters,
)
from repro.core.batch import detect_many
from repro.core.config import GenerationConfig
from repro.core.detector import WatermarkDetector
from repro.core.generator import WatermarkGenerator
from repro.core.histogram import TokenHistogram
from repro.core.sharding import ShardedDetectionPool
from repro.datasets.loaders import load_token_file, save_token_file
from repro.datasets.synthetic import generate_power_law_tokens
from repro.dispute.vault import SecretVault
from repro.exec.policy import ExecutionPolicy

SUSPECTS = 40
WORKERS = 2
#: One cycle: each screen followed by attributions and one registration.
CYCLE = ("local",) + ("attribute",) * 12 + ("register", "remote") + ("attribute",) * 12 + ("register",)
MAX_CYCLES = 24
VAULT_SIZE = 512
SETUP_ROUNDS = 3


class Fixture:
    """Suspect files, their reference verdicts, the vault and op order."""

    def __init__(self, seed: int, work: Path) -> None:
        rng = seeded(seed, "screen-attribute")
        base = generate_power_law_tokens(
            ALPHA, n_tokens=TOKENS, sample_size=SMALL_SAMPLES, rng=rng.getrandbits(63)
        )
        owner = WatermarkGenerator(GenerationConfig(), rng=rng.getrandbits(63)).generate(
            base, secret_value=rng.getrandbits(256)
        )
        self.secret = owner.secret
        shuffler = np.random.default_rng(rng.getrandbits(63))
        self.paths: List[Path] = []
        histograms: List[TokenHistogram] = []
        for index in range(SUSPECTS):
            if index % 2 == 0:
                tokens = list(shuffler.permutation(owner.watermarked_tokens))
                histograms.append(owner.watermarked_histogram)
            else:
                tokens = generate_power_law_tokens(
                    ALPHA, n_tokens=TOKENS, sample_size=SMALL_SAMPLES, rng=rng.getrandbits(63)
                )
                histograms.append(TokenHistogram(Counter(tokens)))
            path = work / f"suspect-{index:02d}.txt"
            save_token_file(tokens, path)
            self.paths.append(path)
        self.expected = [r.summary() for r in detect_many(histograms, self.secret)]
        self.vault = build_vault(seed, work / "vault", newcomers=2 * MAX_CYCLES, size=VAULT_SIZE)
        self.reference = LinearAttribution(self.vault)
        self.leak_order = [rng.randrange(2 * LEAKS) for _ in range(len(CYCLE) * MAX_CYCLES)]


class Runtime:
    """The opened vault, the local pool and the remote worker fleet."""

    def __init__(self, fixture: Fixture, work: Path, round_index: int) -> None:
        self.workers = []
        self.local = self.remote = None
        start = time.perf_counter()
        self.vault = SecretVault(fixture.vault.directory)
        self.open_seconds = time.perf_counter() - start
        try:
            addresses = []
            for index in range(WORKERS):
                socket_path = (work / f"w{round_index}{index}.sock").relative_to(Path.cwd())
                log = work / f"worker-{round_index}{index}.log"
                self.workers.append((spawn_cli(["worker", "--socket", str(socket_path)], log), log))
                addresses.append(f"unix:{socket_path}")
            self.local = ShardedDetectionPool(fixture.secret, policy=ExecutionPolicy(workers=WORKERS))
            warm = fixture.paths[: 2 * WORKERS]
            cold = time.perf_counter()
            self.local.detect_files(warm)
            self.local_cold = time.perf_counter() - cold
            for process, log in self.workers:
                wait_for_line(log, "listening on", process, timeout=60)
            self.remote = ShardedDetectionPool(
                fixture.secret,
                policy=ExecutionPolicy(scheduler="remote", addresses=tuple(addresses)),
            )
            self.remote.detect_files(warm)
            self.setup_seconds = time.perf_counter() - start
            warm_start = time.perf_counter()
            self.local.detect_files(warm)
            self.local_start = self.local_cold - (time.perf_counter() - warm_start)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for pool in (self.local, self.remote):
            if pool is not None:
                pool.close()
        for process, _log in self.workers:
            stop(process)


def screen(pool: ShardedDetectionPool, fixture: Fixture) -> None:
    report = pool.detect_files(fixture.paths)
    check(
        [result.summary() for result in report] == fixture.expected,
        "screen verdicts differ from in-process detect_many",
    )


def set_up(fixture: Fixture, work: Path, speed: Speed) -> Tuple[Runtime, List[float], List[float]]:
    """Set up ``SETUP_ROUNDS`` times; keep the last runtime.

    Returns the runtime, each round's set-up time scaled to reference
    speed, and each round's raw vault open time.
    """
    rounds: List[Tuple[float, float]] = []
    opens: List[float] = []
    runtime = None
    for round_index in range(SETUP_ROUNDS):
        if runtime is not None:
            runtime.close()
        runtime = Runtime(fixture, work, round_index)
        rounds.append((time.perf_counter(), runtime.setup_seconds))
        speed.sample(5)
        opens.append(runtime.open_seconds)
    return runtime, speed.scaled(rounds), opens


def run(seed: int, seconds: int, trace: bool, work: Path, trace_path: Path) -> Outcome:
    fixture = Fixture(seed, work)
    # Screens keep both cores busy; attribution and registration run on
    # this process alone.
    pair = Speed(cores=2)
    try:
        runtime, rounds, opens = set_up(fixture, work, pair)
        try:
            gc.collect()
            gc.freeze()
            if trace:
                return traced(fixture, runtime, opens, trace_path)
            return timed(fixture, runtime, rounds, seconds, pair, Speed())
        finally:
            runtime.close()
    finally:
        pair.close()


def timed(
    fixture: Fixture,
    runtime: Runtime,
    rounds: List[float],
    seconds: int,
    pair: Speed,
    single: Speed,
) -> Outcome:
    outcome = Outcome()
    vault = runtime.vault
    pools = {"local": runtime.local, "remote": runtime.remote}
    # Warm-up, untimed: one screen on each pool and a round of leaks.
    for kind in ("local", "remote"):
        screen(pools[kind], fixture)
    for leak in range(2 * LEAKS):
        vault.attribute_leak(fixture.vault.leaks[leak])
    times: Dict[str, List[Tuple[float, float]]] = {
        kind: [] for kind in ("local", "remote", "attribute", "register")
    }
    attributions: List[Tuple[int, int, list]] = []
    registered = 0
    pair.sample(10)
    single.sample(10)
    reset_peak_rss()
    spent = 0.0
    for index in range(len(CYCLE) * MAX_CYCLES):
        if spent >= seconds:
            break
        kind = CYCLE[index % len(CYCLE)]
        start = time.perf_counter()
        if kind in pools:
            report = pools[kind].detect_files(fixture.paths)
        elif kind == "attribute":
            leak = fixture.leak_order[index]
            matches = vault.attribute_leak(fixture.vault.leaks[leak])
        else:
            buyer_id, secret = fixture.vault.newcomers[registered]
            entry = vault.register(buyer_id, secret)
        elapsed = time.perf_counter() - start
        spent += elapsed
        times[kind].append((start, elapsed))
        outcome.attempted += 1
        if kind in pools:
            pair.sample(2)
            check(
                [result.summary() for result in report] == fixture.expected,
                f"{kind} screen verdicts differ from in-process detect_many",
            )
        elif kind == "attribute":
            single.sample(1)
            attributions.append((leak, registered, matches))
        else:
            single.sample(1)
            check(entry.fingerprint == secret.fingerprint(), "registered fingerprint differs")
            registered += 1
    else:
        raise RuntimeError("op sequence exhausted before the run ended")
    rss = peak_rss_mb()
    for leak, count, matches in attributions:
        check(
            matches == fixture.reference.matches(leak, count),
            "attribution differs from a linear detect_many_secrets scan",
        )
    clean = [bool(m) for leak, _c, m in attributions if fixture.vault.leak_is_clean[leak]]
    check(all(times.values()), "an op class never ran")
    scaled = {
        kind: (pair if kind in pools else single).scaled(values) for kind, values in times.items()
    }
    outcome.put("setup_s", p50(rounds), "s")
    outcome.put("peak_rss_mb", rss, "MB")
    outcome.put("heavy_ms", 1000 * p50(scaled["local"]), "ms")
    outcome.put("mid_ms", 1000 * p50(scaled["remote"]), "ms")
    outcome.put("light_ms", 1000 * p50(scaled["attribute"]), "ms")
    outcome.report.update(
        {
            "speed_factor": {"pair": pair.factor(), "single": single.factor()},
            "raw_p50_ms": {k: 1000 * p50([s for _w, s in v]) for k, v in times.items()},
            "screen_local_suspects_per_s": SUSPECTS * len(scaled["local"]) / sum(scaled["local"]),
            "screen_remote_suspects_per_s": SUSPECTS * len(scaled["remote"]) / sum(scaled["remote"]),
            "attribute_p50_ms": 1000 * p50(scaled["attribute"]),
            "attribute_p95_ms": 1000 * p95(scaled["attribute"]),
            "register_p50_ms": 1000 * p50(scaled["register"]),
            "false_accuse_share": sum(clean) / len(clean) if clean else 0.0,
            "ops": {kind: len(values) for kind, values in times.items()},
            "failed_share": 0.0,
        }
    )
    return outcome


def traced(fixture: Fixture, runtime: Runtime, opens: List[float], trace_path: Path) -> Outcome:
    """Per-layer run over a fixed op list.

    Screens run once inline (``workers=1``, the base of the ratios), on
    the local pool and on the remote workers; the reference screen and
    every attribution are also staged call by call, untraced then
    traced. Attribution is staged as the registry runs it: a
    ``CandidateIndex`` screen, then ``detect_many_secrets`` over the
    candidates.
    """
    outcome = Outcome()
    vault = runtime.vault
    screens = Recorder(True, "screen")
    leaks = Recorder(True, "attribute")
    plain = Recorder(False)
    inline = ShardedDetectionPool(fixture.secret, policy=ExecutionPolicy(workers=1))
    before = scheduler_counters()
    walls: Dict[str, List[float]] = {"inline": [], "local": [], "remote": []}
    for _round in range(2):
        for kind, pool in (("inline", inline), ("local", runtime.local), ("remote", runtime.remote)):
            start = time.perf_counter()
            screen(pool, fixture)
            walls[kind].append(time.perf_counter() - start)
            outcome.attempted += 1
    after = scheduler_counters()
    inline.close()

    def staged_screen(recorder: Recorder) -> None:
        with recorder.span("op:screen"):
            histograms = []
            for path in fixture.paths:
                with recorder.span("loaders.load"):
                    tokens = load_token_file(path)
                with recorder.span("histogram.from_tokens"):
                    histograms.append(TokenHistogram.from_tokens(tokens))
            with recorder.span("detector.build"):
                detector = WatermarkDetector(fixture.secret)
            with recorder.span("batch.detect_many"):
                report = detect_many(histograms, detector=detector)
            for histogram in histograms[:4]:
                with recorder.span("detector.detect"):
                    detector.detect(histogram, collect_evidence=False)
        check([r.summary() for r in report] == fixture.expected, "staged screen differs")

    # Each staged op runs untraced and traced, alternating which goes
    # first, so drift between the two cancels.
    overhead = {"plain": 0.0, "spanned": 0.0}

    def both(index: int, function, recorder: Recorder, *args) -> object:
        runs = [("plain", plain), ("spanned", recorder)]
        if index % 2:
            runs.reverse()
        for label, used in runs:
            start = time.perf_counter()
            value = function(used, *args)
            overhead[label] += time.perf_counter() - start
            if used is recorder:
                result = value
        return result

    staged_screen(plain)  # warm the page cache
    for index in range(2):
        both(index, staged_screen, screens)
        outcome.attempted += 1

    staged_attribution = StagedAttribution(fixture.vault.buyers)

    candidates_total = 0
    matches_total = 0
    clean_accused: List[bool] = []
    for leak in fixture.vault.leaks:
        staged_attribution(plain, leak)  # fills the detector cache once
    for leak, histogram in enumerate(fixture.vault.leaks):
        matches, candidates = both(leak, staged_attribution, leaks, histogram)
        outcome.attempted += 1
        served = vault.attribute_leak(fixture.vault.leaks[leak])
        check(matches == served, "staged attribution differs from attribute_leak")
        check(vault.last_attribution.candidates == candidates, "candidate counts differ")
        check(matches == fixture.reference.matches(leak, 0), "attribution differs from linear scan")
        candidates_total += candidates
        matches_total += len(matches)
        if fixture.vault.leak_is_clean[leak]:
            clean_accused.append(bool(matches))

    registers = Recorder(True, "register")
    for buyer_id, secret in fixture.vault.newcomers[:8]:
        with registers.span("vault.register"):
            vault.register(buyer_id, secret)
        outcome.attempted += 1

    recorders = [screens, leaks, registers]
    outcome.put("vault.open_ms", 1000 * p50(opens), "ms")
    outcome.put("vault.register_ms", median_self_ms(registers, "vault.register"), "ms")
    outcome.put("loaders.load_ms", median_self_ms(screens, "loaders.load"), "ms")
    outcome.put("histogram.from_tokens_ms", median_self_ms(screens, "histogram.from_tokens"), "ms")
    outcome.put("detector.build_ms", median_self_ms(screens, "detector.build"), "ms")
    outcome.put("detector.detect_ms", median_self_ms(screens, "detector.detect"), "ms")
    outcome.put(
        "batch.detect_many_us_per_suspect",
        1000 * median_self_ms(screens, "batch.detect_many") / len(fixture.paths),
        "us",
    )
    outcome.put("batch.detect_many_secrets_ms", median_self_ms(leaks, "batch.detect_many_secrets"), "ms")
    outcome.put("index.screen_ms", median_self_ms(leaks, "index.screen"), "ms")
    outcome.put("index.candidates", candidates_total, "count")
    outcome.put("index.useful_ratio", matches_total / candidates_total if candidates_total else 0.0, "ratio")
    outcome.put("detector_cache.hit_rate", vault.detector_cache_stats().hit_rate, "share")
    outcome.put("dispute.false_accuse_share", sum(clean_accused) / len(clean_accused), "share")
    outcome.put("scheduler.local_start_ms", 1000 * runtime.local_start, "ms")
    outcome.put("scheduler.local_vs_inline", p50(walls["local"]) / p50(walls["inline"]), "ratio")
    outcome.put("scheduler.remote_vs_inline", p50(walls["remote"]) / p50(walls["inline"]), "ratio")
    outcome.put("scheduler.tasks", after["tasks"] - before["tasks"], "count")
    outcome.put("blobs.bytes_sent", after["bytes_sent"] - before["bytes_sent"], "bytes")
    outcome.put("blobs.bytes_deduped", after["bytes_deduped"] - before["bytes_deduped"], "bytes")
    outcome.put(
        "trace.overhead_pct",
        100.0 * (overhead["spanned"] - overhead["plain"]) / overhead["plain"],
        "%",
    )
    outcome.put("trace.unattributed_pct", unattributed_pct(recorders), "%")
    outcome.report["screen_walls_ms"] = {k: [1000 * v for v in vs] for k, vs in walls.items()}
    outcome.report["layers"] = {r.label: r.layer_table() for r in recorders}
    write_trace(trace_path, recorders)
    return outcome
