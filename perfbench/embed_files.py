"""``embed-files``: the seller path, closed loop, one caller, in-process.

Op classes, interleaved in a fixed seeded sequence and reported apart:

* ``heavy`` — one paper-scale file: ``load_token_file`` (1M lines) →
  ``WatermarkGenerator.generate`` → ``save_token_file`` +
  ``WatermarkSecret.save``;
* ``mid`` — the same on a 100k-line file (fixed costs weigh more);
* ``light`` — histogram-only ``generate`` on a 100k-sample histogram
  (no file, no re-emit).

Every op has its own explicit ``secret_value``. Loaders, histogram,
eligibility/hashing, selection, modification and transform are
crossed; detector, service, scheduler and dispute are not.
"""

from __future__ import annotations

import gc
import hashlib
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    Outcome,
    REFERENCE_KERNEL_S,
    Recorder,
    Speed,
    check,
    distinct_secrets,
    import_probe,
    median_self_ms,
    p50,
    p95,
    peak_rss_mb,
    reset_peak_rss,
    seeded,
    unattributed_pct,
    write_trace,
)
from fixtures import ALPHA, PAPER_SAMPLES, SMALL_SAMPLES, TOKENS, sample_histograms
from repro.core.config import GenerationConfig
from repro.core.detector import WatermarkDetector
from repro.core.eligibility import generate_eligible_pairs
from repro.core.generator import WatermarkGenerator
from repro.core.hashing import PairModulusCache
from repro.core.histogram import TokenHistogram
from repro.core.matching import select_pairs
from repro.core.modification import apply_adjustments, verify_alignment
from repro.core.secrets import WatermarkSecret
from repro.core.similarity import ranking_preserved
from repro.core.transform import transform_dataset
from repro.datasets.loaders import load_token_file, save_token_file
from repro.datasets.synthetic import generate_power_law_tokens
from repro.utils.rng import derive_rng

CONFIG = GenerationConfig()  # optimal strategy, b = 2 %, z = 131
HEAVY_FILES = 3
MID_FILES = 4
LIGHT_HISTOGRAMS = 16
#: One cycle of the op sequence: a paper-scale file, then two rounds of
#: one 100k-line file and ten 100k-sample histograms.
CYCLE = ("heavy",) + (("mid",) + ("light",) * 10) * 2
#: Ops prepared per run; far more than a 60 s run completes.
MAX_OPS = len(CYCLE) * 120
IMPORT_STARTS = 5
TRACED_CYCLES = 3

Op = Tuple[str, object, int, int]  # class, input, secret value, rng seed


class Fixture:
    """Input files and histograms plus the seeded op sequence."""

    def __init__(self, seed: int, work: Path) -> None:
        rng = seeded(seed, "embed-files")
        self.work = work
        heavy_inputs = []
        for index in range(HEAVY_FILES):
            path = work / f"in-1m-{index}.txt"
            save_token_file(
                generate_power_law_tokens(
                    ALPHA, n_tokens=TOKENS, sample_size=PAPER_SAMPLES, rng=rng.getrandbits(63)
                ),
                path,
            )
            heavy_inputs.append(path)
        mid_inputs = []
        for index in range(MID_FILES):
            path = work / f"in-100k-{index}.txt"
            save_token_file(
                generate_power_law_tokens(
                    ALPHA, n_tokens=TOKENS, sample_size=SMALL_SAMPLES, rng=rng.getrandbits(63)
                ),
                path,
            )
            mid_inputs.append(path)
        histograms = sample_histograms(seed, "embed-light", LIGHT_HISTOGRAMS, SMALL_SAMPLES)
        inputs = {"heavy": heavy_inputs, "mid": mid_inputs, "light": histograms}
        seen = {"heavy": 0, "mid": 0, "light": 0}
        self.ops: List[Op] = []
        for index, value in enumerate(distinct_secrets(rng, MAX_OPS)):
            kind = CYCLE[index % len(CYCLE)]
            choices = inputs[kind]
            self.ops.append((kind, choices[seen[kind] % len(choices)], value, rng.getrandbits(63)))
            seen[kind] += 1


def run_op(op: Op, target: Path) -> Tuple[object, WatermarkSecret, TokenHistogram]:
    """One op through the public API, as a seller would call it."""
    kind, source, value, rng_seed = op
    generator = WatermarkGenerator(CONFIG, rng=rng_seed)
    if kind == "light":
        result = generator.generate(source, secret_value=value)
        return None, result.secret, result.watermarked_histogram
    tokens = load_token_file(source)
    result = generator.generate(tokens, secret_value=value)
    save_token_file(result.watermarked_tokens, target)
    result.secret.save(target.with_suffix(".json"))
    return len(tokens), result.secret, result.watermarked_histogram


def run_staged(op: Op, target: Path, recorder: Recorder) -> Dict[str, object]:
    """The same op with each stage called directly, inside spans.

    Mirrors ``WatermarkGenerator.generate`` stage by stage (same RNG
    streams, same checks), with an explicit ``PairModulusCache`` whose
    size is the number of pair moduli derived.
    """
    kind, source, value, rng_seed = op
    with recorder.span(f"op:{kind}"):
        tokens: Optional[List[str]] = None
        if kind == "light":
            histogram = source
        else:
            with recorder.span("loaders.load"):
                tokens = load_token_file(source)
            with recorder.span("histogram.from_tokens"):
                histogram = TokenHistogram.from_tokens(tokens)
        moduli = PairModulusCache(value, CONFIG.modulus_cap)
        with recorder.span("eligibility.scan"):
            eligible = generate_eligible_pairs(
                histogram,
                value,
                CONFIG.modulus_cap,
                max_candidates=CONFIG.max_candidates,
                excluded_tokens=CONFIG.excluded_tokens,
                require_modification=CONFIG.require_modification,
                modulus_cache=moduli,
                plan_store={},
            )
        with recorder.span("selection"):
            selection = select_pairs(
                histogram,
                eligible,
                CONFIG.budget_percent,
                strategy=CONFIG.strategy,
                metric=CONFIG.metric,
                rng=derive_rng(rng_seed, "selection"),
                max_pairs=CONFIG.max_pairs,
            )
        with recorder.span("modification"):
            watermarked = apply_adjustments(histogram, selection.adjustments)
            aligned = verify_alignment(histogram, selection.adjustments)
            ranked = ranking_preserved(histogram.as_dict(), watermarked.as_dict())
        check(aligned and ranked, "staged generation broke alignment or ranking")
        secret = WatermarkSecret.build(
            [item.pair for item in selection.selected],
            value,
            CONFIG.modulus_cap,
            strategy=selection.strategy,
            budget_percent=CONFIG.budget_percent,
            metric=CONFIG.metric,
            original_size=histogram.total_count(),
            distinct_tokens=len(histogram),
        )
        edited = None
        if tokens is not None:
            with recorder.span("transform"):
                edited = transform_dataset(
                    tokens, histogram, watermarked, rng=derive_rng(rng_seed, "transform")
                )
            with recorder.span("loaders.save"):
                save_token_file(edited, target)
                secret.save(target.with_suffix(".json"))
    return {
        "secret": secret,
        "histogram": watermarked,
        "tokens": edited,
        "moduli": len(moduli),
        "eligible": len(eligible),
        "selected": len(selection.selected),
    }


def verify(op: Op, target: Path, secret: WatermarkSecret, histogram: TokenHistogram) -> str:
    """Check one op's outputs; return a digest of them.

    File ops: the written file re-loads to the watermarked histogram and
    the saved secret detects it. Histogram ops: the secret detects the
    watermarked histogram.
    """
    if op[0] == "light":
        check(WatermarkDetector(secret).detect(histogram).accepted, "light op not detected")
        counts = sorted(histogram.as_dict().items())
        return hashlib.sha256(repr((secret.fingerprint(), counts)).encode()).hexdigest()
    reloaded = TokenHistogram.from_tokens(load_token_file(target))
    check(reloaded == histogram, f"{target.name} does not re-load to the watermarked histogram")
    saved = WatermarkSecret.load(target.with_suffix(".json"))
    check(saved.fingerprint() == secret.fingerprint(), "saved secret differs")
    check(WatermarkDetector(saved).detect(reloaded).accepted, "saved secret does not detect output")
    digest = hashlib.sha256(target.read_bytes())
    digest.update(target.with_suffix(".json").read_bytes())
    return digest.hexdigest()


def run(seed: int, seconds: int, trace: bool, work: Path, trace_path: Path) -> Outcome:
    fixture = Fixture(seed, work)
    outcome = Outcome()
    # Set-up: a fresh interpreter importing the CLI, several times. The
    # median import is scaled by the median kernel time over every
    # start: one start's kernel tracks its own import poorly, the pool
    # of them tracks the machine's speed over the whole set-up.
    starts = [import_probe() for _ in range(IMPORT_STARTS)]
    raw_setup = p50([elapsed for elapsed, *_rest in starts])
    kernels = [kernel for _e, _m, *pair in starts for kernel in pair]
    setup = raw_setup * REFERENCE_KERNEL_S / p50(kernels)
    modules = starts[0][1]
    check(all(count == modules for _e, count, *_k in starts), "import module count varies")
    gc.collect()
    gc.freeze()
    if trace:
        return traced(fixture, outcome, raw_setup, modules, trace_path)

    # Warm-up: the first cycle, untimed; the timed run repeats it, so
    # equal digests show the same seed gives the same outputs.
    warm = {}
    for index, op in enumerate(fixture.ops[: len(CYCLE)]):
        target = fixture.work / f"out-{op[0]}.txt"
        _tokens, secret, histogram = run_op(op, target)
        warm[index] = verify(op, target, secret, histogram)
    times: Dict[str, List[Tuple[float, float]]] = {"heavy": [], "mid": [], "light": []}
    heavy_tokens = 0
    speed = Speed()
    speed.sample(10)
    reset_peak_rss()
    spent = 0.0
    for index, op in enumerate(fixture.ops):
        if spent >= seconds:
            break
        target = fixture.work / f"out-{op[0]}.txt"
        start = time.perf_counter()
        tokens, secret, histogram = run_op(op, target)
        elapsed = time.perf_counter() - start
        spent += elapsed
        times[op[0]].append((start, elapsed))
        outcome.attempted += 1
        if op[0] == "heavy":
            heavy_tokens += tokens
        speed.sample(1 if op[0] == "light" else 3)
        digest = verify(op, target, secret, histogram)
        if index in warm:
            check(digest == warm[index], f"op {index} output differs between two runs")
    else:
        raise RuntimeError("op sequence exhausted before the run ended")
    rss = peak_rss_mb()
    check(all(times.values()), "an op class never ran")
    scale = speed.factor()
    scaled = {kind: speed.scaled(values) for kind, values in times.items()}
    raw = {kind: [seconds for _when, seconds in values] for kind, values in times.items()}
    outcome.put("setup_s", setup, "s")
    outcome.put("peak_rss_mb", rss, "MB")
    outcome.put("heavy_ms", 1000 * p50(scaled["heavy"]), "ms")
    outcome.put("mid_ms", 1000 * p50(scaled["mid"]), "ms")
    outcome.put("light_ms", 1000 * p50(scaled["light"]), "ms")
    outcome.report.update(
        {
            "speed_factor": scale,
            "raw_setup_s": raw_setup,
            "raw_p50_ms": {kind: 1000 * p50(values) for kind, values in raw.items()},
            "embed_file_p50_ms": 1000 * p50(scaled["heavy"]),
            "embed_tokens_per_s": heavy_tokens / sum(scaled["heavy"]),
            "light_p95_ms": 1000 * p95(scaled["light"]),
            "ops": {kind: len(values) for kind, values in times.items()},
            "failed_share": 0.0,
        }
    )
    return outcome


def traced(
    fixture: Fixture, outcome: Outcome, setup: float, modules: int, trace_path: Path
) -> Outcome:
    """Per-layer run: a fixed op list, each op staged untraced and traced.

    Stage times are medians over the paper-scale (heavy) ops; counts are
    exact totals over every traced op.
    """
    recorders = {kind: Recorder(True, kind) for kind in ("heavy", "mid", "light")}
    untraced = Recorder(False)
    walls = {"plain": 0.0, "spanned": 0.0}
    counts = {"moduli": 0, "eligible": 0, "selected": 0}
    checked = set()
    for index, op in enumerate(fixture.ops[: TRACED_CYCLES * len(CYCLE)]):
        target = fixture.work / f"out-{op[0]}.txt"
        # Untraced and traced, alternating which goes first, so drift
        # between the two cancels.
        runs = [("plain", untraced), ("spanned", recorders[op[0]])]
        if index % 2:
            runs.reverse()
        for label, recorder in runs:
            start = time.perf_counter()
            result = run_staged(op, target, recorder)
            walls[label] += time.perf_counter() - start
            if label == "spanned":
                staged = result
        for key in counts:
            counts[key] += staged[key]
        outcome.attempted += 1
        if op[0] not in checked:
            # The staged path must equal WatermarkGenerator.generate.
            checked.add(op[0])
            kind, source, value, rng_seed = op
            data = source if kind == "light" else load_token_file(source)
            reference = WatermarkGenerator(CONFIG, rng=rng_seed).generate(data, secret_value=value)
            check(
                reference.secret.fingerprint() == staged["secret"].fingerprint()
                and reference.watermarked_histogram == staged["histogram"]
                and reference.watermarked_tokens == staged["tokens"],
                f"staged {kind} op differs from WatermarkGenerator.generate",
            )
        verify(op, target, staged["secret"], staged["histogram"])
    heavy = recorders["heavy"]
    outcome.put("cli.import_ms", 1000 * setup, "ms")
    outcome.put("cli.modules_imported", modules, "count")
    outcome.put("loaders.load_ms", median_self_ms(heavy, "loaders.load"), "ms")
    outcome.put("loaders.save_ms", median_self_ms(heavy, "loaders.save"), "ms")
    outcome.put("histogram.from_tokens_ms", median_self_ms(heavy, "histogram.from_tokens"), "ms")
    outcome.put("transform.ms", median_self_ms(heavy, "transform"), "ms")
    outcome.put("eligibility.scan_ms", median_self_ms(heavy, "eligibility.scan"), "ms")
    outcome.put("selection.ms", median_self_ms(heavy, "selection"), "ms")
    outcome.put("modification.ms", median_self_ms(heavy, "modification"), "ms")
    outcome.put("hashing.moduli_derived", counts["moduli"], "count")
    outcome.put("eligibility.eligible_pairs", counts["eligible"], "count")
    outcome.put("selection.selected_pairs", counts["selected"], "count")
    outcome.put(
        "trace.overhead_pct", 100.0 * (walls["spanned"] - walls["plain"]) / walls["plain"], "%"
    )
    outcome.put("trace.unattributed_pct", unattributed_pct(list(recorders.values())), "%")
    outcome.report["layers"] = {kind: r.layer_table() for kind, r in recorders.items()}
    write_trace(trace_path, list(recorders.values()))
    return outcome
