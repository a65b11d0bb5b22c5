"""Ablation — design choices in the pair-selection stage.

Not a paper figure: this benchmark quantifies the two design decisions that
the design notes in ``docs/paper_mapping.md`` call out so their
cost/benefit is visible next to the main results.

1. **Selection strategy** (optimal vs greedy vs random) at the reference
   setting — how many pairs each strategy embeds and how much distortion it
   spends doing so.
2. **require_modification hardening** — how many pairs are lost by refusing
   chance-aligned ("free") pairs, against how much it improves the
   watermark's ability to discriminate the watermarked version from the
   unwatermarked original (the false-positive fraction on the original at
   t = 0).
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.core.config import GenerationConfig
from repro.core.detector import detect_watermark
from repro.core.generator import WatermarkGenerator

from bench_utils import experiment_banner

BUDGET = 2.0
MODULUS_CAP = 131


def _ablation(histogram) -> dict:
    strategy_rows = []
    for strategy in ("optimal", "greedy", "random"):
        config = GenerationConfig(
            budget_percent=BUDGET, modulus_cap=MODULUS_CAP, strategy=strategy
        )
        result = WatermarkGenerator(config, rng=21).generate(histogram)
        strategy_rows.append(
            {
                "strategy": strategy,
                "selected_pairs": result.pair_count,
                "total_changes": result.total_changes,
                "distortion_percent": result.distortion_percent,
            }
        )

    hardening_rows = []
    for require_modification in (False, True):
        config = GenerationConfig(
            budget_percent=BUDGET,
            modulus_cap=MODULUS_CAP,
            require_modification=require_modification,
        )
        result = WatermarkGenerator(config, rng=22).generate(histogram)
        on_original = detect_watermark(histogram, result.secret, pair_threshold=0)
        on_watermarked = detect_watermark(
            result.watermarked_histogram, result.secret, pair_threshold=0
        )
        free_pairs = sum(1 for adjustment in result.adjustments if adjustment.cost == 0)
        hardening_rows.append(
            {
                "require_modification": require_modification,
                "selected_pairs": result.pair_count,
                "free_pairs": free_pairs,
                "fp_fraction_on_original": on_original.accepted_fraction,
                "verified_on_watermarked": on_watermarked.accepted_fraction,
                "distortion_percent": result.distortion_percent,
            }
        )
    return {"strategies": strategy_rows, "hardening": hardening_rows}


def test_ablation_selection_design_choices(benchmark, scale, synthetic_histogram):
    """Quantify the selection-strategy and hardening design choices."""
    report = benchmark.pedantic(_ablation, args=(synthetic_histogram,), rounds=1, iterations=1)
    experiment_banner(
        "Ablation",
        f"selection strategy and require_modification hardening (scale={scale.name})",
    )
    print(format_table(report["strategies"], title="Selection strategy"))  # noqa: T201
    print()  # noqa: T201
    print(format_table(report["hardening"], title="require_modification hardening"))  # noqa: T201

    strategies = {row["strategy"]: row for row in report["strategies"]}
    # The optimal strategy embeds at least as many pairs as the heuristics
    # while staying within the same budget.
    assert strategies["optimal"]["selected_pairs"] >= strategies["greedy"]["selected_pairs"]
    assert strategies["optimal"]["distortion_percent"] <= BUDGET

    default_row, hardened_row = report["hardening"]
    # Hardening removes the free pairs...
    assert hardened_row["free_pairs"] == 0
    assert default_row["free_pairs"] >= 0
    # ...which makes the watermark discriminate the original far better...
    assert (
        hardened_row["fp_fraction_on_original"]
        <= default_row["fp_fraction_on_original"] + 1e-9
    )
    assert hardened_row["fp_fraction_on_original"] == 0.0
    # ...while the watermarked version itself still verifies fully.
    assert hardened_row["verified_on_watermarked"] == 1.0
    assert default_row["verified_on_watermarked"] == 1.0
