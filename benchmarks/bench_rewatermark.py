"""Section V-D — re-watermarking / false-claim attack and its resolution.

Paper setting: a pirate runs the normal watermark generation on the owner's
watermarked dataset and claims ownership of the result; the paper reports
that the owner's original watermark is still detected on the pirate's
version with ~92 % of its pairs at t = 0, and resolves the dispute with a
judge protocol. Expected shape here: the owner's watermark survives in the
pirate's copy with a high pair fraction, the pairs the pirate actually had
to modify do not verify on the owner's earlier version, and the dispute is
resolved for the owner once the watermark registry's chronological order is
taken into account (see the design notes in ``docs/paper_mapping.md``
for why detection alone can be ambiguous when the pirate's selection is
dominated by already-aligned pairs).
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.attacks.rewatermark import RewatermarkAttack
from repro.core.config import DetectionConfig, GenerationConfig
from repro.dispute.judge import Judge, OwnershipClaim
from repro.dispute.registry import WatermarkRegistry

from bench_utils import experiment_banner

BUDGET = 2.0
MODULUS_CAP = 131


def _run_rewatermark_attack(reference_watermark) -> dict:
    owner = reference_watermark
    attack = RewatermarkAttack(
        GenerationConfig(budget_percent=BUDGET, modulus_cap=MODULUS_CAP), rng=555
    )
    outcome = attack.run(
        owner.watermarked_histogram,
        owner.secret,
        detection=DetectionConfig(pair_threshold=0),
    )

    registry = WatermarkRegistry()
    registry.register("owner", owner.secret, dataset="published")
    registry.register("pirate", outcome.attacker_result.secret, dataset="pirated")
    verdict = Judge(DetectionConfig(pair_threshold=1), registry=registry).arbitrate(
        [
            OwnershipClaim("owner", owner.secret, owner.watermarked_histogram),
            OwnershipClaim(
                "pirate",
                outcome.attacker_result.secret,
                outcome.attacker_result.watermarked_histogram,
            ),
        ]
    )
    return {
        "owner_pairs": len(owner.secret.pairs),
        "pirate_pairs": len(outcome.attacker_result.secret.pairs),
        "owner_pair_survival_on_pirate_data": outcome.owner_pair_survival,
        "owner_detected_on_pirate_data": outcome.owner_on_attacker_data.accepted,
        "pirate_fraction_on_owner_data": outcome.attacker_on_owner_data.accepted_fraction,
        "pirate_modified_pairs_on_owner_data": outcome.attacker_modified_pair_survival_on_owner,
        "verdict_winner": verdict.winner,
        "verdict_reason": verdict.reason,
    }


def test_rewatermark_false_claim_attack(benchmark, scale, reference_watermark):
    """Regenerate the Section V-D re-watermarking experiment."""
    report = benchmark.pedantic(
        _run_rewatermark_attack, args=(reference_watermark,), rounds=1, iterations=1
    )
    experiment_banner(
        "Section V-D",
        f"re-watermarking / false-claim attack and dispute (scale={scale.name})",
    )
    print(format_table([report]))  # noqa: T201

    # The owner's watermark survives on the pirated version (the paper: ~92%).
    assert report["owner_pair_survival_on_pirate_data"] > 0.5
    assert report["owner_detected_on_pirate_data"]
    # The pairs the pirate actually modified betray its later creation time.
    assert report["pirate_modified_pairs_on_owner_data"] < 0.5
    # The dispute resolves for the genuine owner.
    assert report["verdict_winner"] == "owner"
