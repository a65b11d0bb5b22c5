"""Seeded inputs shared by the workloads, built before any timing.

Every fixture is a pure function of the workload seed. Secrets are
always explicit and distinct per buyer or op: a generator seeded with an
integer reuses one ``R`` for every dataset it watermarks, which would
make every buyer's secret the same and attribution degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from common import Recorder, distinct_secrets, seeded
from repro.core.batch import detect_many_secrets, embed_many
from repro.core.cache import DetectorCache
from repro.core.config import DetectionConfig, GenerationConfig
from repro.core.histogram import TokenHistogram
from repro.core.secrets import WatermarkSecret
from repro.datasets.synthetic import PowerLawSpec, sampled_counts
from repro.dispute.index import CandidateIndex
from repro.dispute.vault import SecretVault
from repro.exec.policy import ExecutionPolicy
from repro.obs.metrics import registry as metrics_registry

#: Paper scale (Section IV-A): alpha = 1, 1000 tokens, z = 131, b = 2 %.
ALPHA = 1.0
TOKENS = 1000
PAPER_SAMPLES = 1_000_000
SMALL_SAMPLES = 100_000

#: Thresholds ``attribute_leak`` applies by default (the registry's).
ATTRIBUTION = DetectionConfig(pair_threshold=1)

#: ``(buyer, accepted fraction)`` when a buyer's secret verifies, else None.
Match = Optional[Tuple[str, float]]

LEAKS = 16


def sample_histograms(seed: int, label: str, count: int, size: int) -> List[TokenHistogram]:
    """``count`` independent multinomial power-law histograms."""
    rng = seeded(seed, label)
    spec = PowerLawSpec(alpha=ALPHA, n_tokens=TOKENS, sample_size=size)
    return [
        TokenHistogram(sampled_counts(spec, rng=rng.getrandbits(63)))
        for _ in range(count)
    ]


@dataclass
class VaultFixture:
    """A vault on disk plus everything needed to check attribution."""

    directory: Path
    #: Buyers in registration order.
    buyers: List[Tuple[str, WatermarkSecret]]
    #: Leaked copies: buyers' watermarked copies and clean samples.
    leaks: List[TokenHistogram]
    leak_is_clean: List[bool]
    #: Buyers registered while the workload runs, in order.
    newcomers: List[Tuple[str, WatermarkSecret]]


def build_vault(seed: int, directory: Path, newcomers: int, size: int) -> VaultFixture:
    """A vault of ``size`` buyers of one 100k-sample dataset.

    Every buyer, newcomers included, holds its own copy watermarked by
    the generator (optimal strategy) under a distinct secret, so the
    candidate index sees the pair counts, token spread and moduli the
    program really produces. Hand-built secrets do not: at the default
    ``t = 1`` a generated secret of another buyer of the same data is
    accepted on nearly every copy (about half of its pairs have modulus
    2, which any count satisfies), while random pairs under a fresh
    ``R`` almost never are.
    """
    rng = seeded(seed, "vault")
    base = sample_histograms(seed, "vault-base", 1, SMALL_SAMPLES)[0]
    total = size + newcomers
    copies = list(
        embed_many(
            [base] * total,
            GenerationConfig(),
            rng=rng.getrandbits(63),
            secret_values=distinct_secrets(rng, total),
            policy=ExecutionPolicy(workers=2),
        )
    )
    secrets = [copy.secret for copy in copies]
    buyers = [(f"buyer-{index:05d}", secret) for index, secret in enumerate(secrets[:size])]
    vault = SecretVault(directory)
    for buyer_id, secret in buyers:
        vault.register(buyer_id, secret)
    leaked = [copies[i].watermarked_histogram for i in rng.sample(range(size), LEAKS)]
    clean = sample_histograms(seed, "vault-clean", LEAKS, SMALL_SAMPLES)
    order = list(range(2 * LEAKS))
    rng.shuffle(order)
    pool = leaked + clean
    return VaultFixture(
        directory=directory,
        buyers=buyers,
        leaks=[pool[i] for i in order],
        leak_is_clean=[i >= LEAKS for i in order],
        newcomers=[(f"buyer-n{i:05d}", secret) for i, secret in enumerate(secrets[size:])],
    )


class LinearAttribution:
    """Reference attribution: ``detect_many_secrets`` over every buyer.

    No candidate index: every active secret is verified. Each secret's
    verdict is independent of the others, so verdicts over the initial
    buyers and over all newcomers are computed once per leak and
    combined for any number of newcomers registered so far.
    """

    def __init__(self, fixture: VaultFixture) -> None:
        self.fixture = fixture
        self.cache = DetectorCache(capacity=None)
        self._memo: Dict[int, Tuple[List[Match], List[Match]]] = {}

    def _scan(self, leak: int, buyers: Sequence[Tuple[str, WatermarkSecret]]) -> List[Match]:
        results = detect_many_secrets(
            self.fixture.leaks[leak],
            [secret for _buyer, secret in buyers],
            ATTRIBUTION,
            detector_cache=self.cache,
        )
        return [
            (buyer, result.accepted_fraction) if result.accepted else None
            for (buyer, _secret), result in zip(buyers, results)
        ]

    def matches(self, leak: int, registered: int) -> List[Tuple[str, float]]:
        """What attribution must return after ``registered`` newcomers."""
        if leak not in self._memo:
            self._memo[leak] = (
                self._scan(leak, self.fixture.buyers),
                self._scan(leak, self.fixture.newcomers),
            )
        initial, newcomers = self._memo[leak]
        found = [match for match in initial + newcomers[:registered] if match is not None]
        found.sort(key=lambda item: (-item[1], item[0]))
        return found


class StagedAttribution:
    """``attribute_leak`` staged call by call, as the registry runs it.

    A ``CandidateIndex`` over the same buyers (rows in registration
    order) screens the leak, then ``detect_many_secrets`` confirms the
    candidates with a detector cache. Each call runs inside a span.
    """

    def __init__(self, buyers: Sequence[Tuple[str, WatermarkSecret]]) -> None:
        self.buyers = list(buyers)
        self.index = CandidateIndex()
        for row, (_buyer, secret) in enumerate(self.buyers):
            self.index.add(row, secret)
        self.cache = DetectorCache(capacity=None)

    def __call__(self, recorder: Recorder, histogram: TokenHistogram) -> Tuple[list, int]:
        """``(matches, candidates)`` for one leaked copy."""
        with recorder.span("op:attribute"):
            with recorder.span("index.screen"):
                screen = self.index.screen(histogram, ATTRIBUTION)
            with recorder.span("batch.detect_many_secrets"):
                results = detect_many_secrets(
                    histogram,
                    [self.buyers[row][1] for row in screen.rows],
                    ATTRIBUTION,
                    detector_cache=self.cache,
                )
        matches = [
            (self.buyers[row][0], result.accepted_fraction)
            for row, result in zip(screen.rows, results)
            if result.accepted
        ]
        matches.sort(key=lambda item: (-item[1], item[0]))
        return matches, len(screen.rows)


def scheduler_counters() -> Dict[str, int]:
    """Task and data-plane byte counters of every live scheduler."""
    view = metrics_registry().snapshot()["views"].get("scheduler", {})
    return {key: int(view.get(key, 0)) for key in ("tasks", "bytes_sent", "bytes_deduped")}
