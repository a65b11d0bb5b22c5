"""Unit tests for the guess (brute-force) attack — Section V-A."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.attacks.guess import (
    GuessAttack,
    expected_guesses_to_succeed,
    guess_success_probability,
    single_pair_acceptance_probability,
)
from repro.core.config import DetectionConfig
from repro.exceptions import AttackError


class TestAnalyticalProbabilities:
    def test_single_pair_probability(self):
        assert single_pair_acceptance_probability(100, 0) == pytest.approx(0.01)
        assert single_pair_acceptance_probability(100, 9) == pytest.approx(0.10)
        assert single_pair_acceptance_probability(10, 99) == 1.0
        with pytest.raises(AttackError):
            single_pair_acceptance_probability(1, 0)

    def test_success_probability_decreases_with_k(self):
        previous = 1.0
        for k in (1, 2, 5, 10, 15):
            probability = guess_success_probability(20, k, modulus=131, threshold=0)
            assert probability <= previous
            previous = probability

    def test_success_probability_is_negligible_for_paper_parameters(self):
        # 139 pairs, k = half of them, z = 131, t = 0: essentially impossible.
        probability = guess_success_probability(139, 70, modulus=131, threshold=0)
        assert probability < 1e-80

    def test_required_more_than_guessed_is_impossible(self):
        assert guess_success_probability(5, 6, modulus=131) == 0.0

    def test_expected_guesses(self):
        assert expected_guesses_to_succeed(2, 2, modulus=10, threshold=0) == pytest.approx(
            (10 / 1) ** 2, rel=0.2
        )
        assert math.isinf(expected_guesses_to_succeed(5, 6, modulus=131))

    def test_larger_threshold_helps_the_attacker(self):
        strict = guess_success_probability(20, 10, modulus=131, threshold=0)
        loose = guess_success_probability(20, 10, modulus=131, threshold=20)
        assert loose > strict


class TestMonteCarloAttack:
    def test_attack_never_succeeds_at_strict_thresholds(self, watermarked_bundle):
        result, _ = watermarked_bundle
        attack = GuessAttack(guessed_pairs=10, modulus_cap=131, rng=17)
        report = attack.run(
            result.watermarked_histogram,
            attempts=50,
            detection=DetectionConfig(pair_threshold=0, min_accepted_fraction=0.5),
        )
        assert report.attempts == 50
        assert report.successes == 0
        assert report.empirical_success_rate == 0.0
        assert report.analytical_success_probability < 1e-6

    def test_attack_succeeds_when_thresholds_are_absurdly_loose(self, watermarked_bundle):
        # Sanity check of the harness itself: with t larger than any modulus
        # every guessed pair verifies, so the forged secret is accepted.
        result, _ = watermarked_bundle
        attack = GuessAttack(guessed_pairs=3, modulus_cap=131, rng=17)
        report = attack.run(
            result.watermarked_histogram,
            attempts=5,
            detection=DetectionConfig(pair_threshold=131, min_accepted_fraction=1.0),
        )
        assert report.successes == 5

    def test_histogram_too_small_rejected(self):
        from repro.core.histogram import TokenHistogram

        tiny = TokenHistogram.from_counts({"a": 5, "b": 3})
        attack = GuessAttack(guessed_pairs=5, rng=1)
        with pytest.raises(AttackError):
            attack.attempt(tiny, DetectionConfig())

    def test_invalid_guessed_pairs(self):
        with pytest.raises(AttackError):
            GuessAttack(guessed_pairs=0)

    def test_report_parameters(self, watermarked_bundle):
        result, _ = watermarked_bundle
        attack = GuessAttack(guessed_pairs=4, modulus_cap=61, rng=2)
        report = attack.run(result.watermarked_histogram, attempts=3)
        assert report.parameters["guessed_pairs"] == 4
        assert report.parameters["modulus_cap"] == 61


class TestBatchedMonteCarlo:
    """run() samples like attempt() but verifies via one batched pass."""

    def test_run_matches_sequential_attempts(self, watermarked_bundle):
        import numpy as np

        result, _ = watermarked_bundle
        detection = DetectionConfig(pair_threshold=131, min_accepted_fraction=1.0)
        histogram = result.watermarked_histogram
        # Identically seeded live generators: the batched run must draw
        # the same candidates in the same order as the sequential loop.
        sequential_attack = GuessAttack(
            guessed_pairs=4, modulus_cap=31, rng=np.random.default_rng(99)
        )
        sequential = sum(
            sequential_attack.attempt(histogram, detection) for _ in range(10)
        )
        batched_attack = GuessAttack(
            guessed_pairs=4, modulus_cap=31, rng=np.random.default_rng(99)
        )
        report = batched_attack.run(histogram, attempts=10, detection=detection)
        assert report.successes == sequential

    def test_forge_candidate_shape(self, watermarked_bundle):
        result, _ = watermarked_bundle
        attack = GuessAttack(guessed_pairs=5, modulus_cap=31, rng=1)
        forged = attack.forge_candidate(result.watermarked_histogram)
        assert len(forged.pairs) == 5
        assert forged.modulus_cap == 31
        assert forged.metadata.get("forged") is True


class TestColdStart:
    def _probe(self, code: str) -> str:
        # A fresh interpreter checks the module list, not wall-clock time.
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        return completed.stdout.strip()

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        # The binomial tail is the only user of scipy.stats, whose import
        # alone costs more than the rest of ``import repro.cli``.
        probe = "import sys, repro.cli; print('scipy.stats' in sys.modules)"
        assert self._probe(probe) == "False"

    def test_networkx_is_never_imported(self):
        # Maximum weight matching runs on the in-tree blossom kernel;
        # networkx is only the oracle of its differential tests.
        probe = (
            "import sys, repro.cli\n"
            "print('networkx' in sys.modules)\n"
            "from repro.core.config import GenerationConfig\n"
            "from repro.core.generator import WatermarkGenerator\n"
            "from repro.datasets.synthetic import generate_power_law_histogram\n"
            "histogram = generate_power_law_histogram(\n"
            "    1.0, n_tokens=200, sample_size=50_000, mode='sampled', rng=5)\n"
            "result = WatermarkGenerator(GenerationConfig(), rng=3).generate(\n"
            "    histogram, secret_value=123456789)\n"
            "print(len(result.secret.pairs) > 0, 'networkx' in sys.modules)\n"
        )
        assert self._probe(probe).splitlines() == ["False", "True False"]

    def test_binomial_tail_numerics_are_unchanged(self):
        assert guess_success_probability(20, 5, modulus=131, threshold=0) == 3.652315578155728e-07
        assert guess_success_probability(139, 70, modulus=131, threshold=3) == (
            4.905742456012531e-67
        )
