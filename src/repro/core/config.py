"""Configuration dataclasses for watermark generation and detection.

The paper exposes a small number of user-facing knobs:

* generation: budget ``b``, modulus cap ``z``, selection strategy,
  similarity metric, security parameter for ``R``;
* detection: per-pair threshold ``t`` (absolute or as a fraction of each
  pair's modulus) and minimum accepted pair count ``k`` (absolute or as a
  fraction of the stored pairs).

Grouping them into frozen dataclasses keeps the generator/detector call
signatures small and gives one obvious place where parameter validation
lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.utils.validation import require, require_in_range, require_positive

#: Default modulus cap used throughout the paper's real-data validation.
DEFAULT_MODULUS_CAP = 131
#: Default distortion budget (percent) used throughout the evaluation.
DEFAULT_BUDGET_PERCENT = 2.0
#: Default security parameter (bits of entropy in ``R``).
DEFAULT_SECRET_BITS = 256


@dataclass(frozen=True)
class GenerationConfig:
    """Parameters of ``WM_Generate``.

    Attributes
    ----------
    budget_percent:
        The distortion budget ``b``: the watermarked histogram must stay
        within ``(100 - b)%`` similarity of the original.
    modulus_cap:
        The integer ``z`` capping every pair modulus ``s_ij``.
    strategy:
        Pair-selection strategy: ``"optimal"``, ``"greedy"`` or ``"random"``.
    metric:
        Similarity metric used for the budget (default cosine).
    secret_bits:
        Entropy of the high-entropy secret ``R``.
    max_candidates:
        Optional cap on the tokens scanned for eligible pairs (keeps the
        quadratic candidate enumeration bounded for very wide histograms).
    excluded_tokens:
        Tokens whose frequency must not be touched (paper footnote 3).
    require_modification:
        Hardening extension beyond the paper: exclude pairs that are
        already aligned (zero remainder) in the original data, so every
        watermarked pair embeds actual evidence. Recommended whenever the
        watermark must discriminate between dataset versions (ownership
        disputes, provenance chains, per-buyer fingerprints); see
        ``docs/paper_mapping.md`` (design notes) for the rationale.
    max_pairs:
        Optional cap on the number of watermarked pairs. The paper's
        objective is the maximum number of pairs within the budget; owners
        that embed many watermarks into the same dataset (provenance
        chains, per-buyer fingerprints) may prefer a small fixed size per
        watermark so the token space is not exhausted.
    """

    budget_percent: float = DEFAULT_BUDGET_PERCENT
    modulus_cap: int = DEFAULT_MODULUS_CAP
    strategy: str = "optimal"
    metric: str = "cosine"
    secret_bits: int = DEFAULT_SECRET_BITS
    max_candidates: Optional[int] = None
    excluded_tokens: Sequence[str] = field(default_factory=tuple)
    require_modification: bool = False
    max_pairs: Optional[int] = None

    def __post_init__(self) -> None:
        require_in_range("budget_percent (b)", self.budget_percent, 0.0, 100.0)
        require(
            isinstance(self.modulus_cap, int) and self.modulus_cap >= 2,
            f"modulus_cap (z) must be an integer >= 2, got {self.modulus_cap!r}",
        )
        require_positive("secret_bits", self.secret_bits)
        if self.max_candidates is not None:
            require_positive("max_candidates", self.max_candidates)
        if self.max_pairs is not None:
            require_positive("max_pairs", self.max_pairs)
        require(
            self.strategy.lower() in {"optimal", "greedy", "random"},
            f"strategy must be one of optimal/greedy/random, got {self.strategy!r}",
        )


@dataclass(frozen=True)
class DetectionConfig:
    """Parameters of ``WM_Detect``.

    Exactly one of ``pair_threshold`` / ``pair_threshold_fraction`` and one
    of ``min_accepted_pairs`` / ``min_accepted_fraction`` is used:

    * ``pair_threshold`` (``t``) — a pair verifies when
      ``(f_i - f_j) mod s_ij <= t``. Setting ``pair_threshold_fraction``
      instead makes ``t`` proportional to each pair's modulus
      (``t = fraction * s_ij``), the "percentage tolerance" variant the
      paper sketches in Section IV-A2.
    * ``min_accepted_pairs`` (``k``) — the dataset is declared watermarked
      when at least ``k`` pairs verify. ``min_accepted_fraction`` expresses
      ``k`` as a fraction of the stored pair count instead.

    ``symmetric_tolerance`` is an extension beyond the paper: when True a
    pair also verifies if its remainder is within ``t`` *below* the next
    multiple of ``s_ij`` (i.e. the residue is close to zero from either
    side). The paper's rule — and the default here — only tolerates
    remainders at or below ``t``.
    """

    pair_threshold: int = 0
    pair_threshold_fraction: Optional[float] = None
    min_accepted_pairs: Optional[int] = None
    min_accepted_fraction: float = 0.5
    symmetric_tolerance: bool = False

    def __post_init__(self) -> None:
        require(
            self.pair_threshold >= 0,
            f"pair_threshold (t) must be >= 0, got {self.pair_threshold}",
        )
        if self.pair_threshold_fraction is not None:
            require_in_range(
                "pair_threshold_fraction", self.pair_threshold_fraction, 0.0, 1.0
            )
        if self.min_accepted_pairs is not None:
            require(
                self.min_accepted_pairs >= 1,
                f"min_accepted_pairs (k) must be >= 1, got {self.min_accepted_pairs}",
            )
        require_in_range("min_accepted_fraction", self.min_accepted_fraction, 0.0, 1.0)

    def fingerprint(self) -> str:
        """Stable key of the threshold knobs, for detector caching.

        Two configurations resolve every pair threshold and the required
        pair count identically iff their fingerprints are equal, so
        :class:`repro.service.cache.DetectorCache` can key constructed
        detectors on ``(secret fingerprint, config fingerprint)``.
        """
        return (
            f"t={self.pair_threshold};tf={self.pair_threshold_fraction};"
            f"k={self.min_accepted_pairs};kf={self.min_accepted_fraction};"
            f"sym={int(self.symmetric_tolerance)}"
        )

    def threshold_for(self, modulus: int) -> int:
        """Resolve the per-pair threshold ``t`` for a pair with ``modulus``."""
        if self.pair_threshold_fraction is not None:
            return int(math.floor(self.pair_threshold_fraction * modulus))
        return self.pair_threshold

    def required_pairs(self, stored_pairs: int) -> int:
        """Resolve the minimum number of accepted pairs ``k``."""
        if stored_pairs <= 0:
            raise ConfigurationError("cannot detect a watermark with zero stored pairs")
        if self.min_accepted_pairs is not None:
            return min(self.min_accepted_pairs, stored_pairs)
        return max(1, math.ceil(self.min_accepted_fraction * stored_pairs))


__all__ = [
    "DEFAULT_MODULUS_CAP",
    "DEFAULT_BUDGET_PERCENT",
    "DEFAULT_SECRET_BITS",
    "GenerationConfig",
    "DetectionConfig",
]
