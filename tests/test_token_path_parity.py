"""Parity of the C-speed seller path with its per-token references.

The bulk token path (``load_token_file`` / ``save_token_file``,
``count_token_batch`` behind ``TokenHistogram.from_tokens`` and the
streaming builder, the mask-based ``apply_deltas_to_tokens`` and
``PairModulusCache.row_moduli``) must change no output byte. These
tests pin that three ways: a golden digest of a full embed, the same
under every ``PYTHONHASHSEED``, Hypothesis properties against reference
implementations kept here verbatim, and the token-file line rule shared
by both loaders.

``FREQYWM_HYPOTHESIS_EXAMPLES`` raises the example count of the
properties (CI's backend-parity job runs them at 1000).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import eligibility as eligibility_module
from repro.core import histogram as histogram_module
from repro.core.eligibility import generate_eligible_pairs
from repro.core.hashing import PairModulusCache, pair_modulus
from repro.core.histogram import TokenHistogram, count_token_batch
from repro.core.streaming import StreamingHistogramBuilder
from repro.core.tokens import canonical_token
from repro.core.transform import apply_deltas_to_tokens
from repro.datasets.loaders import (
    iter_tokens,
    load_histogram_streaming,
    load_token_file,
    save_token_file,
)
from repro.exceptions import GenerationError
from repro.utils.rng import ensure_rng

REPO_ROOT = Path(__file__).resolve().parent.parent

_settings = settings(
    max_examples=int(os.environ.get("FREQYWM_HYPOTHESIS_EXAMPLES", "60")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class Label(str):
    """A ``str`` subclass, as a caller's own token type might be."""


# --------------------------------------------------------------------- #
# Golden digest of a full embed
# --------------------------------------------------------------------- #

_GOLDEN_SCRIPT = """
import hashlib, sys, tempfile
from pathlib import Path
from repro.core.config import GenerationConfig
from repro.core.generator import WatermarkGenerator
from repro.datasets.loaders import load_token_file, save_token_file
from repro.datasets.synthetic import generate_power_law_tokens

config = {
    "default": GenerationConfig(),
    "hardened": GenerationConfig(require_modification=True, modulus_cap=31),
}[sys.argv[1]]
seed, secret = int(sys.argv[2]), int(sys.argv[3])
with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    source = tmp / "in.txt"
    save_token_file(
        generate_power_law_tokens(1.0, n_tokens=1000, sample_size=100_000, rng=20240513),
        source,
    )
    result = WatermarkGenerator(config, rng=seed).generate(
        load_token_file(source), secret_value=secret
    )
    save_token_file(result.watermarked_tokens, tmp / "wm.txt")
    result.secret.save(tmp / "wm.json")
    digest = hashlib.sha256((tmp / "wm.txt").read_bytes())
    digest.update((tmp / "wm.json").read_bytes())
    print(digest.hexdigest())
"""

#: sha256 of (watermarked file || secret JSON). The edit order follows
#: ``histogram_deltas``, which walks the histograms in their own order,
#: so the bytes are the same under every ``PYTHONHASHSEED``.
_GOLDEN = [
    ("default", 7, 0x5EEDF00DCAFEBEEF123456789ABCDEF0,
     "68542f7f8e42308b72539b6395af3fe30312963f8503902a17781272bc7afbc7"),
    ("hardened", 11, 987654321987654321,
     "13398728a65002ba30d0c2451c787bb96aedf64f3e182bd2d5380538f120d8fc"),
]


@pytest.mark.parametrize(
    "hash_seed, config, seed, secret, expected",
    [(hash_seed, *row) for hash_seed in ("0", "1", "random") for row in _GOLDEN],
)
def test_embed_output_bytes_are_pinned(hash_seed, config, seed, secret, expected):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", _GOLDEN_SCRIPT, config, str(seed), str(secret)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    assert completed.stdout.strip() == expected


# --------------------------------------------------------------------- #
# Counting: one fast path, equal to the per-token loop
# --------------------------------------------------------------------- #


def reference_counts(tokens) -> Dict[str, int]:
    """The per-token counting loop ``from_tokens`` used to run."""
    counts: Dict[str, int] = {}
    for value in tokens:
        token = canonical_token(value)
        counts[token] = counts.get(token, 0) + 1
    return counts


_short_text = st.text(alphabet="ab1.T", max_size=3)
_mixed_token = st.one_of(
    _short_text,
    st.sampled_from([1, True, 1.0, 0, False, 0.0, 2.5, -1, "1", "True", "1.0"]),
    st.integers(min_value=-2, max_value=2),
    st.binary(max_size=2),
    st.tuples(_short_text, st.integers(min_value=0, max_value=1)),
    st.lists(_short_text, max_size=2),
    _short_text.map(Label),
)
_mixed_tokens = st.lists(_mixed_token, min_size=1, max_size=60)


@_settings
@given(_mixed_tokens)
def test_count_token_batch_equals_per_token_loop(tokens):
    counts = count_token_batch(tokens)
    expected = reference_counts(tokens)
    # Same counts and the same first-seen key order.
    assert list(counts.items()) == list(expected.items())
    assert all(isinstance(key, str) for key in counts)


@_settings
@given(_mixed_tokens)
def test_from_tokens_equals_per_token_reference(tokens):
    expected = TokenHistogram(reference_counts(tokens))
    assert TokenHistogram.from_tokens(tokens) == expected
    assert TokenHistogram.from_tokens(tuple(tokens)) == expected


@_settings
@given(_mixed_tokens, st.integers(min_value=1, max_value=7))
def test_lazy_and_streamed_counting_share_the_fast_path(tokens, batch):
    expected = TokenHistogram(reference_counts(tokens))
    original = histogram_module._LAZY_COUNT_BATCH
    histogram_module._LAZY_COUNT_BATCH = batch
    try:
        assert TokenHistogram.from_tokens(iter(tokens)) == expected
    finally:
        histogram_module._LAZY_COUNT_BATCH = original
    builder = StreamingHistogramBuilder(chunk_size=batch)
    builder.add_tokens(iter(tokens))
    assert builder.build() == expected
    assert builder.total_count == len(tokens)


def test_values_that_hash_alike_are_not_merged():
    # 1, True and 1.0 are one dict key but three canonical tokens' worth
    # of text: "1", "True" and "1" again.
    histogram = TokenHistogram.from_tokens([1, True, 1.0, "x"])
    assert histogram.as_dict() == {"1": 2, "True": 1, "x": 1}


# --------------------------------------------------------------------- #
# Transform: same edit for the same RNG stream
# --------------------------------------------------------------------- #


def reference_apply_deltas(tokens, deltas, *, rng=None) -> List[str]:
    """``apply_deltas_to_tokens`` as first written (per-token passes)."""
    generator = ensure_rng(rng)
    canonical = [canonical_token(token) for token in tokens]
    removal_indices: set = set()
    positions_by_token: Dict[str, List[int]] = {}
    removals = {token: -delta for token, delta in deltas.items() if delta < 0}
    if removals:
        for index, token in enumerate(canonical):
            if token in removals:
                positions_by_token.setdefault(token, []).append(index)
        for token, count in removals.items():
            positions = positions_by_token.get(token, [])
            if len(positions) < count:
                raise GenerationError(
                    f"cannot remove {count} appearances of {token!r}: only "
                    f"{len(positions)} present"
                )
            chosen = generator.choice(len(positions), size=count, replace=False)
            removal_indices.update(positions[i] for i in chosen)
    result = [token for index, token in enumerate(canonical) if index not in removal_indices]
    additions = {token: delta for token, delta in deltas.items() if delta > 0}
    for token, count in additions.items():
        for _ in range(count):
            position = int(generator.integers(0, len(result) + 1))
            result.insert(position, token)
    return result


_edit_tokens = st.lists(
    st.one_of(st.sampled_from(["a", "b", "c", "d"]), st.sampled_from([1, 2.0, b"a"])),
    max_size=80,
)
_deltas = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d", "1", "2", "new"]),
    st.integers(min_value=-6, max_value=4).filter(bool),
    max_size=5,
)


@_settings
@given(_edit_tokens, _deltas, st.integers(min_value=0, max_value=2**32))
def test_apply_deltas_equals_reference_for_equal_seeds(tokens, deltas, seed):
    snapshot = list(tokens)
    try:
        expected = reference_apply_deltas(tokens, deltas, rng=seed)
    except GenerationError:
        with pytest.raises(GenerationError):
            apply_deltas_to_tokens(tokens, deltas, rng=seed)
        return
    assert apply_deltas_to_tokens(tokens, deltas, rng=seed) == expected
    assert tokens == snapshot  # the caller's list is never edited in place


def test_apply_deltas_all_str_list_is_not_mutated_or_aliased():
    tokens = ["a", "b", "a", "c"]
    result = apply_deltas_to_tokens(tokens, {}, rng=1)
    assert result == tokens and result is not tokens


# --------------------------------------------------------------------- #
# Row-wise moduli: same values, same memo, same accounting
# --------------------------------------------------------------------- #


def md5_hash(data: bytes) -> bytes:
    return hashlib.md5(data).digest()


def _cache_state(cache: PairModulusCache):
    return (cache.hits, cache.misses, cache.resets, dict(cache._moduli), dict(cache._inner))


_vocabulary = st.lists(
    st.text(alphabet="abcxyz\x00é", min_size=1, max_size=4), min_size=1, max_size=12, unique=True
)


@_settings
@given(
    _vocabulary,
    st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=2**64),
    st.integers(min_value=2, max_value=300),
    st.one_of(st.none(), st.integers(min_value=1, max_value=20)),
    st.booleans(),
)
def test_row_moduli_equals_per_pair_path(vocabulary, rows, secret, z, max_entries, custom):
    extra = {"hash_function": md5_hash} if custom else {}
    per_pair = PairModulusCache(secret, z, max_entries=max_entries, **extra)
    row_wise = PairModulusCache(secret, z, max_entries=max_entries, **extra)
    for row in rows:
        token_i = vocabulary[row % len(vocabulary)]
        tokens_j = vocabulary[row % len(vocabulary) :] + vocabulary[:3]
        expected = [per_pair.modulus(token_i, token_j) for token_j in tokens_j]
        assert row_wise.row_moduli(token_i, tokens_j) == expected
        assert expected == [
            pair_modulus(token_i, token_j, secret, z, **extra) for token_j in tokens_j
        ]
        assert _cache_state(row_wise) == _cache_state(per_pair)


@pytest.mark.parametrize("custom", [False, True])
def test_row_moduli_reset_lands_mid_row(custom):
    extra = {"hash_function": md5_hash} if custom else {}
    tokens = [f"t{index}" for index in range(9)]
    per_pair = PairModulusCache(42, 131, max_entries=5, **extra)
    row_wise = PairModulusCache(42, 131, max_entries=5, **extra)
    for cache in (per_pair, row_wise):
        cache.modulus("t0", "t1")  # a hit at the start of the row
    expected = [per_pair.modulus("t0", token) for token in tokens[1:]]
    assert row_wise.row_moduli("t0", tokens[1:]) == expected
    assert per_pair.resets == 1 and per_pair.hits == 1
    assert _cache_state(row_wise) == _cache_state(per_pair)


def test_streaming_scan_loop_matches_vectorized_plan(monkeypatch):
    histogram = TokenHistogram.from_counts(
        {f"tok{index}": 4000 // (index + 1) + 3 * index for index in range(60)}
    )
    arguments = dict(secret=987654321, modulus_cap=31)
    planned_cache = PairModulusCache(987654321, 31)
    planned = generate_eligible_pairs(
        histogram, **arguments, modulus_cache=planned_cache, plan_store={}
    )
    monkeypatch.setattr(eligibility_module, "VECTOR_SCAN_MAX_PAIRS", 0)
    looped_cache = PairModulusCache(987654321, 31)
    looped = generate_eligible_pairs(
        histogram, **arguments, modulus_cache=looped_cache, plan_store={}
    )
    uncached = generate_eligible_pairs(histogram, **arguments)
    assert planned == looped == uncached
    assert planned and len(planned_cache) == len(looped_cache)
    assert _cache_state(planned_cache) == _cache_state(looped_cache)


# --------------------------------------------------------------------- #
# Token files: one line rule for both loaders
# --------------------------------------------------------------------- #

#: Every character ``str.splitlines`` breaks on, plus CR and blanks.
_SEPARATORS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029 \t"


def test_separator_tokens_read_the_same_through_both_loaders(tmp_path):
    path = tmp_path / "tokens.txt"
    path.write_bytes(
        "a\nc\x1cd\nc\x1cd\nb\x0bq\r\nf\x0cg\nh\x85i\nj\u2028k\n\nl\u2029m\r  a \n".encode()
    )
    tokens = load_token_file(path)
    assert tokens == [
        "a", "c\x1cd", "c\x1cd", "b\x0bq", "f\x0cg", "h\x85i", "j\u2028k", "l\u2029m", "a",
    ]
    assert tokens == list(iter_tokens(path))
    assert TokenHistogram.from_tokens(tokens) == load_histogram_streaming(path)


def test_saved_separator_tokens_round_trip(tmp_path):
    tokens = ["c\x1cd", "x\u2028y", "p\x0bq", "c\x1cd"] * 3
    path = tmp_path / "out.txt"
    save_token_file(iter(tokens), path)
    assert load_token_file(path) == tokens
    assert list(iter_tokens(path)) == tokens


_file_text = st.text(
    alphabet=st.one_of(st.sampled_from(_SEPARATORS), st.sampled_from("ab\x1fé")), max_size=80
)


@_settings
@given(_file_text)
def test_loaders_agree_on_any_file(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("lines") / "tokens.txt"
    path.write_bytes(text.encode("utf-8"))
    streamed = list(iter_tokens(path))
    if not streamed:
        return
    assert load_token_file(path) == streamed


@pytest.mark.parametrize("count", [1, 3, 7])
def test_save_writes_bounded_blocks_byte_identically(tmp_path, monkeypatch, count):
    from repro.datasets import loaders

    tokens = [f"t{index % 4}" for index in range(count * 5 + 2)] + [7, Label("z")]
    monkeypatch.setattr(loaders, "SAVE_BLOCK_TOKENS", count)
    path = tmp_path / "blocks.txt"
    save_token_file((token for token in tokens), path)
    assert path.read_text(encoding="utf-8") == "".join(f"{token}\n" for token in tokens)
