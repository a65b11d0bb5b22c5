"""Data transformation: turn histogram deltas into an edited dataset.

The frequency-modification stage only decides *how many* appearances of
each token to add or remove; this module performs the actual edit on the
token sequence (the ``Create`` step of Algorithm I):

* removals pick random existing positions of the token, so no positional
  pattern reveals which appearances belonged to the watermark;
* insertions go to random positions of the sequence — the paper stresses
  that inserting at predictable positions (for example always at the end)
  would weaken FreqyWM against a guess attack.

For multi-dimensional datasets (where a token is a combination of
attribute values but rows carry further attributes) the equivalent row
transformation lives in :mod:`repro.core.multidimensional`.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence

from repro.core.histogram import TokenHistogram
from repro.core.tokens import TokenValue, canonical_token
from repro.exceptions import GenerationError
from repro.utils.rng import RngLike, ensure_rng


def apply_deltas_to_tokens(
    tokens: Sequence[TokenValue],
    deltas: Mapping[str, int],
    *,
    rng: RngLike = None,
) -> List[str]:
    """Apply token-count ``deltas`` to a raw token sequence.

    Parameters
    ----------
    tokens:
        The original dataset as a sequence of token occurrences.
    deltas:
        Mapping from canonical token to the signed number of appearances
        to add (positive) or remove (negative).
    rng:
        Randomness source for choosing removal victims and insertion
        positions.

    Returns
    -------
    A new list of canonical token strings whose histogram equals the
    original histogram with ``deltas`` applied.
    """
    generator = ensure_rng(rng)
    # Loaded token files are lists of plain strings, for which
    # canonicalisation is the identity: skip the per-token copy.
    if isinstance(tokens, list) and set(map(type, tokens)) <= {str}:
        canonical = tokens
    else:
        canonical = [canonical_token(token) for token in tokens]

    # Plan removals: choose random occurrence indices per token. One
    # C-speed pass finds every occurrence of a removed token; only those
    # occurrences are grouped in Python.
    removals = {token: -delta for token, delta in deltas.items() if delta < 0}
    if removals:
        positions_by_token: Dict[str, List[int]] = {token: [] for token in removals}
        hits = compress(range(len(canonical)), map(removals.__contains__, canonical))
        for index in hits:
            positions_by_token[canonical[index]].append(index)
        keep = bytearray(b"\x01") * len(canonical)
        for token, count in removals.items():
            positions = positions_by_token[token]
            if len(positions) < count:
                raise GenerationError(
                    f"cannot remove {count} appearances of {token!r}: only "
                    f"{len(positions)} present"
                )
            chosen = generator.choice(len(positions), size=count, replace=False)
            for i in chosen:
                keep[positions[i]] = 0
        result = list(compress(canonical, keep))
    else:
        result = list(canonical)

    # Plan insertions: new appearances land at random positions.
    additions = {token: delta for token, delta in deltas.items() if delta > 0}
    for token, count in additions.items():
        for _ in range(count):
            position = int(generator.integers(0, len(result) + 1))
            result.insert(position, token)
    return result


def histogram_deltas(
    original: TokenHistogram, watermarked: TokenHistogram
) -> Dict[str, int]:
    """Signed per-token count changes turning ``original`` into ``watermarked``.

    Parameters
    ----------
    original, watermarked : TokenHistogram
        The before/after histograms; tokens present in only one side
        contribute their full count.

    Returns
    -------
    Dict[str, int]
        Token -> non-zero signed delta, ready for
        :func:`apply_deltas_to_tokens` or :func:`apply_deltas_streaming`.
        Keys follow ``original``'s order, then tokens new in
        ``watermarked`` in its order. That order drives the edit's RNG
        calls, so it must not depend on ``PYTHONHASHSEED``.
    """
    before = original.as_dict()
    after = watermarked.as_dict()
    deltas: Dict[str, int] = {}
    for token, count in before.items():
        delta = after.get(token, 0) - count
        if delta != 0:
            deltas[token] = delta
    for token, count in after.items():
        if token not in before:
            deltas[token] = count
    return deltas


def transform_dataset(
    tokens: Sequence[TokenValue],
    original: TokenHistogram,
    watermarked: TokenHistogram,
    *,
    rng: RngLike = None,
) -> List[str]:
    """Edit ``tokens`` so its histogram matches ``watermarked``.

    The deltas are derived by diffing the two histograms
    (:func:`histogram_deltas`), so this function also serves the
    multi-watermarking and attack modules, which produce a target
    histogram first and then need a consistent dataset.
    """
    return apply_deltas_to_tokens(
        tokens, histogram_deltas(original, watermarked), rng=rng
    )


def apply_deltas_streaming(
    tokens: Iterable[TokenValue],
    deltas: Mapping[str, int],
    original_counts: Mapping[str, int],
    *,
    rng: RngLike = None,
) -> Iterator[str]:
    """Apply token-count ``deltas`` to a lazy token stream, yielding the edit.

    The streaming counterpart of :func:`apply_deltas_to_tokens` for
    datasets too large to materialise: the input is consumed once, the
    edited sequence is yielded incrementally, and memory stays bounded by
    the number of *edited* appearances (plus one counter per removed
    token), never by the stream length. Both edit kinds keep the paper's
    positional-secrecy requirement:

    * removal victims are uniformly random occurrences of each token,
      chosen by sampling occurrence ordinals against the known original
      counts before the stream is consumed;
    * insertions land at uniformly random positions of the *final*
      sequence, chosen by sampling slots of the output stream up front
      and interleaving the (shuffled) new appearances while writing.

    Parameters
    ----------
    tokens : Iterable[TokenValue]
        The original dataset as a lazy stream of token occurrences (e.g.
        :func:`repro.datasets.loaders.iter_tokens`).
    deltas : Mapping[str, int]
        Canonical token -> signed appearance change, as produced by
        diffing the original and watermarked histograms.
    original_counts : Mapping[str, int]
        Appearance counts of the original stream (a token->count mapping
        or anything with ``as_dict()``, e.g. a ``TokenHistogram`` built
        by one streaming ingestion pass). Needed to sample removal
        ordinals without buffering the stream.
    rng : RngLike, optional
        Randomness source for victim and position choices.

    Yields
    ------
    str
        Canonical tokens of the edited sequence, whose histogram equals
        the original counts with ``deltas`` applied.

    Raises
    ------
    GenerationError
        If a removal exceeds the recorded count of its token, or —
        detected at end of stream, before the trailing insertions are
        yielded — the stream disagrees with ``original_counts`` (total
        occurrences, or the occurrence count of any removed token).
    """
    generator = ensure_rng(rng)
    if hasattr(original_counts, "as_dict"):
        original_counts = original_counts.as_dict()

    # Removals: pre-sample which occurrence ordinals of each token vanish.
    removal_ordinals: Dict[str, frozenset] = {}
    removed_total = 0
    for token, delta in deltas.items():
        if delta >= 0:
            continue
        count = int(original_counts.get(token, 0))
        if count < -delta:
            raise GenerationError(
                f"cannot remove {-delta} appearances of {token!r}: only "
                f"{count} present"
            )
        chosen = generator.choice(count, size=-delta, replace=False)
        removal_ordinals[token] = frozenset(int(i) for i in chosen)
        removed_total += -delta

    # Insertions: pre-sample slots of the final output stream.
    additions: List[str] = []
    for token, delta in deltas.items():
        if delta > 0:
            additions.extend([token] * delta)
    original_total = sum(int(count) for count in original_counts.values())
    final_length = original_total - removed_total + len(additions)
    insert_at: Dict[int, List[str]] = {}
    if additions:
        generator.shuffle(additions)
        slots = generator.choice(final_length, size=len(additions), replace=False)
        for slot, token in zip(sorted(int(s) for s in slots), additions):
            insert_at.setdefault(slot, []).append(token)

    seen: Dict[str, int] = dict.fromkeys(removal_ordinals, 0)
    position = 0
    consumed = 0
    for value in tokens:
        token = canonical_token(value)
        consumed += 1
        ordinals = removal_ordinals.get(token)
        if ordinals is not None:
            ordinal = seen[token]
            seen[token] = ordinal + 1
            if ordinal in ordinals:
                continue
        while position in insert_at:
            for inserted in insert_at.pop(position):
                yield inserted
                position += 1
        yield token
        position += 1
    # The removal/insertion plan was sampled against ``original_counts``;
    # a stream that disagrees with it (the file changed between the
    # histogram pass and this pass) would silently realise the wrong
    # histogram, so fail loudly instead.
    if consumed != original_total:
        raise GenerationError(
            f"token stream disagrees with original_counts: consumed {consumed} "
            f"occurrences, expected {original_total}"
        )
    for token, ordinals in removal_ordinals.items():
        expected = int(original_counts.get(token, 0))
        if seen[token] != expected:
            raise GenerationError(
                f"token stream disagrees with original_counts: saw "
                f"{seen[token]} occurrences of {token!r}, expected {expected}"
            )
    # Insertion slots past the last kept token flush in slot order.
    for slot in sorted(insert_at):
        for inserted in insert_at[slot]:
            yield inserted


def verify_transformation(
    transformed: Sequence[str],
    expected: TokenHistogram,
) -> bool:
    """Check that a transformed token sequence matches the target histogram."""
    return TokenHistogram.from_tokens(transformed).as_dict() == expected.as_dict()


__all__ = [
    "apply_deltas_to_tokens",
    "apply_deltas_streaming",
    "histogram_deltas",
    "transform_dataset",
    "verify_transformation",
]
