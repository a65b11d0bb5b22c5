"""Streaming histogram ingestion: chunked, mergeable, bounded-memory.

The paper's ``Preprocess(D)`` assumes the whole dataset is available for
one counting pass. At production scale the dataset arrives in chunks — a
file too large for memory, a Kafka partition, the output of a map stage —
so this module provides :class:`StreamingHistogramBuilder`, an
accumulator that

* ingests token chunks or lazy iterators incrementally
  (:meth:`StreamingHistogramBuilder.add_tokens`,
  :meth:`StreamingHistogramBuilder.add_counts`),
* merges with other builders for map-reduce style ingestion
  (:meth:`StreamingHistogramBuilder.merge`,
  :meth:`StreamingHistogramBuilder.merge_all`): workers each count their
  shard of the stream and the partial histograms combine associatively,
* materialises a :class:`~repro.core.histogram.TokenHistogram` that is
  **bit-identical** to the one-shot ``TokenHistogram.from_tokens`` over
  the concatenated stream (:meth:`StreamingHistogramBuilder.build`).

Memory is bounded by the number of *distinct* tokens, never by the
stream length: the builder holds one integer per distinct token and the
sort to descending-frequency order happens once, at :meth:`build` time.
Because token counting is a commutative monoid, any chunking and any
merge tree over the same occurrences produces the same counts — the
parity property ``tests/test_streaming.py`` asserts under hypothesis.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, Mapping

from repro.core.histogram import TokenHistogram, count_token_batch
from repro.core.tokens import TokenValue, canonical_token
from repro.exceptions import HistogramError

#: Default number of tokens drained from a lazy iterator per internal
#: batch. Chosen so the C-speed ``Counter.update`` dominates the Python
#: chunking overhead while one batch of short tokens stays well under a
#: few megabytes of transient memory.
DEFAULT_CHUNK_SIZE = 65_536


def iter_batches(values: Iterable[TokenValue], size: int) -> Iterator[list]:
    """Drain ``values`` into lists of at most ``size`` items.

    Already-materialised sequences are passed through whole (when they
    fit one batch) or sliced at C speed; only lazy iterators pay the
    per-item batching loop. Shared by the builder's ingestion and the
    file loaders' chunked readers.

    Parameters
    ----------
    values : Iterable[TokenValue]
        Any iterable; never materialised beyond one batch.
    size : int
        Maximum items per yielded list (must be >= 1).

    Yields
    ------
    list
        Consecutive batches preserving input order.
    """
    if size < 1:
        raise HistogramError(f"batch size must be >= 1, got {size}")
    if isinstance(values, (list, tuple)):
        if len(values) <= size and isinstance(values, list):
            if values:
                yield values
            return
        for start in range(0, len(values), size):
            batch = values[start : start + size]
            yield batch if isinstance(batch, list) else list(batch)
        return
    batch: list = []
    append = batch.append
    for value in values:
        append(value)
        if len(batch) >= size:
            yield batch
            batch = []
            append = batch.append
    if batch:
        yield batch


class StreamingHistogramBuilder:
    """Incremental builder of a :class:`~repro.core.histogram.TokenHistogram`.

    Accumulates token counts from any number of chunks, iterators or
    pre-counted partial histograms, then materialises the exact histogram
    the one-shot constructor would have produced over the concatenated
    stream. Builders are mergeable, so ingestion parallelises: count
    shards independently, then :meth:`merge` the partials.

    Parameters
    ----------
    chunk_size : int, optional
        Internal batch size used when draining lazy iterators (default
        :data:`DEFAULT_CHUNK_SIZE`). Smaller values tighten the transient
        memory bound; larger values amortise per-batch overhead.

    Examples
    --------
    >>> builder = StreamingHistogramBuilder()
    >>> builder.add_tokens(["a", "b", "a"])
    >>> builder.add_tokens(iter(["b", "a"]))
    >>> builder.build().as_dict()
    {'a': 3, 'b': 2}
    """

    __slots__ = ("_counts", "_total", "_chunks", "chunk_size")

    def __init__(self, *, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if chunk_size < 1:
            raise HistogramError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size
        self._counts: Counter = Counter()
        self._total = 0
        self._chunks = 0

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def add(self, token: TokenValue, count: int = 1) -> None:
        """Record ``count`` appearances of a single token.

        Parameters
        ----------
        token : TokenValue
            The token value; canonicalised exactly like the one-shot
            constructors (:func:`repro.core.tokens.canonical_token`).
        count : int, optional
            Number of appearances to add (default 1, must be >= 0).
        """
        if count < 0:
            raise HistogramError(
                f"cannot ingest a negative count for {token!r}: {count}"
            )
        if count:
            self._counts[canonical_token(token)] += count
            self._total += count

    def add_tokens(self, tokens: Iterable[TokenValue]) -> None:
        """Ingest one chunk (or lazy iterator) of token occurrences.

        The iterable is consumed in internal batches of
        :attr:`chunk_size`, so a generator over a multi-gigabyte file is
        ingested without ever materialising it.

        Parameters
        ----------
        tokens : Iterable[TokenValue]
            Token occurrences, in any order. Non-string values are
            canonicalised exactly like ``TokenHistogram.from_tokens``.
        """
        update = self._counts.update
        for batch in iter_batches(tokens, self.chunk_size):
            update(count_token_batch(batch))
            self._total += len(batch)
            self._chunks += 1

    def add_counts(self, counts: Mapping[TokenValue, int]) -> None:
        """Ingest a pre-counted token->count mapping (a partial histogram).

        Parameters
        ----------
        counts : Mapping[TokenValue, int]
            Partial counts to fold in; values must be non-negative
            integers. Keys are canonicalised.
        """
        for token, count in counts.items():
            if count < 0:
                raise HistogramError(
                    f"cannot ingest a negative count for {token!r}: {count}"
                )
        for token, count in counts.items():
            if count:
                self._counts[canonical_token(token)] += int(count)
                self._total += int(count)
        self._chunks += 1

    # ------------------------------------------------------------------ #
    # Map-reduce combination
    # ------------------------------------------------------------------ #

    def merge(self, other: "StreamingHistogramBuilder") -> "StreamingHistogramBuilder":
        """Fold another builder's partial counts into this one.

        Merging is associative and commutative (token counting is a
        monoid), so any merge tree over the same ingested occurrences
        yields the same final histogram. The other builder is left
        untouched.

        Parameters
        ----------
        other : StreamingHistogramBuilder
            A builder holding partial counts, e.g. from a worker that
            ingested one shard of the stream.

        Returns
        -------
        StreamingHistogramBuilder
            ``self``, for chaining.
        """
        self._counts.update(other._counts)
        self._total += other._total
        self._chunks += other._chunks
        return self

    @classmethod
    def merge_all(
        cls, builders: Iterable["StreamingHistogramBuilder"]
    ) -> "StreamingHistogramBuilder":
        """Combine many partial builders into one (the reduce step).

        Parameters
        ----------
        builders : Iterable[StreamingHistogramBuilder]
            Partial builders, e.g. one per ingestion worker.

        Returns
        -------
        StreamingHistogramBuilder
            A new builder holding the combined counts.
        """
        merged = cls()
        for builder in builders:
            merged.merge(builder)
        return merged

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._counts)

    def __bool__(self) -> bool:
        return self._total > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamingHistogramBuilder({len(self._counts)} distinct tokens, "
            f"{self._total} occurrences, {self._chunks} chunks)"
        )

    @property
    def distinct_tokens(self) -> int:
        """Number of distinct tokens seen so far (the memory bound)."""
        return len(self._counts)

    @property
    def total_count(self) -> int:
        """Total occurrences ingested so far (the stream length)."""
        return self._total

    @property
    def chunks_ingested(self) -> int:
        """Number of chunks / pre-counted mappings folded in so far."""
        return self._chunks

    def partial_counts(self) -> Dict[str, int]:
        """Copy of the current partial token->count state."""
        return dict(self._counts)

    # ------------------------------------------------------------------ #
    # Materialisation
    # ------------------------------------------------------------------ #

    def build(self) -> TokenHistogram:
        """Materialise the histogram of everything ingested so far.

        Returns
        -------
        TokenHistogram
            Bit-identical (same token order, same count array) to
            ``TokenHistogram.from_tokens`` over the concatenation of all
            ingested chunks. The builder remains usable: more chunks can
            be ingested and :meth:`build` called again.

        Raises
        ------
        HistogramError
            If nothing has been ingested yet (a histogram cannot be
            empty).
        """
        if not self._total:
            raise HistogramError("cannot build a histogram from an empty stream")
        return TokenHistogram(self._counts)


def histogram_from_chunks(
    chunks: Iterable[Iterable[TokenValue]],
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> TokenHistogram:
    """One-call streaming ingestion: build a histogram from token chunks.

    Parameters
    ----------
    chunks : Iterable[Iterable[TokenValue]]
        An iterable of token chunks (each itself iterable), e.g. the
        output of :func:`repro.datasets.loaders.iter_token_chunks`.
    chunk_size : int, optional
        Internal batching granularity for lazy chunk iterators.

    Returns
    -------
    TokenHistogram
        Identical to the one-shot histogram over the concatenated chunks.
    """
    builder = StreamingHistogramBuilder(chunk_size=chunk_size)
    for chunk in chunks:
        builder.add_tokens(chunk)
    return builder.build()


def histogram_from_stream(
    tokens: Iterable[TokenValue],
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> TokenHistogram:
    """Build a histogram from one lazy token iterator, in bounded memory.

    Parameters
    ----------
    tokens : Iterable[TokenValue]
        Token occurrences; consumed incrementally, never materialised.
    chunk_size : int, optional
        Internal batching granularity.

    Returns
    -------
    TokenHistogram
        Identical to ``TokenHistogram.from_tokens(list(tokens))``.
    """
    builder = StreamingHistogramBuilder(chunk_size=chunk_size)
    builder.add_tokens(tokens)
    return builder.build()


__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "iter_batches",
    "StreamingHistogramBuilder",
    "histogram_from_chunks",
    "histogram_from_stream",
]
