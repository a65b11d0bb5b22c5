"""Loading and saving token datasets and tables.

The watermarking pipeline consumes either a raw token sequence (one token
per line / per row value) or a :class:`TabularDataset`. These helpers read
and write both forms so the CLI and examples can work with files on disk,
and they are the natural extension point for users who want to plug in
their own data sources.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, List, Union

from repro.core.histogram import TokenHistogram
from repro.core.streaming import (
    DEFAULT_CHUNK_SIZE,
    StreamingHistogramBuilder,
    iter_batches,
)
from repro.datasets.tabular import TabularDataset
from repro.exceptions import DatasetError

PathLike = Union[str, Path]


def load_token_file(path: PathLike) -> List[str]:
    r"""Read a token-per-line text file into a token list.

    Line rule, shared with :func:`iter_tokens`: the file is read as
    UTF-8 with universal newlines (``\r\n`` and ``\r`` become ``\n``),
    split on ``\n`` only, each line is stripped of surrounding
    whitespace and blank lines are skipped. Other Unicode line
    boundaries (``\v``, ``\f``, ``\x1c``-``\x1e``, ``\x85``,
    ``\u2028``, ``\u2029``) stay inside their token, so a file
    written by :func:`save_token_file` reads back token for token. This
    is the natural on-disk form for single-dimensional datasets such as
    a list of visited URLs.
    """
    text = Path(path).read_text(encoding="utf-8")
    tokens = list(filter(None, map(str.strip, text.split("\n"))))
    if not tokens:
        raise DatasetError(f"token file {path!s} contains no tokens")
    return tokens


#: Tokens joined into one ``write`` by :func:`save_token_file`; bounds the
#: transient block string while keeping the per-call overhead negligible.
SAVE_BLOCK_TOKENS = 65_536


def save_token_file(tokens: Iterable[str], path: PathLike) -> None:
    r"""Write a token iterable as a token-per-line text file, atomically.

    The tokens are written in ``"\n".join`` blocks of at most
    :data:`SAVE_BLOCK_TOKENS`, so a lazy stream (for example the output
    of :func:`repro.core.transform.apply_deltas_streaming`) is persisted
    in bounded memory. The write goes to a same-directory temporary file
    that replaces ``path`` only on success, so an exception mid-stream
    (or an empty stream, which is rejected) never truncates or corrupts
    a pre-existing file at ``path``.
    """
    path = Path(path)
    scratch = path.with_name(path.name + ".tmp-write")
    iterator = iter(tokens)
    wrote_any = False
    try:
        with scratch.open("w", encoding="utf-8") as handle:
            for block in iter(lambda: list(islice(iterator, SAVE_BLOCK_TOKENS)), []):
                try:
                    text = "\n".join(block)
                except TypeError:
                    text = "\n".join(f"{token}" for token in block)
                handle.write(text)
                handle.write("\n")
                wrote_any = True
        if not wrote_any:
            raise DatasetError(f"refusing to write an empty token file to {path!s}")
        scratch.replace(path)
    finally:
        scratch.unlink(missing_ok=True)


def iter_tokens(path: PathLike) -> Iterator[str]:
    r"""Lazily iterate the tokens of a token-per-line text file.

    The streaming counterpart of :func:`load_token_file`, with the same
    line rule (universal newlines, split on ``\n`` only, strip, skip
    blanks): the file is read line by line but the token list is never
    materialised — memory stays constant regardless of file size.

    Parameters
    ----------
    path : PathLike
        Token-per-line text file.

    Yields
    ------
    str
        One token per non-blank line, in file order.
    """
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            token = line.strip()
            if token:
                yield token


def iter_token_chunks(
    path: PathLike, *, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[List[str]]:
    """Read a token-per-line file as a lazy sequence of token chunks.

    Parameters
    ----------
    path : PathLike
        Token-per-line text file.
    chunk_size : int, optional
        Maximum tokens per yielded chunk (default
        :data:`repro.core.streaming.DEFAULT_CHUNK_SIZE`).

    Yields
    ------
    List[str]
        Consecutive chunks of at most ``chunk_size`` tokens; only one
        chunk is ever resident at a time.
    """
    if chunk_size < 1:
        raise DatasetError(f"chunk_size must be >= 1, got {chunk_size}")
    yield from iter_batches(iter_tokens(path), chunk_size)


def load_histogram_streaming(
    path: PathLike, *, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> TokenHistogram:
    """Build a histogram from a token file without loading it whole.

    Chunked one-pass ingestion through
    :class:`~repro.core.streaming.StreamingHistogramBuilder`: memory is
    bounded by ``chunk_size`` plus one counter per distinct token, and
    the result is bit-identical to
    ``TokenHistogram.from_tokens(load_token_file(path))``.

    Parameters
    ----------
    path : PathLike
        Token-per-line text file.
    chunk_size : int, optional
        Tokens ingested per chunk.

    Returns
    -------
    TokenHistogram
        The descending-frequency histogram of the file.
    """
    builder = StreamingHistogramBuilder(chunk_size=chunk_size)
    for chunk in iter_token_chunks(path, chunk_size=chunk_size):
        builder.add_tokens(chunk)
    if not builder:
        raise DatasetError(f"token file {path!s} contains no tokens")
    return builder.build()


def load_histogram_json(path: PathLike) -> TokenHistogram:
    """Read a token->count JSON mapping into a :class:`TokenHistogram`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise DatasetError(f"histogram file {path!s} must contain a JSON object")
    return TokenHistogram.from_counts({str(key): int(value) for key, value in payload.items()})


def save_histogram_json(histogram: TokenHistogram, path: PathLike) -> None:
    """Write a histogram as a token->count JSON mapping."""
    Path(path).write_text(
        json.dumps(histogram.as_dict(), indent=2, sort_keys=True), encoding="utf-8"
    )


def load_table_csv(path: PathLike) -> TabularDataset:
    """Read a CSV file into a :class:`TabularDataset`."""
    return TabularDataset.from_csv(Path(path))


def save_table_csv(dataset: TabularDataset, path: PathLike) -> None:
    """Write a :class:`TabularDataset` to a CSV file."""
    dataset.to_csv(Path(path))


def tokens_from_table(
    dataset: TabularDataset, token_columns: List[str]
) -> List[str]:
    """Project a table onto (possibly composite) tokens.

    Single-column projections return the stringified column values;
    multi-column projections compose the values with
    :func:`repro.core.tokens.compose_token`.
    """
    from repro.core.tokens import compose_token

    if not token_columns:
        raise DatasetError("token_columns must name at least one column")
    if len(token_columns) == 1:
        return [str(value) for value in dataset.column(token_columns[0])]
    return [
        compose_token(tuple(str(row[column]) for column in token_columns))
        for row in dataset
    ]


__all__ = [
    "load_token_file",
    "save_token_file",
    "iter_tokens",
    "iter_token_chunks",
    "load_histogram_streaming",
    "load_histogram_json",
    "save_histogram_json",
    "load_table_csv",
    "save_table_csv",
    "tokens_from_table",
]
