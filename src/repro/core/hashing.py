"""Cryptographic hashing primitives for FreqyWM.

The paper derives a per-pair modulus ``s_ij`` from a keyed, nested hash::

    s_ij = H(tk_i || H(R || tk_j)) mod z

where ``H`` is a collision-resistant hash (SHA-256 in the paper's
implementation), ``R`` is a high-entropy secret sampled once per
watermark, ``z`` caps the modulus, and ``||`` denotes concatenation. The
nesting makes ``s_ij`` order-sensitive — swapping the pair members yields
an unrelated value — which matters because the pair is stored with its
higher-frequency member first.

This module exposes that construction plus small helpers for serialising
secrets. Everything is pure and deterministic so watermark detection can
recompute exactly the same moduli years later from the stored secret list.
"""

from __future__ import annotations

import hashlib
import hmac
import sys
from typing import Callable, List, Sequence

#: Security parameter (output bits of the hash) used throughout the paper.
DEFAULT_SECURITY_BITS = 256

#: Byte used to separate fields before hashing so that concatenation is
#: unambiguous (``"ab" || "c"`` cannot collide with ``"a" || "bc"``).
_FIELD_SEPARATOR = b"\x00"

HashFunction = Callable[[bytes], bytes]


def sha256_hash(data: bytes) -> bytes:
    """SHA-256 digest of ``data`` — the paper's instantiation of ``H``."""
    return hashlib.sha256(data).digest()


def _encode(value: "str | bytes | int") -> bytes:
    """Encode a secret component or token into bytes for hashing."""
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode("utf-8")
    if isinstance(value, int):
        # Fixed-width little-endian-free encoding: decimal string keeps the
        # construction readable and portable across platforms.
        return str(value).encode("ascii")
    raise TypeError(f"cannot encode {type(value)!r} for hashing")


def digest_to_int(digest: bytes) -> int:
    """Interpret a hash digest as a non-negative big-endian integer."""
    return int.from_bytes(digest, "big")


def pair_modulus(
    token_i: str,
    token_j: str,
    secret: int,
    z: int,
    *,
    hash_function: HashFunction = sha256_hash,
) -> int:
    """Compute ``s_ij = H(tk_i || H(R || tk_j)) mod z``.

    Parameters
    ----------
    token_i, token_j:
        Canonical token strings; ``token_i`` is the higher-frequency member
        of the pair by convention.
    secret:
        The high-entropy watermarking secret ``R`` as an integer.
    z:
        Upper cap on the modulus; the result lies in ``[0, z)``. Values of
        0 or 1 returned here make the pair unusable (modulo 0 is undefined
        and everything is congruent mod 1), which the eligibility stage
        filters out.
    hash_function:
        Alternative hash, mainly for testing; defaults to SHA-256.
    """
    if z < 2:
        raise ValueError(f"modulus cap z must be at least 2, got {z}")
    inner = hash_function(_encode(secret) + _FIELD_SEPARATOR + _encode(token_j))
    outer = hash_function(_encode(token_i) + _FIELD_SEPARATOR + inner)
    return digest_to_int(outer) % z


class PairModulusCache:
    """Memoised ``s_ij`` derivation for one ``(R, z)`` pair.

    The nested construction ``H(tk_i || H(R || tk_j))`` repeats the inner
    hash for every pair sharing the same second member, and repeats both
    hashes entirely when the same pair is scanned again — which is exactly
    what happens when many datasets are watermarked under one owner secret
    (per-buyer copies, corpus snapshots, shards). The cache memoises the
    inner digests per second token and the final modulus per ordered pair,
    so a batch embedding run pays each SHA-256 derivation once.

    Values are bit-identical to :func:`pair_modulus` by construction — the
    cache only skips *recomputation*, never changes the arithmetic — which
    is what lets :meth:`repro.core.generator.WatermarkGenerator.generate_many`
    share one cache across a whole batch while staying exactly equal to
    the sequential path.

    Memory stays bounded even when one owner secret is applied to an
    endless stream of *different* vocabularies: past ``max_entries``
    memoised pairs the cache resets (epoch-style — cheaper and simpler
    than per-entry LRU, and a workload that overflows it has little
    cross-dataset overlap to lose anyway).

    Parameters
    ----------
    secret:
        The high-entropy watermarking secret ``R``.
    z:
        The modulus cap (must be >= 2, as for :func:`pair_modulus`).
    hash_function:
        Alternative hash, mainly for testing; defaults to SHA-256.
    max_entries:
        Pair memo count that triggers a reset (``None`` disables).
    """

    #: Default pair-memo bound (~100 MB of dict at worst).
    DEFAULT_MAX_ENTRIES = 1_000_000

    __slots__ = (
        "secret",
        "z",
        "max_entries",
        "_hash",
        "_inner",
        "_moduli",
        "hits",
        "misses",
        "resets",
    )

    def __init__(
        self,
        secret: int,
        z: int,
        *,
        hash_function: HashFunction = sha256_hash,
        max_entries: "int | None" = DEFAULT_MAX_ENTRIES,
    ) -> None:
        if z < 2:
            raise ValueError(f"modulus cap z must be at least 2, got {z}")
        self.secret = secret
        self.z = z
        self.max_entries = max_entries
        self._hash = hash_function
        self._inner: dict = {}
        self._moduli: dict = {}
        self.hits = 0
        self.misses = 0
        self.resets = 0

    def __len__(self) -> int:
        return len(self._moduli)

    def modulus(self, token_i: str, token_j: str) -> int:
        """``pair_modulus(token_i, token_j, R, z)``, memoised."""
        key = (token_i, token_j)
        value = self._moduli.get(key)
        if value is not None:
            self.hits += 1
            return value
        self.misses += 1
        inner = self._inner.get(token_j)
        if inner is None:
            inner = self._hash(
                _encode(self.secret) + _FIELD_SEPARATOR + _encode(token_j)
            )
            self._inner[token_j] = inner
        outer = self._hash(_encode(token_i) + _FIELD_SEPARATOR + inner)
        value = digest_to_int(outer) % self.z
        if self.max_entries is not None and len(self._moduli) >= self.max_entries:
            self._moduli.clear()
            self._inner.clear()
            self.resets += 1
        self._moduli[key] = value
        return value

    def row_moduli(self, token_i: str, tokens_j: Sequence[str]) -> List[int]:
        """``[self.modulus(token_i, token_j) for token_j in tokens_j]``, faster.

        One row of the pair scan. With the default SHA-256 the outer
        prefix ``tk_i || 0x00`` is absorbed once into a ``hashlib`` state
        that is ``.copy()``-ed per missing pair, so each pair pays one
        digest of the 32-byte inner hash instead of re-hashing
        ``tk_i``. The pair memo, the ``hits``/``misses``/``resets``
        counts and the ``max_entries`` reset behave exactly as the
        per-pair path; an injected ``hash_function`` takes that path.
        """
        if self._hash is not sha256_hash:
            modulus = self.modulus
            return [modulus(token_i, token_j) for token_j in tokens_j]
        moduli = self._moduli
        memo_get = moduli.get
        inner_of = self._inner
        z = self.z
        limit = sys.maxsize if self.max_entries is None else self.max_entries
        secret_prefix = _encode(self.secret) + _FIELD_SEPARATOR
        from_bytes = int.from_bytes
        outer_state = None
        misses = 0
        values: List[int] = []
        append = values.append
        for token_j in tokens_j:
            key = (token_i, token_j)
            value = memo_get(key)
            if value is None:
                misses += 1
                inner = inner_of.get(token_j)
                if inner is None:
                    inner = hashlib.sha256(secret_prefix + _encode(token_j)).digest()
                    inner_of[token_j] = inner
                if outer_state is None:
                    outer_state = hashlib.sha256(_encode(token_i) + _FIELD_SEPARATOR).copy
                outer = outer_state()
                outer.update(inner)
                value = from_bytes(outer.digest(), "big") % z
                if len(moduli) >= limit:
                    moduli.clear()
                    inner_of.clear()
                    self.resets += 1
                moduli[key] = value
            append(value)
        self.misses += misses
        self.hits += len(values) - misses
        return values

    def matches(self, secret: int, z: int) -> bool:
        """Whether this cache was built for exactly ``(secret, z)``."""
        return self.secret == secret and self.z == z


def keyed_fingerprint(secret: int, *fields: "str | bytes | int") -> str:
    """HMAC-SHA256 fingerprint of ``fields`` under ``secret``.

    Used by the watermark registry and the re-watermarking defence to
    commit to a watermark description without revealing the secret.
    """
    key = _encode(secret)
    message = _FIELD_SEPARATOR.join(_encode(field) for field in fields)
    return hmac.new(key, message, hashlib.sha256).hexdigest()


def generate_secret(bits: int = DEFAULT_SECURITY_BITS, *, rng=None) -> int:
    """Sample the high-entropy secret ``R`` with ``bits`` bits of entropy.

    With ``rng=None`` the OS CSPRNG is used (the secure default). Passing a
    seed or :class:`numpy.random.Generator` produces a reproducible secret,
    which the experiments rely on; this trades cryptographic strength for
    reproducibility and must not be used to protect real datasets.
    """
    if bits <= 0:
        raise ValueError("secret size in bits must be positive")
    if rng is None:
        import secrets as _secrets

        return _secrets.randbits(bits)
    from repro.utils.rng import random_bigint

    return random_bigint(rng, bits)


__all__ = [
    "DEFAULT_SECURITY_BITS",
    "HashFunction",
    "sha256_hash",
    "digest_to_int",
    "pair_modulus",
    "PairModulusCache",
    "keyed_fingerprint",
    "generate_secret",
]
