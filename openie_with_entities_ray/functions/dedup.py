"""Deduplication kernels: shingles, MinHash, SimHash, n-gram Jaccard.

Pure numpy/deterministic; the distributed shapes (explode → groupby →
verify) live in stages/dataops.py. Seeded so every run at any parallelism
produces identical signatures.
"""

from __future__ import annotations

import hashlib
import numpy as np

_MERSENNE = (1 << 61) - 1


def _shingle_hash(s: str) -> int:
    """32-bit shingle hash from md5: little-endian uint64 of the LAST 8
    digest bytes, masked to 32 bits — bit-identical to DuckDB's
    ``md5_number_lower(s) & 0xFFFFFFFF`` so SQL oracles reproduce it.
    Staying under 2^32 keeps a*x+b < 2^63 in the universal hash."""
    return (
        int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[8:], "little")
        & 0xFFFFFFFF
    )


def shingles(text: str, k: int = 3):
    """Word k-gram shingle set as stable (md5-derived) uint64 hashes."""
    words = text.split()
    if len(words) < k:
        items = [" ".join(words)] if words else []
    else:
        items = [" ".join(words[i : i + k]) for i in range(len(words) - k + 1)]
    return np.unique(
        np.array([_shingle_hash(s) for s in items], dtype=np.uint64)
    )


def _perm_params(num_perm: int, seed: int):
    # a, b < 2^31 and shingle hashes < 2^32 keep a*x + b < 2^63, so the
    # uint64 arithmetic never wraps before the mod-p reduction and the
    # (a*x + b) mod p universal-hash guarantee actually holds
    rng = np.random.RandomState(seed)
    bound = 1 << 31
    a = rng.randint(1, bound, size=num_perm, dtype=np.int64).astype(np.uint64)
    b = rng.randint(0, bound, size=num_perm, dtype=np.int64).astype(np.uint64)
    return a, b


class MinHasher:
    """(a*x + b) mod p universal-hash MinHash; vectorized over shingles."""

    def __init__(self, num_perm: int = 128, seed: int = 7, k: int = 3):
        self.num_perm = num_perm
        self.k = k
        self.a, self.b = _perm_params(num_perm, seed)

    def signature(self, text: str) -> np.ndarray:
        sh = shingles(text, self.k)
        if len(sh) == 0:
            return np.full(self.num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        # (num_perm, n_shingles) via broadcasting, all mod-p arithmetic
        vals = (
            self.a[:, None] * sh[None, :] + self.b[:, None]
        ) % np.uint64(_MERSENNE)
        return vals.min(axis=1)

    def band_hashes(self, signature: np.ndarray, num_bands: int = 16):
        """LSH: split the signature into bands, key each band.

        The band key is the dash-joined decimal signature values (not an
        opaque byte hash) so a SQL oracle can rebuild the identical key
        with ``string_agg(value, '-' ORDER BY perm)``."""
        rows = self.num_perm // num_bands
        out = []
        for band in range(num_bands):
            chunk = signature[band * rows : (band + 1) * rows]
            out.append((band, "-".join(str(int(v)) for v in chunk)))
        return out


def minhash_jaccard_estimate(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    return float(np.mean(sig_a == sig_b))


def jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    """Exact n-gram Jaccard (verification step after LSH candidates)."""
    a, b = shingles(text_a, k), shingles(text_b, k)
    if len(a) == 0 and len(b) == 0:
        return 1.0
    inter = len(np.intersect1d(a, b, assume_unique=True))
    union = len(a) + len(b) - inter
    return inter / union if union else 0.0


def simhash64(text: str) -> int:
    """64-bit SimHash over word features (md5-derived bit vectors)."""
    words = text.split()
    if not words:
        return 0
    acc = np.zeros(64, dtype=np.int64)
    ones = np.arange(64, dtype=np.uint64)
    for w in set(words):
        h = int.from_bytes(hashlib.md5(w.encode("utf-8")).digest()[:8], "little")
        bits = (np.uint64(h) >> ones) & np.uint64(1)
        acc += np.where(bits == 1, 1, -1)
    out = 0
    for i in range(64):
        if acc[i] > 0:
            out |= 1 << i
    return out


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")
