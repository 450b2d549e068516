"""Reproducible Haar-distributed orthogonal/unitary matrices and uniform permutations.

Every sampler takes a RandomStream: a (seed, stream_index) pair mapped through
numpy's SeedSequence spawn mechanism, so distinct stream indices give
independent draws and the same pair is bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockmat import PermutationWord

__all__ = [
    "RandomStream",
    "haar_orthogonal",
    "haar_unitary",
    "haar_columns",
    "uniform_permutation",
    "top_block",
]


@dataclass(frozen=True)
class RandomStream:
    """Deterministic generator handle: seed picks the experiment, stream_index the substream."""

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        if self.stream_index < 0:
            raise ValueError("stream_index must be nonnegative")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.PCG64(ss))


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RandomStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RandomStream or numpy Generator, got {type(rng).__name__}")


def haar_columns(n: int, k: int, rng, unitary: bool = False) -> np.ndarray:
    """First k columns of a Haar-uniform element of O(n), or of U(n) when unitary.

    QR of an n x k (complex when unitary) Gaussian matrix, with each column of
    Q multiplied by the sign (phase) of the matching diagonal entry of R; the
    correction removes the bias from QR's sign ambiguity (Mezzadri 2007).
    Gram-Schmidt of the first k Gaussian columns ignores the other n - k, so
    the draw costs O(n k^2); k = n gives the whole matrix.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n; got k={k}, n={n}")
    gen = _as_generator(rng)
    z = gen.standard_normal((n, k))
    if unitary:
        z = z + 1j * gen.standard_normal((n, k))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    if unitary:
        return q * (d / np.abs(d))
    return q * np.where(d >= 0, 1.0, -1.0)


def haar_orthogonal(n: int, rng) -> np.ndarray:
    """Haar-uniform element of O(n): ``haar_columns`` with all n columns."""
    return haar_columns(n, n, rng)


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-uniform element of U(n): ``haar_columns`` with all n columns."""
    return haar_columns(n, n, rng, unitary=True)


def uniform_permutation(n: int, rng) -> PermutationWord:
    """Uniform draw from S(n) via Fisher-Yates."""
    if n < 1:
        raise ValueError("n must be positive")
    gen = _as_generator(rng)
    return PermutationWord(gen.permutation(n) + 1)


def top_block(u_full: np.ndarray, k: int) -> np.ndarray:
    """Leading principal k x k sub-block."""
    u_full = np.asarray(u_full)
    if k > u_full.shape[0]:
        raise ValueError(f"k={k} exceeds dimension {u_full.shape[0]}")
    return u_full[:k, :k].copy()
