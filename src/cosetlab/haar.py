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
    "haar_columns_stack",
    "uniform_permutation",
    "top_block",
]


@dataclass(frozen=True)
class RandomStream:
    """Deterministic generator handle: seed picks the experiment, stream_index the substream."""

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative; got {self.seed}")
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


def haar_columns_stack(n: int, k: int, gens, unitary: bool = False, rows: int | None = None,
                       block_bytes: int | None = None) -> np.ndarray:
    """``haar_columns(n, k, gen, unitary)`` for each gen in gens, as one
    (len(gens), rows, k) array holding each draw's leading rows (all n by
    default), bit for bit.

    Each generator draws its Gaussians as ``haar_columns`` does, in list
    order, so a generator listed twice draws twice.  One stacked QR and sign
    fix then runs per chunk of draws.  A chunk holds as many draws as fit in
    block_bytes, and at least one; a draw takes four n x k arrays there (its
    Gaussians and what the QR allocates, by tracemalloc).  None runs every
    draw in one chunk.  With rows < n only the leading rows are kept, so for
    a given budget memory does not grow with the number of draws.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n; got k={k}, n={n}")
    rows = n if rows is None else rows
    if not 1 <= rows <= n:
        raise ValueError(f"need 1 <= rows <= n; got rows={rows}, n={n}")
    dtype = np.dtype(complex if unitary else float)
    gens = [_as_generator(rng) for rng in gens]
    out = np.empty((len(gens), rows, k), dtype=dtype)
    per_draw = 4 * n * k * dtype.itemsize
    chunk = max(1, len(gens) if block_bytes is None else block_bytes // per_draw)
    for lo in range(0, len(gens), chunk):
        part = gens[lo:lo + chunk]
        z = np.empty((len(part), n, k), dtype=dtype)
        for zi, gen in zip(z, part):
            if unitary:
                zi.real = gen.standard_normal((n, k))
                zi.imag = gen.standard_normal((n, k))
            else:
                zi[...] = gen.standard_normal((n, k))
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=-2, axis2=-1)[:, None, :]
        out[lo:lo + len(part)] = q[:, :rows] * (d / np.abs(d) if unitary
                                                else np.where(d >= 0, 1.0, -1.0))
    return out


def haar_columns(n: int, k: int, rng, unitary: bool = False) -> np.ndarray:
    """First k columns of a Haar-uniform element of O(n), or of U(n) when unitary.

    QR of an n x k (complex when unitary) Gaussian matrix, with each column of
    Q multiplied by the sign (phase) of the matching diagonal entry of R; the
    correction removes the bias from QR's sign ambiguity (Mezzadri 2007).
    Gram-Schmidt of the first k Gaussian columns ignores the other n - k, so
    the draw costs O(n k^2); k = n gives the whole matrix.  This is
    ``haar_columns_stack`` on a stack of one.
    """
    return haar_columns_stack(n, k, [rng], unitary)[0]


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
