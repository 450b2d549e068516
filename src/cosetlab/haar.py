"""Reproducible Haar-distributed orthogonal/unitary matrices, their leading
blocks, uniform permutations and their core patterns.

``_block_normals`` and ``_top_blocks`` draw the leading k x k blocks of Haar
elements of O(k+N) or U(k+N), and ``_core_patterns`` the core patterns of
uniform permutations of 1..k+N, at a cost that does not depend on N, so any
tail size runs.  Of a core pattern only the tail thresholds depend on N:
``_core_patterns`` is ``_pattern_draw`` (the uniforms and their order) then
``_patterns_at`` (the threshold pass at one N), so a symmetric sweep draws
each chunk once and derives its patterns at every N from that one draw.
Every sampler takes a RandomStream: a (seed, stream_index) pair mapped
through numpy's SeedSequence spawn mechanism, so distinct stream indices
give independent draws and the same pair is bit-for-bit reproducible.

The sweeps lay their samples out in chunks of ``_CHUNK`` = 256
(``_sample_rows``): sample i is row i mod 256 of one draw of 256 from stream
(seed, 1 + i // 256).  A chunk is always drawn whole, so sample i's numbers
depend only on the seed and i, not on the sample count or on how a sweep
splits its work; stream 0 is left to the setup draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockmat import BlockMatrix, PermutationWord

__all__ = [
    "RandomStream",
    "haar_orthogonal",
    "haar_unitary",
    "uniform_permutation",
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


_CHUNK = 256  # samples per stream in the sweeps' layout


def _chunk_streams(seed: int, samples: int):
    """(first sample lo, samples n, generator) of each chunk of samples
    0 .. samples-1 in order: samples lo .. lo+n-1, n = min(_CHUNK, samples - lo),
    are the first n rows of a draw of _CHUNK from stream (seed, 1 + lo // _CHUNK)."""
    for lo in range(0, samples, _CHUNK):
        yield lo, min(_CHUNK, samples - lo), RandomStream(seed, 1 + lo // _CHUNK).generator()


def _sample_rows(seed: int, samples: int, draw):
    """Yield the rows of samples 0 .. samples-1 in order, one whole chunk at a
    time (the last cut to the samples left): sample i's row is row i % _CHUNK of
    ``draw(RandomStream(seed, 1 + i // _CHUNK).generator(), _CHUNK)``."""
    for _, n, gen in _chunk_streams(seed, samples):
        yield draw(gen, _CHUNK)[:n]


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RandomStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RandomStream or numpy Generator, got {type(rng).__name__}")


def _block_normals(k: int, N: int, gen, unitary: bool = False, count: int = 1) -> np.ndarray:
    """The Gaussians of count leading k x k blocks of Haar-uniform elements of
    O(k+N), or of U(k+N) when unitary, as a (count, k + min(N, k), k) array z;
    ``_top_blocks(z, unitary)`` turns it into the blocks.

    Each block is the top of Q from a QR of the Gaussian Z = [Z1; Z2]
    (complex when unitary, with unit-normal real and imaginary parts), each
    column of Q times the sign (phase) of R's matching diagonal entry, which
    removes QR's sign bias (Mezzadri 2007).  That top is Z1 R^-1 with
    R^* R = Z1^* Z1 + Z2^* Z2, so Z2 enters only through Z2^* Z2.  For N <= k,
    Z2 is the N x k Gaussian itself; for N > k it is the k x k upper
    triangular Bartlett factor of that Wishart matrix (Bartlett 1933), with
    T_jj = sqrt(chi^2_{beta (N - j)}), beta = 1 (real) or 2 (complex), and
    Gaussians above the diagonal.  So a draw costs O(k^3) at any N.

    gen draws the Gaussians of the count Z's, draw by draw and row by row,
    real parts first, then for N > k count chi-square variates for each j.
    N = 0 gives whole Haar elements.
    """
    if k < 1 or N < 0 or int(k) != k or int(N) != N:
        raise ValueError(f"need integers k >= 1 and N >= 0; got k={k!r}, N={N!r}")
    k, N, gen = int(k), int(N), _as_generator(gen)
    normals = gen.standard_normal((count, 2 if unitary else 1, k + min(N, k), k))
    z = normals[:, 0] + 1j * normals[:, 1] if unitary else normals[:, 0]
    if N > k:  # Z2 becomes T: zeros below the diagonal, chi roots on it
        chi2 = [gen.chisquare((2 if unitary else 1) * (N - j), size=count) for j in range(k)]
        z[:, k:] = np.triu(z[:, k:])
        z[:, k + np.arange(k), np.arange(k)] = np.sqrt(chi2).T
    return z


def _top_blocks(z: np.ndarray, unitary: bool = False) -> np.ndarray:
    """Leading z.shape[-1] rows of the sign-fixed Q factors of the stack z."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)[:, None, :]
    return q[:, :z.shape[-1]] * (d / np.abs(d) if unitary else np.where(d >= 0, 1.0, -1.0))


def haar_orthogonal(n: int, rng) -> np.ndarray:
    """Haar-uniform element of O(n): one ``_block_normals`` draw with no tail."""
    return _top_blocks(_block_normals(n, 0, rng))[0]


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-uniform element of U(n): one ``_block_normals`` draw with no tail."""
    return _top_blocks(_block_normals(n, 0, rng, True), True)[0]


def uniform_permutation(n: int, rng) -> PermutationWord:
    """Uniform draw from S(n) via Fisher-Yates."""
    if n < 1:
        raise ValueError("n must be positive")
    gen = _as_generator(rng)
    return PermutationWord(gen.permutation(n) + 1)


def _draw(kind: str, n: int, rng) -> BlockMatrix:
    """One random element of degree n: Haar on O(n) for kind "orthogonal", on
    U(n) for "unitary", uniform on S(n) (kept exact) for "permutation"."""
    if kind == "permutation":
        return BlockMatrix.from_permutation(uniform_permutation(n, rng))
    return BlockMatrix((haar_unitary if kind == "unitary" else haar_orthogonal)(n, rng))


def _pattern_draw(k: int, gen: np.random.Generator, count: int):
    """The part of count core patterns that does not depend on the tail size:
    each row's 2k uniforms u, as (u_0..u_k-1, argsort(u_k..u_2k-1) + 1).
    ``_patterns_at`` turns it into the patterns at any N, so a sweep draws a
    chunk once for all its tail sizes."""
    u = gen.random((count, 2 * k))
    return u[:, :k], np.argsort(u[:, k:], axis=1) + 1


def _patterns_at(k: int, N: int, drawn) -> np.ndarray:
    """The core patterns at tail size N of a ``_pattern_draw`` (u, order), as a
    (count, k) int64 array.  Position j, after t tail images, takes the next
    tail slot k+1+t when u_j.(N+k-j) >= k-j+t, so an image at most k with
    probability (k-j+t)/(N+k-j), as a uniform image not yet taken would; else
    its own entry of the row's uniform order."""
    u, order = drawn
    rows, t = np.empty(order.shape, dtype=np.int64), 0  # t: tail images so far
    for j in range(k):
        tail = u[:, j] * float(N + k - j) >= k - j + t
        rows[:, j] = np.where(tail, k + 1 + t, order[:, j])
        t = t + tail
    return rows


def _core_patterns(k: int, N: int, gen: np.random.Generator, count: int) -> np.ndarray:
    """count symmetric core patterns at tail size N as a (count, k) int64
    array: in law, ``cosets.core_images`` of k distinct images of 1..k+N in
    uniform random order, up to the 2^-53 grid of the uniforms, for any N
    below 2^1023 - 2^969 (``blockmat.tail_sizes``).  The patterns at N of
    one ``_pattern_draw`` of count rows (``_patterns_at``)."""
    return _patterns_at(k, N, _pattern_draw(k, gen, count))
