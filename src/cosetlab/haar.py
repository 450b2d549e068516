"""Reproducible Haar-distributed orthogonal/unitary matrices, their leading
blocks, uniform permutations and their core patterns.

``_block_normals`` and ``_top_blocks`` draw the leading k x k blocks of Haar
elements of O(k+N) or U(k+N), and ``_pattern_draw`` then ``_patterns_at``
the core patterns of uniform permutations of 1..k+N, at a cost that does not
depend on N, so any tail size runs; only ``_patterns_at`` reads N, so a
symmetric sweep draws each chunk once for all its tail sizes.
Every sampler takes a RandomStream: a (seed, stream_index) pair mapped
through numpy's SeedSequence spawn mechanism, so distinct stream indices
give independent draws and the same pair is bit-for-bit reproducible.

The sweeps lay their samples out in chunks of ``_CHUNK`` = 256, and
``_chunk_rows`` alone writes that layout: sample i is row i mod 256 of one
draw of 256 from stream (seed, 1 + i // 256).  A chunk is always drawn
whole, so sample i's numbers depend only on the seed and i, not on the
sample count or on how a sweep splits its work; stream 0 is left to the
setup draws.
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


def _chunk_rows(seed: int, samples: int, draw):
    """(lo, rows) for each chunk of samples 0 .. samples-1, in order: rows are
    samples lo .. lo+n-1, n = min(_CHUNK, samples - lo), the first n rows of
    ``draw(RandomStream(seed, 1 + lo // _CHUNK).generator(), _CHUNK)``, each
    array of a tuple draw cut alike.  A chunk is drawn when it is reached."""
    for lo in range(0, samples, _CHUNK):
        drawn, n = draw(RandomStream(seed, 1 + lo // _CHUNK).generator(), _CHUNK), samples - lo
        yield lo, tuple(a[:n] for a in drawn) if isinstance(drawn, tuple) else drawn[:n]


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RandomStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RandomStream or numpy Generator, got {type(rng).__name__}")


def _block_normals(k: int, N: int, gen, unitary: bool = False, count: int = 1) -> np.ndarray:
    """The Gaussians of count leading k x k blocks of Haar-uniform elements of
    O(k+N), or of U(k+N) when unitary, as a (count, k + min(N, k), k) array z;
    ``_top_blocks(z, N, unitary)`` turns it into the blocks.

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


def _top_blocks(z: np.ndarray, N: int, unitary: bool = False) -> np.ndarray:
    """Leading k = z.shape[-1] rows of the sign-fixed Q factors of the stack z,
    a ``_block_normals`` draw at tail size N, each column times the sign
    (phase) of R's matching diagonal entry.

    For N <= k they are the top of the Householder Q, which keeps a whole
    element (N = 0) orthogonal to rounding: its block's norm reads 1.0, where
    Z1 R^-1, erring by cond(Z1) times the rounding unit, gives
    1.0000000000000002.  For N > k the Bartlett tail outgrows Z1 and the Q
    read, whose top rows come from 1 - tau with tau near 1, errs by about
    1e-16 sqrt(N) relative; there they are Z1 R^-1 from the same QR's R (one
    solve), within 6e-16 of 60-digit arithmetic at every N measured (k + 1
    to 10^30)."""
    k = z.shape[-1]
    if N <= k:
        q, r = np.linalg.qr(z)
        top = q[:, :k]
    else:  # Z1 R^-1 as the solve of R^T X^T = Z1^T
        r = np.linalg.qr(z, mode="r")
        top = np.linalg.solve(r.swapaxes(1, 2), z[:, :k].swapaxes(1, 2)).swapaxes(1, 2)
    d = np.diagonal(r, axis1=-2, axis2=-1)[:, None, :]
    return top * (d / np.abs(d) if unitary else np.where(d >= 0, 1.0, -1.0))


def haar_orthogonal(n: int, rng) -> np.ndarray:
    """Haar-uniform element of O(n): one ``_block_normals`` draw with no tail."""
    return _top_blocks(_block_normals(n, 0, rng), 0)[0]


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-uniform element of U(n): one ``_block_normals`` draw with no tail."""
    return _top_blocks(_block_normals(n, 0, rng, True), 0, True)[0]


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
    """The part of count core patterns that does not depend on the tail size
    (``_patterns_at`` turns it into the patterns at any N): each row's 2k
    uniforms u, as (u_0..u_k-1, argsort(u_k..u_2k-1) + 1)."""
    u = gen.random((count, 2 * k))
    return u[:, :k], np.argsort(u[:, k:], axis=1) + 1


def _patterns_at(k: int, N: int, drawn) -> np.ndarray:
    """The core patterns at tail size N of a ``_pattern_draw`` (u, order), as a
    (count, k) int64 array: in law, ``cosets.core_images`` of k distinct
    images of 1..k+N in uniform random order, up to the 2^-53 grid of the
    uniforms, for any N below 2^1023 - 2^969 (``blockmat.tail_sizes``).
    Position j, after t tail images, takes the next tail slot k+1+t when
    u_j.(N+k-j) >= k-j+t, so an image at most k with probability
    (k-j+t)/(N+k-j), as a uniform image not yet taken would; else its own
    entry of the row's uniform order."""
    u, order = drawn
    rows, t = np.empty(order.shape, dtype=np.int64), 0  # t: tail images so far
    for j in range(k):
        tail = u[:, j] * float(N + k - j) >= k - j + t
        rows[:, j] = np.where(tail, k + 1 + t, order[:, j])
        t = t + tail
    return rows
