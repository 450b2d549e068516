"""Reproducible Haar-distributed orthogonal/unitary matrices, their leading
blocks, and uniform permutations.

``haar_block_stack`` draws the leading k x k block of a Haar element of
O(k+N) or U(k+N) at a cost that does not depend on N, so any tail size runs.
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
    "haar_block_stack",
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


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RandomStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RandomStream or numpy Generator, got {type(rng).__name__}")


def haar_block_stack(k: int, N: int, gens, unitary: bool = False) -> np.ndarray:
    """Leading k x k blocks of Haar-uniform elements of O(k+N), or of U(k+N)
    when unitary, one per gen in gens, as a (len(gens), k, k) array.

    Each block is the top of Q from a QR of the Gaussian Z = [Z1; Z2]
    (complex when unitary, with unit-normal real and imaginary parts), each
    column of Q times the sign (phase) of R's matching diagonal entry, which
    removes QR's sign bias (Mezzadri 2007).  That top is Z1 R^-1 with
    R^* R = Z1^* Z1 + Z2^* Z2, so Z2 enters only through Z2^* Z2.  For N <= k,
    Z2 is the N x k Gaussian itself; for N > k it is the k x k upper
    triangular Bartlett factor of that Wishart matrix (Bartlett 1933), with
    T_jj = sqrt(chi^2_{beta (N - j)}), beta = 1 (real) or 2 (complex), and
    Gaussians above the diagonal.  So a draw costs O(k^3) at any N.

    Each generator draws in list order: Gaussians for every entry of Z, row
    by row, real parts first, then for N > k its k chi-square variates; a
    generator listed twice draws twice.  One stacked QR serves the stack.
    N = 0 gives whole Haar elements.
    """
    if k < 1 or N < 0 or int(k) != k or int(N) != N:
        raise ValueError(f"need integers k >= 1 and N >= 0; got k={k!r}, N={N!r}")
    k, N = int(k), int(N)
    gens = [_as_generator(rng) for rng in gens]
    if not gens:
        return np.empty((0, k, k), complex if unitary else float)
    normals = np.empty((len(gens), 2 if unitary else 1, k + min(N, k), k))
    chi2 = np.empty((len(gens), k))
    dof = [(2 if unitary else 1) * (N - j) for j in range(k)]  # scalar calls: an array costs 10x
    for i, gen in enumerate(gens):
        gen.standard_normal(out=normals[i])
        if N > k:
            chi2[i] = [gen.chisquare(df) for df in dof]
    z = normals[:, 0] + 1j * normals[:, 1] if unitary else normals[:, 0]
    if N > k:  # Z2 becomes T: zeros below the diagonal, chi roots on it
        for j in range(k):
            z[:, k + j, :j] = 0
            z[:, k + j, j] = np.sqrt(chi2[:, j])
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)[:, None, :]
    return q[:, :k] * (d / np.abs(d) if unitary else np.where(d >= 0, 1.0, -1.0))


def haar_orthogonal(n: int, rng) -> np.ndarray:
    """Haar-uniform element of O(n): ``haar_block_stack`` with no tail."""
    return haar_block_stack(n, 0, [rng])[0]


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-uniform element of U(n): ``haar_block_stack`` with no tail."""
    return haar_block_stack(n, 0, [rng], unitary=True)[0]


def uniform_permutation(n: int, rng) -> PermutationWord:
    """Uniform draw from S(n) via Fisher-Yates."""
    if n < 1:
        raise ValueError("n must be positive")
    gen = _as_generator(rng)
    return PermutationWord(gen.permutation(n) + 1)

