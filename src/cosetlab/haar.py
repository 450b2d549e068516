"""Reproducible Haar-distributed orthogonal/unitary matrices, their leading
blocks, and uniform permutations.

``haar_block_stack`` draws the leading k x k block of a Haar element of
O(k+N) or U(k+N) at a cost that does not depend on N, so any tail size runs.
Every sampler takes a RandomStream: a (seed, stream_index) pair mapped through
numpy's SeedSequence spawn mechanism, so distinct stream indices give
independent draws and the same pair is bit-for-bit reproducible.

The sweeps build one stream per sample.  ``_stream_generators`` yields those
streams' generators for many indices at once, each bit-for-bit the
generator of ``RandomStream(seed, i)``: it runs numpy's SeedSequence hash
over a chunk of indices as integer array arithmetic.  Seeds of 2^128 and up
and indices of 2^32 and up take ``RandomStream.generator`` itself.
"""

from __future__ import annotations

import functools
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


# numpy's SeedSequence hash (O'Neill's seed_seq_fe, numpy.random.bit_generator).
# SeedSequence(seed, spawn_key=(i,)) pads a seed below 2^128 to its 4-word pool
# and mixes it just as SeedSequence(seed) does, with entries 0-16 of the
# INIT_A/MULT_A multiplier chain; an index below 2^32 is one more word, hashed
# into each pool word with entries 16-20.  generate_state(4, uint64) hashes the
# pool twice round with entries 0-8 of the INIT_B/MULT_B chain.  The chains do
# not depend on the data, so they are fixed here.
_MASK32 = 0xFFFFFFFF
_CHUNK = 256  # indices hashed per array pass; the generators are built one at a time


def _chain(init, mult, count):
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


_SPAWN_CONST = np.array(_chain(0x43B0D7E5, 0x931E8875, 20)[16:], dtype=np.uint32)
_STATE_CONST = np.array(_chain(0x8B51F9DD, 0x58F38DED, 8), dtype=np.uint32)


def _hash(value, xor, mult):
    """Elementwise ``(value ^ xor) * mult``, then ``^= >> 16``, mod 2^32."""
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


@functools.cache
def _fixed_words_type():
    """An ISeedSequence that hands PCG64 precomputed state words.  Built on
    first use, so importing this module does not load numpy.random."""

    class FixedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return FixedWords


def _stream_generators(seed: int, indices):
    """Generators equal, state for state, to ``RandomStream(seed, i).generator()``
    for each i of the sequence indices, built lazily in order.

    Raises ValueError, as RandomStream does, for a negative seed on the first
    request and for a negative index on reaching its chunk."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative; got {seed}")
    if seed >= 1 << 128:
        yield from (RandomStream(seed, i).generator() for i in indices)
        return
    # mix(x, y) = (L x - R y) ^ >> 16, x the seed's pool word, y the hashed index
    mixed = np.random.SeedSequence(seed).pool * np.uint32(0xCA01F9DD)
    words_type = _fixed_words_type()
    for lo in range(0, len(indices), _CHUNK):
        chunk = indices[lo:lo + _CHUNK]
        if min(chunk) < 0:
            raise ValueError("stream_index must be nonnegative")
        if max(chunk) > _MASK32:
            yield from (RandomStream(seed, i).generator() for i in chunk)
            continue
        spawn = _hash(np.array(chunk, dtype=np.uint32)[:, None], _SPAWN_CONST[:-1],
                      _SPAWN_CONST[1:])
        pool_i = mixed - spawn * np.uint32(0x4973F715)
        pool_i ^= pool_i >> np.uint32(16)
        state = _hash(np.tile(pool_i, 2), _STATE_CONST[:-1], _STATE_CONST[1:])
        words = state.astype("<u4").view("<u8").astype(np.uint64)
        for row in words:
            yield np.random.Generator(np.random.PCG64(words_type(row)))


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

