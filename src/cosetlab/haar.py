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
over a chunk of indices as integer array arithmetic (``_stream_words``).
Seeds of 2^128 and up and indices of 2^32 and up take
``RandomStream.generator`` itself.  For the symmetric sweep,
``_stream_choices`` goes further: it draws each stream's
``generator().choice(n, k, replace=False)``, bit for bit, with no generator
at all, by running PCG64 and numpy's draw order as array arithmetic.  A lane
whose draw numpy would reject and redraw takes the generator's own
``choice``, as do the seeds and indices above and numpy's tail-shuffle regime.
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
_MASK64 = (1 << 64) - 1
_CHUNK = 256  # indices hashed per array pass; the generators are built one at a time


def _chain(init, mult, count):
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


_SPAWN_CONST = np.array(_chain(0x43B0D7E5, 0x931E8875, 20)[16:], dtype=np.uint32)
_STATE_CONST = np.array(_chain(0x8B51F9DD, 0x58F38DED, 8), dtype=np.uint32)
_STATE_XOR, _STATE_MULT = _STATE_CONST[:-1].reshape(2, 4), _STATE_CONST[1:].reshape(2, 4)


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


def _stream_words(seed: int, chunk) -> np.ndarray:
    """The 4 uint64 state words that ``RandomStream(seed, i)`` hands PCG64, as a
    (len(chunk), 4) array, for each i of chunk; seed < 2^128, each i < 2^32."""
    # mix(x, y) = (L x - R y) ^ >> 16, x the seed's pool word, y the hashed index
    mixed = np.random.SeedSequence(seed).pool * np.uint32(0xCA01F9DD)
    spawn = _hash(np.array(chunk, dtype=np.uint32)[:, None], _SPAWN_CONST[:-1],
                  _SPAWN_CONST[1:])
    pool_i = mixed - spawn * np.uint32(0x4973F715)
    pool_i ^= pool_i >> np.uint32(16)
    state = _hash(pool_i[:, None], _STATE_XOR, _STATE_MULT).reshape(len(chunk), 8)
    return state.astype("<u4").view("<u8").astype(np.uint64)


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
    words_type = _fixed_words_type()
    for lo in range(0, len(indices), _CHUNK):
        chunk = indices[lo:lo + _CHUNK]
        if min(chunk) < 0:
            raise ValueError("stream_index must be nonnegative")
        if max(chunk) > _MASK32:
            yield from (RandomStream(seed, i).generator() for i in chunk)
            continue
        for row in _stream_words(seed, chunk):
            yield np.random.Generator(np.random.PCG64(words_type(row)))


# PCG64 (numpy.random.PCG64) steps a 128-bit state x -> x M + inc and outputs
# the XSL-RR of the new state.  Seeded with words w0..w3 it sets s = w0:w1,
# inc = 2t + 1 with t = w2:w3, and x = 0, then steps, adds s and steps again;
# so output r comes from s M^(r+2) + inc (M^(r+2) + ... + M + 1), an affine map
# of (s, t) mod 2^128.  Products by constants run on 16-bit limbs: a float64
# matmul of the limbs by a matrix of the constant's limbs gives the product's
# sums at weights 2^0, 2^32, 2^64 and 2^96, each an integer below 2^53 and so
# exact, and ``_carry`` folds them into uint64 words.
_MOD128 = 1 << 128
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LIMB_SHIFT = (np.arange(8) - np.arange(8)[:, None]) % 16  # [i, t] -> t - i, or a zero limb


def _times(consts) -> np.ndarray:
    """(len(consts), 8, 4) matrices, one per c of consts, taking the 16-bit
    limbs of x to the sums of x c mod 2^128 that ``_carry`` takes."""
    words = np.array([[c & _MASK64, c >> 64 & _MASK64, 0, 0] for c in consts], dtype="<u8")
    limb_sums = words.view("<u2").astype(float)[:, _LIMB_SHIFT]  # c's limbs, 8 zeros on top
    return limb_sums[..., 0::2] + 65536 * limb_sums[..., 1::2]


def _carry(sums) -> tuple:
    """(hi, lo) uint64 words of a + b 2^32 + c 2^64 + d 2^96 mod 2^128 for
    sums = (a, b, c, d), each below 2^53."""
    a, b, c, d = sums.astype(np.uint64)
    return c + (d << 32) + ((a >> 32) + b >> 32), a + (b << 32)


@functools.cache
def _pcg64_map(count: int) -> tuple:
    """Matrix and offset taking the limbs of words w0..w3 to the ``_carry``
    sums of the states of outputs 0 .. count-1, sum u of output r in column
    4 r + u."""
    steps = [sum(pow(_PCG_MULT, i, _MOD128) for i in range(r + 3)) for r in range(count)]
    s_map = _times([pow(_PCG_MULT, r + 2, _MOD128) for r in range(count)])
    t_map = _times([2 * step for step in steps])
    # w0 and w2 are the high words of s and t
    mat = np.concatenate([s_map[:, 4:], s_map[:, :4], t_map[:, 4:], t_map[:, :4]], axis=1)
    mat, off = np.hstack(mat), _times(steps)[:, 0].ravel()  # row 0 of c's matrix: c itself
    mat.flags.writeable = off.flags.writeable = False  # shared by every caller
    return mat, off


def _pcg64_outputs(words, count: int) -> np.ndarray:
    """(count, S) array of the first count raw outputs of PCG64 seeded with
    each row of the (S, 4) uint64 words."""
    mat, off = _pcg64_map(count)
    sums = words.astype("<u8").view("<u2") @ mat + off
    hi, lo = _carry(sums.reshape(len(words), count, 4).transpose(2, 1, 0))
    x, rot = hi ^ lo, hi >> 58
    return x >> rot | x << (-rot & 63)


# The bits of a raw output that a draw takes, as a map of its 16-bit limbs:
# all 64, the low half moved to the top, the high half in place, or none
_ALL_BITS, _LOW_BITS = np.eye(4), np.eye(4, k=2)
_HIGH_BITS, _NO_BITS = np.diag([0.0, 0, 1, 1]), np.zeros((4, 4))


def _choice_draws(n: int, k: int) -> tuple:
    """Draw order of numpy's ``Generator.choice(n, k, replace=False)`` outside
    its tail-shuffle regime: Floyd's draws for j = n-k .. n-1, then the
    shuffle's for j = k-1 .. 1, each uniform on [0, j] by Lemire's method.

    For j < 2^32 - 1 a draw takes a 32-bit half of a raw output, the low half
    first and the high one kept for the next 32-bit draw; for larger j it takes
    a whole output and leaves a kept half for later.  j = 2^32 - 1 takes its 32
    bits as they are, and j = 0 takes nothing and gives 0; both agree with
    Lemire's product.  A 32-bit draw is written as a 64-bit one on its half
    at the top: same high word, remainder and threshold times 2^32.

    Returns the count of raw outputs read (at least 1) and, per draw, the
    output it reads, the matrix taking that output's limbs to the ``_carry``
    sums of its bits times j + 1, and Lemire's threshold."""
    js = [*range(n - k, n), *range(k - 1, 0, -1)]
    reads, count, kept = [], 0, None
    for j in js:
        if j == 0:
            reads.append((0, _NO_BITS))
        elif j > _MASK32:
            reads.append((count, _ALL_BITS))
            count += 1
        elif kept is None:
            reads.append((count, _LOW_BITS))
            kept, count = count, count + 1
        else:
            reads.append((kept, _HIGH_BITS))
            kept = None
    out, bits = zip(*reads)
    threshold = [(_MASK64 - j) % (j + 1) if j > _MASK32 else (_MASK32 - j) % (j + 1) << 32
                 for j in js]
    lemire = np.array(bits) @ _times([j + 1 for j in js])[:, :4]
    return max(count, 1), list(out), lemire, np.array(threshold, dtype=np.uint64)


def _stream_choices(seed: int, indices, n: int, k: int) -> np.ndarray:
    """Row i is ``RandomStream(seed, indices[i]).generator().choice(n, k,
    replace=False)``, bit for bit, as a (len(indices), k) int64 array; 1 <= k <= n.

    One pass of array arithmetic runs every stream's PCG64 outputs (seeded by
    ``_stream_words``) and numpy's draws (``_choice_draws``), with no
    Generator per stream.  Lanes where a Lemire draw would reject and redraw
    take ``Generator.choice`` on their own stream, as do seeds of 2^128 and
    up, indices of 2^32 and up, numpy's tail-shuffle regime (n > 10000 and
    k > n // 50) and n >= 2^63, which numpy rejects.  Raises ValueError for a
    negative seed or index."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative; got {seed}")
    if min(indices, default=0) < 0:
        raise ValueError("stream_index must be nonnegative")
    tail_shuffle = n > 10000 and k > n // 50
    if seed >= 1 << 128 or max(indices, default=0) > _MASK32 or tail_shuffle or n >= 1 << 63:
        rows = [gen.choice(n, k, replace=False) for gen in _stream_generators(seed, indices)]
        return np.array(rows, dtype=np.int64).reshape(len(indices), k)
    count, out, lemire, threshold = _choice_draws(n, k)
    raw = _pcg64_outputs(_stream_words(seed, indices), count)[out].astype("<u8", copy=False)
    hi, lo = _carry((raw.view("<u2").reshape(*raw.shape, 4) @ lemire).transpose(2, 0, 1))
    reject = (lo < threshold[:, None]).any(axis=0)
    rows = np.empty((len(indices), k), dtype=np.uint64)
    rows[:, 0] = hi[0]
    for t, value in enumerate(hi[1:k], 1):  # Floyd: a value already taken gives j
        rows[:, t] = np.where((rows[:, :t] == value[:, None]).any(axis=1), n - k + t, value)
    lanes = np.arange(len(indices))
    for i, value in zip(range(k - 1, 0, -1), hi[k:]):  # then swap i with its draw
        rows[lanes, i], rows[lanes, value] = rows[lanes, value], rows[lanes, i]
    rows = rows.view(np.int64)
    for lane in np.flatnonzero(reject):
        rows[lane] = RandomStream(seed, indices[lane]).generator().choice(n, k, replace=False)
    return rows


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

