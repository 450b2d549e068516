import itertools

import numpy as np
import pytest
from scipy.stats import ks_2samp

from cosetlab.blockmat import is_unitary, operator_norm
from cosetlab.haar import (
    RandomStream,
    _stream_choices,
    _stream_generators,
    haar_block_stack,
    haar_orthogonal,
    haar_unitary,
    uniform_permutation,
)


class TestRandomStream:
    def test_determinism(self):
        a = haar_orthogonal(6, RandomStream(42, 3))
        b = haar_orthogonal(6, RandomStream(42, 3))
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = haar_orthogonal(6, RandomStream(42, 0))
        b = haar_orthogonal(6, RandomStream(42, 1))
        assert np.abs(a - b).max() > 1e-3

    def test_negative_stream_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(1, -1)

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ValueError, match="seed"):
            RandomStream(-5, 0)

    def test_accepts_generator(self):
        gen = RandomStream(1, 0).generator()
        haar_orthogonal(3, gen)
        with pytest.raises(TypeError):
            haar_orthogonal(3, "not-a-stream")


class TestStreamGenerators:
    # the sweeps' bulk streams against numpy's own spawned SeedSequence;
    # 255..257 cross a chunk edge, 2^32 and 2^128 fall back to RandomStream
    SEEDS = [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1, 2**128]
    INDICES = [0, 1, 255, 256, 257, 2**32 - 1, 2**32]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("indices", [INDICES, range(250, 520), []])
    def test_equals_numpy_spawned_streams(self, seed, indices):
        gens = list(_stream_generators(seed, indices))
        want = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,))))
                for i in indices]
        assert [g.bit_generator.state for g in gens] == [g.bit_generator.state for g in want]
        assert [g.random() for g in gens] == [g.random() for g in want]

    def test_built_lazily_by_chunk(self):
        # the bad index in the second chunk is not reached until the first is used up
        gens = _stream_generators(3, [7] * 256 + [-1])
        first = list(itertools.islice(gens, 256))
        assert first[-1].bit_generator.state == RandomStream(3, 7).generator().bit_generator.state
        with pytest.raises(ValueError, match="nonnegative"):
            next(gens)

    @pytest.mark.parametrize("seed,indices", [
        (-1, [0]), (-1, []), (0, [-1]), (0, [5, -2]), (2**128, [-1]),
    ])
    def test_negative_rejected(self, seed, indices):
        with pytest.raises(ValueError, match="nonnegative"):
            list(_stream_generators(seed, indices))


class TestStreamChoices:
    # the bulk draw of the symmetric sweeps against numpy's own choice on each
    # spawned stream; 2^31 + 7 rejects on about half the lanes, 2^32 draws at
    # j = 2^32 - 1, 2^32 + 3 and 10^12 + 1 mix 64-bit Floyd and 32-bit shuffle
    # draws, and (10300, 300) is numpy's tail-shuffle regime; index 2^32 sends
    # its whole list to the generators, so the list is also run without it
    SEEDS = [0, 1, 42, 2**32 - 1, 2**64 + 5, 2**128 - 1, 2**128]
    SHAPES = [(2, 1), (4, 1), (2, 2), (10, 3), (7, 5), (2**31 + 7, 3), (2**32, 1),
              (2**32 + 3, 3), (10**12 + 1, 4), (2**63 - 1, 2), (10300, 300)]

    @pytest.mark.parametrize("n,k", SHAPES)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("indices", [TestStreamGenerators.INDICES,
                                         TestStreamGenerators.INDICES[:-1], range(250, 520), []])
    def test_equals_numpy_choice(self, seed, indices, n, k):
        rows = _stream_choices(seed, indices, n, k)
        want = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,))))
                .choice(n, k, replace=False) for i in indices]
        assert rows.dtype == np.int64 and rows.shape == (len(indices), k)
        assert rows.tolist() == [row.tolist() for row in want]

    @pytest.mark.parametrize("seed,indices", [
        (-1, [0]), (-1, []), (0, [-1]), (0, [5, -2]), (2**128, [-1]),
    ])
    def test_negative_rejected(self, seed, indices):
        with pytest.raises(ValueError, match="nonnegative"):
            _stream_choices(seed, indices, 10, 2)


class TestHaarOrthogonal:
    def test_orthogonal(self):
        for n in (1, 2, 7, 30):
            q = haar_orthogonal(n, RandomStream(0, n))
            assert is_unitary(q, 1e-10)
            assert q.dtype.kind == "f"

    def test_sign_frequencies_n1(self):
        # O(1) = {+1, -1}: each sign should appear about half the time
        gen = RandomStream(7, 0).generator()
        draws = [haar_orthogonal(1, gen)[0, 0] for _ in range(1000)]
        assert abs(np.mean(np.array(draws) > 0) - 0.5) < 0.05

    def test_entry_second_moment(self):
        # E q_{11}^2 = 1/n for the uniform distribution on the orthogonal group
        n = 50
        gen = RandomStream(11, 0).generator()
        vals = [haar_orthogonal(n, gen)[0, 0] ** 2 for _ in range(2000)]
        assert np.mean(vals) == pytest.approx(1 / n, rel=0.2)

    def test_left_invariance_smoke(self):
        # first-column norms of P.Q match those of Q in distribution
        n = 5
        gen = RandomStream(13, 0).generator()
        P = haar_orthogonal(n, gen)
        a = [np.linalg.norm(haar_orthogonal(n, gen)[:, 0][:2]) for _ in range(2000)]
        b = [np.linalg.norm((P @ haar_orthogonal(n, gen))[:, 0][:2]) for _ in range(2000)]
        # 1% critical value of the two-sample KS statistic at 2000 vs 2000
        crit = 1.628 * np.sqrt(2 / 2000)
        assert ks_2samp(a, b).statistic < crit


class TestHaarUnitary:
    def test_unitary(self):
        for n in (1, 2, 7, 30):
            assert is_unitary(haar_unitary(n, RandomStream(1, n)), 1e-10)

    def test_phase_uniform_n1(self):
        gen = RandomStream(3, 0).generator()
        args = [np.angle(haar_unitary(1, gen)[0, 0]) for _ in range(2000)]
        assert abs(np.mean(args)) < 0.15

    def test_entry_second_moment(self):
        n = 50
        gen = RandomStream(5, 0).generator()
        vals = [np.abs(haar_unitary(n, gen)[0, 0]) ** 2 for _ in range(2000)]
        assert np.mean(vals) == pytest.approx(1 / n, rel=0.2)


def _reference_block(k, N, gen, unitary):
    # the draw written out once for N <= k: Gaussians, QR, the sign (phase)
    # of R's diagonal, then the leading k rows
    z = gen.standard_normal((k + N, k))
    if unitary:
        z = z + 1j * gen.standard_normal((k + N, k))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return (q * (d / np.abs(d) if unitary else np.where(d >= 0, 1.0, -1.0)))[:k]


class TestHaarBlockStack:
    @pytest.mark.parametrize("unitary", [False, True])
    @pytest.mark.parametrize("k,N", [(1, 0), (1, 1), (3, 0), (2, 1), (3, 3)])
    def test_short_tail_equals_written_out_qr(self, unitary, k, N):
        # N <= k keeps the raw Gaussian tail; a generator listed twice draws
        # twice, in list order
        gens = [RandomStream(4, i).generator() for i in range(7)]
        gens.insert(3, gens[1])
        refs = [RandomStream(4, i).generator() for i in range(7)]
        refs.insert(3, refs[1])
        stack = haar_block_stack(k, N, gens, unitary=unitary)
        want = np.array([_reference_block(k, N, gen, unitary) for gen in refs])
        assert stack.dtype == want.dtype and stack.shape == (8, k, k)
        np.testing.assert_array_equal(stack, want)
        assert [g.bit_generator.state for g in gens] == [g.bit_generator.state for g in refs]

    def test_no_tail_is_the_full_draw(self):
        np.testing.assert_array_equal(haar_block_stack(6, 0, [RandomStream(3, 1)])[0],
                                      haar_orthogonal(6, RandomStream(3, 1)))
        np.testing.assert_array_equal(haar_block_stack(6, 0, [RandomStream(3, 2)], True)[0],
                                      haar_unitary(6, RandomStream(3, 2)))

    @pytest.mark.parametrize("unitary", [False, True])
    def test_empty_stack(self, unitary):
        for N in (0, 5):
            out = haar_block_stack(2, N, [], unitary=unitary)
            assert out.shape == (0, 2, 2) and out.dtype.kind == ("c" if unitary else "f")

    @pytest.mark.parametrize("k,N,unitary", [(1, 20, False), (2, 20, False), (3, 5, False),
                                             (2, 200, True)])
    def test_norm_law_matches_full_draw(self, k, N, unitary):
        # the operator norm of the block against the top block of a whole Haar
        # draw of size k+N (two-sample KS)
        gens = [RandomStream(17, i) for i in range(2000)]
        block = np.linalg.norm(haar_block_stack(k, N, gens, unitary=unitary), 2, axis=(1, 2))
        whole = haar_unitary if unitary else haar_orthogonal
        gen = RandomStream(18, k + N).generator()
        full = [operator_norm(whole(k + N, gen)[:k, :k]) for _ in range(150)]
        assert ks_2samp(block, full).pvalue > 0.01

    @pytest.mark.parametrize("unitary", [False, True])
    @pytest.mark.parametrize("N", [3, 50, 10**9])
    def test_scalar_second_moment(self, unitary, N):
        # at k = 1, E|a|^2 = 1/(N+1) in both fields
        a2 = np.abs(haar_block_stack(1, N, [RandomStream(6, i) for i in range(4000)],
                                     unitary=unitary)[:, 0, 0]) ** 2
        se = a2.std() / np.sqrt(len(a2))
        assert abs(a2.mean() - 1 / (N + 1)) < 4 * se

    def test_huge_tail_is_cheap_and_inside_the_unit_ball(self):
        a = haar_block_stack(3, 10**12, [RandomStream(2, i) for i in range(50)], unitary=True)
        norms = np.linalg.norm(a, 2, axis=(1, 2))
        assert a.shape == (50, 3, 3) and 0 < norms.min() and norms.max() < 1e-5

    @pytest.mark.parametrize("k,N", [(0, 3), (-1, 3), (1, -1), (1.5, 3), (2, 2.5)])
    def test_bad_size_rejected(self, k, N):
        with pytest.raises(ValueError, match="k >= 1 and N >= 0"):
            haar_block_stack(k, N, [RandomStream(0, 0)])


class TestHaarColumns:
    # the k x k block is the top of k orthonormal columns of size n = k + N
    @pytest.mark.parametrize("unitary", [False, True])
    def test_orthonormal_columns(self, unitary):
        for n, k in ((1, 1), (5, 2), (40, 3), (1000, 2)):
            a = haar_block_stack(k, n - k, [RandomStream(8, n)], unitary=unitary)[0]
            assert a.shape == (k, k)
            assert a.dtype.kind == ("c" if unitary else "f")
            if n == k:
                assert np.abs(a.conj().T @ a - np.eye(k)).max() <= 1e-12
            else:
                assert np.linalg.eigvalsh(np.eye(k) - a.conj().T @ a).min() >= -1e-12

    @pytest.mark.parametrize("n,k", [(3, 0), (3, 4), (0, 0)])
    def test_bad_shape_rejected(self, n, k):
        with pytest.raises(ValueError):
            haar_block_stack(k, n - k, [RandomStream(0, 0)])


class TestHaarColumnsStack:
    # the stack of top blocks of the first k columns of Haar elements of size
    # n, drawn whole or split by a byte budget as the sweep splits its samples
    @pytest.mark.parametrize("unitary", [False, True])
    @pytest.mark.parametrize("n,k", [(1, 1), (3, 3), (9, 1), (40, 3)])
    @pytest.mark.parametrize("block_bytes", [None, 1, 2 * 4 * 40 * 3 * 16])
    def test_equals_per_sample_draws(self, unitary, n, k, block_bytes):
        # a tiny budget puts every draw in a chunk of its own; a generator
        # listed twice draws twice, in list order
        gens = [RandomStream(4, i).generator() for i in range(7)]
        gens.insert(3, gens[1])
        refs = [RandomStream(4, i).generator() for i in range(7)]
        refs.insert(3, refs[1])
        per = len(gens) if block_bytes is None else max(1, block_bytes // (16 * k * k))
        stack = np.concatenate([haar_block_stack(k, n - k, gens[lo:lo + per], unitary=unitary)
                                for lo in range(0, len(gens), per)])
        want = np.array([haar_block_stack(k, n - k, [gen], unitary=unitary)[0] for gen in refs])
        assert stack.dtype == want.dtype and stack.shape == (8, k, k)
        np.testing.assert_array_equal(stack, want)
        assert [g.bit_generator.state for g in gens] == [g.bit_generator.state for g in refs]
        if n == k:
            whole = haar_unitary if unitary else haar_orthogonal
            np.testing.assert_array_equal(whole(n, RandomStream(4, 0)), want[0])


class TestUniformPermutation:
    def test_n1(self):
        assert uniform_permutation(1, RandomStream(0, 0)).images == (1,)

    def test_uniform_on_s3(self):
        gen = RandomStream(9, 0).generator()
        counts = {}
        for _ in range(6000):
            w = uniform_permutation(3, gen).images
            counts[w] = counts.get(w, 0) + 1
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c / 6000 - 1 / 6) < 0.03

    def test_reproducible(self):
        a = uniform_permutation(10, RandomStream(4, 2))
        b = uniform_permutation(10, RandomStream(4, 2))
        assert a == b


class TestTopBlock:
    def test_norm_decay(self):
        # medians over 200 draws: the k x k corner of a Haar orthogonal matrix
        # shrinks like sqrt(k/N) as the ambient size grows
        k = 2
        meds = {}
        for N in (20, 200):
            gen = RandomStream(17, N).generator()
            norms = [operator_norm(haar_orthogonal(k + N, gen)[:k, :k]) for _ in range(200)]
            meds[N] = np.median(norms)
        assert meds[200] < meds[20] / 2
        assert meds[200] <= 3 * np.sqrt(k / 200)
