import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chisquare, ks_2samp

from cosetlab.blockmat import is_unitary, operator_norm
from cosetlab.cosets import core_images
from cosetlab.haar import (
    RandomStream,
    _block_normals,
    _core_patterns,
    _sample_rows,
    _top_blocks,
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


class TestHaarOrthogonal:
    def test_orthogonal(self):
        for n in (1, 2, 7, 30):
            q = haar_orthogonal(n, RandomStream(0, n))
            assert is_unitary(q)
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
            assert is_unitary(haar_unitary(n, RandomStream(1, n)))

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


def _blocks(k, N, rng, unitary=False, count=1):
    # count leading k x k blocks drawn by one generator
    return _top_blocks(_block_normals(k, N, rng, unitary, count), unitary)


class TestHaarBlockStack:
    @pytest.mark.parametrize("unitary", [False, True])
    @pytest.mark.parametrize("k,N", [(1, 0), (1, 1), (3, 0), (2, 1), (3, 3)])
    def test_short_tail_equals_written_out_qr(self, unitary, k, N):
        # N <= k keeps the raw Gaussian tail, so count draws read the
        # Gaussians in the order count written-out draws do
        gen, ref = RandomStream(4, 1).generator(), RandomStream(4, 1).generator()
        stack = _blocks(k, N, gen, unitary, count=7)
        want = np.array([_reference_block(k, N, ref, unitary) for _ in range(7)])
        assert stack.dtype == want.dtype and stack.shape == (7, k, k)
        np.testing.assert_array_equal(stack, want)
        assert gen.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("unitary", [False, True])
    def test_count_draws_gaussians_then_chi_squares(self, unitary):
        # N > k: every Gaussian of the count draws, then count variates per j
        k, N, count = 2, 7, 4
        z = _block_normals(k, N, RandomStream(9, 1), unitary=unitary, count=count)
        gen = RandomStream(9, 1).generator()
        beta = 2 if unitary else 1
        normals = gen.standard_normal((count, beta, 2 * k, k))
        want = normals[:, 0] + 1j * normals[:, 1] if unitary else normals[:, 0]
        want[:, k:] = np.triu(want[:, k:])
        for j in range(k):
            want[:, k + j, j] = np.sqrt(gen.chisquare(beta * (N - j), size=count))
        np.testing.assert_array_equal(z, want)

    @pytest.mark.parametrize("unitary", [False, True])
    @pytest.mark.parametrize("N", [1, 2, 8, 10**6])
    def test_frobenius_second_moment_in_the_sweep_layout(self, unitary, N):
        # every entry of a Haar element of size n has E|u|^2 = 1/n, so at
        # k = 2 the block has E||A||_F^2 = k^2 / (k + N)
        k = 2
        z = np.concatenate(list(_sample_rows(
            21, 4096, lambda gen, count: _block_normals(k, N, gen, unitary, count))))
        f2 = (np.abs(_top_blocks(z, unitary)) ** 2).sum(axis=(1, 2))
        se = f2.std() / np.sqrt(len(f2))
        assert abs(f2.mean() - k * k / (k + N)) < 5 * se

    def test_no_tail_is_the_full_draw(self):
        # haar_orthogonal and haar_unitary are the written-out QR of one draw
        for unitary, whole in ((False, haar_orthogonal), (True, haar_unitary)):
            np.testing.assert_array_equal(
                whole(6, RandomStream(3, 1)),
                _reference_block(6, 0, RandomStream(3, 1).generator(), unitary))

    @pytest.mark.parametrize("unitary", [False, True])
    def test_empty_stack(self, unitary):
        for N in (0, 5):
            out = _blocks(2, N, RandomStream(0, 1), unitary, count=0)
            assert out.shape == (0, 2, 2) and out.dtype.kind == ("c" if unitary else "f")

    @pytest.mark.parametrize("k,N,unitary", [(1, 20, False), (2, 20, False), (3, 5, False),
                                             (2, 200, True)])
    def test_norm_law_matches_full_draw(self, k, N, unitary):
        # the operator norm of the block against the top block of a whole Haar
        # draw of size k+N (two-sample KS)
        block = np.linalg.norm(_blocks(k, N, RandomStream(17, 1), unitary, count=2000), 2,
                               axis=(1, 2))
        whole = haar_unitary if unitary else haar_orthogonal
        gen = RandomStream(18, k + N).generator()
        full = [operator_norm(whole(k + N, gen)[:k, :k]) for _ in range(150)]
        assert ks_2samp(block, full).pvalue > 0.01

    @pytest.mark.parametrize("unitary", [False, True])
    @pytest.mark.parametrize("N", [3, 50, 10**9])
    def test_scalar_second_moment(self, unitary, N):
        # at k = 1, E|a|^2 = 1/(N+1) in both fields
        a2 = np.abs(_blocks(1, N, RandomStream(6, 1), unitary, count=4000)[:, 0, 0]) ** 2
        se = a2.std() / np.sqrt(len(a2))
        assert abs(a2.mean() - 1 / (N + 1)) < 4 * se

    def test_huge_tail_is_cheap_and_inside_the_unit_ball(self):
        a = _blocks(3, 10**12, RandomStream(2, 1), unitary=True, count=50)
        norms = np.linalg.norm(a, 2, axis=(1, 2))
        assert a.shape == (50, 3, 3) and 0 < norms.min() and norms.max() < 1e-5

    @pytest.mark.parametrize("k,N", [(0, 3), (-1, 3), (1, -1), (1.5, 3), (2, 2.5)])
    def test_bad_size_rejected(self, k, N):
        with pytest.raises(ValueError, match="k >= 1 and N >= 0"):
            _block_normals(k, N, RandomStream(0, 0))


class TestHaarColumns:
    # the k x k block is the top of k orthonormal columns of size n = k + N
    @pytest.mark.parametrize("unitary", [False, True])
    def test_orthonormal_columns(self, unitary):
        for n, k in ((1, 1), (5, 2), (40, 3), (1000, 2)):
            a = _blocks(k, n - k, RandomStream(8, n), unitary)[0]
            assert a.shape == (k, k)
            assert a.dtype.kind == ("c" if unitary else "f")
            if n == k:
                assert np.abs(a.conj().T @ a - np.eye(k)).max() <= 1e-12
            else:
                assert np.linalg.eigvalsh(np.eye(k) - a.conj().T @ a).min() >= -1e-12

    @pytest.mark.parametrize("n,k", [(3, 0), (3, 4), (0, 0)])
    def test_bad_shape_rejected(self, n, k):
        with pytest.raises(ValueError):
            _block_normals(k, n - k, RandomStream(0, 0))


class TestHaarColumnsStack:
    # the sweep splits its rows of Gaussians into solver blocks, so the QR of
    # any split of a stack must give each row's lone QR
    @pytest.mark.parametrize("unitary", [False, True])
    @pytest.mark.parametrize("n,k", [(1, 1), (3, 3), (9, 1), (40, 3)])
    @pytest.mark.parametrize("per", [1, 3, 8])
    def test_equals_per_sample_draws(self, unitary, n, k, per):
        z = _block_normals(k, n - k, RandomStream(4, 1), unitary, count=8)
        stack = np.concatenate([_top_blocks(z[lo:lo + per], unitary)
                                for lo in range(0, len(z), per)])
        want = np.array([_top_blocks(row[None], unitary)[0] for row in z])
        assert stack.dtype == want.dtype and stack.shape == (8, k, k)
        np.testing.assert_array_equal(stack, want)


class TestSampleRows:
    @staticmethod
    def _draw(gen, count):
        return gen.integers(1 << 40, size=(count, 2))

    @pytest.mark.parametrize("samples", [1, 255, 256, 257, 600])
    @pytest.mark.parametrize("seed", [1, 7, 256, 300, 1000])
    def test_rows_depend_only_on_seed_and_index(self, samples, seed):
        # sample i is row i % 256 of a draw of 256 from stream 1 + i // 256,
        # whatever the seed and the sample count; each yield is one whole
        # chunk, in sample order, and only the last may be short
        want = np.concatenate([self._draw(RandomStream(seed, 1 + c).generator(), 256)
                               for c in range(3)])[:samples]
        chunks = list(_sample_rows(seed, samples, self._draw))
        assert len(chunks) == -(-samples // 256)
        assert [len(c) for c in chunks[:-1]] == [256] * (len(chunks) - 1)
        assert 0 < len(chunks[-1]) <= 256
        for c, chunk in enumerate(chunks):
            np.testing.assert_array_equal(chunk, want[256 * c:256 * (c + 1)])

    def test_no_samples_no_rows(self):
        assert list(_sample_rows(5, 0, self._draw)) == []

    # seeds across the 32-, 64- and 128-bit word edges of SeedSequence's entropy
    SEEDS = [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1, 2**128]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("samples", [1, 257, 520])
    def test_chunk_streams_are_numpy_spawned_streams(self, seed, samples):
        # chunk c draws from numpy's own SeedSequence spawn (seed, 1 + c)
        states = []

        def draw(gen, count):
            states.append(gen.bit_generator.state)
            return self._draw(gen, count)

        list(_sample_rows(seed, samples, draw))
        want = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(1 + c,))))
                .bit_generator.state for c in range(-(-samples // 256))]
        assert states == want

    def test_built_lazily_by_chunk(self):
        # the second chunk is not drawn until the first is used up
        calls = []

        def draw(gen, count):
            calls.append(count)
            return self._draw(gen, count)

        chunks = _sample_rows(3, 600, draw)
        first = next(chunks)
        assert calls == [256]
        np.testing.assert_array_equal(first, self._draw(RandomStream(3, 1).generator(), 256))
        assert len(next(chunks)) == 256 and calls == [256, 256]

    @pytest.mark.parametrize("seed", [-1, -2**32, -2**64, -2**128, -2**200])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="nonnegative"):
            next(_sample_rows(seed, 1, self._draw))


def _pattern_law(k, N):
    """Every core pattern at tail size N with its exact probability
    falling(N, t) / falling(N + k, k), t its number of tail images."""
    law = {}
    for t in range(min(k, N) + 1):
        p = Fraction(math.perm(N, t), math.perm(N + k, k))
        for tails in itertools.combinations(range(k), t):
            for small in itertools.permutations(range(1, k + 1), k - t):
                slots, rest = iter(range(k + 1, 2 * k + 1)), iter(small)
                law[tuple(next(slots) if j in tails else next(rest) for j in range(k))] = p
    return law


class TestCorePatterns:
    @pytest.mark.parametrize("k,N", [(1, 1), (1, 3), (2, 2), (2, 5), (3, 3), (3, 4)])
    def test_law_is_core_images_of_uniform_images(self, k, N):
        # the enumerated law is that of core_images of k distinct images of
        # 1..k+N in uniform random order, each ordered k-tuple equally likely
        tuples = list(itertools.permutations(range(1, k + N + 1), k))
        want = Counter(core_images(images, k) for images in tuples)
        law = _pattern_law(k, N)
        assert sum(law.values()) == 1
        assert law == {key: Fraction(c, len(tuples)) for key, c in want.items()}

    @pytest.mark.parametrize("k,N,draws", [
        (1, 1, 200_000), (1, 3, 200_000), (2, 2, 200_000), (2, 5, 200_000),
        (3, 3, 200_000), (3, 7, 200_000), (4, 6, 200_000),
        # about 18 draws expected with an image at most k
        (3, 10**6, 2_000_000)])
    def test_chi_square_against_exact_law(self, k, N, draws):
        # rows are counted by their digits base 2k + 1 (k <= 4 here); bins
        # whose expected count is under 5 are pooled into one
        gen, base = RandomStream(11, 1).generator(), (2 * k + 1) ** np.arange(k)
        counts = sum(np.bincount(_core_patterns(k, N, gen, min(250_000, draws - lo)) @ base,
                                 minlength=(2 * k + 1) ** k) for lo in range(0, draws, 250_000))
        law = _pattern_law(k, N)
        obs = counts[[int(np.dot(key, base)) for key in law]]
        assert obs.sum() == counts.sum() == draws
        exp = draws * np.array([float(p) for p in law.values()])
        small = exp < 5
        if small.any():
            obs, exp = (np.append(v[~small], v[small].sum()) for v in (obs, exp))
        assert exp.min() >= 5 and len(exp) >= 2
        assert chisquare(obs, exp).pvalue > 1e-3

    # tail sizes from N = k, where a row can use every value, to the 31-,
    # 32- and 63-bit edges and beyond 64 bits, and rows of 300
    SHAPES = [(1, 1), (1, 3), (2, 2), (3, 7), (5, 5), (3, 2**31 + 5), (1, 2**32),
              (4, 10**12 + 1), (2, 2**63 - 1), (3, 10**30), (300, 10_000)]

    @pytest.mark.parametrize("k,N", SHAPES)
    def test_rows_are_core_patterns(self, k, N):
        # each row maps to itself under core_images: distinct values in
        # 1..2k, the tail images taking the slots k+1, k+2, ... in order
        rows = _core_patterns(k, N, RandomStream(2, 1).generator(), 500)
        assert rows.dtype == np.int64 and rows.shape == (500, k)
        assert rows.min() >= 1 and rows.max() <= 2 * k
        for row in map(tuple, rows.tolist()):
            assert len(set(row)) == k and core_images(row, k) == row

    def test_reproducible(self):
        a = _core_patterns(3, 100, RandomStream(8, 1).generator(), 256)
        b = _core_patterns(3, 100, RandomStream(8, 1).generator(), 256)
        np.testing.assert_array_equal(a, b)

    SEEDS = [0, 1, 42, 2**32 - 1, 2**64 + 5, 2**128 - 1, 2**128]

    @pytest.mark.parametrize("k,N", SHAPES)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("samples", [1, 255, 257, 520])
    def test_sweep_rows_are_chunk_rows(self, samples, seed, k, N):
        # the symmetric sweep's patterns: sample i is row i % 256 of the
        # chunk drawn from stream 1 + i // 256
        rows = np.concatenate(list(_sample_rows(
            seed, samples, lambda gen, count: _core_patterns(k, N, gen, count))))
        assert rows.dtype == np.int64 and rows.shape == (samples, k)
        assert rows.min() >= 1 and rows.max() <= 2 * k
        want = np.concatenate([_core_patterns(k, N, RandomStream(seed, 1 + c).generator(), 256)
                               for c in range(-(-samples // 256))])[:samples]
        np.testing.assert_array_equal(rows, want)


class TestUniformPermutation:
    def test_n1(self):
        assert uniform_permutation(1, RandomStream(0, 0)).images == (1,)

    def test_empty_degree_rejected(self):
        with pytest.raises(ValueError, match="^n must be positive$"):
            uniform_permutation(0, RandomStream(0, 0))

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
