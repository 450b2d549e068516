import numpy as np
import pytest
from scipy.stats import ks_2samp

from cosetlab.blockmat import is_unitary, operator_norm
from cosetlab.haar import (
    RandomStream,
    haar_columns,
    haar_columns_stack,
    haar_orthogonal,
    haar_unitary,
    top_block,
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


class TestHaarColumns:
    @pytest.mark.parametrize("unitary", [False, True])
    def test_orthonormal_columns(self, unitary):
        for n, k in ((1, 1), (5, 2), (40, 3), (1000, 2)):
            q = haar_columns(n, k, RandomStream(8, n), unitary=unitary)
            assert q.shape == (n, k)
            assert q.dtype.kind == ("c" if unitary else "f")
            assert np.abs(q.conj().T @ q - np.eye(k)).max() <= 1e-12

    def test_all_columns_are_the_full_draw(self):
        # k = n consumes the same Gaussians as the full draw, bit for bit
        np.testing.assert_array_equal(haar_columns(6, 6, RandomStream(3, 1)),
                                      haar_orthogonal(6, RandomStream(3, 1)))
        np.testing.assert_array_equal(haar_columns(6, 6, RandomStream(3, 2), unitary=True),
                                      haar_unitary(6, RandomStream(3, 2)))

    @pytest.mark.parametrize("n,k", [(3, 0), (3, 4), (0, 0)])
    def test_bad_shape_rejected(self, n, k):
        with pytest.raises(ValueError):
            haar_columns(n, k, RandomStream(0, 0))

    @pytest.mark.parametrize("N", [20, 200])
    def test_top_block_law_matches_full_draw(self, N):
        # the leading k x k block of the first k columns has the law of the
        # leading block of a whole Haar draw: medians within 10% (about three
        # standard errors at 200 draws) and the KS statistic below its 1% value
        k = 2
        gen = RandomStream(17, N).generator()
        cols = [operator_norm(top_block(haar_columns(k + N, k, gen), k)) for _ in range(200)]
        full = [operator_norm(top_block(haar_orthogonal(k + N, gen), k)) for _ in range(200)]
        assert np.median(cols) == pytest.approx(np.median(full), rel=0.1)
        assert ks_2samp(cols, full).statistic < 1.628 * np.sqrt(2 / 200)


def _reference_columns(n, k, gen, unitary):
    # the draw written out once: Gaussians, QR, then the sign (phase) of R's diagonal
    z = gen.standard_normal((n, k))
    if unitary:
        z = z + 1j * gen.standard_normal((n, k))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d) if unitary else np.where(d >= 0, 1.0, -1.0))


class TestHaarColumnsStack:
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
        stack = haar_columns_stack(n, k, gens, unitary=unitary, block_bytes=block_bytes)
        want = np.array([_reference_columns(n, k, gen, unitary) for gen in refs])
        assert stack.dtype == want.dtype and stack.shape == (8, n, k)
        np.testing.assert_array_equal(stack, want)
        assert [g.bit_generator.state for g in gens] == [g.bit_generator.state for g in refs]
        top = haar_columns_stack(n, k, [RandomStream(4, i) for i in range(7)], unitary=unitary,
                                 rows=k, block_bytes=block_bytes)
        np.testing.assert_array_equal(top, want[[0, 1, 2, 4, 5, 6, 7], :k])
        np.testing.assert_array_equal(haar_columns(n, k, RandomStream(4, 0), unitary=unitary),
                                      want[0])

    def test_empty_stack(self):
        assert haar_columns_stack(5, 2, [], unitary=True, rows=2).shape == (0, 2, 2)

    @pytest.mark.parametrize("n,k,rows", [(3, 0, None), (3, 4, None), (3, 2, 0), (3, 2, 4)])
    def test_bad_shape_rejected(self, n, k, rows):
        with pytest.raises(ValueError):
            haar_columns_stack(n, k, [RandomStream(0, 0)], rows=rows)


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
    def test_identity(self):
        np.testing.assert_array_equal(top_block(np.eye(5), 2), np.eye(2))

    def test_full_dimension(self):
        q = haar_orthogonal(4, RandomStream(2, 0))
        assert operator_norm(top_block(q, 4)) == pytest.approx(1.0, abs=1e-10)

    def test_too_large(self):
        with pytest.raises(ValueError):
            top_block(np.eye(3), 4)

    def test_norm_decay(self):
        # medians over 200 draws: the k x k corner of a Haar orthogonal matrix
        # shrinks like sqrt(k/N) as the ambient size grows
        k = 2
        meds = {}
        for N in (20, 200):
            gen = RandomStream(17, N).generator()
            norms = [operator_norm(top_block(haar_orthogonal(k + N, gen), k))
                     for _ in range(200)]
            meds[N] = np.median(norms)
        assert meds[200] < meds[20] / 2
        assert meds[200] <= 3 * np.sqrt(k / 200)
