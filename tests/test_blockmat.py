import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cosetlab.blockmat import (
    BlockMatrix,
    BlockSpec,
    PermutationWord,
    as_word,
    build_JN,
    embed,
    embed_k,
    is_unitary,
    load_source,
    operator_norm,
    tail_sizes,
)
from cosetlab.cosets import GroupFamily
from cosetlab.experiments import ExperimentConfig, run_concentration
from cosetlab.haar import RandomStream, haar_unitary, uniform_permutation
from cosetlab.hypergroup_exact import exact_convolution

# texts in the permutation grammar at one degree, with the word each reads
# to, or None for a text that parse and load_source both reject
PERMUTATION_TEXTS = [
    ("(1 2)", 3, [2, 1, 3]),
    (" (1 3) ", 3, [3, 2, 1]),
    ("(1,2) (3 4)", 4, [2, 1, 4, 3]),
    ("(1 2 3)(4)", 4, [2, 3, 1, 4]),
    ("()", 3, [1, 2, 3]),
    ("2,1,3", 3, [2, 1, 3]),
    ("3 1 2", 3, [3, 1, 2]),
    ("2,,1", 2, [2, 1]),
    (" 1, 2 ,3 ", 3, [1, 2, 3]),
    ("(+1 2)", 3, None),
    ("(1 1_0)", 10, None),
    ("(\uff11 \uff12)", 3, None),
    ("\uff12,\uff11", 2, None),
    ("+2,1", 2, None),
    ("2,-1", 2, None),
    ("(1 2", 3, None),
    ("(1 2))", 3, None),
    ("(1 2),(3 4)", 4, None),
    ("(1 4)", 3, None),
    ("(0 1)", 3, None),
    ("(1 2)(2 3)", 3, None),
    ("2,1", 3, None),
    ("1 1 3", 3, None),
    ("(1 30000000)", 3, None),
    ("(1 99999999999999999999)", 3, None),
]


class TestBlockSpec:
    def test_dim(self):
        assert BlockSpec(1, 1, 3, 1).dim == 5
        assert BlockSpec(2, 2, 3, 2).dim == 12
        assert BlockSpec(0, 1, 0, 1).dim == 1

    def test_window(self):
        assert BlockSpec(1, 2, 5, 3).window == 7

    @pytest.mark.parametrize("bad", [(-1, 1, 0, 1), (0, 0, 0, 1), (1, 1, -1, 1), (1, 1, 0, 0)])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            BlockSpec(*bad)


class TestTailSizes:
    @pytest.mark.parametrize("N", [2**1023, 10**400, 2**1023 - 1, 2**1023 - 2**969],
                             ids=["2^1023", "10^400", "2^1023-1", "2^1023-2^969"])
    def test_rejects_N_beyond_the_double_range(self, N):
        with pytest.raises(ValueError, match=rf"< 2\^1023 - 2\^969; got N={N}$"):
            tail_sizes([3, N], 1)

    def test_accepts_the_largest_double_below_the_bound(self):
        N = 2**1023 - 2**970
        assert tail_sizes([N]) == (N,) and float(N) == N
        assert tail_sizes([float(N)]) == (N,)

    def test_accepts_the_largest_int_below_the_bound(self):
        # 2N is then just below the midpoint between the largest double and
        # 2^1024, so it rounds to a finite double; one more and it overflows
        N = 2**1023 - 2**969 - 1
        assert tail_sizes([N]) == (N,) and float(2 * N) < float("inf")
        with pytest.raises(OverflowError):
            float(2 * (N + 1))


class TestPermutationWord:
    def test_validation(self):
        with pytest.raises(ValueError):
            PermutationWord([1, 1, 3])
        with pytest.raises(ValueError):
            PermutationWord([0, 1])
        with pytest.raises(ValueError, match="^degree mismatch$"):
            PermutationWord([2, 1]) * PermutationWord([1, 2, 3])

    def test_compose_matches_matrix_product(self):
        a = PermutationWord([2, 3, 1])
        b = PermutationWord([1, 3, 2])
        np.testing.assert_array_equal((a * b).matrix(), a.matrix() @ b.matrix())

    def test_from_cycles(self):
        assert PermutationWord.from_cycles(5, [[1, 3]]) == PermutationWord([3, 2, 1, 4, 5])
        assert PermutationWord.from_cycles(4, [[1, 2], [3, 4]]) == PermutationWord([2, 1, 4, 3])

    @pytest.mark.parametrize("n,cycles,point", [
        (2, [[1, 2], [1, 2]], 1),
        (3, [[1, 2], [2, 3]], 2),
        (3, [[1, 2, 1]], 1),
        (3, [[1, 5]], 5),
        (3, [[0, 1]], 0),
    ], ids=["repeated_cycle", "overlap", "within", "above", "zero"])
    def test_from_cycles_rejects_bad_points(self, n, cycles, point):
        with pytest.raises(ValueError, match=f"cycle point {point} "):
            PermutationWord.from_cycles(n, cycles)

    @pytest.mark.parametrize("text,degree,point", [
        ("(1 2)(1 2)", 2, 1),
        ("(1 2)(2 3)", 3, 2),
        ("(1 5)", 3, 5),
    ])
    def test_parse_rejects_bad_cycles(self, text, degree, point):
        with pytest.raises(ValueError, match=f"cycle point {point} "):
            PermutationWord.parse(text, degree=degree)

    @pytest.mark.parametrize("text,images", [
        ("(1 2)", [2, 1]),
        ("(1 2)(3 4)", [2, 1, 4, 3]),
        ("2,1,3", [2, 1, 3]),
        ("3 1 2", [3, 1, 2]),
    ])
    def test_parse(self, text, images):
        assert PermutationWord.parse(text, len(images)) == PermutationWord(images)

    def test_parse_identity_and_degree(self):
        # "identity" is a whole-source keyword of load_source, not a
        # permutation; the degree is always the caller's
        with pytest.raises(ValueError, match="^points must be unsigned decimal integers: .identity.$"):
            PermutationWord.parse("identity", 4)
        assert PermutationWord.parse("(1 2)", degree=5).degree == 5
        with pytest.raises(TypeError):
            PermutationWord.parse("(1 2)")
        with pytest.raises(ValueError, match="^expected degree 3, got 2$"):
            PermutationWord.parse("2,1", 3)
        with pytest.raises(ValueError, match=r"^malformed cycle notation: '\(1 2'$"):
            PermutationWord.parse("(1 2", 3)

    @given(st.permutations(list(range(1, 8))))
    def test_matrix_round_trip(self, images):
        word = PermutationWord(images)
        mat = word.matrix()
        recovered = PermutationWord(np.argmax(mat, axis=0) + 1)
        assert recovered == word
        assert (word * word.inverse()) == PermutationWord.identity(word.degree)

    def test_inverse_is_kept(self):
        word = PermutationWord([3, 1, 4, 2])
        inv = word.inverse()
        assert inv.images == (2, 4, 1, 3)
        assert word.inverse() is inv and inv.inverse() is word
        assert inv == PermutationWord(inv.images) and hash(inv) == hash(PermutationWord(inv.images))


class TestBlockMatrix:
    def test_matmul_keeps_exactness(self):
        a = BlockMatrix.from_permutation(PermutationWord([2, 3, 1]))
        b = BlockMatrix.from_permutation(PermutationWord([1, 3, 2]))
        prod = a @ b
        assert prod.exact_permutation == PermutationWord([2, 3, 1]) * PermutationWord([1, 3, 2])

    def test_json_round_trip_dense(self, rng):
        m = BlockMatrix(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        data = json.loads(json.dumps(m.to_json_dict()))
        back = BlockMatrix.from_json_dict(data)
        np.testing.assert_allclose(back.entries, m.entries, atol=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)],
                             ids=["nan", "inf", "-inf", "inf-imag"])
    def test_non_finite_entries_rejected(self, bad):
        # every consumer of a BlockMatrix (products, solvers, verify_estimate)
        # may then take its entries as finite
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            BlockMatrix(np.full((3, 3), bad))
        entries = np.eye(3, dtype=complex)
        entries[1, 2] = bad
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            BlockMatrix(entries)

    def test_shape_and_kind_rejected(self):
        with pytest.raises(ValueError, match="^entries must be a square matrix$"):
            BlockMatrix(np.eye(3)[:2])
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            BlockMatrix.identity(2) @ BlockMatrix(np.eye(3))
        with pytest.raises(ValueError, match="^expected an exact permutation, got <BlockMatrix dim=2>$"):
            as_word(BlockMatrix(np.eye(2)))

    def test_entries_are_the_matrix_own(self):
        # a later write to the caller's array leaves the matrix as checked, and
        # the entries, dense or built from a word, refuse writes
        a = np.eye(3, dtype=complex)
        b = BlockMatrix(a)
        a[0, 0] = np.nan
        assert np.isfinite(b.entries).all()
        for m in (b, BlockMatrix.from_permutation(PermutationWord([3, 1, 2]))):
            with pytest.raises(ValueError, match="read-only"):
                m.entries[0, 0] = np.nan

    def test_json_round_trip_perm(self):
        m = BlockMatrix.from_permutation(PermutationWord([3, 1, 2]))
        back = BlockMatrix.from_json_dict(json.loads(json.dumps(m.to_json_dict())))
        assert back.exact_permutation == m.exact_permutation

    def test_permutation_entries_built_on_first_read(self):
        word = PermutationWord([3, 1, 2])
        m = BlockMatrix.from_permutation(word)
        assert m.dim == 3
        first = m.entries
        np.testing.assert_array_equal(first, word.matrix())
        assert first.dtype == complex
        assert m.entries is first

    def test_symmetric_path_builds_no_dense_matrix(self, monkeypatch):
        def refuse(self):
            raise AssertionError("dense permutation matrix built")

        monkeypatch.setattr(PermutationWord, "matrix", refuse)
        cfg = ExperimentConfig(family="symmetric", alpha=1, k=1, m=2, N_list=(512,),
                               epsilon_list=(0.4,), samples=4, seed=7,
                               g_spec="(1 2 3)", h_spec="(1 3)")
        (row,) = run_concentration(cfg).rows
        assert row.samples == 4
        fam = GroupFamily("symmetric", BlockSpec(1, 1, 3, 1))
        swap = embed(BlockMatrix.from_permutation(PermutationWord([2, 1])), fam.spec)
        assert sum(p for _, p in exact_convolution(swap, swap, fam).atoms) == 1


class TestLoadSource:
    @pytest.mark.parametrize("source,degrees,images", [
        ("identity", 3, [1, 2, 3]),
        ("(1 2)", 3, [2, 1, 3]),
        ("2,1,3", 3, [2, 1, 3]),
        (" (1 3) ", (3, 5), [3, 2, 1]),
        ("(1 4)", (3, 5), [4, 2, 3, 1, 5]),
        ("identity", (5, 3), [1, 2, 3]),
        ("2 1 3", 3, [2, 1, 3]),
    ])
    def test_permutations_take_smallest_degree(self, source, degrees, images):
        assert load_source(source, degrees).exact_permutation == PermutationWord(images)

    @pytest.mark.parametrize("text,degree,images", PERMUTATION_TEXTS)
    def test_reads_what_parse_reads(self, tmp_path, monkeypatch, text, degree, images):
        # the router and the parser share one token rule: load_source reads a
        # text as a permutation exactly when parse accepts it, to the same
        # word; its error names the source (a text read as a path names no file)
        monkeypatch.chdir(tmp_path)
        if images is not None:
            assert PermutationWord.parse(text, degree) == PermutationWord(images)
            assert load_source(text, degree).exact_permutation == PermutationWord(images)
            return
        with pytest.raises(ValueError):
            PermutationWord.parse(text, degree)
        with pytest.raises(ValueError, match=re.escape(text.strip())):
            load_source(text, degree)

    @pytest.mark.parametrize("source", ["(1 30000000)", "(1 99999999999999999999)"])
    @pytest.mark.parametrize("degrees", [3, (3, 5)])
    def test_huge_point_builds_no_word_of_its_size(self, monkeypatch, source, degrees):
        # a word is built at an allowed degree or not at all: the point 3e7
        # once built a 3e7-point word (MemoryError under a 2 GB limit), and
        # the point 1e20 raised OverflowError
        sizes, real = [], PermutationWord.from_cycles.__func__

        def spy(cls, n, cycles):
            sizes.append(n)
            return real(cls, n, cycles)

        monkeypatch.setattr(PermutationWord, "from_cycles", classmethod(spy))
        with pytest.raises(ValueError, match=f"^bad permutation {re.escape(repr(source))}: "
                                             "cycle point"):
            load_source(source, degrees)
        assert max(sizes) <= 5

    @pytest.mark.parametrize("degrees", [3, (5, 3)])
    def test_random_unitary_is_a_draw_at_the_smallest_degree(self, degrees):
        drawn = BlockMatrix(np.eye(3))
        assert load_source(" random_unitary ", degrees, draw=lambda n: (n, drawn)) == (3, drawn)

    def test_random_unitary_without_a_draw_names_its_one_reader(self, tmp_path, monkeypatch):
        # a file of that name is not read: the keyword is the whole source
        monkeypatch.chdir(tmp_path)
        (tmp_path / "random_unitary").write_text(json.dumps({"perm": [2, 1, 3]}))
        with pytest.raises(ValueError, match="^'random_unitary': only concentration draws a "
                                             "random source$"):
            load_source("random_unitary", 3)

    def test_matrix_file_named_with_a_leading_digit(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "2g.json").write_text(json.dumps({"perm": [2, 1, 3]}))
        assert load_source("2g.json", 3).exact_permutation == PermutationWord([2, 1, 3])

    @pytest.mark.parametrize("dim", [3, 5])
    def test_matrix_file_at_either_degree(self, tmp_path, dim):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(BlockMatrix(np.eye(dim)).to_json_dict()))
        assert load_source(str(path), (3, 5)).dim == dim

    @pytest.mark.parametrize("source,text,match", [
        ("", None, "empty matrix source"),
        ("   ", None, "empty matrix source"),
        ("nope.json", None, "not found: .*nope.json"),
        ("bad.json", "{not json", "malformed matrix JSON in .*bad.json"),
        ("list.json", "[1, 2]", "malformed matrix JSON in .*list.json"),
        ("big.json", json.dumps({"perm": [2, 1, 3, 4]}), "big.json: dimension 4, expected 3"),
        ("(1 4)", None, r"bad permutation '\(1 4\)': cycle point 4 repeats or lies outside 1\.\.3$"),
        ("1 2", None, "bad permutation '1 2'"),
        ("(1 x)", None, r"bad permutation '\(1 x\)'"),
        ("(1 2", None, r"bad permutation '\(1 2'.*malformed cycle notation"),
        ("shape.json", json.dumps({"dim": 3, "re": np.eye(2).tolist(), "im": np.eye(2).tolist()}),
         "malformed matrix JSON in .*shape.json: re/im shape does not match dim"),
        ("im.json", json.dumps({"dim": 3, "re": np.eye(3).tolist(), "im": [[5]]}),
         "malformed matrix JSON in .*im.json: re/im shape does not match dim"),
        ("nan.json", '{"dim": 1, "re": [[NaN]], "im": [[0]]}',
         "malformed matrix JSON in .*nan.json: matrix entries must be finite"),
        ("inf.json", '{"dim": 1, "re": [[1]], "im": [[-Infinity]]}',
         "malformed matrix JSON in .*inf.json: matrix entries must be finite"),
        ("dir.json", "<dir>", "unreadable matrix file .*dir.json: .*Is a directory"),
        ("latin.json", b'{"perm": [2, 1, 3], "name": "\xe9"}',
         "unreadable matrix file .*latin.json: 'utf-8' codec can't decode"),
    ])
    def test_bad_source_names_it(self, tmp_path, source, text, match):
        if text == "<dir>":
            (tmp_path / source).mkdir()
        elif isinstance(text, bytes):
            (tmp_path / source).write_bytes(text)
        elif text is not None:
            (tmp_path / source).write_text(text)
        if source.endswith(".json"):
            source = str(tmp_path / source)
        with pytest.raises(ValueError, match=match):
            load_source(source, 3)


class TestBlockAccess:
    def test_JN_active_to_tail_block(self):
        # the involution moves each active block onto the first k tail slots:
        # active rows 1:3 against tail columns 3:5
        J = build_JN(BlockSpec(1, 2, 3, 1))
        np.testing.assert_array_equal(J.entries[1:3, 3:5], np.eye(2))


class TestEmbed:
    def test_identity(self):
        spec = BlockSpec(1, 1, 5, 1)
        g = BlockMatrix.identity(2)
        np.testing.assert_array_equal(embed(g, spec).entries, np.eye(7))

    def test_swap_goes_to_coordinates_1_2(self):
        spec = BlockSpec(1, 1, 3, 1)
        g = BlockMatrix.from_permutation(PermutationWord([2, 1]))
        out = embed(g, spec)
        assert out.exact_permutation == PermutationWord([2, 1, 3, 4, 5])

    def test_m2_layout(self, rng):
        # window points of copy 2 must land after copy 1's tail
        spec = BlockSpec(1, 1, 2, 2)  # dim 7; windows at positions 0, 1, 4
        g = BlockMatrix(rng.standard_normal((3, 3)))
        out = embed(g, spec).entries
        idx = [0, 1, 4]
        np.testing.assert_allclose(out[np.ix_(idx, idx)], g.entries.real)
        rest = [2, 3, 5, 6]
        np.testing.assert_allclose(out[np.ix_(rest, rest)], np.eye(4))
        assert np.abs(out[np.ix_(rest, idx)]).max() == 0

    def test_homomorphism(self):
        spec = BlockSpec(1, 2, 3, 2)
        gen = RandomStream(5, 0).generator()
        g1 = BlockMatrix(haar_unitary(spec.window, gen))
        g2 = BlockMatrix(haar_unitary(spec.window, gen))
        lhs = embed(g1 @ g2, spec).entries
        rhs = (embed(g1, spec) @ embed(g2, spec)).entries
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_unitarity_preserved(self):
        spec = BlockSpec(2, 1, 4, 1)
        g = BlockMatrix(haar_unitary(spec.window, RandomStream(6, 0)))
        assert is_unitary(embed(g, spec))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            embed(BlockMatrix.identity(3), BlockSpec(1, 1, 2, 1))


class TestEmbedK:
    def test_identity(self):
        spec = BlockSpec(1, 1, 2, 2)
        np.testing.assert_array_equal(embed_k(np.eye(3), spec).entries, np.eye(7))

    def test_two_identical_copies(self, rng):
        spec = BlockSpec(1, 1, 1, 2)
        u = rng.standard_normal((2, 2))
        out = embed_k(u, spec).entries
        np.testing.assert_allclose(out[1:3, 1:3], u)
        np.testing.assert_allclose(out[3:5, 3:5], u)
        assert out[0, 0] == 1

    def test_permutation_word_fixes_corner(self):
        spec = BlockSpec(2, 1, 2, 1)
        word = PermutationWord([3, 1, 2])
        out = embed_k(word, spec)
        images = out.exact_permutation.images
        assert images[0] == 1 and images[1] == 2
        assert images[2:] == (5, 3, 4)

    def test_size_check(self):
        with pytest.raises(ValueError):
            embed_k(np.eye(2), BlockSpec(1, 1, 2, 1))


class TestWordAndDenseEmbeddingsAgree:
    def test_same_entries(self):
        gen = RandomStream(12, 0).generator()
        for alpha, k, n_tail, m in itertools.product((0, 1, 2), (1, 2), (0, 1, 3), (1, 2, 3)):
            spec = BlockSpec(alpha, k, n_tail, m)
            g = uniform_permutation(spec.window, gen)
            u = uniform_permutation(spec.copy_size, gen)
            by_word = embed(BlockMatrix.from_permutation(g), spec)
            by_dense = embed(BlockMatrix(g.matrix()), spec)
            assert by_word.exact_permutation is not None
            np.testing.assert_array_equal(by_word.entries, by_dense.entries)
            by_word, by_dense = embed_k(u, spec), embed_k(u.matrix(), spec)
            assert by_word.exact_permutation is not None
            np.testing.assert_array_equal(by_word.entries, by_dense.entries)


class TestBuildJN:
    def test_involution(self):
        for spec in [BlockSpec(1, 1, 3, 1), BlockSpec(0, 2, 2, 3), BlockSpec(2, 2, 5, 2)]:
            J = build_JN(spec)
            prod = J @ J
            assert prod.exact_permutation == PermutationWord.identity(spec.dim)

    def test_small_case_is_transposition(self):
        J = build_JN(BlockSpec(1, 1, 3, 1))
        assert J.exact_permutation == PermutationWord([1, 3, 2, 4, 5])

    def test_corner_fixed(self):
        spec = BlockSpec(3, 1, 2, 2)
        J = build_JN(spec)
        np.testing.assert_array_equal(J.entries[:3, :3], np.eye(3))

    def test_symmetric_real_01(self):
        J = build_JN(BlockSpec(1, 2, 4, 2)).entries
        assert np.abs(J - J.T).max() == 0
        assert set(np.unique(J.real)) <= {0.0, 1.0}
        assert np.abs(J.imag).max() == 0

    def test_tail_too_short(self):
        with pytest.raises(ValueError):
            build_JN(BlockSpec(1, 2, 1, 1))


class TestNorms:
    def test_operator_norm_basics(self):
        assert operator_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)
        assert operator_norm(np.zeros((3, 3))) == 0.0
        assert operator_norm(np.diag([3.0, 4.0])) == pytest.approx(4.0, abs=1e-12)
        assert operator_norm(np.zeros((0, 0))) == 0.0

    def test_submultiplicative(self, rng):
        for _ in range(20):
            a = rng.standard_normal((20, 20))
            b = rng.standard_normal((20, 20))
            assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-9

    def test_is_unitary(self):
        assert is_unitary(np.eye(3))
        assert not is_unitary(2 * np.eye(3))
        # the tolerance is 1e-10 on ||mat^H mat - I||
        assert is_unitary((1 + 1e-11) * np.eye(3))
        assert not is_unitary((1 + 1e-10) * np.eye(3))
        perm = PermutationWord([2, 3, 1]).matrix()
        assert is_unitary(perm) and np.array_equal(perm.T @ perm, np.eye(3))

    @pytest.mark.parametrize("mat", [
        np.eye(3)[:, :2],  # orthonormal columns: the column Gram is the identity
        np.eye(3)[:2],
        np.ones(3),
        np.eye(2)[None],
        1.0,
    ], ids=["tall", "wide", "vector", "stack", "scalar"])
    def test_is_unitary_false_for_non_square(self, mat):
        assert is_unitary(mat) is False
