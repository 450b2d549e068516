import itertools
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cosetlab.blockmat import (
    BlockMatrix,
    BlockSpec,
    PermutationWord,
    block,
    build_JN,
    embed,
    embed_k,
    is_unitary,
    load_source,
    operator_norm,
)
from cosetlab.cosets import GroupFamily
from cosetlab.experiments import ExperimentConfig, run_concentration
from cosetlab.haar import RandomStream, haar_unitary, uniform_permutation
from cosetlab.hypergroup_exact import exact_convolution


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

    def test_block_slices(self):
        spec = BlockSpec(2, 1, 3, 2)  # dim 10: corner 0:2, copies [2:6], [6:10]
        assert spec.block_slice("corner") == slice(0, 2)
        assert spec.block_slice("active_1") == slice(2, 3)
        assert spec.block_slice("tail_1") == slice(3, 6)
        assert spec.block_slice("active_2") == slice(6, 7)
        assert spec.block_slice("tail_2") == slice(7, 10)
        with pytest.raises(KeyError):
            spec.block_slice("active_3")
        with pytest.raises(KeyError):
            spec.block_slice("middle")


class TestPermutationWord:
    def test_validation(self):
        with pytest.raises(ValueError):
            PermutationWord([1, 1, 3])
        with pytest.raises(ValueError):
            PermutationWord([0, 1])

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
        ("(1 2)(1 2)", None, 1),
        ("(1 2)(2 3)", None, 2),
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
        assert PermutationWord.parse(text) == PermutationWord(images)

    def test_parse_identity_and_degree(self):
        assert PermutationWord.parse("identity", degree=4) == PermutationWord.identity(4)
        assert PermutationWord.parse("(1 2)", degree=5).degree == 5
        with pytest.raises(ValueError):
            PermutationWord.parse("identity")

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
    def test_exact_permutation_consistency(self):
        word = PermutationWord([2, 1])
        BlockMatrix(word.matrix(), exact_permutation=word)  # fine
        with pytest.raises(ValueError):
            BlockMatrix(np.eye(2), exact_permutation=word)

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
        assert exact_convolution(swap, swap, fam).total() == 1


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
        ("(1 4)", None, r"\(1 4\): dimension 4, expected 3"),
        ("1 2", None, "bad permutation '1 2'"),
        ("(1 x)", None, r"bad permutation '\(1 x\)'"),
    ])
    def test_bad_source_names_it(self, tmp_path, source, text, match):
        if text is not None:
            (tmp_path / source).write_text(text)
        if source.endswith(".json"):
            source = str(tmp_path / source)
        with pytest.raises(ValueError, match=match):
            load_source(source, 3)


class TestBlockAccess:
    def test_identity_corner(self):
        spec = BlockSpec(2, 1, 3, 1)
        m = BlockMatrix.identity(spec.dim, spec)
        np.testing.assert_array_equal(block(m, "corner", "corner"), np.eye(2))

    def test_reads_named_blocks(self, rng):
        spec = BlockSpec(1, 1, 2, 1)
        raw = rng.standard_normal((4, 4))
        m = BlockMatrix(raw, spec)
        np.testing.assert_allclose(block(m, "corner", "corner"), raw[:1, :1])
        np.testing.assert_allclose(block(m, "active_1", "tail_1"), raw[1:2, 2:4])

    def test_JN_active_to_tail_block(self):
        # the involution moves each active block onto the first k tail slots
        spec = BlockSpec(1, 2, 3, 1)
        J = build_JN(spec)
        tail_first_k = block(J, "active_1", "tail_1")[:, : spec.k]
        np.testing.assert_array_equal(tail_first_k, np.eye(2))

    def test_missing_spec(self):
        with pytest.raises(ValueError):
            block(BlockMatrix(np.eye(2)), "corner", "corner")


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
        assert is_unitary(embed(g, spec), 1e-10)

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
        np.testing.assert_array_equal(block(J, "corner", "corner"), np.eye(3))

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
        assert is_unitary(np.eye(3), 1e-10)
        assert not is_unitary(2 * np.eye(3), 1e-10)
        assert is_unitary(PermutationWord([2, 3, 1]).matrix(), 0.0)

    @pytest.mark.parametrize("mat", [
        np.eye(3)[:, :2],  # orthonormal columns: the column Gram is the identity
        np.eye(3)[:2],
        np.ones(3),
        np.eye(2)[None],
        1.0,
    ], ids=["tall", "wide", "vector", "stack", "scalar"])
    def test_is_unitary_false_for_non_square(self, mat):
        assert is_unitary(mat) is False
