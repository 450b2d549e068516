from dataclasses import replace

import numpy as np
import pytest

from cosetlab.blockmat import (
    BlockMatrix,
    BlockSpec,
    PermutationWord,
    build_JN,
    embed,
    embed_k,
    is_unitary,
)
from cosetlab.cosets import (
    GroupFamily,
    circ_N,
    circ_infinite,
    lift_core_witnesses,
    sample_core,
    sample_tau_full,
    sample_tau_tilde,
)
from cosetlab.geometry import (
    dist_conjugacy,
    dist_double_coset,
    eigenvalue_matching_distance,
    sym_membership,
    verify_estimate,
)
from cosetlab.haar import RandomStream, haar_orthogonal, haar_unitary, uniform_permutation

SWAP = BlockMatrix.from_permutation(PermutationWord([2, 1]))


class TestGroupFamily:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            GroupFamily("octonionic", BlockSpec(1, 1, 2, 1))

    def test_conjugation_needs_m1(self):
        with pytest.raises(ValueError):
            GroupFamily("unitary_conjugation", BlockSpec(1, 1, 2, 2))

    def test_with_n_tail(self):
        fam = GroupFamily("symmetric", BlockSpec(1, 1, 2, 1))
        assert fam.with_n_tail(5).spec.n_tail == 5


class TestCircInfinite:
    def test_identities(self):
        g = BlockMatrix.identity(3)
        out = circ_infinite(g, g, alpha=1)
        np.testing.assert_array_equal(out.entries, np.eye(5))

    def test_right_identity_appends_identity_block(self, rng):
        g = BlockMatrix(haar_unitary(3, RandomStream(1, 0)))
        out = circ_infinite(g, BlockMatrix.identity(3), alpha=2)
        np.testing.assert_allclose(out.entries[:3, :3], g.entries, atol=1e-15)
        np.testing.assert_allclose(out.entries[3:, 3:], np.eye(1), atol=1e-15)
        assert np.abs(out.entries[:3, 3:]).max() == 0

    def test_swap_fixture(self):
        # hand evaluation of the block formula at alpha=1, k=1:
        # a=0,b=1,c=1,d=0 twice gives the 3-cycle matrix below
        out = circ_infinite(SWAP, SWAP, alpha=1)
        expected = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        np.testing.assert_array_equal(out.entries.real, expected)
        assert out.exact_permutation == PermutationWord([3, 1, 2])

    def test_unitary_output(self):
        gen = RandomStream(2, 0).generator()
        for _ in range(5):
            g = BlockMatrix(haar_unitary(4, gen))
            h = BlockMatrix(haar_unitary(4, gen))
            assert is_unitary(circ_infinite(g, h, alpha=2), 1e-10)

    def test_mixed_active_sizes(self):
        gen = RandomStream(3, 0).generator()
        g = BlockMatrix(haar_unitary(3, gen))  # alpha=1, k1=2
        h = BlockMatrix(haar_unitary(2, gen))  # alpha=1, k2=1
        out = circ_infinite(g, h, alpha=1)
        assert out.dim == 4
        assert is_unitary(out, 1e-10)

    def test_equals_conjugation_product_at_tail_k(self):
        # at n_tail = k, embed(g).J.embed(h).J is g on the first alpha+k points
        # times h on the corner and the tail: the corner product
        gen = RandomStream(8, 0).generator()
        for alpha, k in [(0, 1), (1, 1), (1, 2), (2, 3)]:
            fam = GroupFamily("unitary_conjugation", BlockSpec(alpha, k, k, 1))
            w = alpha + k
            g, h = (BlockMatrix.from_permutation(uniform_permutation(w, gen)) for _ in "gh")
            out = circ_infinite(g, h, alpha)
            assert out.exact_permutation == circ_N(g, h, fam).representative.exact_permutation
            g, h = (BlockMatrix(haar_unitary(w, gen)) for _ in "gh")
            ref = circ_N(g, h, fam).representative.entries
            assert np.abs(circ_infinite(g, h, alpha).entries - ref).max() <= 1e-15

    def test_alpha_inference_needs_spec(self):
        with pytest.raises(ValueError):
            circ_infinite(BlockMatrix.identity(2), BlockMatrix.identity(2))

    def test_alpha_out_of_range(self):
        for alpha in (-1, 3):
            with pytest.raises(ValueError, match="alpha"):
                circ_infinite(SWAP, BlockMatrix.identity(3), alpha=alpha)


class TestCircN:
    def test_identity_representative_is_the_involution(self):
        fam = GroupFamily("unitary_orthogonal", BlockSpec(1, 1, 3, 1))
        e = BlockMatrix.identity(2)
        target = circ_N(e, e, fam)
        np.testing.assert_array_equal(
            target.representative.entries, build_JN(fam.spec).entries)

    def test_identity_conjugation_collapses(self):
        fam = GroupFamily("unitary_conjugation", BlockSpec(1, 1, 3, 1))
        e = BlockMatrix.identity(2)
        target = circ_N(e, e, fam)
        np.testing.assert_array_equal(target.representative.entries, np.eye(5))

    def test_symmetric_fixture(self):
        # (1 2) . (2 3) . (1 2) = (1 3) on five points
        fam = GroupFamily("symmetric", BlockSpec(1, 1, 3, 1))
        target = circ_N(SWAP, SWAP, fam)
        assert target.representative.exact_permutation == PermutationWord([3, 2, 1, 4, 5])

    def test_unitary_block_layout(self):
        # with row/col blocks (corner | active | first tail k | rest):
        # [[ap, aq, b, 0], [cp, cq, d, 0], [r, t, 0, 0], [0, 0, 0, 1]]
        gen = RandomStream(8, 0).generator()
        g = BlockMatrix(haar_unitary(2, gen))
        h = BlockMatrix(haar_unitary(2, gen))
        fam = GroupFamily("unitary_orthogonal", BlockSpec(1, 1, 3, 1))
        rep = circ_N(g, h, fam).representative.entries
        a, b, c, d = g.entries[0, 0], g.entries[0, 1], g.entries[1, 0], g.entries[1, 1]
        p, q, r, t = h.entries[0, 0], h.entries[0, 1], h.entries[1, 0], h.entries[1, 1]
        expected = np.zeros((5, 5), dtype=complex)
        expected[0, 0], expected[0, 1], expected[0, 2] = a * p, a * q, b
        expected[1, 0], expected[1, 1], expected[1, 2] = c * p, c * q, d
        expected[2, 0], expected[2, 1] = r, t
        expected[3, 3] = expected[4, 4] = 1
        np.testing.assert_allclose(rep, expected, atol=1e-15)

    def test_tail_too_short(self):
        fam = GroupFamily("unitary_orthogonal", BlockSpec(1, 2, 1, 1))
        with pytest.raises(ValueError):
            circ_N(BlockMatrix.identity(3), BlockMatrix.identity(3), fam)

    @pytest.mark.parametrize("kind", ["unitary_orthogonal", "unitary_conjugation"])
    @pytest.mark.parametrize("side", ["g", "h"])
    def test_rejects_non_unitary_inputs(self, kind, side):
        fam = GroupFamily(kind, BlockSpec(1, 1, 3, 1))
        pair = {"g": BlockMatrix.identity(2), "h": BlockMatrix.identity(2)}
        pair[side] = BlockMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="unitary g and h"):
            circ_N(pair["g"], pair["h"], fam)


def _k_subgroup_structure_ok(x, spec):
    e = x.entries
    if np.abs(e[: spec.alpha, : spec.alpha] - np.eye(spec.alpha)).max() > 1e-9:
        return False
    first = e[spec.copy_slice(0), spec.copy_slice(0)]
    for c in range(spec.m):
        sl = spec.copy_slice(c)
        if np.abs(e[sl, sl] - first).max() > 1e-9:
            return False
    off = e.copy()
    off[: spec.alpha, : spec.alpha] = 0
    for c in range(spec.m):
        sl = spec.copy_slice(c)
        off[sl, sl] = 0
    return np.abs(off).max() <= 1e-9


class TestSamplers:
    @pytest.mark.parametrize("kind", ["unitary_orthogonal", "unitary_conjugation", "symmetric"])
    def test_identity_inputs_land_in_subgroup(self, kind):
        m = 1 if kind == "unitary_conjugation" else 2
        fam = GroupFamily(kind, BlockSpec(1, 1, 2, m))
        e = BlockMatrix.identity(fam.spec.dim)
        x = sample_tau_tilde(e, e, fam, RandomStream(0, 0))
        assert _k_subgroup_structure_ok(x, fam.spec)
        y = sample_tau_full(e, e, fam, RandomStream(0, 1))
        assert _k_subgroup_structure_ok(y, fam.spec)

    def test_unitarity(self):
        fam = GroupFamily("unitary_orthogonal", BlockSpec(1, 1, 4, 1))
        gen = RandomStream(3, 0).generator()
        g = embed(BlockMatrix(haar_unitary(2, gen)), fam.spec)
        h = embed(BlockMatrix(haar_unitary(2, gen)), fam.spec)
        for i in range(5):
            assert is_unitary(sample_tau_tilde(g, h, fam, RandomStream(3, i)), 1e-9)
            assert is_unitary(sample_tau_full(g, h, fam, RandomStream(4, i)), 1e-9)

    def test_symmetric_samples_stay_exact(self):
        fam = GroupFamily("symmetric", BlockSpec(1, 1, 3, 1))
        g = embed(SWAP, fam.spec)
        x = sample_tau_tilde(g, g, fam, RandomStream(5, 0))
        assert x.exact_permutation is not None

    def test_symmetric_tilde_hit_rate(self):
        # exact enumeration gives 18/24 = 0.75 for this fixture; 240 draws
        # should land within a generous band around it
        fam = GroupFamily("symmetric", BlockSpec(1, 1, 3, 1))
        g = embed(SWAP, fam.spec)
        target = circ_N(SWAP, SWAP, fam)
        hits = sum(
            sym_membership(sample_tau_tilde(g, g, fam, RandomStream(6, i)), target)
            for i in range(240))
        assert abs(hits / 240 - 0.75) < 0.1

    def test_tilde_full_agree_on_invariant_events(self):
        # membership events are two-sided invariant, so both measures must
        # give the same hit probability; compare at 3 joint standard errors
        fam = GroupFamily("symmetric", BlockSpec(1, 1, 3, 1))
        gen = RandomStream(12, 0).generator()
        from cosetlab.haar import uniform_permutation

        g = embed(BlockMatrix.from_permutation(uniform_permutation(2, gen)), fam.spec)
        h = embed(BlockMatrix.from_permutation(uniform_permutation(2, gen)), fam.spec)
        target = circ_N(BlockMatrix.from_permutation(PermutationWord([2, 1])),
                        BlockMatrix.from_permutation(PermutationWord([2, 1])), fam)
        n = 400
        f_tilde = sum(sym_membership(sample_tau_tilde(g, h, fam, RandomStream(13, i)), target)
                      for i in range(n)) / n
        f_full = sum(sym_membership(sample_tau_full(g, h, fam, RandomStream(14, i)), target)
                     for i in range(n)) / n
        se = np.sqrt(f_tilde * (1 - f_tilde) / n + f_full * (1 - f_full) / n)
        assert abs(f_tilde - f_full) <= max(3 * se, 0.02)

    def test_conjugation_spectrum_invariant_under_outer_draw(self):
        # the tau_full outer conjugation cannot move eigenvalues
        fam = GroupFamily("unitary_conjugation", BlockSpec(1, 1, 7, 1))
        gen = RandomStream(21, 0).generator()
        g = embed(BlockMatrix(haar_unitary(2, gen)), fam.spec)
        h = embed(BlockMatrix(haar_unitary(2, gen)), fam.spec)
        for i in range(5):
            inner = sample_tau_tilde(g, h, fam, RandomStream(22, i))
            # same X draw, then an extra outer conjugation
            gen2 = RandomStream(22, i).generator()
            full = sample_tau_full(g, h, fam, gen2)  # different draws entirely
            assert eigenvalue_matching_distance(
                inner, inner) == pytest.approx(0.0, abs=1e-12)
            z = haar_unitary(fam.spec.copy_size, gen2)
            from cosetlab.blockmat import embed_k

            Z = embed_k(z, fam.spec)
            conj = BlockMatrix(Z.entries @ inner.entries @ Z.entries.conj().T)
            assert eigenvalue_matching_distance(inner, conj) <= 1e-8

    def test_embedded_inputs_required(self):
        fam = GroupFamily("unitary_orthogonal", BlockSpec(1, 1, 3, 1))
        with pytest.raises(ValueError):
            sample_tau_tilde(SWAP, SWAP, fam, RandomStream(0, 0))


CORE_SHAPES = [(2, 2, 2, 5), (0, 1, 2, 1), (1, 2, 1, 2), (0, 2, 3, 4), (2, 1, 1, 1)]


def _core_case(kind, alpha, k, m, N, seed):
    """A full sample built from a whole Haar middle draw x_w, and its core."""
    fam = GroupFamily(kind, BlockSpec(alpha, k, N, m))
    gen = RandomStream(seed, 0).generator()
    g = BlockMatrix(haar_unitary(fam.spec.window, gen))
    h = BlockMatrix(haar_unitary(fam.spec.window, gen))
    conj = kind == "unitary_conjugation"
    x_w = (haar_unitary if conj else haar_orthogonal)(fam.spec.copy_size, gen)
    X = embed_k(x_w, fam.spec)
    x = embed(g, fam.spec) @ X @ embed(h, fam.spec)
    if conj:
        x = BlockMatrix(x.entries @ X.entries.conj().T, fam.spec)
    return fam, g, h, x_w, x, sample_core(g, h, fam, x_w[:k])


class TestSampleCore:
    @pytest.mark.parametrize("kind", ["unitary_orthogonal", "unitary_conjugation"])
    @pytest.mark.parametrize("alpha,k,m,N", CORE_SHAPES)
    def test_core_is_the_sample_in_the_core_frame(self, kind, alpha, k, m, N):
        # identity core witnesses lift to U = XQ and V = Q^* (Q^*X^* for the
        # conjugation family), so U^* x V^* must be the core on the corner and
        # the first 2k points of each copy and the identity elsewhere
        m = 1 if kind == "unitary_conjugation" else m
        fam, _, _, x_w, x, core = _core_case(kind, alpha, k, m, N, seed=40 + N)
        core_spec = fam.with_n_tail(k).spec
        assert core.spec == core_spec
        e = BlockMatrix.identity(core_spec.dim, core_spec)
        U, V = lift_core_witnesses(e, e, x_w, fam)
        framed = U.entries.conj().T @ x.entries @ V.entries.conj().T
        padded = embed(core, BlockSpec(alpha, 2 * k, N - k, m)).entries
        assert np.abs(framed - padded).max() <= 1e-12
        assert is_unitary(U, 1e-12) and is_unitary(V, 1e-12)

    @pytest.mark.parametrize("kind", ["unitary_orthogonal", "unitary_conjugation"])
    @pytest.mark.parametrize("alpha,k,m,N", CORE_SHAPES)
    def test_lifted_witnesses_verify_at_full_size(self, kind, alpha, k, m, N):
        m = 1 if kind == "unitary_conjugation" else m
        fam, g, h, x_w, x, core = _core_case(kind, alpha, k, m, N, seed=60 + N)
        core_target = circ_N(g, h, fam.with_n_tail(k))
        if kind == "unitary_conjugation":
            est = dist_conjugacy(core, core_target)
        else:
            est = dist_double_coset(core, core_target, rng=RandomStream(61, N).generator())
        U, V = lift_core_witnesses(est.witness_left, est.witness_right, x_w, fam)
        if kind == "unitary_orthogonal":
            # real orthogonal copy blocks: the lifted witnesses stay in K
            assert np.abs(U.entries.imag).max() == 0 and np.abs(V.entries.imag).max() == 0
        lifted = replace(est, witness_left=U, witness_right=V)
        assert abs(verify_estimate(lifted, x, circ_N(g, h, fam)) - est.upper_bound) <= 1e-10

    @pytest.mark.parametrize("kind", ["unitary_orthogonal", "unitary_conjugation"])
    @pytest.mark.parametrize("alpha,k,m,N", CORE_SHAPES)
    def test_unitary_core_takes_core_size_h(self, kind, alpha, k, m, N):
        m = 1 if kind == "unitary_conjugation" else m
        fam, g, h, x_w, _, core = _core_case(kind, alpha, k, m, N, seed=80 + N)
        h_core = embed(h, fam.with_n_tail(k).spec)
        assert np.array_equal(sample_core(g, h_core, fam, x_w[:k]).entries, core.entries)

    def test_core_ignores_tail_size(self):
        # the same first rows padded with zeros to a longer tail give the same core
        fam, g, h, x_w, _, core = _core_case("unitary_orthogonal", 1, 2, 2, 3, seed=7)
        longer = GroupFamily(fam.kind, BlockSpec(1, 2, 9, 2))
        rows = np.hstack([x_w[:2], np.zeros((2, 6))])
        np.testing.assert_allclose(sample_core(g, h, longer, rows).entries, core.entries,
                                   atol=1e-14)

    def test_rejects_symmetric_family_and_bad_rows(self):
        fam = GroupFamily("symmetric", BlockSpec(1, 1, 2, 1))
        with pytest.raises(ValueError):
            sample_core(SWAP, SWAP, fam, np.eye(1, 3))
        fam = GroupFamily("unitary_orthogonal", BlockSpec(1, 1, 2, 1))
        with pytest.raises(ValueError, match="first 1 rows"):
            sample_core(SWAP, SWAP, fam, np.eye(2, 3))

    @pytest.mark.parametrize("alpha", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_symmetric_core_verdict_matches_full_size(self, alpha, k, m):
        # the core built from u's active images is in the product coset at
        # tail size k exactly when the full sample is at tail size N
        gen = RandomStream(500 + 9 * alpha + 3 * k + m, 0).generator()
        verdicts = set()
        for N in (k, k + 1, k + 3, 9):
            fam = GroupFamily("symmetric", BlockSpec(alpha, k, N, m))
            core_fam = fam.with_n_tail(k)
            for _ in range(25):
                g = BlockMatrix.from_permutation(uniform_permutation(fam.spec.window, gen))
                h = BlockMatrix.from_permutation(uniform_permutation(fam.spec.window, gen))
                u = uniform_permutation(fam.spec.copy_size, gen)
                x = embed(g, fam.spec) @ embed_k(u, fam.spec) @ embed(h, fam.spec)
                full = sym_membership(x, circ_N(g, h, fam))
                core = sample_core(g, h, fam, np.array(u.images[:k]))
                assert core.spec == core_fam.spec and core.exact_permutation is not None
                assert sym_membership(core, circ_N(g, h, core_fam)) == full, (N, u)
                verdicts.add(full)
        # at alpha = 0 and m = 1, K is the whole group: every sample is a member
        assert verdicts == ({True} if alpha == 0 and m == 1 else {True, False})

    def test_symmetric_core_rejects_bad_images(self):
        fam = GroupFamily("symmetric", BlockSpec(1, 2, 5, 1))
        for rows in ([1], [1, 2, 3], [[1, 2]]):
            with pytest.raises(ValueError, match="2 active images"):
                sample_core(SWAP, SWAP, fam, np.array(rows))

    @pytest.mark.parametrize("rows", [[5, 5], [99, 4], [0, 3], [8, 1], [1.5, 2]])
    def test_symmetric_core_rejects_repeated_or_out_of_range_images(self, rows):
        fam = GroupFamily("symmetric", BlockSpec(1, 2, 5, 1))
        g = BlockMatrix.from_permutation(PermutationWord([1, 3, 2]))
        with pytest.raises(ValueError, match="distinct active images in 1..7"):
            sample_core(g, g, fam, np.array(rows))

    def test_symmetric_core_takes_core_size_factors(self):
        gen = RandomStream(8, 0).generator()
        fam = GroupFamily("symmetric", BlockSpec(1, 2, 6, 2))
        core_spec = fam.with_n_tail(2).spec
        for _ in range(10):
            g = BlockMatrix.from_permutation(uniform_permutation(fam.spec.window, gen))
            h = BlockMatrix.from_permutation(uniform_permutation(fam.spec.window, gen))
            rows = gen.choice(fam.spec.copy_size, 2, replace=False) + 1
            assert (sample_core(embed(g, core_spec), embed(h, core_spec), fam, rows)
                    .exact_permutation == sample_core(g, h, fam, rows).exact_permutation)
