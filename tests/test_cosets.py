from dataclasses import replace

import numpy as np
import pytest

import cosetlab.cosets as cosets
from cosetlab.blockmat import (
    BlockMatrix,
    BlockSpec,
    PermutationWord,
    build_JN,
    embed,
    embed_k,
    is_unitary,
    operator_norm,
)
from cosetlab.cosets import (
    GroupFamily,
    circ_N,
    circ_infinite,
    core_images,
    lift_core_witnesses,
    sample_core,
    sample_core_stack,
    sample_tau_full,
    sample_tau_tilde,
)
from cosetlab.geometry import (
    dist_conjugacy,
    dist_conjugacy_stack,
    dist_double_coset,
    dist_double_coset_stack,
    eigenvalue_matching_distance,
    sym_membership,
    verify_estimate,
)
from cosetlab.haar import (
    RandomStream,
    _block_normals,
    _top_blocks,
    haar_orthogonal,
    haar_unitary,
    uniform_permutation,
)

SWAP = BlockMatrix.from_permutation(PermutationWord([2, 1]))


def _unitary_within(mat, tol):
    """||mat^H mat - I|| <= tol, for a tighter tol than ``is_unitary``'s."""
    a = mat.entries if isinstance(mat, BlockMatrix) else np.asarray(mat)
    return operator_norm(a.conj().T @ a - np.eye(len(a))) <= tol


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
            assert is_unitary(circ_infinite(g, h, alpha=2))

    def test_mixed_active_sizes(self):
        gen = RandomStream(3, 0).generator()
        g = BlockMatrix(haar_unitary(3, gen))  # alpha=1, k1=2
        h = BlockMatrix(haar_unitary(2, gen))  # alpha=1, k2=1
        out = circ_infinite(g, h, alpha=1)
        assert out.dim == 4
        assert is_unitary(out)

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
            assert is_unitary(sample_tau_tilde(g, h, fam, RandomStream(3, i)))
            assert is_unitary(sample_tau_full(g, h, fam, RandomStream(4, i)))

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
        sym = GroupFamily("symmetric", BlockSpec(1, 1, 3, 1))
        e, dense = BlockMatrix.identity(5), BlockMatrix(np.eye(5))
        with pytest.raises(ValueError, match="^h must be an exact permutation for the symmetric family$"):
            sample_tau_full(e, dense, sym, RandomStream(0, 0))


CORE_SHAPES = [(2, 2, 2, 5), (0, 1, 2, 1), (1, 2, 1, 2), (0, 2, 3, 4), (2, 1, 1, 1)]


def _core_case(kind, alpha, k, m, N, seed):
    """A full sample built from a whole Haar middle draw x_w, and its core."""
    fam = GroupFamily(kind, BlockSpec(alpha, k, N, m))
    gen = RandomStream(seed, 0).generator()
    g = BlockMatrix(haar_unitary(fam.spec.window, gen))
    h = BlockMatrix(haar_unitary(fam.spec.window, gen))
    x_w = (haar_unitary if kind == "unitary_conjugation" else haar_orthogonal)(
        fam.spec.copy_size, gen)
    x = _sample(fam, g, h, embed_k(x_w, fam.spec))
    return fam, g, h, x_w, x, sample_core(g, h, fam, x_w[:k, :k])


def _sample(fam, g, h, X):
    """embed(g).X.embed(h), times X^* for the conjugation family."""
    x = embed(g, fam.spec) @ X @ embed(h, fam.spec)
    if fam.kind == "unitary_conjugation":
        x = BlockMatrix(x.entries @ X.entries.conj().T)
    return x


def _canonical_middle_draw(fam, a):
    """embed_k(c (+) I): the lift of identity witnesses is the canonical middle draw."""
    e = BlockMatrix.identity(fam.with_n_tail(fam.spec.k).spec.dim)
    return lift_core_witnesses(e, e, a, fam)[0]


class TestSampleCore:
    @pytest.mark.parametrize("kind", ["unitary_orthogonal", "unitary_conjugation"])
    @pytest.mark.parametrize("alpha,k,m,N", CORE_SHAPES)
    def test_core_is_the_sample_in_the_core_frame(self, kind, alpha, k, m, N):
        # the whole draw is x_w = W.x_a.(I_k (+) V) with W = I_k (+) W', so the
        # sample is k1.x_a.k2 (k1.x_a.k1^* for conjugation) with k1, k2 in K,
        # where x_a is the canonical sample built from x_w's block A alone
        m = 1 if kind == "unitary_conjugation" else m
        fam, g, h, x_w, x, core = _core_case(kind, alpha, k, m, N, seed=40 + N)
        core_spec = fam.with_n_tail(k).spec
        assert core.dim == core_spec.dim
        # identity core witnesses lift to U = X_a, the canonical middle draw,
        # and V = I (X_a^* for conjugation), so U^* x_a V^* is the core on the
        # corner and the first 2k points of each copy and the identity elsewhere
        e = BlockMatrix.identity(core_spec.dim)
        U, V = lift_core_witnesses(e, e, x_w[:k, :k], fam)
        assert _unitary_within(U, 1e-12) and _unitary_within(V, 1e-12)
        x_a = _sample(fam, g, h, U)
        framed = U.entries.conj().T @ x_a.entries @ V.entries.conj().T
        padded = embed(core, BlockSpec(alpha, 2 * k, N - k, m)).entries
        assert np.abs(framed - padded).max() <= 1e-12
        # T = P [S, 0] Q, so T.V^* = [D, 0] with D = P S P^* and V = (P (+) I).Q
        p, _, q = np.linalg.svd(x_w[:k, k:])
        v = np.eye(k + N, dtype=x_w.dtype)
        v[k:, k:] = q
        v[k:2 * k, k:] = p @ q[:k]
        copy = fam.spec.copy_slice(0)
        w = x_w @ v.conj().T @ U.entries[copy, copy].conj().T
        assert np.abs(w[:k, :k] - np.eye(k)).max() <= 1e-12
        assert np.abs(w[:k, k:]).max() <= 1e-12 and np.abs(w[k:, :k]).max() <= 1e-12
        k1, k2 = embed_k(w, fam.spec), embed_k(v, fam.spec)
        if kind == "unitary_conjugation":
            k2 = BlockMatrix(k1.entries.conj().T)
        else:
            # real orthogonal copy blocks: k1 and k2 lie in K
            assert np.abs(k1.entries.imag).max() == 0 and np.abs(k2.entries.imag).max() == 0
        assert _unitary_within(k1, 1e-12) and _unitary_within(k2, 1e-12)
        assert np.abs((k1 @ x_a @ k2).entries - x.entries).max() <= 1e-12

    @pytest.mark.parametrize("kind", ["unitary_orthogonal", "unitary_conjugation"])
    @pytest.mark.parametrize("alpha,k,m,N", CORE_SHAPES)
    def test_lifted_witnesses_verify_at_full_size(self, kind, alpha, k, m, N):
        m = 1 if kind == "unitary_conjugation" else m
        fam, g, h, x_w, _, core = _core_case(kind, alpha, k, m, N, seed=60 + N)
        a = x_w[:k, :k]
        core_target = circ_N(g, h, fam.with_n_tail(k))
        if kind == "unitary_conjugation":
            est = dist_conjugacy(core, core_target)
        else:
            est = dist_double_coset(core, core_target)
        U, V = lift_core_witnesses(est.witness_left, est.witness_right, a, fam)
        if kind == "unitary_orthogonal":
            # real orthogonal copy blocks: the lifted witnesses stay in K
            assert np.abs(U.entries.imag).max() == 0 and np.abs(V.entries.imag).max() == 0
        lifted = replace(est, witness_left=U, witness_right=V)
        x_a = _sample(fam, g, h, _canonical_middle_draw(fam, a))
        assert abs(verify_estimate(lifted, x_a, circ_N(g, h, fam)) - est.upper_bound) <= 1e-10

    @pytest.mark.parametrize("kind", ["unitary_orthogonal", "unitary_conjugation"])
    @pytest.mark.parametrize("alpha,k,m,N", CORE_SHAPES)
    def test_unitary_core_takes_core_size_h(self, kind, alpha, k, m, N):
        m = 1 if kind == "unitary_conjugation" else m
        fam, g, h, x_w, _, core = _core_case(kind, alpha, k, m, N, seed=80 + N)
        h_core = embed(h, fam.with_n_tail(k).spec)
        assert np.array_equal(sample_core(g, h_core, fam, x_w[:k, :k]).entries, core.entries)

    @pytest.mark.parametrize("kind,a", [
        ("unitary_orthogonal", np.array([[0.0, 1.0], [1.0, 0.0]])),
        ("unitary_conjugation", haar_unitary(2, RandomStream(5, 0))),
    ])
    def test_core_at_block_norm_one(self, kind, a):
        # ||a|| = 1 to rounding: I - aa^* has eigenvalues at 0 of either sign,
        # which a Cholesky factor rejects and the clipped root takes
        fam = GroupFamily(kind, BlockSpec(1, 2, 6, 1))
        gen = RandomStream(6, 0).generator()
        g, h = (BlockMatrix(haar_unitary(fam.spec.window, gen)) for _ in range(2))
        assert _unitary_within(sample_core(g, h, fam, a), 1e-12)
        e = BlockMatrix.identity(fam.with_n_tail(2).spec.dim)
        assert all(_unitary_within(w, 1e-12) for w in lift_core_witnesses(e, e, a, fam))

    @pytest.mark.parametrize("kind,alpha,k,m", [
        *(("unitary_orthogonal", *shape) for shape in [(1, 1, 1), (2, 2, 1), (1, 2, 2)]),
        *(("unitary_conjugation", *shape) for shape in [(1, 1, 1), (2, 2, 1), (0, 2, 1)]),
    ])
    def test_core_at_a_zero_is_the_infinite_tail_product(self, kind, alpha, k, m):
        # at a = 0 the frame is [0, I]: g acts on the first tail slots, so the
        # core is J.r (J.r.J for conjugation) with r the product at tail size k
        # and J in K; both solvers find the class at once.  No part of the core
        # has size N, so N = 10^12 gives the same core.
        fam = GroupFamily(kind, BlockSpec(alpha, k, 5, m))
        gen = RandomStream(3, 0).generator()
        g, h = (BlockMatrix(haar_unitary(fam.spec.window, gen)) for _ in range(2))
        a = np.zeros((k, k))
        core = sample_core(g, h, fam, a)
        core_fam = fam.with_n_tail(k)
        target = circ_N(g, h, core_fam)
        J = build_JN(core_fam.spec)
        swapped = J @ core @ J if kind == "unitary_conjugation" else J @ core
        assert np.abs(swapped.entries - target.representative.entries).max() <= 1e-15
        if kind == "unitary_conjugation":
            est = dist_conjugacy(core, target)
        else:
            est = dist_double_coset(core, target)
        assert est.upper_bound <= 1e-14
        assert np.array_equal(sample_core(g, h, fam.with_n_tail(10**12), a).entries,
                              core.entries)

    @pytest.mark.parametrize("kind,m", [("unitary_orthogonal", 1), ("unitary_orthogonal", 2),
                                        ("unitary_conjugation", 1)])
    @pytest.mark.parametrize("alpha", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_core_within_two_phi_of_the_frame_start(self, kind, m, alpha, k):
        # the conjugation solver's frame start: at A = 0 a stacked core is
        # J r J (J r for the orthogonal family), J the core-size build_JN, in
        # K.  With Y = Y_0 C, C = I_alpha (+) c per copy and ||c - I|| =
        # phi(||A||) = sqrt(2 - 2 sqrt(1 - ||A||^2)), core(A) - core(0) =
        # (C^* B C - B) h with B + I = Y_0^* g Y_0 + (I - Y_0^* Y_0) a
        # contraction, so the core stays within 2 phi(||A||) of it
        fam = GroupFamily(kind, BlockSpec(alpha, k, 5, m))
        core_fam = fam.with_n_tail(k)
        gen = RandomStream(12, 10 * alpha + k).generator()
        g, h = (BlockMatrix(haar_unitary(fam.spec.window, gen)) for _ in range(2))
        target = circ_N(g, h, core_fam)
        r = target.representative.entries
        J = build_JN(core_fam.spec).entries
        at_zero = J @ r @ J if kind == "unitary_conjugation" else J @ r
        zero = sample_core_stack(g, h, fam, np.zeros((3, k, k)))
        assert np.abs(zero - at_zero).max() <= 1e-15
        # both stacked solvers read d(core(0)) as rounding; the conjugation
        # one at its first start, J, before any step
        if kind == "unitary_conjugation":
            bound, iters, _, left, _ = dist_conjugacy_stack(zero, target)
            assert (iters == 0).all() and (left == J).all()
        else:
            bound = dist_double_coset_stack(zero, target)[0]
        assert (bound <= 1e-12).all()
        # 40 blocks A of norms in [0.05, 1], the last of norm 1 to rounding;
        # real ones for the orthogonal family, as its draws are
        a = gen.standard_normal((40, k, k))
        if kind == "unitary_conjugation":
            a = a + 1j * gen.standard_normal((40, k, k))
        a *= np.append(gen.uniform(0.05, 1.0, 39), 1.0)[:, None, None] / np.linalg.norm(
            a, 2, axis=(1, 2))[:, None, None]
        s = np.linalg.norm(a, 2, axis=(1, 2))
        phi = np.sqrt(2 - 2 * np.sqrt(np.clip(1 - s * s, 0, None)))
        dist = np.linalg.norm(sample_core_stack(g, h, fam, a) - at_zero, 2, axis=(1, 2))
        assert (dist <= 2 * phi * (1 + 1e-12)).all()

    @pytest.mark.parametrize("kind,m", [("unitary_orthogonal", 1), ("unitary_orthogonal", 2),
                                        ("unitary_conjugation", 1)])
    @pytest.mark.parametrize("alpha", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 2])
    def test_stacked_cores_equal_per_sample_cores(self, kind, m, alpha, k):
        # bit for bit, with h at window and at core size, as the sweep draws A
        fam = GroupFamily(kind, BlockSpec(alpha, k, 5, m))
        gen = RandomStream(9, 10 * alpha + k).generator()
        g, h = (BlockMatrix(haar_unitary(fam.spec.window, gen)) for _ in range(2))
        unitary = kind == "unitary_conjugation"
        a = _top_blocks(_block_normals(k, 5, RandomStream(9, 1), unitary, count=6), unitary)
        for h_in in (h, embed(h, fam.with_n_tail(k).spec)):
            stack = sample_core_stack(g, h_in, fam, a)
            cores = [sample_core(g, h_in, fam, lane) for lane in a]
            assert all(core.dim == fam.with_n_tail(k).spec.dim for core in cores)
            np.testing.assert_array_equal(stack, np.array([core.entries for core in cores]))

    @pytest.mark.parametrize("kind,m", [("unitary_orthogonal", 1), ("unitary_orthogonal", 2),
                                        ("unitary_orthogonal", 3), ("unitary_conjugation", 1)])
    @pytest.mark.parametrize("alpha", [0, 1])
    @pytest.mark.parametrize("k", [1, 2])
    def test_stacked_cores_equal_kronecker_frames(self, kind, m, alpha, k):
        # bit for bit against Y = I_alpha (+) (I_m kron [a, D]) as np.kron builds it
        fam = GroupFamily(kind, BlockSpec(alpha, k, 5, m))
        spec, core_spec = fam.spec, fam.with_n_tail(k).spec
        gen = RandomStream(4, 10 * alpha + k).generator()
        g, h = (BlockMatrix(haar_unitary(spec.window, gen)) for _ in range(2))
        unitary = kind == "unitary_conjugation"
        a = _top_blocks(_block_normals(k, 5, RandomStream(4, 1), unitary, count=5), unitary)
        y = np.zeros((len(a), spec.window, core_spec.dim), dtype=complex)
        y[:, :alpha, :alpha] = np.eye(alpha)
        y[:, alpha:, alpha:] = np.kron(np.eye(m), cosets._frame(a))
        left = np.eye(core_spec.dim) + y.conj().swapaxes(-1, -2) @ (
            g.entries - np.eye(spec.window)) @ y
        np.testing.assert_array_equal(sample_core_stack(g, h, fam, a),
                                      left @ embed(h, core_spec).entries)

    def test_stack_rejects_a_lane_above_norm_one(self):
        fam = GroupFamily("unitary_orthogonal", BlockSpec(1, 2, 4, 1))
        e = BlockMatrix.identity(3)
        a = np.stack([0.5 * np.eye(2), np.eye(2), 1.001 * np.eye(2), 0.1 * np.eye(2)])
        with pytest.raises(ValueError, match="operator norm 1.001 > 1"):
            sample_core_stack(e, e, fam, a)
        sample_core_stack(e, e, fam, a[[0, 1, 3]])
        for bad in (np.eye(2), np.ones((3, 2, 3))):
            with pytest.raises(ValueError, match="stack of 2x2 blocks A"):
                sample_core_stack(e, e, fam, bad)
        with pytest.raises(ValueError, match="unitary family"):
            sample_core_stack(SWAP, SWAP, GroupFamily("symmetric", BlockSpec(1, 1, 2, 1)),
                              np.zeros((1, 1, 1)))

    def test_rejects_bad_block(self):
        fam = GroupFamily("unitary_orthogonal", BlockSpec(1, 2, 4, 1))
        for a in (np.eye(2, 3), np.eye(1), np.eye(3), np.ones(2)):
            with pytest.raises(ValueError, match="2x2 block A"):
                sample_core(BlockMatrix.identity(3), BlockMatrix.identity(3), fam, a)
        for a in (1.001 * np.eye(2), np.full((2, 2), 0.6), np.full((2, 2), np.nan)):
            with pytest.raises(ValueError, match="operator norm"):
                sample_core(BlockMatrix.identity(3), BlockMatrix.identity(3), fam, a)
        e = BlockMatrix.identity(5)
        with pytest.raises(ValueError, match="operator norm"):
            lift_core_witnesses(e, e, 1.001 * np.eye(2), fam)
        # within the 1e-10 slack the block is taken as a norm-one block
        sample_core(BlockMatrix.identity(3), BlockMatrix.identity(3), fam,
                    (1 + 1e-11) * np.eye(2))

    def test_rejects_symmetric_family_and_bad_rows(self):
        fam = GroupFamily("symmetric", BlockSpec(1, 1, 2, 1))
        with pytest.raises(ValueError):
            sample_core(SWAP, SWAP, fam, np.eye(1, 3))
        fam = GroupFamily("unitary_orthogonal", BlockSpec(1, 1, 2, 1))
        with pytest.raises(ValueError, match="1x1 block A"):
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
                assert core.dim == core_fam.spec.dim and core.exact_permutation is not None
                assert sym_membership(core, circ_N(g, h, core_fam)) == full, (N, u)
                verdicts.add(full)
        # at alpha = 0 and m = 1, K is the whole group: every sample is a member
        assert verdicts == ({True} if alpha == 0 and m == 1 else {True, False})

    def test_core_pattern_is_the_core_at_tail_size_k(self):
        # images above k fill the first tail slots in their order, at any tail
        # size, and the pattern builds the same core as the raw images
        assert core_images([7, 1, 100], 3) == (4, 1, 5)
        assert core_images([2, 9, 3], 3) == (2, 4, 3)
        assert core_images([4, 3], 2) == (3, 4)
        gen = RandomStream(9, 0).generator()
        for alpha, k, m, N in [(1, 1, 2, 10**6), (0, 2, 1, 7), (2, 3, 2, 40)]:
            fam = GroupFamily("symmetric", BlockSpec(alpha, k, N, m))
            for _ in range(10):
                g = BlockMatrix.from_permutation(uniform_permutation(fam.spec.window, gen))
                h = BlockMatrix.from_permutation(uniform_permutation(fam.spec.window, gen))
                rows = (gen.choice(fam.spec.copy_size, k, replace=False) + 1).tolist()
                key = core_images(rows, k)
                assert core_images(key, k) == key
                assert (sample_core(g, h, fam.with_n_tail(k), key).exact_permutation
                        == sample_core(g, h, fam, rows).exact_permutation)

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
