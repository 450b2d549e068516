import itertools

import numpy as np
import pytest

from cosetlab.blockmat import (
    BlockMatrix,
    BlockSpec,
    PermutationWord,
    embed,
    embed_k,
    operator_norm,
)
from cosetlab.cosets import CosetTarget, GroupFamily, circ_N, sample_core, sample_tau_full
from cosetlab.experiments import ExperimentConfig
from cosetlab.geometry import (
    colligation_char_function,
    dist_conjugacy,
    dist_double_coset,
    eigenvalue_matching_distance,
    sym_corner_invariant,
    sym_membership,
    verify_estimate,
)
from cosetlab.haar import RandomStream, haar_orthogonal, haar_unitary

SWAP = BlockMatrix.from_permutation(PermutationWord([2, 1]))


def _unitary_family(alpha=1, k=1, N=8, m=1):
    return GroupFamily("unitary_orthogonal", BlockSpec(alpha, k, N, m))


def _sym_family(alpha=1, k=1, N=3, m=1):
    return GroupFamily("symmetric", BlockSpec(alpha, k, N, m))


class TestDistDoubleCoset:
    def test_representative_itself(self):
        fam = _unitary_family()
        gen = RandomStream(31, 0).generator()
        g = BlockMatrix(haar_unitary(2, gen))
        h = BlockMatrix(haar_unitary(2, gen))
        target = circ_N(g, h, fam)
        est = dist_double_coset(target.representative, target)
        assert est.upper_bound <= 1e-10
        assert est.converged

    def test_orbit_element_recovered(self):
        fam = _unitary_family()
        gen = RandomStream(32, 0).generator()
        g = BlockMatrix(haar_unitary(2, gen))
        h = BlockMatrix(haar_unitary(2, gen))
        target = circ_N(g, h, fam)
        u = embed_k(haar_orthogonal(9, gen), fam.spec)
        v = embed_k(haar_orthogonal(9, gen), fam.spec)
        x = u @ target.representative @ v
        est = dist_double_coset(x, target, rng=np.random.default_rng(1))
        assert est.upper_bound <= 1e-6

    def test_orbit_element_two_copies(self):
        fam = _unitary_family(alpha=1, k=1, N=4, m=2)
        gen = RandomStream(33, 0).generator()
        g = BlockMatrix(haar_unitary(fam.spec.window, gen))
        h = BlockMatrix(haar_unitary(fam.spec.window, gen))
        target = circ_N(g, h, fam)
        u = embed_k(haar_orthogonal(5, gen), fam.spec)
        v = embed_k(haar_orthogonal(5, gen), fam.spec)
        est = dist_double_coset(u @ target.representative @ v, target,
                                rng=np.random.default_rng(2))
        assert est.upper_bound <= 1e-6

    def test_witnesses_reproduce_bound(self):
        fam = _unitary_family(N=5)
        gen = RandomStream(34, 0).generator()
        g = BlockMatrix(haar_unitary(2, gen))
        h = BlockMatrix(haar_unitary(2, gen))
        target = circ_N(g, h, fam)
        x = BlockMatrix(haar_unitary(fam.spec.dim, gen))
        est = dist_double_coset(x, target, rng=np.random.default_rng(3))
        assert abs(verify_estimate(est, x, target) - est.upper_bound) <= 1e-10

    def test_more_restarts_never_worse(self):
        fam = _unitary_family(N=4)
        gen = RandomStream(35, 0).generator()
        g = BlockMatrix(haar_unitary(2, gen))
        h = BlockMatrix(haar_unitary(2, gen))
        target = circ_N(g, h, fam)
        x = BlockMatrix(haar_unitary(fam.spec.dim, gen))
        d1 = dist_double_coset(x, target, restarts=1, rng=np.random.default_rng(7))
        d5 = dist_double_coset(x, target, restarts=5, rng=np.random.default_rng(7))
        assert d5.upper_bound <= d1.upper_bound + 1e-12

    def test_symmetric_sound_against_enumeration(self):
        # brute force over all 24 x 24 witness pairs; the true operator-norm
        # minimum is sqrt(3), attained by a 3-cycle through the corner slot
        fam = _sym_family()
        target = circ_N(SWAP, SWAP, fam)  # coset of the corner/tail swap
        x = BlockMatrix.identity(5)
        r = target.representative.exact_permutation
        best = np.inf
        for u in itertools.permutations(range(1, 5)):
            ku = embed_k(PermutationWord(list(u)), fam.spec).exact_permutation
            for v in itertools.permutations(range(1, 5)):
                kv = embed_k(PermutationWord(list(v)), fam.spec).exact_permutation
                q = (ku * r * kv).matrix()
                best = min(best, operator_norm(np.eye(5) - q))
        assert best == pytest.approx(np.sqrt(3), abs=1e-12)
        est = dist_double_coset(x, target, rng=np.random.default_rng(4))
        assert est.upper_bound >= best - 1e-9
        assert abs(verify_estimate(est, x, target) - est.upper_bound) <= 1e-10
        assert est.witness_left.exact_permutation is not None

    def test_symmetric_membership_gives_zero(self):
        fam = _sym_family()
        target = circ_N(SWAP, SWAP, fam)
        est = dist_double_coset(target.representative, target)
        assert est.upper_bound == 0.0

    @pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"restarts": -3}, {"max_iters": 0}])
    def test_iteration_counts_below_one_rejected(self, kwargs):
        fam = _sym_family()
        target = circ_N(SWAP, SWAP, fam)
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            dist_double_coset(target.representative, target, **kwargs)


class TestDistConjugacy:
    def _target(self, seed=41, N=8):
        fam = GroupFamily("unitary_conjugation", BlockSpec(1, 1, N, 1))
        gen = RandomStream(seed, 0).generator()
        g = BlockMatrix(haar_unitary(2, gen))
        h = BlockMatrix(haar_unitary(2, gen))
        return circ_N(g, h, fam), gen

    def test_representative_itself(self):
        target, _ = self._target()
        est = dist_conjugacy(target.representative, target)
        assert est.upper_bound <= 1e-10

    def test_orbit_element_recovered(self):
        target, gen = self._target()
        spec = target.family.spec
        w = embed_k(haar_unitary(9, gen), spec)
        x = BlockMatrix(w.entries @ target.representative.entries @ w.entries.conj().T)
        est = dist_conjugacy(x, target)
        assert est.upper_bound <= 1e-6

    def test_witnesses_reproduce_bound(self):
        target, gen = self._target(seed=43, N=6)
        x = BlockMatrix(haar_unitary(target.family.spec.dim, gen))
        est = dist_conjugacy(x, target)
        assert abs(verify_estimate(est, x, target) - est.upper_bound) <= 1e-10
        prod = est.witness_left.entries @ est.witness_right.entries
        np.testing.assert_allclose(prod, np.eye(prod.shape[0]), atol=1e-10)

    def test_spectral_gap_forces_large_bound(self):
        # conjugation preserves eigenvalues, so a rotated spectrum keeps the
        # distance above the matching gap
        target, _ = self._target(seed=44, N=5)
        x = BlockMatrix(1j * target.representative.entries)
        gap = eigenvalue_matching_distance(x, target.representative)
        assert gap > 0.3
        est = dist_conjugacy(x, target)
        assert est.upper_bound >= 0.3


class TestCoreAgainstFullSolver:
    """Paired samples at N=8 on the acceptance fixture (seed 42, stream 0):
    the same middle draw solved at full size and as its core."""

    EPS = 0.4

    def _pairs(self, kind, seed, samples):
        fam = GroupFamily(kind, BlockSpec(1, 1, 8, 1))
        setup = RandomStream(42, 0).generator()
        g = BlockMatrix(haar_unitary(2, setup))
        h = BlockMatrix(haar_unitary(2, setup))
        full_target, core_target = circ_N(g, h, fam), circ_N(g, h, fam.with_n_tail(1))
        G, H = embed(g, fam.spec), embed(h, fam.spec)
        conj = kind == "unitary_conjugation"
        for i in range(samples):
            gen = RandomStream(seed, 1 + i).generator()
            x_w = (haar_unitary if conj else haar_orthogonal)(9, gen)
            X = embed_k(x_w, fam.spec)
            x = G @ X @ H
            core = sample_core(g, h, fam, x_w[:1])
            if conj:
                x = BlockMatrix(x.entries @ X.entries.conj().T, fam.spec)
                yield dist_conjugacy(x, full_target), dist_conjugacy(core, core_target)
            else:
                full = dist_double_coset(x, full_target, restarts=5, rng=gen,
                                         stop_below=self.EPS)
                yield full, dist_double_coset(
                    core, core_target, restarts=ExperimentConfig.restarts,
                    rng=RandomStream(seed + 1, 1 + i).generator(), stop_below=self.EPS)

    def test_conjugation_core_never_worse(self):
        for full, core in self._pairs("unitary_conjugation", 5, 60):
            assert core.upper_bound <= full.upper_bound + 1e-9

    def test_orthogonal_core_keeps_the_hits(self):
        # the full solver with the former default of 5 restarts against the
        # core with the default; at these seeds the core loses no hit
        pairs = list(self._pairs("unitary_orthogonal", 5, 200))
        full_hits = [full.upper_bound <= self.EPS for full, _ in pairs]
        core_hits = [core.upper_bound <= self.EPS for _, core in pairs]
        lost = sum(f and not c for f, c in zip(full_hits, core_hits))
        assert lost <= 0, f"{lost} hits lost; full {sum(full_hits)}, core {sum(core_hits)}"


class TestSymMembership:
    def test_identity_not_in_swap_coset(self):
        fam = _sym_family()
        target = circ_N(SWAP, SWAP, fam)
        assert not sym_membership(PermutationWord.identity(5), target)

    def test_corner_mismatch_rejected_before_inverting(self):
        # x keeps the corner point where r sends it into the tail
        target = circ_N(SWAP, SWAP, _sym_family())
        x = PermutationWord([1, 3, 2, 4, 5])
        assert not sym_membership(x, target)
        assert x._inverse is None

    def test_far_transposition_in_coset(self):
        # (1 4) lies in the double coset of (1 3) because the subgroup acts
        # transitively on the tail slots
        fam = _sym_family()
        target = circ_N(SWAP, SWAP, fam)
        assert sym_membership(PermutationWord.from_cycles(5, [(1, 4)]), target)

    def test_representative_in_own_coset(self):
        fam = _sym_family()
        target = circ_N(SWAP, SWAP, fam)
        assert sym_membership(target.representative, target)

    # despite its name, the list also holds configurations with m = 2 and 3
    @pytest.mark.parametrize("alpha,k,N,m", [(1, 1, 2, 1), (0, 1, 2, 1), (2, 1, 2, 1), (1, 2, 2, 1),
                                             (1, 1, 3, 3), (2, 1, 3, 2), (2, 2, 2, 2), (0, 2, 2, 2)])
    def test_matches_brute_force_m1(self, alpha, k, N, m):
        fam = GroupFamily("symmetric", BlockSpec(alpha, k, N, m))
        spec = fam.spec
        gen = RandomStream(800 + alpha * 10 + k, 0).generator()
        near_gen = RandomStream(800 + alpha * 10 + k, m).generator()
        from cosetlab.haar import uniform_permutation

        g = BlockMatrix.from_permutation(uniform_permutation(spec.window, gen))
        h = BlockMatrix.from_permutation(uniform_permutation(spec.window, gen))
        target = circ_N(g, h, fam)
        ks = [embed_k(PermutationWord(list(p)), spec).exact_permutation
              for p in itertools.permutations(range(1, k + N + 1))]
        r = target.representative.exact_permutation
        brute_set = {(k1 * r * k2).images for k1 in ks for k2 in ks}
        for _ in range(20):
            x = uniform_permutation(spec.dim, gen)
            assert sym_membership(x, target) == (x.images in brute_set)
            # a planted member, and a near-member: the same times a random transposition
            k1, k2 = (ks[int(near_gen.integers(len(ks)))] for _ in range(2))
            i, j = near_gen.choice(np.arange(1, spec.dim + 1), size=2, replace=False)
            y = k1 * r * k2 * PermutationWord.from_cycles(spec.dim, [(int(i), int(j))])
            assert sym_membership(k1 * r * k2, target)
            assert sym_membership(y, target) == (y.images in brute_set)

    def test_matches_brute_force_two_copies(self):
        fam = GroupFamily("symmetric", BlockSpec(1, 1, 2, 2))
        spec = fam.spec
        gen = RandomStream(812, 0).generator()
        from cosetlab.haar import uniform_permutation

        g = uniform_permutation(3, gen)
        h = uniform_permutation(3, gen)
        target = circ_N(BlockMatrix.from_permutation(g), BlockMatrix.from_permutation(h), fam)
        ks = [embed_k(PermutationWord(list(p)), spec).exact_permutation
              for p in itertools.permutations(range(1, 4))]
        r = target.representative.exact_permutation
        brute_set = {(k1 * r * k2).images for k1 in ks for k2 in ks}
        for _ in range(20):
            x = uniform_permutation(spec.dim, gen)
            assert sym_membership(x, target) == (x.images in brute_set)

    # Verdicts of the recursive search the explicit-stack one replaced, for 40
    # tau_full samples (streams (5, 1..40)) against the product coset and
    # against the coset of embed(g).embed(h); m = 2, g = (1 2 3), h = (1 3).
    @pytest.mark.parametrize("N,product,plain", [
        (3, "1111111111100101111111110110111111101110",
         "0000000000011010000000001001000000010001"),
        (128, "1" * 40, "0" * 40),
    ])
    def test_matches_recursive_verdicts(self, N, product, plain):
        fam = GroupFamily("symmetric", BlockSpec(1, 1, N, 2))
        g = BlockMatrix.from_permutation(PermutationWord.parse("(1 2 3)", 3))
        h = BlockMatrix.from_permutation(PermutationWord.parse("(1 3)", 3))
        G, H = embed(g, fam.spec), embed(h, fam.spec)
        targets = (circ_N(g, h, fam), CosetTarget(G @ H, fam))
        xs = [sample_tau_full(G, H, fam, RandomStream(5, 1 + i)) for i in range(40)]
        got = ["".join("1" if sym_membership(x, t) else "0" for x in xs) for t in targets]
        assert got == [product, plain]

    # non-members that a propagation would accept if, after each binding, it
    # skipped the constraints of copy 0 in place of the copy the binding came from
    @pytest.mark.parametrize("images", [[4, 7, 3, 6, 5, 2, 1, 8], [4, 7, 5, 3, 6, 8, 2, 1],
                                        [4, 7, 6, 5, 3, 1, 8, 2]])
    def test_constraints_of_every_copy_checked(self, images):
        spec = BlockSpec(2, 1, 2, 2)
        r = PermutationWord([4, 7, 6, 3, 5, 2, 1, 8])
        x = PermutationWord(images)
        ks = [embed_k(PermutationWord(list(p)), spec).exact_permutation
              for p in itertools.permutations(range(1, 4))]
        assert not any((k1 * r * k2) == x for k1 in ks for k2 in ks)
        target = CosetTarget(BlockMatrix.from_permutation(r), GroupFamily("symmetric", spec))
        assert not sym_membership(x, target)

    # x = (1 3).(tau_full sample), m = 2, g = (1 2 3), h = (1 3): non-members on
    # which a search over the right factor alone backtracks for exponential time.
    # At N=12 every verdict is known from such a search (over 20 s in total); at
    # N=128 each x sends a different number of points from one block (corner,
    # copy 0, copy 1) to another than r does, a count that no element of K changes.
    @pytest.mark.parametrize("N", [4, 12, 128])
    def test_corner_swapped_tau_full_samples(self, N):
        fam = GroupFamily("symmetric", BlockSpec(1, 1, N, 2))
        g = BlockMatrix.from_permutation(PermutationWord.parse("(1 2 3)", 3))
        h = BlockMatrix.from_permutation(PermutationWord.parse("(1 3)", 3))
        G, H = embed(g, fam.spec), embed(h, fam.spec)
        target = circ_N(g, h, fam)
        swap = PermutationWord.from_cycles(fam.spec.dim, [(1, 3)])
        xs = [swap * sample_tau_full(G, H, fam, RandomStream(5, 1 + i)).exact_permutation
              for i in range(22)]
        expected = [False] * 22
        if N == 4:
            ks = [embed_k(PermutationWord(list(p)), fam.spec).exact_permutation
                  for p in itertools.permutations(range(1, N + 2))]
            rinv = target.representative.exact_permutation.inverse()
            k_set = {k.images for k in ks}
            expected = [any((rinv * k1.inverse() * x).images in k_set for k1 in ks) for x in xs]
        assert [sym_membership(x, target) for x in xs] == expected


class TestSymCornerInvariant:
    def test_identity_pattern(self):
        pat = sym_corner_invariant(PermutationWord.identity(5), 2)
        np.testing.assert_array_equal(pat, np.eye(2))

    def test_corner_escape_leaves_zero_column(self):
        w = PermutationWord.from_cycles(5, [(1, 4)])
        pat = sym_corner_invariant(w, 2)
        assert pat[:, 0].sum() == 0
        assert pat[1, 1] == 1

    def test_invariant_on_double_coset(self):
        # multiplying by subgroup elements permutes only the non-corner slots,
        # so the corner pattern is a class function of the double coset
        spec = BlockSpec(2, 1, 2, 1)
        gen = RandomStream(90, 0).generator()
        from cosetlab.haar import uniform_permutation

        x = uniform_permutation(spec.dim, gen)
        base = sym_corner_invariant(x, spec.alpha)
        for _ in range(100):
            k1 = embed_k(uniform_permutation(3, gen), spec).exact_permutation
            k2 = embed_k(uniform_permutation(3, gen), spec).exact_permutation
            np.testing.assert_array_equal(
                sym_corner_invariant(k1 * x * k2, spec.alpha), base)


class TestColligationCharFunction:
    def test_identity_is_constant_one(self):
        g = BlockMatrix(np.eye(3), spec=BlockSpec(1, 2, 0, 1))
        vals = colligation_char_function(g, [2.0, 2j, -3.0])
        for v in vals:
            assert v.shape == (1, 1)
            np.testing.assert_allclose(v, [[1.0]], atol=1e-12)

    def test_swap_half_value(self):
        g = BlockMatrix(SWAP.entries.astype(complex), spec=BlockSpec(1, 1, 0, 1))
        (val,) = colligation_char_function(g, [2.0])
        np.testing.assert_allclose(val, [[0.5]], atol=1e-14)

    def test_conjugation_invariance_on_circle(self):
        spec = BlockSpec(1, 1, 8, 1)
        gen = RandomStream(91, 0).generator()
        x = BlockMatrix(haar_unitary(spec.dim, gen), spec=spec)
        u = embed_k(haar_unitary(9, gen), spec)
        y = BlockMatrix(u.entries @ x.entries @ u.entries.conj().T, spec=spec)
        grid = [2 * np.exp(2j * np.pi * t / 16) for t in range(16)]
        for a, b in zip(colligation_char_function(x, grid),
                        colligation_char_function(y, grid)):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_pole_rejected(self):
        g = BlockMatrix(np.eye(3), spec=BlockSpec(1, 2, 0, 1))
        with pytest.raises(ValueError):
            colligation_char_function(g, [1.0])

    def test_spec_required(self):
        with pytest.raises(ValueError):
            colligation_char_function(BlockMatrix(np.eye(3)), [2.0])


class TestEigenvalueMatchingDistance:
    def test_zero_for_equal(self):
        gen = RandomStream(92, 0).generator()
        u = haar_unitary(5, gen)
        assert eigenvalue_matching_distance(u, u) == pytest.approx(0.0, abs=1e-12)

    def test_known_rotation(self):
        assert eigenvalue_matching_distance(np.eye(3), 1j * np.eye(3)) == pytest.approx(
            np.sqrt(2), abs=1e-12)

    def test_permutation_invariance(self):
        gen = RandomStream(93, 0).generator()
        u = haar_unitary(4, gen)
        p = PermutationWord([3, 1, 4, 2]).matrix()
        assert eigenvalue_matching_distance(u, p @ u @ p.T) <= 1e-10
