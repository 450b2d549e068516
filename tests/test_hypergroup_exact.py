import itertools
import math
import time
from fractions import Fraction

import pytest

from cosetlab.blockmat import BlockMatrix, BlockSpec, PermutationWord, embed, embed_k
from cosetlab.cosets import CosetTarget, GroupFamily, circ_N
from cosetlab.geometry import sym_membership
from cosetlab.haar import RandomStream, uniform_permutation
from cosetlab import hypergroup_exact
from cosetlab.hypergroup_exact import (
    ENUMERATION_BUDGET,
    ExactDistribution,
    concentration_exact,
    exact_convolution,
)
from testkit import max_atom

SWAP = PermutationWord([2, 1])


def _family(alpha=1, k=1, N=3, m=1):
    return GroupFamily("symmetric", BlockSpec(alpha, k, N, m))


def _embedded(word, spec):
    return embed(BlockMatrix.from_permutation(word), spec)


def _prob_of_coset(dist, rep):
    """Probability of the atom of dist whose coset contains rep (0 if none does)."""
    for atom_rep, p in dist.atoms:
        if sym_membership(rep, CosetTarget(
                BlockMatrix.from_permutation(atom_rep), dist.family)):
            return p
    return Fraction(0)


def _brute_convolution(g, h, family):
    """Reference: classify every middle draw u with a scan of the atoms found
    so far, in lexicographic u order; returns the JSON dict."""
    spec = family.spec
    gw, hw = g.exact_permutation, h.exact_permutation
    reps, targets, counts = [], [], []
    draws = list(itertools.permutations(range(1, spec.copy_size + 1)))
    for images in draws:
        x = gw * embed_k(PermutationWord(images), spec).exact_permutation * hw
        for i, tgt in enumerate(targets):
            if sym_membership(x, tgt):
                counts[i] += 1
                break
        else:
            reps.append(x)
            targets.append(CosetTarget(BlockMatrix.from_permutation(x), family))
            counts.append(1)
    atoms = tuple((rep, Fraction(c, len(draws))) for rep, c in zip(reps, counts))
    return ExactDistribution(atoms, family).to_json_dict()


class TestExactConvolution:
    def test_identity_inputs_concentrate_on_subgroup(self):
        fam = _family(N=2)
        e = PermutationWord.identity(fam.spec.dim)
        dist = exact_convolution(e, e, fam)
        assert len(dist.atoms) == 1
        rep, p = dist.atoms[0]
        assert p == Fraction(1)
        assert rep == e

    def test_swap_fixture_quarters(self):
        fam = _family(N=3)
        g = _embedded(SWAP, fam.spec)
        dist = exact_convolution(g, g, fam)
        assert _prob_of_coset(dist, PermutationWord([3, 2, 1, 4, 5])) == Fraction(3, 4)
        assert _prob_of_coset(dist, PermutationWord.identity(5)) == Fraction(1, 4)
        rep, p = max_atom(dist)
        assert p == Fraction(3, 4)
        assert sym_membership(rep, circ_N(
            BlockMatrix.from_permutation(SWAP), BlockMatrix.from_permutation(SWAP), fam))

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_hit_probability_closed_form(self, N):
        # the product coset carries all mass except the draws that fold the
        # pair back into the subgroup: exactly 1/(k+N) of them
        fam = _family(N=N)
        out = concentration_exact(SWAP, SWAP, fam, [N])
        assert out == [(N, Fraction(N, N + 1))]

    def test_concentration_exact_multiple_tails(self):
        fam = _family(N=2)
        out = concentration_exact(SWAP, SWAP, fam, [2, 3, 4])
        assert [p for _, p in out] == [Fraction(2, 3), Fraction(3, 4), Fraction(4, 5)]

    def test_budget_guard(self):
        fam = _family(N=7)  # 8! products
        e = PermutationWord.identity(fam.spec.dim)
        with pytest.raises(ValueError, match=r"^enumeration budget exceeded: \(k \+ n_tail\)! = 8! > 5040; "
                                             r"shrink k \+ n_tail$"):
            exact_convolution(e, e, fam)
        assert ENUMERATION_BUDGET == 5040

    def test_budget_is_a_constant(self):
        e = PermutationWord.identity(5)
        with pytest.raises(TypeError, match="budget"):
            exact_convolution(e, e, _family(N=3), budget=10)

    def test_wrong_family_rejected(self):
        fam = GroupFamily("unitary_orthogonal", BlockSpec(1, 1, 2, 1))
        with pytest.raises(ValueError):
            exact_convolution(PermutationWord.identity(4), PermutationWord.identity(4), fam)
        # window-size inputs need embedding first
        with pytest.raises(ValueError, match="^g and h must have degree 5$"):
            exact_convolution(SWAP, SWAP, _family())

    @pytest.mark.parametrize("alpha,k,N,m,seed", [
        (1, 1, 2, 1, 0), (0, 1, 3, 1, 1), (2, 1, 2, 1, 2), (1, 2, 2, 1, 3), (1, 1, 2, 2, 4),
    ])
    def test_probabilities_sum_to_one(self, alpha, k, N, m, seed):
        fam = GroupFamily("symmetric", BlockSpec(alpha, k, N, m))
        gen = RandomStream(100 + seed, 0).generator()
        g = uniform_permutation(fam.spec.dim, gen)
        h = uniform_permutation(fam.spec.dim, gen)
        dist = exact_convolution(g, h, fam)
        assert sum(p for _, p in dist.atoms) == 1

    def test_unique_maximal_atom(self):
        # convolutions of coset measures have a unique heaviest coset once the
        # copy size reaches 4; sweep every window pair
        fam = _family(N=3)
        for gi in itertools.permutations([1, 2]):
            for hi in itertools.permutations([1, 2]):
                g = _embedded(PermutationWord(gi), fam.spec)
                h = _embedded(PermutationWord(hi), fam.spec)
                probs = sorted((p for _, p in exact_convolution(g, h, fam).atoms),
                               reverse=True)
                if len(probs) > 1:
                    assert probs[0] > probs[1]

    def test_unique_maximal_atom_two_copies(self):
        fam = _family(N=3, m=2)
        ties = 0
        for gi in itertools.permutations([1, 2, 3]):
            for hi in itertools.permutations([1, 2, 3]):
                g = _embedded(PermutationWord(gi), fam.spec)
                h = _embedded(PermutationWord(hi), fam.spec)
                probs = sorted((p for _, p in exact_convolution(g, h, fam).atoms),
                               reverse=True)
                if len(probs) > 1 and probs[0] == probs[1]:
                    ties += 1
        assert ties == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_inversion_symmetry(self, seed):
        # u -> u^-1 is a measure-preserving bijection carrying the atoms of
        # (g, h) onto the atoms of (h^-1, g^-1)
        fam = _family(N=2)
        gen = RandomStream(300 + seed, 0).generator()
        g = uniform_permutation(fam.spec.dim, gen)
        h = uniform_permutation(fam.spec.dim, gen)
        fwd = exact_convolution(g, h, fam)
        bwd = exact_convolution(h.inverse(), g.inverse(), fam)
        for rep, p in fwd.atoms:
            assert _prob_of_coset(bwd, rep.inverse()) == p

    def test_monte_carlo_cross_check(self):
        from cosetlab.cosets import sample_tau_tilde

        fam = _family(alpha=0, k=1, N=2, m=2)
        spec = fam.spec
        gen = RandomStream(400, 0).generator()
        gw = uniform_permutation(spec.window, gen)
        hw = uniform_permutation(spec.window, gen)
        g = BlockMatrix.from_permutation(gw)
        h = BlockMatrix.from_permutation(hw)
        target = circ_N(g, h, fam)
        dist = exact_convolution(_embedded(gw, spec), _embedded(hw, spec), fam)
        p_exact = float(_prob_of_coset(dist, target.representative))
        n = 300
        ge, he = _embedded(gw, spec), _embedded(hw, spec)
        hits = sum(
            sym_membership(sample_tau_tilde(ge, he, fam, RandomStream(401, i)), target)
            for i in range(n))
        se = (p_exact * (1 - p_exact) / n) ** 0.5
        assert abs(hits / n - p_exact) <= max(3 * se, 0.02)

    @pytest.mark.parametrize("alpha", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_brute_force(self, alpha, k, m):
        # keyed classification gives the same atoms, representatives, order
        # and probabilities as a scan of every draw, at every copy size up to 6:
        # embedded window pairs (most labels fixed), random full-degree pairs
        # (few or none fixed; copy size 6 is left out for time) and a window
        # pair whose h also swaps two tail points of one copy only
        gen = RandomStream(900 + 9 * alpha + 3 * k + m, 0).generator()
        for N in range(7 - k):
            spec = BlockSpec(alpha, k, N, m)
            fam = GroupFamily("symmetric", spec)

            def window():
                return _embedded(uniform_permutation(spec.window, gen), spec)

            pairs = [(window(), window())]
            if spec.copy_size < 6:
                pairs.append(tuple(BlockMatrix.from_permutation(
                    uniform_permutation(spec.dim, gen)) for _ in range(2)))
            if N >= 2:
                start = alpha + int(gen.integers(m)) * spec.copy_size + k
                a, b = (int(p) + start + 1 for p in gen.choice(N, 2, replace=False))
                swap = PermutationWord.from_cycles(spec.dim, [(a, b)])
                pairs.append((window(), BlockMatrix.from_permutation(
                    window().exact_permutation * swap)))
            for g, h in pairs:
                assert exact_convolution(g, h, fam).to_json_dict() == \
                    _brute_convolution(g, h, fam), (N, g, h)

    def test_json_shape(self):
        fam = _family(N=3)
        g = _embedded(SWAP, fam.spec)
        d = exact_convolution(g, g, fam).to_json_dict()
        assert d["family"] == "symmetric"
        assert (d["alpha"], d["k"], d["n_tail"], d["m"]) == (1, 1, 3, 1)
        probs = {a["prob"] for a in d["atoms"]}
        assert probs == {"1/4", "3/4"}
        for a in d["atoms"]:
            assert sorted(a["representative"]) == [1, 2, 3, 4, 5]


class TestConcentrationExact:
    @pytest.mark.parametrize("alpha,k,m,seed", [
        (0, 1, 2, 0), (1, 1, 1, 1), (2, 1, 2, 2), (0, 2, 2, 3), (1, 2, 1, 4), (1, 2, 2, 5),
    ])
    def test_matches_enumeration(self, alpha, k, m, seed):
        # every tail size whose (k+N)! draws exact_convolution can enumerate
        gen = RandomStream(700 + seed, 0).generator()
        window = alpha + m * k
        for N in range(k, 8 - k):
            fam = GroupFamily("symmetric", BlockSpec(alpha, k, N, m))
            assert math.factorial(k + N) <= ENUMERATION_BUDGET
            g = BlockMatrix.from_permutation(uniform_permutation(window, gen))
            h = BlockMatrix.from_permutation(uniform_permutation(window, gen))
            dist = exact_convolution(embed(g, fam.spec), embed(h, fam.spec), fam)
            want = _prob_of_coset(dist, circ_N(g, h, fam).representative)
            assert concentration_exact(g, h, fam, [N]) == [(N, want)], (N, g, h)

    @pytest.mark.parametrize("k,calls", [(1, 2), (2, 7), (3, 34)])
    def test_each_core_pattern_is_tested_once(self, monkeypatch, k, calls):
        # falling(2k, k) ordered image choices fall into fewer core patterns
        # (2, 7, 34 at k = 1, 2, 3), whatever N and however many N are asked
        seen = []

        def counting(x, target):
            seen.append(x)
            return sym_membership(x, target)

        monkeypatch.setattr(hypergroup_exact, "sym_membership", counting)
        e = PermutationWord.identity(1 + 2 * k)
        concentration_exact(e, e, _family(k=k, N=k, m=2), [k, 10, 10**12])
        assert len(seen) == calls

    def test_convolution_tests_each_key_once(self, monkeypatch):
        # embedded (1 2 3), (1 3) fix every tail label in every copy, so a draw
        # is keyed by whether u(1) = 1 alone: the same membership calls at
        # every N, against about 1.4 per draw when every draw was tested
        calls = []

        def counting(x, target):
            calls.append(x)
            return sym_membership(x, target)

        monkeypatch.setattr(hypergroup_exact, "sym_membership", counting)
        g = BlockMatrix.from_permutation(PermutationWord.parse("(1 2 3)", degree=3))
        h = BlockMatrix.from_permutation(PermutationWord.parse("(1 3)", degree=3))
        seen = set()
        for N in range(2, 7):
            fam = _family(m=2, N=N)
            calls.clear()
            dist = exact_convolution(embed(g, fam.spec), embed(h, fam.spec), fam)
            assert len(calls) <= 2 * len(dist.atoms)
            seen.add(len(calls))
        assert len(seen) == 1

    def test_full_degree_input_rejected(self):
        e = PermutationWord.identity(4)
        with pytest.raises(ValueError, match="^g and h must be window permutations of degree 4$"):
            concentration_exact(e, PermutationWord.identity(8), _family(alpha=0, k=2, N=2, m=2), [2])

    def test_tail_below_k_rejected(self):
        fam = _family(alpha=0, k=2, N=2, m=2)
        e = PermutationWord.identity(4)
        with pytest.raises(ValueError, match="N must be >= k"):
            concentration_exact(e, e, fam, [2, 1])
        with pytest.raises(ValueError, match="N must be >= k"):
            concentration_exact(e, e, fam, [-10**12])

    @pytest.mark.parametrize("N_list", [[8.7], [True, 2], ["5"], [4, 2.5]])
    def test_non_integer_tail_rejected(self, N_list):
        # the tail-size check ExperimentConfig and run_block_decay share
        e = PermutationWord.identity(4)
        with pytest.raises(ValueError, match="every N must be an integer"):
            concentration_exact(e, e, _family(alpha=0, k=2, N=2, m=2), N_list)

    def test_trillion_tail_is_exact_and_fast(self):
        # the bench fixture's closed form N/(N+1) and a k=2 pair at N = 10^12
        g = PermutationWord.parse("(1 2 3)", degree=3)
        h = PermutationWord.parse("(1 3)", degree=3)
        big = 10**12
        start = time.perf_counter()
        got = concentration_exact(g, h, _family(m=2), [2, 100, big])
        pair = concentration_exact(PermutationWord([3, 4, 1, 2]), PermutationWord([2, 1, 3, 4]),
                                   _family(alpha=0, k=2, N=2, m=2), [2, 16, big])
        assert time.perf_counter() - start < 1.0
        assert got == [(N, Fraction(N, N + 1)) for N in (2, 100, big)]
        assert [p for _, p in pair][:2] == [Fraction(1, 6), Fraction(40, 51)]
        assert 1 - Fraction(1, 10**11) < pair[2][1] < 1
