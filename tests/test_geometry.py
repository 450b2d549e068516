import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

import cosetlab.experiments as experiments
import cosetlab.geometry as geometry
from cosetlab.blockmat import (
    BlockMatrix,
    BlockSpec,
    PermutationWord,
    embed,
    embed_k,
    operator_norm,
)
from cosetlab.cosets import CosetTarget, GroupFamily, circ_N, sample_core, sample_tau_full
from cosetlab.experiments import ExperimentConfig, run_concentration
from cosetlab.geometry import (
    colligation_char_function,
    dist_conjugacy,
    dist_conjugacy_stack,
    dist_double_coset,
    dist_double_coset_stack,
    eigenvalue_matching_distance,
    sym_corner_invariant,
    sym_membership,
    verify_estimate,
)
from cosetlab.haar import RandomStream, haar_columns, haar_orthogonal, haar_unitary

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

    def test_symmetric_family_rejected(self):
        # the symmetric family's geometric view is exact membership
        target = circ_N(SWAP, SWAP, _sym_family())
        with pytest.raises(ValueError, match="unitary_orthogonal"):
            dist_double_coset(target.representative, target)

    @pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"restarts": -3}, {"max_iters": 0}])
    def test_iteration_counts_below_one_rejected(self, kwargs):
        fam = _unitary_family()
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

    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_iteration_count_below_one_rejected(self, max_iters):
        target, _ = self._target()
        with pytest.raises(ValueError, match="max_iters"):
            dist_conjugacy(target.representative, target, max_iters=max_iters)


def _reference_run(x, r, alpha, W, max_iters=200, tol=1e-12):
    """The per-sample fixed-point loop from one start, with its own best and
    stall counter: (best bound, iterations, converged, best conjugator)."""
    def op_of(W):
        return operator_norm(x - W @ r @ W.conj().T)

    best_op, best_W, stall = op_of(W), W, 0
    for t in range(1, max_iters + 1):
        W = geometry._blockify_unitary(x.conj().T @ W @ r, alpha)
        op = op_of(W)
        if op < best_op - tol:
            best_op, best_W, stall = op, W, 0
        else:
            stall += 1
        if best_op < 1e-11 or stall >= 25:
            return best_op, t, True, best_W
    return best_op, max_iters, False, best_W


def _reference_conjugacy(x, r, alpha, inits, max_iters=200, tol=1e-12):
    """Each start run on its own and the first with the least bound, with the
    iterations of all runs: the reference the stacked solver must match bit
    for bit."""
    runs = [_reference_run(x, r, alpha, W, max_iters, tol) for W in inits]
    op, _, converged, W = min(runs, key=lambda run: run[0])
    return op, sum(run[1] for run in runs), converged, W


def _conjugacy_starts(x, r, alpha):
    """The identity, spectral and Sylvester starts of one core."""
    spectral = geometry._spectral_match_init(x[None], r, alpha)
    sylvester, solved = geometry._min_singular_init(x[None], r, alpha, spectral)
    assert solved.all()
    return [np.eye(len(x), dtype=complex), spectral[0], sylvester[0]]


def _same_estimate(a, b):
    return (a.upper_bound == b.upper_bound and a.iterations == b.iterations
            and a.converged == b.converged
            and np.array_equal(a.witness_left.entries, b.witness_left.entries)
            and np.array_equal(a.witness_right.entries, b.witness_right.entries))


class TestDistConjugacyStack:
    """The stacked solver against per-sample calls and the reference loop."""

    def _cores(self, N, samples, seed=42, alpha=1, k=1):
        fam = GroupFamily("unitary_conjugation", BlockSpec(alpha, k, N, 1))
        setup = RandomStream(seed, 0).generator()
        g = BlockMatrix(haar_unitary(fam.spec.window, setup))
        h = BlockMatrix(haar_unitary(fam.spec.window, setup))
        cores = [sample_core(g, h, fam, haar_columns(
            k + N, k, RandomStream(seed, 1 + i).generator(), unitary=True).T)
            for i in range(samples)]
        return cores, circ_N(g, h, fam.with_n_tail(k))

    @pytest.mark.parametrize("N", [8, 24, 64])
    def test_stack_equals_per_sample_calls(self, N):
        cores, target = self._cores(N, 24, seed=7 + N)
        stacked = dist_conjugacy_stack(np.stack([c.entries for c in cores]), target)
        assert len(stacked) == len(cores)
        for core, est in zip(cores, stacked):
            assert _same_estimate(est, dist_conjugacy(core, target))
            assert abs(verify_estimate(est, core, target) - est.upper_bound) <= 1e-9

    @pytest.mark.parametrize("alpha,k", [(1, 1), (2, 2), (0, 2)])
    def test_stack_equals_reference_loop(self, alpha, k):
        cores, target = self._cores(6, 8, seed=3, alpha=alpha, k=k)
        r = target.representative.entries
        stacked = dist_conjugacy_stack(np.stack([c.entries for c in cores]), target)
        for core, est in zip(cores, stacked):
            x = core.entries
            op, iters, converged, W = _reference_conjugacy(x, r, alpha,
                                                           _conjugacy_starts(x, r, alpha))
            assert (est.upper_bound, est.iterations, est.converged) == (op, iters, converged)
            assert np.array_equal(est.witness_left.entries, W)

    @pytest.mark.parametrize("alpha,k,N,seed,lane", [
        (1, 1, 1, 7, 8), (1, 2, 2, 1, 167), (1, 2, 2, 7, 134)])
    def test_no_start_is_cut_short(self, alpha, k, N, seed, lane):
        # sweep cores on which a start stopped after 25 steps that did not beat
        # an earlier start's bound, while it was still descending, when the
        # starts shared one best bound (they lost 0.0057, 0.011 and 0.071)
        cores, target = self._cores(N, lane + 1, seed=seed, alpha=alpha, k=k)
        x, r = cores[lane].entries, target.representative.entries
        (est,) = dist_conjugacy_stack(x[None], target)
        for W in _conjugacy_starts(x, r, alpha):
            assert est.upper_bound <= _reference_run(x, r, alpha, W)[0]

    def test_mixed_lanes(self, monkeypatch):
        # every lane runs all three starts; on the exact lanes each start stops
        # after one step below 1e-11
        cores, target = self._cores(8, 6, seed=11)
        r = target.representative.entries
        xs = np.stack([c.entries if i % 2 else r for i, c in enumerate(cores)])
        seen = {}

        def spy(name):
            real = getattr(geometry, name)

            def wrapped(x, *args):
                seen[name] = x.copy()
                return real(x, *args)
            return wrapped

        for name in ("_spectral_match_init", "_min_singular_init"):
            monkeypatch.setattr(geometry, name, spy(name))
        stacked = dist_conjugacy_stack(xs, target)
        for name in ("_spectral_match_init", "_min_singular_init"):
            assert np.array_equal(seen[name], xs)
        for i, est in enumerate(stacked):
            assert _same_estimate(est, dist_conjugacy(BlockMatrix(xs[i], target.family.spec),
                                                      target))
            if i % 2 == 0:
                assert est.upper_bound < 1e-11
                assert (est.iterations, est.converged) == (3, True)
            else:
                assert est.upper_bound > 1e-3 and est.iterations > 3

    def test_arpack_failure_skips_sylvester_phase(self, monkeypatch):
        # copy size 35 > 34 takes the ARPACK branch; lane 0's solve fails
        fam = GroupFamily("unitary_conjugation", BlockSpec(1, 1, 34, 1))
        setup = RandomStream(5, 0).generator()
        target = circ_N(BlockMatrix(haar_unitary(2, setup)), BlockMatrix(haar_unitary(2, setup)),
                        fam)
        r = target.representative.entries
        xs = np.stack([haar_unitary(fam.spec.dim, setup) for _ in range(2)])
        real_eigsh, calls = scipy.sparse.linalg.eigsh, []

        def flaky(*args, **kwargs):
            calls.append(len(calls))
            if len(calls) == 1:
                raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((36, 0)))
            return real_eigsh(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", flaky)
        failed, solved = dist_conjugacy_stack(xs, target, max_iters=40)
        assert calls == [0, 1]
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", real_eigsh)
        eye = np.eye(fam.spec.dim, dtype=complex)
        spectral = geometry._spectral_match_init(xs[:1], r, 1)[0]
        op, iters, converged, W = _reference_conjugacy(xs[0], r, 1, [eye, spectral], 40)
        assert (failed.upper_bound, failed.iterations, failed.converged) == (op, iters, converged)
        assert np.array_equal(failed.witness_left.entries, W)
        assert _same_estimate(solved, dist_conjugacy(BlockMatrix(xs[1], fam.spec), target,
                                                     max_iters=40))

    def test_rejects_bad_stacks(self):
        cores, target = self._cores(8, 2)
        with pytest.raises(ValueError, match="dimension"):
            dist_conjugacy_stack(cores[0].entries, target)
        with pytest.raises(ValueError, match="max_iters"):
            dist_conjugacy_stack(np.stack([c.entries for c in cores]), target, max_iters=0)


def _reference_double_coset(x, target, gen, max_iters=200, tol=1e-12, restarts=5,
                            rel_tol=1e-3, stop_below=None):
    """The per-sample alternation, one restart after another: the reference
    the stacked Procrustes solver must match bit for bit."""
    spec = target.family.spec
    layout = geometry._CopyLayout(spec)
    r = target.representative.entries
    dim, alpha, w = len(x), layout.alpha, layout.w

    def run(v):
        f_prev, iters, converged = None, 0, False
        for t in range(max_iters):
            iters = t + 1
            rV = layout.apply_right(r, v)
            u = geometry._polar(layout.row_gram(x, rV))
            Ur = layout.apply_left(r, u)
            Mv = layout.col_gram(Ur, x)
            v = geometry._polar(Mv)
            corner = (x[:, :alpha].conj() * Ur[:, :alpha]).sum().real
            inner = corner + float((Mv * v).sum())
            f = float(np.sqrt(max(2.0 * dim - 2.0 * inner, 0.0)))
            if stop_below is not None and f <= stop_below:
                break
            if f_prev is not None:
                gain = f_prev - f
                if gain < tol or gain < rel_tol * max(f, 1e-300):
                    converged = True
                    break
            f_prev = f
        op = operator_norm(x - layout.apply_right(layout.apply_left(r, u), v))
        return op, u, v, iters, converged

    best = None
    for trial in range(restarts):
        result = run(np.eye(w) if trial == 0 else haar_orthogonal(w, gen))
        if best is None or result[0] < best[0]:
            best = result
        if stop_below is not None and best[0] <= stop_below:
            break
    op, u, v, iters, converged = best
    return geometry.DistanceEstimate(op, iters, converged, embed_k(u, spec), embed_k(v, spec))


class TestDistDoubleCosetStack:
    """The stacked Procrustes solver against the per-sample reference loop."""

    def _cores(self, alpha, k, m, N=5, samples=10, seed=21):
        fam = GroupFamily("unitary_orthogonal", BlockSpec(alpha, k, N, m))
        setup = RandomStream(seed, 0).generator()
        g = BlockMatrix(haar_unitary(fam.spec.window, setup))
        h = BlockMatrix(haar_unitary(fam.spec.window, setup))
        target = circ_N(g, h, fam.with_n_tail(k))
        cores = [sample_core(g, h, fam, haar_columns(
            k + N, k, RandomStream(seed, 1 + i).generator()).T).entries
            for i in range(samples)]
        # one lane on the target itself, which stops after two steps
        return np.stack(cores + [target.representative.entries]), target

    @pytest.mark.parametrize("alpha,k,m", [(1, 1, 1), (1, 2, 2), (0, 2, 1)])
    @pytest.mark.parametrize("restarts", [1, 5, 10])
    @pytest.mark.parametrize("stop", [False, True], ids=["no_stop", "stop_below"])
    def test_lanes_equal_reference_loop(self, alpha, k, m, restarts, stop):
        xs, target = self._cores(alpha, k, m)
        # the median identity-start bound: some lanes stop in round 0, others go on
        stop_below = float(np.median([_reference_double_coset(
            x, target, None, restarts=1).upper_bound for x in xs])) if stop else None
        gens = [RandomStream(3, i).generator() for i in range(len(xs))]
        stacked = dist_double_coset_stack(xs, target, gens, restarts=restarts,
                                          stop_below=stop_below)
        assert len(stacked) == len(xs)
        for i, (x, est) in enumerate(zip(xs, stacked)):
            ref_gen = RandomStream(3, i).generator()
            ref = _reference_double_coset(x, target, ref_gen, restarts=restarts,
                                          stop_below=stop_below)
            assert _same_estimate(est, ref)
            assert gens[i].bit_generator.state == ref_gen.bit_generator.state
            core = BlockMatrix(x, target.family.spec)
            assert abs(verify_estimate(est, core, target) - est.upper_bound) <= 1e-9

    def test_direct_call_is_a_stack_of_one(self):
        xs, target = self._cores(1, 1, 1, samples=4)
        for i, x in enumerate(xs):
            est = dist_double_coset(BlockMatrix(x, target.family.spec), target, restarts=10,
                                    rng=RandomStream(4, i), stop_below=0.3)
            ref = _reference_double_coset(x, target, RandomStream(4, i).generator(),
                                          restarts=10, stop_below=0.3)
            assert _same_estimate(est, ref)

    def test_input_checks(self):
        xs, target = self._cores(1, 1, 1, samples=2)
        gens = [np.random.default_rng(i) for i in range(len(xs))]
        assert dist_double_coset_stack(xs[:0], target, []) == []
        for kind in ("symmetric", "unitary_conjugation"):
            other = CosetTarget(target.representative, replace(target.family, kind=kind))
            with pytest.raises(ValueError, match="unitary_orthogonal"):
                dist_double_coset_stack(xs, other, gens)
        with pytest.raises(ValueError, match="dimension"):
            dist_double_coset_stack(xs[0], target, gens[:1])
        with pytest.raises(ValueError, match="dimension"):
            dist_double_coset_stack(xs[:, :2, :2], target, gens)
        with pytest.raises(ValueError, match="one generator per sample"):
            dist_double_coset_stack(xs, target, gens[:1])
        for kwargs in ({"restarts": 0}, {"max_iters": 0}):
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                dist_double_coset_stack(xs, target, gens, **kwargs)

    def test_run_concentration_matches_reference(self, monkeypatch):
        # the sweep's report, in its own blocks and in blocks of 7, against one
        # whose samples are each solved by the reference loop
        cfg = ExperimentConfig(family="unitary_orthogonal", alpha=1, k=1, m=1, N_list=(8, 64),
                               epsilon_list=(0.1, 0.4), samples=30, seed=9)
        stacked = run_concentration(cfg).with_zeroed_runtime()
        monkeypatch.setattr(experiments, "_BLOCK_BYTES", 160 * 9 * 7)
        assert run_concentration(cfg).with_zeroed_runtime() == stacked

        def reference(xs, target, gens, **kwargs):
            return [_reference_double_coset(x, target, gen, **kwargs) for x, gen in zip(xs, gens)]

        monkeypatch.setattr(experiments, "dist_double_coset_stack", reference)
        assert run_concentration(cfg).with_zeroed_runtime() == stacked


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

    @staticmethod
    def _brute_force(a, b):
        # min over every permutation of the largest eigenvalue gap
        la, lb = np.linalg.eigvals(a), np.linalg.eigvals(b)
        perms = np.array(list(itertools.permutations(range(len(la)))))
        return float(np.abs(la[None, :] - lb[perms]).max(axis=1).min())

    def test_equals_brute_force_min_max_matching(self):
        # min-sum assignment is not min-max; repeated eigenvalues come from
        # spectra drawn from the 4th roots of unity
        gen = RandomStream(94, 0).generator()
        worst = 0.0
        for trial in range(1200):
            n = 1 + trial % 6
            pair = []
            for _ in range(2):
                if trial % 3 == 0:
                    q = haar_unitary(n, gen)
                    spectrum = 1j ** gen.integers(0, 4, size=n)
                    pair.append(q @ np.diag(spectrum) @ q.conj().T)
                else:
                    pair.append(haar_unitary(n, gen))
            gap = abs(eigenvalue_matching_distance(*pair) - self._brute_force(*pair))
            worst = max(worst, gap)
        assert worst <= 1e-12

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("N", [2, 8])
    @pytest.mark.parametrize("k", [1, 2])
    def test_is_conjugacy_distance_without_corner(self, k, N, seed):
        # at alpha=0 the conjugators are the whole unitary group, so by Bhatia
        # and Davis the distance to the class is the optimal matching distance
        fam = GroupFamily("unitary_conjugation", BlockSpec(0, k, N, 1))
        gen = RandomStream(seed, 0).generator()
        g = BlockMatrix(haar_unitary(k, gen))
        h = BlockMatrix(haar_unitary(k, gen))
        target = circ_N(g, h, fam)
        x = BlockMatrix(haar_unitary(fam.spec.dim, gen))
        est = dist_conjugacy(x, target)
        assert est.upper_bound == pytest.approx(
            eigenvalue_matching_distance(x, target.representative), abs=1e-9)

    @pytest.mark.parametrize("a, b", [
        (np.eye(3), 2 * np.eye(3)),
        (np.diag([1.0, 0.5]), np.eye(2)),
        (np.eye(2), np.eye(3)),
        (np.ones((2, 3)), np.ones((2, 3))),
        (np.ones(3), np.ones(3)),
    ], ids=["scaled", "contraction", "sizes", "non_square", "vector"])
    def test_non_unitary_or_mismatched_rejected(self, a, b):
        with pytest.raises(ValueError, match="two unitaries of one size"):
            eigenvalue_matching_distance(a, b)
