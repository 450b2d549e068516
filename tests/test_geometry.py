import inspect
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
    as_word,
    build_JN,
    embed,
    embed_k,
    is_unitary,
    operator_norm,
)
from cosetlab.cosets import (
    CosetTarget,
    GroupFamily,
    circ_N,
    sample_core,
    sample_core_stack,
    sample_tau_full,
)
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
from cosetlab.haar import (
    RandomStream,
    _block_normals,
    _top_blocks,
    haar_orthogonal,
    haar_unitary,
)
from testkit import zeroed_runtime

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
        est = dist_double_coset(x, target)
        assert est.upper_bound <= 1e-6

    def test_orbit_element_two_copies(self):
        fam = _unitary_family(alpha=1, k=1, N=4, m=2)
        gen = RandomStream(33, 0).generator()
        g = BlockMatrix(haar_unitary(fam.spec.window, gen))
        h = BlockMatrix(haar_unitary(fam.spec.window, gen))
        target = circ_N(g, h, fam)
        u = embed_k(haar_orthogonal(5, gen), fam.spec)
        v = embed_k(haar_orthogonal(5, gen), fam.spec)
        est = dist_double_coset(u @ target.representative @ v, target)
        assert est.upper_bound <= 1e-6

    def test_witnesses_reproduce_bound(self):
        fam = _unitary_family(N=5)
        gen = RandomStream(34, 0).generator()
        g = BlockMatrix(haar_unitary(2, gen))
        h = BlockMatrix(haar_unitary(2, gen))
        target = circ_N(g, h, fam)
        x = BlockMatrix(haar_unitary(fam.spec.dim, gen))
        est = dist_double_coset(x, target)
        assert abs(verify_estimate(est, x, target) - est.upper_bound) <= 1e-10

    def test_symmetric_family_rejected(self):
        # the symmetric family's geometric view is exact membership
        target = circ_N(SWAP, SWAP, _sym_family())
        with pytest.raises(ValueError, match="unitary_orthogonal"):
            dist_double_coset(target.representative, target)


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

    @pytest.mark.parametrize("kind", ["unitary_orthogonal", "symmetric"])
    def test_other_family_rejected(self, kind):
        target, _ = self._target()
        other = CosetTarget(target.representative, replace(target.family, kind=kind))
        named = f"unitary_conjugation family, got '{kind}'"
        with pytest.raises(ValueError, match=named):
            dist_conjugacy(target.representative, other)
        with pytest.raises(ValueError, match=named):
            dist_conjugacy_stack(target.representative.entries[None], other)


@pytest.mark.parametrize("solver,keywords", [
    (dist_double_coset, []),
    (dist_double_coset_stack, ["stop_below", "stop_above"]),
    (dist_conjugacy, []),
    (dist_conjugacy_stack, ["stop_below", "stop_above"]),
])
def test_solver_keywords(solver, keywords):
    # the stop margins and the step cap are module constants, not options; the
    # sweep's stops are arguments of the stacked solvers only, and by default
    # they stop nothing
    params = list(inspect.signature(solver).parameters.values())[2:]
    assert [p.name for p in params] == keywords
    assert [p.default for p in params] == [-np.inf, np.inf][:len(params)]


def _lone_family_stack(lone):
    """A few sweep cores of lone's family with their target, as (stack, target)."""
    kind = "unitary_conjugation" if lone is dist_conjugacy else "unitary_orthogonal"
    return _stop_above_stack(kind, 1, 1, 8, 6, seed=3)


@pytest.mark.parametrize("lone", [dist_double_coset, dist_conjugacy])
@pytest.mark.parametrize("stop", ["stop_below", "stop_above"])
def test_lone_calls_take_no_stop(lone, stop):
    xs, target = _lone_family_stack(lone)
    with pytest.raises(TypeError, match=stop):
        lone(BlockMatrix(xs[0]), target, **{stop: 0.4})


@pytest.mark.parametrize("lone,stack", [(dist_double_coset, dist_double_coset_stack),
                                        (dist_conjugacy, dist_conjugacy_stack)])
def test_lone_call_is_a_stack_of_one_with_no_stop(lone, stack):
    # a lone call is a full solve: lane 0 of its stacked solver on x[None]
    # with the default stops, in all five fields, whatever epsilon a sweep tests
    xs, target = _lone_family_stack(lone)
    for x in xs:
        assert _same_lanes(_as_lanes([lone(BlockMatrix(x), target)]), stack(x[None], target))


def _stack_of_one(solve, x, target, **stops):
    """Lane 0 of the stacked solver solve on the one sample array x, with the
    given stops, as a DistanceEstimate."""
    bound, iters, converged, left, right = (a[0] for a in solve(x[None], target, **stops))
    return geometry.DistanceEstimate(bound, iters, converged, BlockMatrix(left), BlockMatrix(right))


@pytest.mark.parametrize("solver,steps", [(dist_double_coset_stack, 1), (dist_conjugacy_stack, 0)])
def test_floor_stop_is_converged(solver, steps):
    # a stop_below above every bound stops each sample at its first test: the
    # identity run's first step, or before step 1; both solvers count a stop
    # on a rule as converged
    kind = "unitary_conjugation" if solver is dist_conjugacy_stack else "unitary_orthogonal"
    gen = RandomStream(8, 0).generator()
    g, h = BlockMatrix(haar_unitary(2, gen)), BlockMatrix(haar_unitary(2, gen))
    target = circ_N(g, h, GroupFamily(kind, BlockSpec(1, 1, 1, 1)))
    for _ in range(5):
        est = _stack_of_one(solver, haar_unitary(3, gen), target, stop_below=10.0)
        assert (est.iterations, est.converged) == (steps, True)
        assert est.upper_bound <= 10.0


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("where", ["sample", "representative"])
@pytest.mark.parametrize("solver", [dist_double_coset, dist_double_coset_stack, dist_conjugacy,
                                    dist_conjugacy_stack])
def test_non_finite_entry_rejected(solver, where, bad):
    # one bad entry in one lane would fail the whole stack in LAPACK or warn
    # in a product, so the solvers refuse a bad sample stack up front; a bad
    # representative (or lone sample) is refused when its BlockMatrix is built
    kind = "unitary_conjugation" if "conjugacy" in solver.__name__ else "unitary_orthogonal"
    gen = RandomStream(8, 0).generator()
    g, h = BlockMatrix(haar_unitary(2, gen)), BlockMatrix(haar_unitary(2, gen))
    target = circ_N(g, h, GroupFamily(kind, BlockSpec(1, 1, 2, 1)))
    xs = np.stack([haar_unitary(4, gen) for _ in range(3)])
    r = target.representative.entries.copy()
    if where == "sample":
        xs[1, 2, 3] = bad
    else:
        r[0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        target = CosetTarget(BlockMatrix(r), target.family)
        solver(xs if solver.__name__.endswith("_stack") else BlockMatrix(xs[1]), target)


@pytest.mark.parametrize("lone", [dist_double_coset, dist_conjugacy])
@pytest.mark.parametrize("alpha,k", [(0, 1), (1, 1), (2, 2)])
def test_non_unitary_samples_reverify(lone, alpha, k):
    # the solvers take any finite x: a conjugation bound ||W - Z||, with
    # Z = x^H (W r), equals ||x - W r W^H|| for any x, as W and r are unitary,
    # and an orthogonal bound is ||x - U r V|| itself, so witnesses re-verify
    # off the group too (only the Bhatia-Davis gap needs a unitary x)
    kind = "unitary_conjugation" if lone is dist_conjugacy else "unitary_orthogonal"
    gen = RandomStream(12, 0).generator()
    fam = GroupFamily(kind, BlockSpec(alpha, k, k, 1))
    g, h = (BlockMatrix(haar_unitary(fam.spec.window, gen)) for _ in range(2))
    target = circ_N(g, h, fam)
    d = target.representative.dim
    for scale in (1e-3, 1.0, 1e3):
        x = BlockMatrix(scale * (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))))
        est = lone(x, target)
        assert abs(verify_estimate(est, x, target) - est.upper_bound) <= 1e-12 * est.upper_bound


def _reference_bound(x, W, r):
    """||x - W r W^H|| as the solver forms it: ||W - Z|| with Z = x^H (W r),
    from the top eigenvalue of its Gram matrix; and Z, the next step's input."""
    Z = x.conj().T @ (W @ r)
    A = W - Z
    return np.sqrt(max(np.linalg.eigvalsh(A.conj().T @ A)[-1], 0.0)), Z


class _ReferenceLane:
    """One start's fixed-point loop, a step at a time, with its own best
    bound, best conjugator, stall counter and best bound after each step.  It
    follows the solver's arithmetic: the next step from Z = x^H (W r)."""

    def __init__(self, x, r, alpha, W):
        self.x, self.r, self.alpha = x, r, alpha
        self.best, self.Z = _reference_bound(x, W, r)
        self.best_W, self.stall = W, 0
        self.history = [self.best]

    def step(self):
        W = geometry._blockify_unitary(self.Z, self.alpha)
        op, self.Z = _reference_bound(self.x, W, self.r)
        if op < self.best - 1e-12:
            self.best, self.best_W, self.stall = op, W, 0
        else:
            self.stall += 1
        self.history.append(self.best)


def _stall_len(x, alpha):
    return 5 if len(x) - alpha == 2 else 25


def _reference_run(x, r, alpha, W, max_iters=200):
    """One start run alone, with no sibling to trail and no lower bound:
    (best bound, iterations, converged, best conjugator).  It stops after 5
    flat steps on a 2 x 2 non-corner block, 25 on a larger one, or at a best
    bound below 1e-11."""
    lane = _ReferenceLane(x, r, alpha, W)
    for t in range(1, max_iters + 1):
        lane.step()
        if lane.best < 1e-11 or lane.stall >= _stall_len(x, alpha):
            return lane.best, t, True, lane.best_W
    return lane.best, max_iters, False, lane.best_W


def _reference_conjugacy(x, target, inits, max_iters=200, stop_below=-np.inf,
                         stop_above=np.inf):
    """A sample's staged solve: the reference the stacked solver must match
    bit for bit.  Stage 0 takes the first start of inits (J) and the corner
    bound ||x_aa - r_aa|| as the lower bound, stage 1 the second (spectral)
    and, for unitary x, the larger of the corner bound and the Bhatia-Davis
    gap, stage 2 the rest (Sylvester).  After each stage, and before step 1 and after each
    step of stage 3, the sample stops once its least bound so far is within
    1e-11 of the lower bound or at most stop_below, or the lower bound
    exceeds stop_above by more than 1e-11.  In stage 3 the starts run in
    lockstep, and after each step a start also stops after 5 (2 x 2
    non-corner block) or 25 flat steps, or, from step L on (L that stall
    length), when its best bound b trails the leader bound (the least best
    bound of the starts) by more than max_iters times its mean gain per step
    since step t - L.  The result is the first start with the least bound,
    with the iterations of all runs."""
    r, alpha = target.representative.entries, target.family.spec.alpha
    stall_len = _stall_len(x, alpha)
    lower = geometry._op_norm(x[None, :alpha, :alpha] - r[:alpha, :alpha])[0] if alpha else 0.0

    def shut(lead):
        return lead - lower < 1e-11 or lead <= stop_below or lower - stop_above > 1e-11

    def result(runs):
        op, _, converged, W = min(runs, key=lambda run: run[0])
        return op, sum(run[1] for run in runs), converged, W

    lanes = []
    for stage, starts in enumerate([inits[:1], inits[1:2], inits[2:]]):
        if stage == 1 and is_unitary(x):
            lower = max(lower, eigenvalue_matching_distance(x, r))
        lanes += [_ReferenceLane(x, r, alpha, W) for W in starts]
        if shut(min(lane.best for lane in lanes)):
            return result([(lane.best, 0, True, lane.best_W) for lane in lanes])
    runs = [None] * len(lanes)
    lead = min(lane.best for lane in lanes)
    for t in range(max_iters + 1):
        running = [i for i, run in enumerate(runs) if run is None]
        if t:
            for i in running:
                lanes[i].step()
            lead = min([lead] + [lanes[i].best for i in running])
        closed = shut(lead)
        for i in running:
            b = lanes[i].best
            past = lanes[i].history[t - stall_len] if t >= stall_len else np.inf
            if closed or (t and (lanes[i].stall >= stall_len
                                 or b - lead > max_iters * (past - b) / stall_len)):
                runs[i] = (b, t, True, lanes[i].best_W)
        if all(runs):
            break
    return result([run or (lane.best, max_iters, False, lane.best_W)
                   for run, lane in zip(runs, lanes)])


def _conjugacy_starts(x, target):
    """The J, spectral and Sylvester starts of one core."""
    r, alpha = target.representative.entries, target.family.spec.alpha
    spectral, _ = geometry._spectral_match_init(x[None], r, alpha)
    sylvester = geometry._min_singular_init(x[None], r, alpha, spectral)
    return [build_JN(target.family.spec).entries, spectral[0], sylvester[0]]


def _same_estimate(a, b):
    return (a.upper_bound == b.upper_bound and a.iterations == b.iterations
            and a.converged == b.converged
            and np.array_equal(a.witness_left.entries, b.witness_left.entries)
            and np.array_equal(a.witness_right.entries, b.witness_right.entries))


def _as_lanes(ests):
    """Per-sample DistanceEstimates as a stacked solver's arrays."""
    return (np.array([e.upper_bound for e in ests]), np.array([e.iterations for e in ests]),
            np.array([e.converged for e in ests]),
            np.array([e.witness_left.entries for e in ests]),
            np.array([e.witness_right.entries for e in ests]))


def _lane_estimates(lanes):
    """A stacked solver's arrays as per-sample DistanceEstimates."""
    return [geometry.DistanceEstimate(b, i, c, BlockMatrix(w), BlockMatrix(v))
            for b, i, c, w, v in zip(*lanes)]


def _same_lanes(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


def _check_lane_arrays(lanes, xs, target):
    """Dtypes and shapes of a stacked solver's arrays, and each lane's bound
    re-evaluated as ||x_i - L_i r R_i|| from its witnesses."""
    bound, iters, converged, left, right = lanes
    assert bound.shape == iters.shape == converged.shape == (len(xs),)
    assert (bound.dtype.kind, iters.dtype.kind, converged.dtype.kind) == ("f", "i", "b")
    assert left.shape == right.shape == xs.shape
    if len(xs):
        aligned = left @ target.representative.entries @ right
        np.testing.assert_allclose(np.linalg.norm(xs - aligned, 2, axis=(1, 2)), bound,
                                   rtol=0, atol=1e-9)


def _block(k, N, rng, unitary=False):
    # one leading k x k block of a Haar element of size k + N
    return _top_blocks(_block_normals(k, N, rng, unitary), unitary)[0]


class TestDistConjugacyStack:
    """The stacked solver against per-sample calls and the reference loop."""

    def _cores(self, N, samples, seed=42, alpha=1, k=1):
        fam = GroupFamily("unitary_conjugation", BlockSpec(alpha, k, N, 1))
        setup = RandomStream(seed, 0).generator()
        g = BlockMatrix(haar_unitary(fam.spec.window, setup))
        h = BlockMatrix(haar_unitary(fam.spec.window, setup))
        cores = [sample_core(g, h, fam, _block(k, N, RandomStream(seed, 1 + i), True).T)
                 for i in range(samples)]
        return cores, circ_N(g, h, fam.with_n_tail(k))

    @pytest.mark.parametrize("N", [8, 24, 64])
    def test_stack_equals_per_sample_calls(self, N):
        cores, target = self._cores(N, 24, seed=7 + N)
        xs = np.stack([c.entries for c in cores])
        stacked = dist_conjugacy_stack(xs, target)
        _check_lane_arrays(stacked, xs, target)
        assert stacked[3].dtype.kind == "c"
        assert _same_lanes(stacked, _as_lanes([dist_conjugacy(core, target) for core in cores]))

    @pytest.mark.parametrize("alpha,k", [(1, 1), (2, 1), (1, 2)])
    def test_long_stack_equals_per_sample_calls(self, alpha, k):
        # 300 samples: W r is one product over up to 900 lanes, and each lane's
        # rows of it equal its lone call's, bit for bit
        cores, target = self._cores(24, 300, seed=5, alpha=alpha, k=k)
        xs = np.stack([c.entries for c in cores])
        stacked = dist_conjugacy_stack(xs, target)
        assert _same_lanes(stacked, _as_lanes([dist_conjugacy(core, target) for core in cores]))

    def test_empty_stack(self):
        cores, target = self._cores(8, 1)
        xs = np.stack([c.entries for c in cores])[:0]
        stacked = dist_conjugacy_stack(xs, target)
        _check_lane_arrays(stacked, xs, target)
        assert stacked[3].dtype == stacked[4].dtype == complex

    @pytest.mark.parametrize("alpha,k,max_iters", [
        pytest.param(1, 1, 200, id="1-1"), pytest.param(2, 2, 200, id="2-2"),
        pytest.param(0, 2, 200, id="0-2"), pytest.param(2, 2, 40, id="2-2-40")])
    @pytest.mark.parametrize("stop", [False, True], ids=["no_stop", "stop_below"])
    def test_stack_equals_reference_loop(self, monkeypatch, alpha, k, max_iters, stop):
        # at a step cap of 40 the pace term max_iters (b_{t-L} - b) / L is
        # smaller, so lanes retire on it earlier; with the full run's median
        # bound as stop_below, about half the samples stop on it
        monkeypatch.setattr(geometry, "_MAX_ITERS", max_iters)
        cores, target = self._cores(6, 8, seed=3, alpha=alpha, k=k)
        xs = np.stack([c.entries for c in cores])
        stop_below = float(np.median(dist_conjugacy_stack(xs, target)[0])) if stop else -np.inf
        bound, iters, converged, left, _ = dist_conjugacy_stack(xs, target, stop_below)
        for i, core in enumerate(cores):
            x = core.entries
            want = _reference_conjugacy(x, target, _conjugacy_starts(x, target), max_iters,
                                        stop_below)
            assert (bound[i], iters[i], converged[i]) == want[:3]
            assert np.array_equal(left[i], want[3])

    @pytest.mark.parametrize("alpha,k,N,seed,lane", [
        (1, 1, 1, 7, 8), (1, 2, 2, 1, 167), (1, 2, 2, 7, 134)])
    def test_no_start_is_cut_short(self, alpha, k, N, seed, lane):
        # sweep cores on which a start stopped after 25 steps that did not beat
        # an earlier start's bound, while it was still descending, when the
        # starts shared one best bound (they lost 0.0057, 0.011 and 0.071)
        cores, target = self._cores(N, lane + 1, seed=seed, alpha=alpha, k=k)
        x, r = cores[lane].entries, target.representative.entries
        (bound,) = dist_conjugacy_stack(x[None], target)[0]
        for W in _conjugacy_starts(x, target):
            assert bound <= _reference_run(x, r, alpha, W)[0]

    def test_mixed_lanes(self, monkeypatch):
        # no sample's J start closes its bracket, so every sample gets the
        # spectral start; on the exact samples (x = r) its bound meets the
        # lower bound, so they take no Sylvester start and no step, and the
        # others get all three starts
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
        assert np.array_equal(seen["_spectral_match_init"], xs)
        assert np.array_equal(seen["_min_singular_init"], xs[1::2])
        assert _same_lanes(stacked, _as_lanes([
            dist_conjugacy(BlockMatrix(x), target) for x in xs]))
        bound, iters, converged = stacked[:3]
        assert (bound[::2] < 1e-11).all() and (iters[::2] == 0).all() and converged[::2].all()
        assert (bound[1::2] > 1e-3).all() and (iters[1::2] > 3).all()

    @pytest.mark.parametrize("alpha,N,seed", [(1, 8, 42), (2, 8, 3), (1, 24, 9)])
    def test_short_stall_keeps_k1_bounds(self, monkeypatch, alpha, N, seed):
        # on k = 1 sweep cores no step after the fifth flat one lowers a bound,
        # so the 5-step window reads the 25-step window's bounds and hits
        cores, target = self._cores(N, 60, seed=seed, alpha=alpha)
        xs = np.stack([c.entries for c in cores])
        short = dist_conjugacy_stack(xs, target)[0]
        monkeypatch.setattr(geometry, "_CONJ_WINDOW", 25)
        full = dist_conjugacy_stack(xs, target)[0]
        np.testing.assert_allclose(short, full, rtol=0, atol=1e-12)
        for eps in (0.2, 0.4):
            assert np.array_equal(short <= eps, full <= eps)

    @pytest.mark.parametrize("k", [1, 2])
    def test_alpha_zero_closes_before_step_one(self, k):
        # at alpha = 0 K is the whole unitary group, so the spectral start is
        # exact and meets the Bhatia-Davis lower bound before any step
        cores, target = self._cores(8, 40, seed=5, alpha=0, k=k)
        r = target.representative.entries
        xs = np.stack([c.entries for c in cores])
        stacked = dist_conjugacy_stack(xs, target)
        _check_lane_arrays(stacked, xs, target)
        bound, iters, converged = stacked[:3]
        assert (iters == 0).all() and converged.all()
        for core, b in zip(cores, bound):
            assert abs(b - eigenvalue_matching_distance(core, r)) <= 1e-12

    def test_arpack_failure_starts_from_the_guess(self, monkeypatch):
        # copy size 35 > 34 takes the ARPACK branch; lane 0's solve fails, so
        # its Sylvester lane starts from ARPACK's start vector, the spectral guess
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
        monkeypatch.setattr(geometry, "_MAX_ITERS", 40)
        bound, iters, converged, left, right = dist_conjugacy_stack(xs, target)
        assert calls == [0, 1]
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", real_eigsh)
        J = build_JN(fam.spec).entries
        spectral = geometry._spectral_match_init(xs[:1], r, 1)[0][0]
        guess = geometry._blockify_unitary(spectral, 1)
        op, it, conv, W = _reference_conjugacy(xs[0], target, [J, spectral, guess], 40)
        assert (bound[0], iters[0], converged[0]) == (op, it, conv)
        assert np.array_equal(left[0], W)
        assert op <= _reference_conjugacy(xs[0], target, [J, spectral], 40)[0]
        assert _same_lanes((bound[1:], iters[1:], converged[1:], left[1:], right[1:]), _as_lanes(
            [dist_conjugacy(BlockMatrix(xs[1]), target)]))

    def test_rejects_bad_stacks(self):
        cores, target = self._cores(8, 2)
        with pytest.raises(ValueError, match="dimension"):
            dist_conjugacy_stack(cores[0].entries, target)
        with pytest.raises(ValueError, match="dimension"):
            dist_conjugacy_stack(np.stack([c.entries[:2, :2] for c in cores]), target)

    def test_sweep_block_total_steps_pinned(self):
        # the benchmark's conj_small block: g and h from seed 42, 70 samples of
        # seed 3 at N=8; with a 25-step stall at k = 1 the solver took 7543,
        # 3335 before lanes that trail their sample's leader retired, and 1728
        # with the identity start in J's lane
        setup = RandomStream(42, 0).generator()
        g, h = BlockMatrix(haar_unitary(2, setup)), BlockMatrix(haar_unitary(2, setup))
        fam = GroupFamily("unitary_conjugation", BlockSpec(1, 1, 8, 1))
        a = np.array([_block(1, 8, RandomStream(3, 1 + i), True) for i in range(70)])
        cores = sample_core_stack(g, embed(h, fam.with_n_tail(1).spec), fam, a)
        assert dist_conjugacy_stack(cores, circ_N(g, h, fam.with_n_tail(1)))[1].sum() == 1654

    @pytest.mark.parametrize("N", [8, 64])
    @pytest.mark.parametrize("alpha,k", [(0, 1), (1, 1), (2, 1), (1, 2), (1, 3)])
    def test_stop_below_stack_equals_full_run_on_misses(self, alpha, k, N):
        # floors at the full run's quartiles, so each has samples on both sides:
        # a sample whose bound stays above the floor runs as without it, bit for
        # bit, and one that reaches it stops with a witnessed bound at most the
        # floor, where the full run's bound also lies, so no hit moves
        cores, target = self._cores(N, 24, seed=N + k, alpha=alpha, k=k)
        xs = np.stack([c.entries for c in cores])
        full = dist_conjugacy_stack(xs, target)
        for floor in np.quantile(full[0], [0.25, 0.75]):
            stopped = dist_conjugacy_stack(xs, target, stop_below=floor)
            _check_lane_arrays(stopped, xs, target)
            for eps in (0.05, 0.1, 0.2, 0.4):
                if eps >= floor:
                    assert np.array_equal(stopped[0] <= eps, full[0] <= eps)
            miss = stopped[0] > floor
            assert 0 < np.count_nonzero(miss) < len(xs)
            assert _same_lanes([a[miss] for a in stopped], [a[miss] for a in full])
            assert (full[0][~miss] <= floor).all() and (stopped[1] <= full[1]).all()
            for i in np.flatnonzero(~miss):
                est = geometry.DistanceEstimate(stopped[0][i], stopped[1][i], stopped[2][i],
                                                BlockMatrix(stopped[3][i]),
                                                BlockMatrix(stopped[4][i]))
                assert abs(verify_estimate(est, cores[i], target) - est.upper_bound) <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_far_tails_stop_at_the_frame_start(self, monkeypatch, k):
        # at N = 10^6, ||A|| is about sqrt(k / N), so J's bound, at most
        # 2 phi(||A||), lies far below epsilon 0.4: stage 0 decides every
        # sample, neither the spectral nor the Sylvester start runs, no sample
        # takes a step, and each reports J, whose bound re-verifies
        cores, target = self._cores(10**6, 30, seed=k, alpha=1, k=k)
        xs = np.stack([c.entries for c in cores])
        seen = []
        for name in ("_spectral_match_init", "_min_singular_init"):
            real = getattr(geometry, name)
            monkeypatch.setattr(geometry, name, lambda x, *args, real=real: (
                seen.append(len(x)), real(x, *args))[1])
        stacked = dist_conjugacy_stack(xs, target, stop_below=0.4, stop_above=0.4)
        bound, iters, converged, left, _ = stacked
        assert seen == []
        assert (iters == 0).all() and converged.all() and (bound < 0.05).all()
        assert (left == build_JN(target.family.spec).entries).all()
        _check_lane_arrays(stacked, xs, target)
        for x, est in zip(xs, _lane_estimates(stacked)):
            assert abs(verify_estimate(est, BlockMatrix(x), target) - est.upper_bound) <= 1e-12

    @pytest.mark.parametrize("N", [8, 64])
    # the (alpha, k) shapes of the 15-config comparison
    @pytest.mark.parametrize("alpha,k", [(1, 1), (0, 1), (2, 1), (1, 2), (0, 2)])
    def test_stage_decided_witnesses_verify(self, alpha, k, N):
        # with a sweep's stops most samples are decided before any step, by
        # the frame start J or a later start; each such witness re-verifies
        cores, target = self._cores(N, 40, seed=N + k, alpha=alpha, k=k)
        xs = np.stack([c.entries for c in cores])
        stacked = dist_conjugacy_stack(xs, target, stop_below=0.2, stop_above=0.4)
        decided = np.flatnonzero(stacked[1] == 0)
        assert len(decided) >= 10 and stacked[2][decided].all()
        ests = _lane_estimates(stacked)
        for i in decided:
            assert abs(verify_estimate(ests[i], cores[i], target) - ests[i].upper_bound) <= 1e-12

    @pytest.mark.parametrize("cap", [0, 3])
    def test_stop_below_stops_by_the_step_that_reaches_it(self, monkeypatch, cap):
        # a run capped at cap steps reports its sample's leader bound there; with
        # that bound as stop_below, the uncapped run stops, converged, by that
        # step with that bound: at cap 0, a best start at stop_below takes no step
        cores, target = self._cores(8, 12, seed=4)
        xs = np.stack([c.entries for c in cores])
        full = dist_conjugacy_stack(xs, target)
        monkeypatch.setattr(geometry, "_MAX_ITERS", cap)
        capped = dist_conjugacy_stack(xs, target)
        monkeypatch.undo()
        assert (full[1] > capped[1]).all()
        for core, bound, steps in zip(cores, capped[0], capped[1]):
            est = _stack_of_one(dist_conjugacy_stack, core.entries, target, stop_below=bound)
            assert (est.upper_bound, est.converged) == (bound, True)
            assert est.iterations <= steps


def _random_stack(rng, shape, real):
    z = rng.standard_normal(shape)
    return z if real else z + 1j * rng.standard_normal(shape)


def _svd_polar(M):
    u, _, vt = np.linalg.svd(M)
    return u @ vt


def _unitarity_gap(U):
    eye = np.eye(U.shape[-1])
    return np.abs(U.conj().swapaxes(-1, -2) @ U - eye).max()


def _reference_sylvester_start(x, r, alpha):
    """One lane's dense Sylvester start on its own: the smallest right singular
    vector of its map p -> xW - Wr, W = diag(p_0 1_alpha, p_1..), made a unit
    corner, with the non-corner block's polar factor."""
    dim, w = len(x), len(x) - alpha
    basis = np.zeros((1 + w * w, dim, dim), dtype=complex)
    basis[0, :alpha, :alpha] = np.eye(alpha)
    basis[1:, alpha:, alpha:] = np.eye(w * w).reshape(w * w, w, w)
    L = (x @ basis - basis @ r).reshape(len(basis), dim * dim).T
    p = np.linalg.svd(L, full_matrices=False)[2][-1].conj()
    if abs(p[0]) > 1e-9:
        p = p / p[0]
    W = np.zeros((1, dim, dim), dtype=complex)
    W[0, alpha:, alpha:] = p[1:].reshape(w, w)
    return geometry._blockify_unitary(W, alpha)[0]


class TestConjugationKernels:
    """The solvers' closed-form 2 x 2 polar factor and nuclear norm, and their
    eigensolve norm, against SVD oracles."""

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
    def test_polar_2x2_equals_svd_factor(self, real, scale):
        # invertible M has one polar factor, so both must give it
        M = scale * _random_stack(np.random.default_rng(1), (500, 2, 2), real)
        U = geometry._polar(M)
        assert U.dtype == M.dtype
        assert _unitarity_gap(U) <= 1e-14
        np.testing.assert_allclose(U, _svd_polar(M), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("real", [True, False])
    def test_polar_2x2_keeps_negative_determinant(self, real):
        M = np.array([[[0.3, 2.0], [1.0, -0.5]], [[-1.0, 0.0], [0.0, 4.0]]])
        M = M if real else M.astype(complex)
        U = geometry._polar(M)
        assert _unitarity_gap(U) <= 1e-14
        np.testing.assert_allclose(np.linalg.det(U), [-1.0, -1.0], atol=1e-14)
        np.testing.assert_allclose(U, _svd_polar(M), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("real", [True, False])
    def test_polar_2x2_rank_one(self, real):
        # the factor is not unique; it must be unitary with U^H M Hermitian PSD
        rng = np.random.default_rng(2)
        u, v = _random_stack(rng, (200, 2, 1), real), _random_stack(rng, (200, 2, 1), real)
        M = u @ v.conj().swapaxes(-1, -2)
        U = geometry._polar(M)
        assert _unitarity_gap(U) <= 1e-14
        P = U.conj().swapaxes(-1, -2) @ M
        np.testing.assert_allclose(P, P.conj().swapaxes(-1, -2), rtol=0, atol=1e-13)
        assert np.linalg.eigvalsh(P).min() >= -1e-13

    @pytest.mark.parametrize("real", [True, False])
    def test_polar_2x2_of_zero_is_identity(self, real):
        M = np.zeros((3, 2, 2)) if real else np.zeros((3, 2, 2), dtype=complex)
        M[1] = [[1.0, 2.0], [0.5, 3.0]]
        U = geometry._polar(M)
        assert np.array_equal(U[[0, 2]], np.broadcast_to(np.eye(2), (2, 2, 2)))
        assert np.array_equal(_svd_polar(M[[0, 2]]), U[[0, 2]])
        np.testing.assert_allclose(U[1], _svd_polar(M[1]), rtol=0, atol=1e-14)

    def test_larger_blocks_take_the_svd(self):
        M = _random_stack(np.random.default_rng(3), (4, 3, 3), False)
        assert np.array_equal(geometry._polar(M), _svd_polar(M))

    @pytest.mark.parametrize("real", [True, False])
    def test_polar_lane_does_not_depend_on_its_stack(self, real):
        # ordinary blocks mixed with blocks the closed form redoes at unit
        # scale (zero, 1e+-300-scaled, rank one at 1e-300) and plain rank-one
        # ones: each lane must be the factor it gets alone
        rng = np.random.default_rng(5)
        M = _random_stack(rng, (12, 2, 2), real)
        u, v = _random_stack(rng, (2, 2, 1), real), _random_stack(rng, (2, 2, 1), real)
        rank_one = u @ v.conj().swapaxes(-1, -2)
        M[1] = 0.0
        M[3], M[8] = rank_one[0], 1e-300 * rank_one[1]
        M[4] *= 1e300
        M[6] *= 1e-300
        M[10] = 1e300 * np.array([[2.0, 1.0], [1.0, 1.0]])  # a d and b c overflow alike
        U = geometry._polar(M)
        for i in range(len(M)):
            assert np.array_equal(U[i:i + 1], geometry._polar(M[i:i + 1]))
        unique = [0, 1, 2, 4, 5, 6, 7, 9, 10, 11]  # not rank one: the SVD's factor, I at M = 0
        np.testing.assert_allclose(U[unique], _svd_polar(M[unique]), rtol=0, atol=1e-13)
        assert _unitarity_gap(U) <= 1e-14
        P = U[[3, 8]].conj().swapaxes(-1, -2) @ M[[3, 8]]
        P /= np.abs(M[[3, 8]]).max(axis=(-2, -1), keepdims=True)
        np.testing.assert_allclose(P, P.conj().swapaxes(-1, -2), rtol=0, atol=1e-13)
        assert np.linalg.eigvalsh(P).min() >= -1e-13

    @pytest.mark.parametrize("alpha,k", [(0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (1, 4)])
    def test_stacked_sylvester_start_equals_lane_loop(self, alpha, k):
        # two full chunks of lanes and a partial third, against each lane's own
        # map and SVD; the dense branch reads no spectral guess
        dim = alpha + 2 * k
        n = 1 + (2 * k) ** 2
        step = geometry._SCRATCH_BYTES // (16 * n * dim * dim)
        rng = np.random.default_rng(20 + dim)
        x = _random_stack(rng, (2 * step + 3, dim, dim), False)
        r = _random_stack(rng, (dim, dim), False)
        got = geometry._min_singular_init(x, r, alpha, None)
        assert np.array_equal(got, [_reference_sylvester_start(e, r, alpha) for e in x])

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 9])
    def test_norm_equals_operator_norm(self, real, d):
        rng = np.random.default_rng(10 + d)
        A = _random_stack(rng, (100, d, d), real) * np.logspace(-12, 3, 100)[:, None, None]
        got = geometry._op_norm(A)
        want = np.array([operator_norm(a) for a in A])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("ratio", [0.99, 1 - 1e-3, 1 + 1e-3, 1.01])
    def test_norm_keeps_side_of_exact_threshold(self, ratio):
        # lanes a distance ratio * 1e-11 from the class (forming x rounds that
        # distance by about 1e-5 of itself): a norm read off
        # 2I - 2 Herm(x^H W r W^H) reads these lanes as about 1e-6
        gen = RandomStream(12, 0).generator()
        r, W = haar_unitary(3, gen), haar_unitary(3, gen)
        E = _random_stack(np.random.default_rng(4), (20, 3, 3), False)
        E *= ratio * geometry._CONJ_EXACT / np.array([operator_norm(e) for e in E])[:, None, None]
        x = W @ r @ W.conj().T + E
        got = geometry._op_norm(x @ W - W @ r)
        want = np.array([operator_norm(e) for e in x - W @ r @ W.conj().T])
        assert np.array_equal(got < geometry._CONJ_EXACT, want < geometry._CONJ_EXACT)
        assert np.array_equal(got < geometry._CONJ_EXACT, np.full(20, ratio < 1))

    @pytest.mark.parametrize("alpha,k,m", [(1, 1, 1), (0, 1, 2), (2, 2, 1), (1, 3, 2)])
    def test_norm_equals_operator_norm_on_residuals(self, alpha, k, m):
        # the orthogonal solver's residuals x - U r V, a lane on the target
        # (a residual of about 1e-15) among them
        xs, target = TestDistDoubleCosetStack()._cores(alpha, k, m, samples=30)
        _, _, _, left, right = dist_double_coset_stack(xs, target)
        A = xs - left @ target.representative.entries @ right
        np.testing.assert_allclose(geometry._op_norm(A), [operator_norm(a) for a in A],
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("kind", ["random", "rank_one", "zero"])
    def test_nuclear_norm_2x2_equals_svd_sum(self, kind):
        rng = np.random.default_rng(30)
        M = rng.standard_normal((2000, 2, 2)) * np.logspace(-8, 8, 2000)[:, None, None]
        if kind == "rank_one":
            M = M[..., :1] * rng.standard_normal((2000, 1, 2))
        elif kind == "zero":
            M = np.zeros((3, 2, 2))
        got = geometry._nuclear_norm(M)
        np.testing.assert_allclose(
            got, np.linalg.svd(M, compute_uv=False).sum(axis=-1), rtol=1e-15, atol=0)
        # the same bits for M and -M, so a sign tie scores as a tie
        assert np.array_equal(geometry._nuclear_norm(-M), got)

    def test_larger_nuclear_norms_take_the_svd(self):
        M = np.random.default_rng(31).standard_normal((50, 3, 3))
        assert np.array_equal(geometry._nuclear_norm(M),
                              np.linalg.svd(M, compute_uv=False).sum(axis=-1))


def _reference_procrustes_run(x, target, v, max_iters=200, stop_below=-np.inf):
    """One per-sample run of the alternation from the start v: (bound, u, v,
    iterations, converged)."""
    layout = geometry._CopyLayout(target.family.spec)
    r = target.representative.entries
    dim, alpha = len(x), layout.alpha
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
        if f <= stop_below:
            converged = True
            break
        if f_prev is not None:
            gain = f_prev - f
            if gain < 1e-12 or gain < 1e-3 * max(f, 1e-300):
                converged = True
                break
        f_prev = f
    op = geometry._op_norm(x - layout.apply_right(layout.apply_left(r, u), v))
    return op, u, v, iters, converged


def _reference_double_coset(x, target, stop_below=-np.inf, stop_above=np.inf, **kwargs):
    """The per-sample solver, one start after another: the identity, then the
    two Gram starts unless the identity's bound is at most stop_below or
    within 1e-11 of the corner bound ||x_aa - r_aa||, or the corner bound
    exceeds stop_above by more than 1e-11; the first least bound wins, with
    the iterations of all runs.  The reference
    the stacked Procrustes solver must match bit for bit."""
    spec = target.family.spec
    layout = geometry._CopyLayout(spec)
    a, r = spec.alpha, target.representative.entries
    corner = np.linalg.norm(x[:a, :a] - r[:a, :a], 2) if a else 0.0
    best = _reference_procrustes_run(x, target, np.eye(layout.w), stop_below=stop_below,
                                     **kwargs)
    steps = best[3]
    if best[0] > stop_below and corner - stop_above <= 1e-11 and best[0] - corner >= 1e-11:
        for v in geometry._gram_starts(x[None], target.representative.entries, layout):
            result = _reference_procrustes_run(x, target, v[0], stop_below=stop_below, **kwargs)
            steps += result[3]
            if result[0] < best[0]:
                best = result
    op, u, v, _, converged = best
    return geometry.DistanceEstimate(op, steps, converged, embed_k(u, spec), embed_k(v, spec))


class TestDistDoubleCosetStack:
    """The stacked Procrustes solver against the per-sample reference loop."""

    def _cores(self, alpha, k, m, N=5, samples=10, seed=21):
        fam = GroupFamily("unitary_orthogonal", BlockSpec(alpha, k, N, m))
        setup = RandomStream(seed, 0).generator()
        g = BlockMatrix(haar_unitary(fam.spec.window, setup))
        h = BlockMatrix(haar_unitary(fam.spec.window, setup))
        target = circ_N(g, h, fam.with_n_tail(k))
        cores = [sample_core(g, h, fam, _block(k, N, RandomStream(seed, 1 + i)).T).entries
                 for i in range(samples)]
        # one lane on the target itself, which stops after two steps
        return np.stack(cores + [target.representative.entries]), target

    @pytest.mark.parametrize("alpha,k,m", [(1, 1, 1), (1, 2, 2), (0, 2, 1)])
    @pytest.mark.parametrize("stop", [False, True], ids=["no_stop", "stop_below"])
    def test_lanes_equal_reference_loop(self, alpha, k, m, stop):
        xs, target = self._cores(alpha, k, m)
        # the median identity-start bound: some lanes stop there, others run the Gram starts
        eye = np.eye(target.family.spec.copy_size)
        stop_below = float(np.median([_reference_procrustes_run(x, target, eye)[0]
                                      for x in xs])) if stop else -np.inf
        stacked = dist_double_coset_stack(xs, target, stop_below=stop_below)
        _check_lane_arrays(stacked, xs, target)
        assert _same_lanes(stacked, _as_lanes(
            [_reference_double_coset(x, target, stop_below=stop_below) for x in xs]))

    @pytest.mark.parametrize("max_iters", [1, 3])
    def test_capped_lanes_equal_reference_loop(self, monkeypatch, max_iters):
        # lanes still running at the step cap are written out after the loop,
        # unconverged; at 3 steps some lanes have stopped
        monkeypatch.setattr(geometry, "_MAX_ITERS", max_iters)
        xs, target = self._cores(1, 2, 2)
        stacked = dist_double_coset_stack(xs, target)
        _check_lane_arrays(stacked, xs, target)
        assert not stacked[2].all()
        assert _same_lanes(stacked, _as_lanes(
            [_reference_double_coset(x, target, max_iters=max_iters) for x in xs]))

    def test_direct_call_is_a_stack_of_one(self):
        # a lone call is the full solve; a stack of one with a stop is the
        # reference run with that stop
        xs, target = self._cores(1, 1, 1, samples=4)
        for x in xs:
            est = _stack_of_one(dist_double_coset_stack, x, target, stop_below=0.3)
            assert _same_estimate(est, _reference_double_coset(x, target, stop_below=0.3))
            assert _same_estimate(dist_double_coset(BlockMatrix(x), target),
                                  _reference_double_coset(x, target))

    @pytest.mark.parametrize("alpha,k,m", [(1, 1, 2), (0, 2, 1), (2, 2, 1)])
    @pytest.mark.parametrize("stop_below", [-np.inf, 0.3])
    def test_deterministic_and_each_lane_its_lone_call(self, alpha, k, m, stop_below):
        # the solver reads no random stream: a second call gives the same
        # bits, and so does each lane's stack of one with the same stop
        xs, target = self._cores(alpha, k, m, samples=12)
        first = dist_double_coset_stack(xs, target, stop_below=stop_below)
        assert _same_lanes(first, dist_double_coset_stack(xs, target, stop_below=stop_below))
        assert _same_lanes(first, _as_lanes([_stack_of_one(
            dist_double_coset_stack, x, target, stop_below=stop_below) for x in xs]))

    def test_empty_stack(self):
        xs, target = self._cores(1, 1, 1, samples=2)
        stacked = dist_double_coset_stack(xs[:0], target)
        _check_lane_arrays(stacked, xs[:0], target)
        assert stacked[3].dtype == stacked[4].dtype == float

    def test_input_checks(self):
        xs, target = self._cores(1, 1, 1, samples=2)
        for kind in ("symmetric", "unitary_conjugation"):
            other = CosetTarget(target.representative, replace(target.family, kind=kind))
            with pytest.raises(ValueError, match="unitary_orthogonal"):
                dist_double_coset_stack(xs, other)
        with pytest.raises(ValueError, match="dimension"):
            dist_double_coset_stack(xs[0], target)
        with pytest.raises(ValueError, match="dimension"):
            dist_double_coset_stack(xs[:, :2, :2], target)

    @pytest.mark.parametrize("alpha,k,m", [(1, 1, 1), (0, 2, 2), (2, 3, 1)])
    @pytest.mark.parametrize("stop", [False, True], ids=["no_stop", "stop_below"])
    def test_chunked_gram_phase_equals_lone_calls(self, alpha, k, m, stop, monkeypatch):
        # 13 samples: the Gram phase runs in chunks of at most ceil(13/3) = 5
        # samples, two lanes each, and every lane is its stack of one; with the
        # median identity bound as stop_below, 6 or 7 samples run it
        xs, target = self._cores(alpha, k, m, samples=12)
        eye = np.eye(target.family.spec.copy_size)
        stop_below = float(np.median([_reference_procrustes_run(x, target, eye)[0]
                                      for x in xs])) if stop else -np.inf
        runs, alternate = [], geometry._alternate_stack

        def alternate_stack(x, *args):
            runs.append(len(x))
            return alternate(x, *args)

        monkeypatch.setattr(geometry, "_alternate_stack", alternate_stack)
        stacked = dist_double_coset_stack(xs, target, stop_below=stop_below)
        assert runs[0] == 13 and len(runs) >= 3 and max(runs[1:]) <= 10
        monkeypatch.setattr(geometry, "_alternate_stack", alternate)
        assert _same_lanes(stacked, _as_lanes([_stack_of_one(
            dist_double_coset_stack, x, target, stop_below=stop_below) for x in xs]))

    def test_tied_starts_keep_the_first(self, monkeypatch):
        # at alpha = 0, k = 1 the starts v and -v run to (-u, -v) and (u, v),
        # the same bounds bit for bit; the stacked pair keeps the first, as
        # the reference's one-start-after-another loop does
        xs, target = self._cores(0, 1, 1, samples=12)
        gram_starts = geometry._gram_starts

        def tied(x, r, layout):
            v = gram_starts(x, r, layout)[0]
            return [v, -v]

        monkeypatch.setattr(geometry, "_gram_starts", tied)
        stacked = dist_double_coset_stack(xs, target)
        reference = _as_lanes([_reference_double_coset(x, target) for x in xs])
        assert _same_lanes(stacked, reference)
        eye = np.eye(target.family.spec.copy_size)
        identity = [_reference_procrustes_run(x, target, eye)[0] for x in xs]
        assert np.count_nonzero(stacked[0] < identity) >= 3

    def test_mixed_lanes(self, monkeypatch):
        # the twin of the conjugation test: the x = r samples close their
        # bracket at the identity run (its bound within 1e-11 of the corner
        # bound, 0), so with no stop only the others take the Gram starts;
        # with stops (0.05, 0.1) sample 7 is also a hit at the identity run
        # and sample 3 a certified miss (corner bound 0.134), which leaves
        # samples 1, 5, 9 and 11 open
        cores, target = self._cores(1, 1, 1, samples=12)
        r = target.representative.entries
        xs = np.stack([x if i % 2 else r for i, x in enumerate(cores)])
        seen, gram_starts = [], geometry._gram_starts

        def spy(x, *args):
            seen.append(x.copy())
            return gram_starts(x, *args)

        monkeypatch.setattr(geometry, "_gram_starts", spy)
        for stops, open_samples in [((-np.inf, np.inf), [1, 3, 5, 7, 9, 11]),
                                    ((0.05, 0.1), [1, 5, 9, 11])]:
            seen.clear()
            stacked = dist_double_coset_stack(xs, target, *stops)
            # in chunks of at most ceil(13/3) = 5 samples
            assert np.array_equal(np.concatenate(seen), xs[open_samples]), stops
            assert _same_lanes(stacked, _as_lanes(
                [_reference_double_coset(x, target, *stops) for x in xs]))
        bound, _, converged = stacked[:3]
        corner = geometry._corner_bound(xs, r, 1)
        assert (bound[::2] < 1e-11).all() and (corner[::2] == 0).all() and converged[::2].all()
        assert bound[7] <= 0.05 < bound[3] and corner[3] > 0.1 + 1e-11
        assert (bound[open_samples] > 0.05).all() and (corner[open_samples] <= 0.1).all()

    def test_run_concentration_matches_reference(self, monkeypatch):
        # the sweep's report, in its own blocks and in blocks of 7, against one
        # whose samples are each solved by the reference loop
        cfg = ExperimentConfig(family="unitary_orthogonal", alpha=1, k=1, m=1, N_list=(8, 64),
                               epsilon_list=(0.1, 0.4), samples=30, seed=9)
        stacked = zeroed_runtime(run_concentration(cfg))
        monkeypatch.setattr(experiments, "_BLOCK_BYTES", 175 * 9 * 7)
        assert zeroed_runtime(run_concentration(cfg)) == stacked

        def reference(xs, target, **kwargs):
            return _as_lanes([_reference_double_coset(x, target, **kwargs) for x in xs])

        monkeypatch.setattr(experiments, "dist_double_coset_stack", reference)
        assert zeroed_runtime(run_concentration(cfg)) == stacked


def _lower_bounds(xs, target):
    """Each sample's K-invariant lower bound, as its solver forms it: the
    corner bound ||x_aa - r_aa|| (0 at alpha = 0), and for conjugation the
    larger of it and the Bhatia-Davis gap."""
    r, a = target.representative.entries, target.family.spec.alpha
    corner = geometry._op_norm(xs[:, :a, :a] - r[:a, :a]) if a else np.zeros(len(xs))
    if target.family.kind == "unitary_conjugation":
        return np.maximum(corner, geometry._spectral_match_init(xs, r, a)[1])
    return corner


def _stop_above_stack(kind, alpha, k, N, samples, seed):
    if kind == "unitary_conjugation":
        cores, target = TestDistConjugacyStack()._cores(N, samples, seed=seed, alpha=alpha, k=k)
        return np.stack([c.entries for c in cores]), target
    return TestDistDoubleCosetStack()._cores(alpha, k, 1, N=N, samples=samples, seed=seed)


class TestStopAbove:
    """stop_above: a sample whose lower bound exceeds it by more than 1e-11
    (``_CONJ_EXACT``) is a miss at every epsilon up to it, and stops: a
    conjugation sample before step 1, an orthogonal one before its Gram
    starts.  Every other sample runs as without it, bit for bit."""

    SOLVERS = {"unitary_conjugation": dist_conjugacy_stack,
               "unitary_orthogonal": dist_double_coset_stack}

    @pytest.mark.parametrize("kind", ["unitary_conjugation", "unitary_orthogonal"])
    # the (alpha, k) shapes of the 15-config comparison
    @pytest.mark.parametrize("alpha,k", [(1, 1), (0, 1), (2, 1), (1, 2), (0, 2)])
    @pytest.mark.parametrize("N,eps", [(8, (0.2, 0.4)), (64, (0.05, 0.1))])
    def test_hits_kept_and_certified_misses_stop(self, kind, alpha, k, N, eps):
        # at seed 9 every shape with a corner has certified misses
        xs, target = _stop_above_stack(kind, alpha, k, N, 40, seed=9)
        solve = self.SOLVERS[kind]
        full = solve(xs, target, stop_below=min(eps))
        cut = solve(xs, target, stop_below=min(eps), stop_above=max(eps))
        _check_lane_arrays(cut, xs, target)
        for e in eps:
            assert np.array_equal(cut[0] <= e, full[0] <= e), e
        certified = _lower_bounds(xs, target) - max(eps) > geometry._CONJ_EXACT
        if alpha:
            assert certified.any()
        elif kind == "unitary_orthogonal":
            assert not certified.any()
        assert _same_lanes([a[~certified] for a in cut], [a[~certified] for a in full])
        assert (cut[0][certified] > max(eps)).all() and cut[2][certified].all()
        if kind == "unitary_conjugation":
            assert (cut[1][certified] == 0).all()
        elif certified.any():
            # no Gram start ran: the identity run alone, bit for bit, steps included
            eye = np.eye(target.family.spec.copy_size)
            layout = geometry._CopyLayout(target.family.spec)
            identity = geometry._alternate_stack(
                xs[certified], target.representative.entries, layout,
                np.tile(eye, (np.count_nonzero(certified), 1, 1)), min(eps))
            assert np.array_equal(cut[0][certified], identity[0])
            assert np.array_equal(cut[1][certified], identity[3])
        for i in np.flatnonzero(certified):
            est = geometry.DistanceEstimate(cut[0][i], cut[1][i], cut[2][i],
                                            BlockMatrix(cut[3][i]), BlockMatrix(cut[4][i]))
            assert abs(verify_estimate(est, BlockMatrix(xs[i]), target) - est.upper_bound) <= 1e-12

    def test_gap_certifies_no_non_unitary_sample(self):
        # the Bhatia-Davis gap bounds the distance only for unitary x: this
        # x = r + E, ||E|| = 0.187, has gap 0.1995 above stop_above 0.19, yet
        # W = I witnesses ||E||, a hit there; taking the gap, the stack
        # certified it a miss at 0 steps (0.245) and, with no stop_above,
        # closed its bracket on the gap at 0.199
        fam = GroupFamily("unitary_conjugation", BlockSpec(0, 1, 1, 1))
        gen = RandomStream(7, 0).generator()
        g, h = (BlockMatrix(haar_unitary(fam.spec.window, gen)) for _ in range(2))
        target = circ_N(g, h, fam)
        r = target.representative.entries
        gen = RandomStream(86, 1).generator()
        E = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
        x = (r + 0.187 / np.linalg.norm(E, 2) * E)[None]
        assert geometry._spectral_match_init(x, r, 0)[1][0] > 0.19
        cut = dist_conjugacy_stack(x, target, stop_below=0.1, stop_above=0.19)
        full = dist_conjugacy_stack(x, target, stop_below=0.1)
        assert _same_lanes(cut, full)
        assert cut[1][0] > 0 and cut[0][0] <= 0.19
        _check_lane_arrays(cut, x, target)

    @pytest.mark.parametrize("kind", ["unitary_conjugation", "unitary_orthogonal"])
    @pytest.mark.parametrize("stop_below", [-np.inf, 0.2])
    def test_ceiling_two_runs_as_without(self, kind, stop_below):
        # no unitary distance, so no lower bound, exceeds 2
        xs, target = _stop_above_stack(kind, 1, 1, 8, 60, seed=4)
        solve = self.SOLVERS[kind]
        assert _same_lanes(solve(xs, target, stop_below=stop_below, stop_above=2.0),
                           solve(xs, target, stop_below=stop_below))

    @pytest.mark.parametrize("kind", ["unitary_conjugation", "unitary_orthogonal"])
    @pytest.mark.parametrize("stop", ["stop_below", "stop_above"])
    def test_nan_stop_runs_as_the_defaults(self, kind, stop):
        # every comparison with NaN is false, so one sample rule (``_decided``)
        # lets a NaN stop decide no sample in either solver, and a NaN floor
        # stops no orthogonal run: all five arrays are the default stops'
        xs, target = _stop_above_stack(kind, 1, 1, 8, 20, seed=3)
        solve = self.SOLVERS[kind]
        assert _same_lanes(solve(xs, target, **{stop: np.nan}), solve(xs, target))

    @pytest.mark.parametrize("kind", ["unitary_conjugation", "unitary_orthogonal"])
    def test_certified_only_beyond_the_margin(self, monkeypatch, kind):
        # a lower bound exactly the margin above stop_above, or less, certifies
        # nothing; with a power-of-two margin the difference is exact, so a
        # test of >= in place of > certifies there, and with no margin half
        # of 1e-11 certifies
        xs, target = _stop_above_stack(kind, 1, 1, 8, 30, seed=6)
        lone = dist_conjugacy if kind == "unitary_conjugation" else dist_double_coset
        solve = self.SOLVERS[kind]
        lower = _lower_bounds(xs, target)
        checked = 0
        for margin in (geometry._CONJ_EXACT, 2.0 ** -10):
            monkeypatch.setattr(geometry, "_CONJ_EXACT", margin)
            for x, low in zip(xs, lower):
                est = lone(BlockMatrix(x), target)
                if low < 0.01 or not est.iterations:
                    continue
                cases = [(low, False), (low - margin / 2, False), (low - 2 * margin, True)]
                if margin == 2.0 ** -10:
                    assert low - (low - margin) == margin
                    cases.append((low - margin, False))
                for ceiling, certified in cases:
                    got = _stack_of_one(solve, x, target, stop_above=ceiling)
                    assert got.upper_bound >= est.upper_bound
                    assert (got.iterations < est.iterations) == certified, (margin, ceiling)
                    if not certified:
                        assert _same_estimate(got, est)
                checked += 1
        assert checked >= 20


class TestGramStartsStack:
    """The v-side and u-side sign searches, run as one stack of 2n lanes,
    against two separate searches of n lanes each."""

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0, 1, 2])
    def test_stacked_search_equals_two_searches(self, alpha, k, m):
        xs, target = TestDistDoubleCosetStack()._cores(alpha, k, m, samples=8)
        r, n = target.representative.entries, len(xs)
        layout = geometry._CopyLayout(target.family.spec)
        v = geometry._gram_start(xs, np.repeat(r[None], n, axis=0), layout)
        u = geometry._gram_start(np.ascontiguousarray(xs.swapaxes(-1, -2)),
                                 np.repeat(r.T[None], n, axis=0), layout).swapaxes(-1, -2)
        want = [v, geometry._polar(layout.col_gram(layout.apply_left(r, u), xs))]
        got = geometry._gram_starts(xs, r, layout)
        assert len(got) == 2
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("alpha", [0, 1, 2])
    def test_sign_table_equals_two_passes(self, alpha, m):
        # k = 1 (copy size 2): the four sign patterns scored as one table must
        # pick the two-pass search's pattern, ties included, over a stack of
        # both sides as _gram_starts passes it, x and r alone filling more
        # than one _SCRATCH_BYTES piece
        fam = GroupFamily("unitary_orthogonal", BlockSpec(alpha, 1, 8, m))
        setup = RandomStream(alpha + 3 * m, 0).generator()
        g, h = (BlockMatrix(haar_unitary(fam.spec.window, setup)) for _ in range(2))
        r = circ_N(g, h, fam.with_n_tail(1)).representative.entries
        a = _top_blocks(_block_normals(1, 8, RandomStream(alpha + 3 * m, 1), count=550))
        xs = sample_core_stack(g, h, fam, a)
        x = np.concatenate([xs, xs.swapaxes(-1, -2)])
        rs = np.repeat(np.stack([r, r.T]), len(xs), axis=0)
        assert 4 * (x.nbytes + rs.nbytes) > geometry._SCRATCH_BYTES
        layout = geometry._CopyLayout(fam.with_n_tail(1).spec)
        want, ties = _reference_gram_start(x, rs, layout)
        assert np.array_equal(geometry._gram_start(x, rs, layout), want)
        if alpha == 0:  # S and -S give (-u, -v) and (u, v): the same score
            assert ties > 0


def _reference_gram_start(x, r, layout):
    """The two passes of single sign flips of ``geometry._gram_start`` at any
    copy size: the v-side starts and the number of flips that scored a tie."""
    basis_x = geometry._gram_basis(x, layout).swapaxes(-1, -2)
    basis_r = geometry._gram_basis(r, layout)
    xc = x[..., :layout.alpha, :].conj()

    def score(signs):
        v = (basis_r * signs[:, None, :]) @ basis_x
        u = geometry._polar(layout.row_gram(x, layout.apply_right(r, v)))
        rV = layout.apply_right(r, geometry._polar(layout.col_gram(layout.apply_left(r, u), x)))
        corner = (xc * rV[..., :layout.alpha, :]).reshape(len(x), -1).sum(axis=-1).real
        return corner + geometry._nuclear_norm(layout.row_gram(x, rV))

    signs, ties = np.ones((len(x), layout.w)), 0
    f = score(signs)
    for j in 2 * list(range(layout.w)):
        signs[:, j] *= -1.0
        f_flip = score(signs)
        ties += np.count_nonzero(f_flip == f)
        signs[~(f_flip > f), j] *= -1.0
        f = np.where(f_flip > f, f_flip, f)
    return (basis_r * signs[:, None, :]) @ basis_x, ties


class TestGramStartsMoveWithK:
    """300 sweep cores at N=8, k=1, each multiplied on both sides by a random
    element of K: the Gram starts move with the core, so their bounds agree
    and no verdict changes."""

    # at seed 1, alpha = m = 1, a sign search scored at the first U-step
    # leaves 58 hits to the identity start alone
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("alpha,m", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_verdicts_and_gram_bounds_unchanged(self, alpha, m, seed):
        fam = GroupFamily("unitary_orthogonal", BlockSpec(alpha, 1, 8, m))
        core_spec = fam.with_n_tail(1).spec
        setup = RandomStream(seed, 0).generator()
        g = BlockMatrix(haar_unitary(fam.spec.window, setup))
        h = BlockMatrix(haar_unitary(fam.spec.window, setup))
        target = circ_N(g, h, fam.with_n_tail(1))
        xs = sample_core_stack(g, h, fam, np.array(
            [_block(1, 8, RandomStream(seed, 1 + i)) for i in range(300)]))
        r, layout = target.representative.entries, geometry._CopyLayout(core_spec)
        u, v = _top_blocks(_block_normals(2, 0, RandomStream(seed, 10**6), count=600)).reshape(
            2, 300, 2, 2)
        eye = np.eye(core_spec.dim)
        ys = layout.apply_left(eye, u) @ xs @ layout.apply_right(eye, v)
        for eps in (0.2, 0.4):
            verdicts = [dist_double_coset_stack(z, target, stop_below=eps)[0] <= eps
                        for z in (xs, ys)]
            assert np.array_equal(verdicts[0], verdicts[1]), eps
        for start_x, start_y in zip(geometry._gram_starts(xs, r, layout),
                                    geometry._gram_starts(ys, r, layout)):
            bound_x, bound_y = (geometry._alternate_stack(z, r, layout, start, -np.inf)[0]
                                for z, start in ((xs, start_x), (ys, start_y)))
            assert np.abs(bound_x - bound_y).max() <= 1e-12


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
            core = sample_core(g, h, fam, x_w[:1, :1])
            if conj:
                x = BlockMatrix(x.entries @ X.entries.conj().T)
                yield dist_conjugacy(x, full_target), dist_conjugacy(core, core_target)
            else:
                yield (_stack_of_one(dist_double_coset_stack, x.entries, full_target,
                                     stop_below=self.EPS),
                       _stack_of_one(dist_double_coset_stack, core.entries, core_target,
                                     stop_below=self.EPS))

    def test_conjugation_core_never_worse(self):
        for full, core in self._pairs("unitary_conjugation", 5, 60):
            assert core.upper_bound <= full.upper_bound + 1e-9

    def test_orthogonal_core_keeps_the_hits(self):
        # the full solver against the core, each from its identity and Gram
        # starts; at these seeds the core loses no hit
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

    def test_other_family_and_degree_rejected(self):
        target = circ_N(SWAP, SWAP, _sym_family())
        other = CosetTarget(target.representative, replace(target.family, kind="unitary_orthogonal"))
        with pytest.raises(ValueError, match="^membership needs the symmetric family, got 'unitary_orthogonal'$"):
            sym_membership(target.representative, other)
        with pytest.raises(ValueError, match="^degree mismatch$"):
            sym_membership(PermutationWord.identity(4), target)

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

    @pytest.mark.parametrize("x", [PermutationWord.from_cycles(5, [(1, 4, 2)]),
                                   BlockMatrix.identity(2)], ids=["word", "matrix"])
    def test_alpha_outside_the_degree_rejected(self, x):
        # alpha = degree reads the whole permutation matrix; below 0 or above
        # the degree there is no corner block, and the error names both
        degree = as_word(x).degree
        np.testing.assert_array_equal(sym_corner_invariant(x, degree),
                                      BlockMatrix.from_permutation(as_word(x)).entries)
        for alpha in (-1, degree + 1):
            with pytest.raises(ValueError, match=rf"alpha={alpha} must lie in 0\.\.{degree}"):
                sym_corner_invariant(x, alpha)


class TestColligationCharFunction:
    def test_identity_is_constant_one(self):
        g = BlockMatrix(np.eye(3))
        vals = colligation_char_function(g, 1, [2.0, 2j, -3.0])
        for v in vals:
            assert v.shape == (1, 1)
            np.testing.assert_allclose(v, [[1.0]], atol=1e-12)

    def test_swap_half_value(self):
        g = BlockMatrix(SWAP.entries.astype(complex))
        (val,) = colligation_char_function(g, 1, [2.0])
        np.testing.assert_allclose(val, [[0.5]], atol=1e-14)

    def test_conjugation_invariance_on_circle(self):
        spec = BlockSpec(1, 1, 8, 1)
        gen = RandomStream(91, 0).generator()
        x = BlockMatrix(haar_unitary(spec.dim, gen))
        u = embed_k(haar_unitary(9, gen), spec)
        y = BlockMatrix(u.entries @ x.entries @ u.entries.conj().T)
        grid = [2 * np.exp(2j * np.pi * t / 16) for t in range(16)]
        for a, b in zip(colligation_char_function(x, spec.alpha, grid),
                        colligation_char_function(y, spec.alpha, grid)):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_pole_rejected(self):
        g = BlockMatrix(np.eye(3))
        with pytest.raises(ValueError):
            colligation_char_function(g, 1, [1.0])

    def test_alpha_out_of_range(self):
        for alpha in (-1, 4):
            with pytest.raises(ValueError, match="alpha"):
                colligation_char_function(BlockMatrix(np.eye(3)), alpha, [2.0])


class TestEigenvalueMatchingDistance:
    def test_zero_for_equal(self):
        gen = RandomStream(92, 0).generator()
        u = haar_unitary(5, gen)
        assert eigenvalue_matching_distance(u, u) == pytest.approx(0.0, abs=1e-12)

    def test_zero_for_two_empty_unitaries(self):
        # 0 x 0 matrices pass is_unitary and have no eigenvalues to match
        assert eigenvalue_matching_distance(np.zeros((0, 0)), np.zeros((0, 0))) == 0.0
        with pytest.raises(ValueError, match="two unitaries of one size"):
            eigenvalue_matching_distance(np.zeros((0, 0)), np.eye(1))

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
