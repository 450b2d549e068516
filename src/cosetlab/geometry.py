"""Distance bounds and exact membership for coset targets.

Unitary_orthogonal targets get an alternating two-sided Procrustes minimizer
whose alignment steps respect the diagonal-copy block structure; symmetric
targets get exact membership by forced propagation between the two subgroup
factors; conjugation targets get three starts (the frame start J, spectral
match, structured minimal singular vector) in stages, then a fixed-point
iteration refining the three in lockstep: a sample stops once the sample
rule decides it, after any stage or step, and a start once it trails its
sample's leader too far to catch it at its recent pace.  One sample rule
(``_decided``), the only code that compares a sample's bounds with each
other or with a stack call's stops, serves both unitary solvers.
Both unitary solvers run on a stack of samples at once
(``dist_double_coset_stack`` and ``dist_conjugacy_stack``, which take the
sweep's stops, return one array per estimate field and state the stop rules
and the meaning of converged and iterations; ``dist_double_coset`` and
``dist_conjugacy`` are full solves, stacks of one with no stop), with numpy's
stacked linalg and matmul, each sample's result that of its stack of one with
the same stops.  Both solvers take a 2 x 2 polar factor (every k = 1 core's
Procrustes step, Gram start or conjugation step) in closed form, a larger one
by SVD; both take their operator norms from one stacked Hermitian
eigensolve, and the Gram starts' sign search takes a 2 x 2 nuclear norm in
closed form, so at k = 1 neither solver makes an SVD.  Every estimate carries explicit witnesses, so
the reported bound can be re-verified by direct evaluation.

scipy loads only in the ARPACK branch, for conjugation cores of non-corner size > 34.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockmat import _UNITARY_TOL, BlockMatrix, as_word, build_JN, is_unitary, operator_norm
from .cosets import CosetTarget

__all__ = [
    "DistanceEstimate",
    "dist_double_coset",
    "dist_double_coset_stack",
    "dist_conjugacy",
    "dist_conjugacy_stack",
    "sym_membership",
    "sym_corner_invariant",
    "colligation_char_function",
    "eigenvalue_matching_distance",
    "verify_estimate",
]


@dataclass(frozen=True)
class DistanceEstimate:
    """Witnessed operator-norm upper bound on the distance to a coset target.

    witness_left/witness_right are subgroup elements U, V with
    upper_bound = ||x - U r V||; for conjugation targets witness_right is
    witness_left's inverse, so the same expression applies.
    """

    upper_bound: float
    iterations: int
    converged: bool
    witness_left: BlockMatrix
    witness_right: BlockMatrix


def verify_estimate(est: DistanceEstimate, x: BlockMatrix, target: CosetTarget) -> float:
    """Recompute ||x - U r V|| from the stored witnesses."""
    r = target.representative.entries
    aligned = est.witness_left.entries @ r @ est.witness_right.entries
    return operator_norm(x.entries - aligned)


# Bytes of one scratch stack inside a single solver call, so scratch does not
# grow with the stack: the dense Sylvester maps of a stacked SVD
# (``_min_singular_init``: 728 maps at alpha = 1, k = 1; 77 at k = 2) and the
# inputs of the copy-size-2 sign table (``_gram_start``: x, its corner rows, r
# and both Gram bases, four copies per lane; 327 lanes at alpha = 1, k = m = 1).
# Scored whole, a Gram pair chunk of a full k = 1 sweep block peaked near 1.9
# sweep budgets (``experiments._BLOCK_BYTES``); in these pieces it peaks at 0.77.
_SCRATCH_BYTES = 512 << 10


# A solver step that gains less than this gains nothing: an orthogonal run
# stops at such a step (of its Frobenius residual), and a conjugation step must
# gain more than this to beat its lane's best bound.
_NO_GAIN = 1e-12
# A conjugation sample within this of its lower bound has closed its bracket, and
# a sample whose lower bound exceeds stop_above by more than this is a certified miss.
_CONJ_EXACT = 1e-11
# Step cap of an orthogonal run and of a conjugation start, read at each call:
# a lane still running after this many steps is written out unconverged.
_MAX_ITERS = 200


def _decided(upper, lower, stop_below, stop_above):
    """The sample rule of both stacked solvers: whether each sample is done, as
    its witnessed upper bound is within ``_CONJ_EXACT`` of its lower bound (a
    closed bracket) or at most stop_below (a hit at every epsilon), or its lower
    bound exceeds stop_above by more than ``_CONJ_EXACT`` (a miss at every
    epsilon).  Comparisons with a NaN stop are False, as with the +-inf defaults."""
    return (upper - lower < _CONJ_EXACT) | (upper <= stop_below) | (lower - stop_above > _CONJ_EXACT)


def _corner_bound(x, r, alpha):
    """||x_aa - r_aa|| per sample (0 at alpha = 0): as K fixes the corner, a lower
    bound on both distances, for any x."""
    return _op_norm(x[:, :alpha, :alpha] - r[:alpha, :alpha]) if alpha else np.zeros(len(x))


def _check_stack(xs, target: CosetTarget, kind: str):
    """The (S, d, d) sample stack xs and target's d x d representative, as arrays;
    raises ValueError unless target's family is kind, xs fits the representative
    and its entries are finite (a BlockMatrix representative's always are)."""
    if target.family.kind != kind:
        raise ValueError(f"this distance needs the {kind} family, got {target.family.kind!r}")
    r = target.representative.entries
    x = np.asarray(xs)
    if x.ndim != 3 or x.shape[1:] != r.shape:
        raise ValueError("dimension mismatch between sample and target")
    if not np.isfinite(x).all():
        raise ValueError("sample entries must be finite")
    return x, r


# ---------------------------------------------------------------------------
# alternating minimization for two-sided cosets


# An orthogonal run also stops once a step lowers its Frobenius residual f by
# less than this fraction of f.
_REL_GAIN = 1e-3
# Entry signs that turn M[..., ::-1, ::-1].conj() into adj(M)^H for 2 x 2 M.
_ADJ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])
# Entry and tr(P) range in which det M's products neither overflow nor fall to subnormals.
_POLAR_RANGE = (1e-150, 1e150)


def _polar_2x2(M):
    """M + e adj(M)^H and the norm of its first row."""
    adj = M[..., ::-1, ::-1] * _ADJ_SIGNS  # adj(M)^T
    ad_bc = M * adj
    det = ad_bc[..., 0, 0] + ad_bc[..., 0, 1]
    if M.dtype.kind == "c":
        mag = np.abs(det)
        e = np.divide(det, mag, out=np.ones_like(det), where=mag != 0)
        U = M + e[..., None, None] * adj.conj()
        return U, np.hypot(np.abs(U[..., 0, 0]), np.abs(U[..., 0, 1]))
    U = M + np.copysign(1.0, det)[..., None, None] * adj
    return U, np.hypot(U[..., 0, 0], U[..., 0, 1])


def _polar(M: np.ndarray) -> np.ndarray:
    """Unitary (orthogonal, for real M) polar factor of each square matrix of a stack.

    A 2 x 2 M = UP takes a closed form: adj(P) = tr(P) I - P gives
    M + e adj(M)^H = tr(P) U with e = det M / |det M| (e = 1 at det M = 0), so
    tr(P) is that matrix's first row norm.  A lane with an entry or a tr(P)
    outside ``_POLAR_RANGE`` is redone from M over its largest entry (M = 0
    gives I, as the SVD does), so no lane depends on its stack and no numpy
    warning fires.  Larger M take the SVD.
    """
    if M.shape[-1] != 2:
        u, _, vt = np.linalg.svd(M)
        return u @ vt
    # a lane with an entry of 1e150 or more, or nan, runs as 0, so its tr = 0 sends it to the redo
    small = np.abs(M) < _POLAR_RANGE[1]
    all_small = np.count_nonzero(small) == small.size
    U, tr = _polar_2x2(M if all_small else np.where(small.all(axis=(-2, -1), keepdims=True), M, 0))
    bad = tr <= _POLAR_RANGE[0]
    if np.count_nonzero(bad):
        s = np.abs(M[bad]).max(axis=(-2, -1), keepdims=True)
        Mb = M[bad] / np.where(s == 0, 1.0, s)
        U[bad], tr[bad] = _polar_2x2(np.where(s == 0, np.eye(2), Mb))  # I's form is I exactly
    U /= tr[..., None, None]
    return U


def _op_norm(A: np.ndarray) -> np.ndarray:
    """Operator norm of each matrix of a stack, sqrt(lambda_max(A^H A)), by one
    stacked Hermitian eigensolve."""
    top = np.linalg.eigvalsh(A.conj().swapaxes(-1, -2) @ A)[..., -1]
    return np.sqrt(np.maximum(top, 0.0))


def _nuclear_norm(M: np.ndarray) -> np.ndarray:
    """Sum of the singular values of each square matrix of a stack.  A 2 x 2 M
    takes sqrt(||M||_F^2 + 2 |det M|), as (s1 + s2)^2 = s1^2 + s2^2 + 2 s1 s2;
    the form is exactly the same for M and -M.  Larger M take the SVD."""
    if M.shape[-1] != 2:
        return np.linalg.svd(M, compute_uv=False).sum(axis=-1)
    det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    return np.sqrt((M * M).sum(axis=(-2, -1)) + 2.0 * np.abs(det))


class _CopyLayout:
    """Slices and stacked products for the m diagonal copies of one spec; each
    method also takes stacks (leading axes) of x, u, v and r."""

    def __init__(self, spec):
        self.alpha = spec.alpha
        self.w = spec.copy_size
        self.slices = [spec.copy_slice(c) for c in range(spec.m)]

    def apply_right(self, r, v):
        out = np.empty(v.shape[:-2] + r.shape[-2:], dtype=r.dtype)
        out[...] = r
        for sl in self.slices:
            out[..., sl] = r[..., sl] @ v
        return out

    def apply_left(self, r, u):
        out = np.empty(u.shape[:-2] + r.shape[-2:], dtype=r.dtype)
        out[...] = r
        for sl in self.slices:
            out[..., sl, :] = u @ r[..., sl, :]
        return out

    def row_gram(self, x, rV):
        # sum over copies of Re( x[rows] @ rV[rows]^H ): the stacked U-step target
        M = np.zeros(x.shape[:-2] + (self.w, self.w))
        for sl in self.slices:
            M += (x[..., sl, :] @ rV[..., sl, :].conj().swapaxes(-1, -2)).real
        return M

    def col_gram(self, Ur, x):
        # sum over copies of Re( Ur[cols]^H @ x[cols] ): the stacked V-step target
        M = np.zeros(x.shape[:-2] + (self.w, self.w))
        for sl in self.slices:
            M += (Ur[..., sl].conj().swapaxes(-1, -2) @ x[..., sl]).real
        return M


def _alternate_stack(x, r, layout, v0, floor):
    """One run of the alternating Frobenius descent over real orthogonal (u, v)
    per lane of x, from the lane's start v0.

    The Frobenius residual is tracked through the trace identity
    ||x - UrV||_F^2 = 2 dim - 2 Re tr(x^H U r V), which is free given the
    V-step target matrix; the operator norm is evaluated once at the end, by
    one stacked Hermitian eigensolve (``_op_norm``).  A lane stops, converged,
    and leaves the stack once f <= floor or f_prev - f < max(_REL_GAIN f, _NO_GAIN);
    lanes still running after ``_MAX_ITERS`` steps are written out unconverged.
    Returns per-lane (operator norm, u, v, iterations, converged).
    """
    lanes_total, dim = x.shape[0], x.shape[-1]
    alpha = layout.alpha
    u_out, v_out = np.empty_like(v0), np.empty_like(v0)
    iters, converged = np.full(lanes_total, _MAX_ITERS), np.zeros(lanes_total, dtype=bool)
    lanes, xl, v = np.arange(lanes_total), x, v0
    xc = x[..., :alpha].conj()
    f_prev = np.inf
    for t in range(_MAX_ITERS):
        rV = layout.apply_right(r, v)
        u = _polar(layout.row_gram(xl, rV))
        Ur = layout.apply_left(r, u)
        Mv = layout.col_gram(Ur, xl)
        v = _polar(Mv)
        corner = (xc * Ur[..., :alpha]).sum(axis=(-2, -1)).real
        inner = corner + (Mv * v).sum(axis=(-2, -1))
        f = np.sqrt(np.maximum(2.0 * dim - 2.0 * inner, 0.0))
        stop = (f <= floor) | (f_prev - f < np.maximum(_REL_GAIN * f, _NO_GAIN))
        if np.count_nonzero(stop):
            done, go = lanes[stop], ~stop
            u_out[done], v_out[done], iters[done], converged[done] = u[stop], v[stop], t + 1, True
            lanes, xl, xc, u, v, f = lanes[go], xl[go], xc[go], u[go], v[go], f[go]
        if not len(lanes):
            break
        f_prev = f
    u_out[lanes], v_out[lanes] = u, v
    a = x - layout.apply_right(layout.apply_left(r, u_out), v_out)
    return _op_norm(a), u_out, v_out, iters, converged


def _gram_basis(x, layout):
    """Eigenbasis of each copy-summed column Gram sum_c Re(x_c)^T Re(x_c), signed so
    that K moves it with x: by the corner rows' copy sum, or at alpha = 0 (up to a
    global sign, harmless there) by the first row of sum_c sym(Re x_c^T Im x_c)."""
    cols = [x.real[..., sl] for sl in layout.slices]
    basis = np.linalg.eigh(sum(c.swapaxes(-1, -2) @ c for c in cols))[1]
    if layout.alpha:
        ref = sum(c[..., :layout.alpha, :].sum(axis=-2) for c in cols)[..., None, :] @ basis
    else:
        B = sum(c.swapaxes(-1, -2) @ x.imag[..., sl] for c, sl in zip(cols, layout.slices))
        ref = basis[..., :1].swapaxes(-1, -2) @ (B + B.swapaxes(-1, -2)) @ basis
    return basis * np.where(ref < 0, -1.0, 1.0)


def _gram_start(x, r, layout):
    """Each lane's v-side start v = Q_r S Q_x^T against the lane's r (one per
    lane, stacked like x): on the coset x = U r V the Grams obey M_x = v^T M_r v,
    so S = I gives v back.  Two passes of single sign flips follow, each kept
    when Re tr(x^H U r V) rises at the second U-step (U, V, U); read at the
    first, it kept the wrong component of O(2) on some k = 1 cores.

    At copy size 2 (every k = 1 core) the four sign patterns cost fewer scores
    than the passes' five, so each lane's four are scored first as one stack,
    in pieces of at most ``_SCRATCH_BYTES`` of inputs, and the passes read
    their scores from that table."""
    args = (x, x[..., :layout.alpha, :].conj(), r, _gram_basis(x, layout), _gram_basis(r, layout))

    def score(x, xc, r, basis_x, basis_r, signs):
        # the corner rows' part plus the U-step target's nuclear norm
        v = (basis_r * signs[:, None, :]) @ basis_x.swapaxes(-1, -2)
        u = _polar(layout.row_gram(x, layout.apply_right(r, v)))
        rV = layout.apply_right(r, _polar(layout.col_gram(layout.apply_left(r, u), x)))
        corner = (xc * rV[..., :layout.alpha, :]).reshape(len(x), -1).sum(axis=-1).real
        return corner + _nuclear_norm(layout.row_gram(x, rV))

    if layout.w == 2:
        # pattern p flips sign j where bit j of p is set: signs s read column (s < 0) @ (1, 2)
        patterns = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
        table = np.empty((len(x), 4))
        piece = max(1, _SCRATCH_BYTES // (4 * sum(a[0].nbytes for a in args)))
        for lo in range(0, len(x), piece):
            part = [np.concatenate(4 * [a[lo:lo + piece]]) for a in args]
            n = len(part[0]) // 4
            table[lo:lo + n] = score(*part, np.repeat(patterns, n, axis=0)).reshape(4, n).T

    def scored(signs):
        if layout.w == 2:
            return table[np.arange(len(signs)), (signs < 0) @ (1, 2)]
        return score(*args, signs)

    signs = np.ones((len(x), layout.w))
    f = scored(signs)
    for j in 2 * list(range(layout.w)):
        signs[:, j] *= -1.0
        f_flip = scored(signs)
        signs[~(f_flip > f), j] *= -1.0
        f = np.where(f_flip > f, f_flip, f)
    basis_x, basis_r = args[3:]
    return (basis_r * signs[:, None, :]) @ basis_x.swapaxes(-1, -2)


def _gram_starts(x, r, layout):
    """Each lane's v-side and u-side Gram starts, searched as one stack of 2n
    lanes: the v side of (x, r), then of (x^T, r^T), whose start is the lane's
    u, turned into a v start by a V-step."""
    n = len(x)
    v = _gram_start(np.concatenate([x, x.swapaxes(-1, -2)]),
                    np.repeat(np.stack([r, r.T]), n, axis=0), layout)
    u = v[n:].swapaxes(-1, -2)
    return [v[:n], _polar(layout.col_gram(layout.apply_left(r, u), x))]


def dist_double_coset_stack(xs, target: CosetTarget, stop_below: float = -np.inf,
                            stop_above: float = np.inf) -> tuple:
    """Witnessed bounds for an (S, d, d) stack of unitary_orthogonal samples:
    each lane's estimate is, bit for bit, that of a stack of one with the same
    stops, and with no stop (the defaults) that of ``dist_double_coset``.

    Every sample runs from the identity and then, unless the sample rule of
    both stacked solvers (``_decided``) decides it, from both Gram starts,
    searched and refined as one stack of two lanes per sample over chunks of
    at most max(1, ceil(S/3)) samples, so from S = 2 on the pair never runs
    more lanes than the identity run.  The rule reads the identity-run bound
    and the corner bound (``_corner_bound``): it decides a sample whose first
    is within 1e-11 (``_CONJ_EXACT``) of the second or at most stop_below, or
    whose second exceeds stop_above by more than 1e-11.
    A run stops, converged, once its Frobenius residual f is at most
    stop_below or a step gains less than max(1e-3 f, 1e-12) (``_REL_GAIN``,
    ``_NO_GAIN``), and is cut, unconverged, after 200 steps (``_MAX_ITERS``).
    The first run with the least bound wins (identity, v-side, then u-side
    start): converged is the winner's, and iterations sums the steps of all
    the sample's runs, its cost.  At copy size 2 each chunk's sign search
    scores its four sign patterns per lane in stacks of at most
    ``_SCRATCH_BYTES`` of inputs (``_gram_start``).

    Returns the lanes' estimates as arrays in ``DistanceEstimate`` field
    order: bounds (S,) float, iterations (S,) int, converged (S,) bool and the
    real witness stacks L, R (S, d, d), with bound i = ||x_i - L_i r R_i||.
    Memory is O(S d^2): callers bound S."""
    x, r = _check_stack(xs, target, "unitary_orthogonal")
    layout = _CopyLayout(target.family.spec)
    bound, u, v, iters, converged = _alternate_stack(
        x, r, layout, np.tile(np.eye(layout.w), (len(x), 1, 1)), stop_below)
    corner = _corner_bound(x, r, layout.alpha)
    above = np.flatnonzero(~_decided(bound, corner, stop_below, stop_above))
    chunk = max(1, -(-len(x) // 3))
    for i in range(0, len(above), chunk):
        lanes = above[i:i + chunk]
        xl = x[lanes]
        run = list(_alternate_stack(np.concatenate([xl, xl]), r, layout,
                                    np.concatenate(_gram_starts(xl, r, layout)), stop_below))
        iters[lanes] += run.pop(3).reshape(2, -1).sum(axis=0)
        # the v-side start's wins before the u-side's: the first least bound wins
        for start in (slice(None, len(lanes)), slice(len(lanes), None)):
            wins = run[0][start] < bound[lanes]
            for kept, part in zip((bound, u, v, converged), run):
                kept[lanes[wins]] = part[start][wins]
    eye = np.eye(len(r))  # the witnesses are u and v acting on the identity
    return bound, iters, converged, layout.apply_left(eye, u), layout.apply_right(eye, v)


def _lone(solve, x: BlockMatrix, target: CosetTarget) -> DistanceEstimate:
    """The stacked solver solve on x alone with no stop, as a DistanceEstimate."""
    bound, iters, converged, *witnesses = (a[0] for a in solve(x.entries[None], target))
    return DistanceEstimate(float(bound), int(iters), bool(converged),
                            *(BlockMatrix(w) for w in witnesses))


def dist_double_coset(x: BlockMatrix, target: CosetTarget) -> DistanceEstimate:
    """Witnessed upper bound on the operator-norm distance from x to K.r.K,
    for a unitary_orthogonal target.

    Alternates block-constrained Procrustes steps: with V fixed, the optimal
    shared copy block u maximizes tr(u^T M) for the stacked real part M of the
    row cross-Gram, solved by the orthogonal polar factor; symmetrically for
    V.  Runs from the identity and from two Gram starts (``_gram_starts``) that
    move with x under K and give the coset's (u, v) on it.  A run's bound is
    the root of the top eigenvalue of its residual's Gram matrix.  A full
    solve, no stop: ``dist_double_coset_stack`` on a stack of one, whose
    docstring states the stop rules and what converged and iterations mean.
    Raises ValueError for any other family (the symmetric family's view is
    exact membership, ``sym_membership``) and for non-finite entries.
    """
    return _lone(dist_double_coset_stack, x, target)


# ---------------------------------------------------------------------------
# conjugation distance
#
# These functions take stacks of cores (leading axis: lanes).  numpy's stacked
# linalg and matmul solve each lane with the same LAPACK/BLAS call as a lone
# matrix, so a sample's lanes do not depend on other samples' lanes.

# The window L of the retirement rule: from step L on, a lane retires when, at
# its mean gain over its last L steps, it would need at least _MAX_ITERS steps
# to reach its sample's leader bound, so one with no gain in them retires, the
# leader too.  On a 2 x 2 non-corner block (k = 1) no step after 5 flat ones
# lowered a bound in sweep scans; larger blocks keep 25, as 20 lost a late
# gain of 0.038 at k = 3.
_CONJ_WINDOW, _CONJ_WINDOW_WIDE = 5, 25


def _blockify_unitary(M: np.ndarray, alpha: int) -> np.ndarray:
    """Nearest corner-fixing structured unitary: identity corner, polar of the rest."""
    W = np.zeros_like(M, dtype=complex)
    W[..., :alpha, :alpha] = np.eye(alpha)
    W[..., alpha:, alpha:] = _polar(M[..., alpha:, alpha:])
    return W


def _circle_match(lx: np.ndarray, lr: np.ndarray):
    """Min-max matching of the unit-circle spectra lx (S, n) and lr (n,): the best
    cyclic shift of the angle-sorted lists, optimal among all matchings.  Returns
    per lane the orders ix and jr that pair lx[ix] with lr[jr], and the largest gap."""
    ix, ir = np.argsort(np.angle(lx), axis=-1), np.argsort(np.angle(lr))
    lx, lr = np.take_along_axis(lx, ix, axis=-1), lr[ir]
    n = len(lr)
    gaps = np.stack([np.abs(lx - np.roll(lr, -s)).max(axis=-1) for s in range(n)], axis=-1)
    cols = (np.arange(n) + gaps.argmin(axis=-1)[:, None]) % n
    return ix, ir[cols], gaps.min(axis=-1)


def _spectral_match_init(x: np.ndarray, r: np.ndarray, alpha: int):
    """Per lane of x, the unitary mapping r's eigenbasis to x's, eigenvalues
    matched around the circle, and the matching's largest gap (a lower bound)."""
    lx, P = np.linalg.eig(x)
    lr, Q = np.linalg.eig(r)
    ix, jr, gap = _circle_match(lx, lr)
    P = np.take_along_axis(P, ix[:, None, :], axis=-1)
    Q = np.moveaxis(Q[:, jr], 1, 0)
    return _blockify_unitary(P @ Q.conj().swapaxes(-1, -2), alpha), gap


# Largest non-corner size w = dim - alpha whose (1 + w^2)-column Sylvester map
# gets a dense SVD; above it ARPACK runs.  Per alpha = 1 sweep core: dense 6 ms
# at w=10, 0.13 s at w=20, 2.2 s at w=34; ARPACK 9 ms, 0.02 s and 0.1 s there.
_DENSE_SYLVESTER_MAX = 34


def _min_singular_init(x, r, alpha, spectral_guess):
    """Per lane of x, the minimizer of ||xW - Wr||_F over W = diag(s.1_alpha, w):
    smallest singular vector of the restricted Sylvester map, then rescaled to
    a unit corner.  Dense maps take one stacked SVD per chunk of lanes whose
    maps fit in ``_SCRATCH_BYTES`` (or of one lane), so memory holds a basis,
    its product with r and a few chunks.  ARPACK runs a lane at a time; a lane
    whose run does not converge keeps its start vector, the spectral guess."""
    dim = x.shape[-1]
    w = dim - alpha
    n = 1 + w * w

    def from_vec(p):
        W = np.zeros(p.shape[:-1] + (dim, dim), dtype=complex)
        W[..., :alpha, :alpha] = p[..., :1, None] * np.eye(alpha)
        W[..., alpha:, alpha:] = p[..., 1:].reshape(p.shape[:-1] + (w, w))
        return W

    p = np.empty((len(x), n), dtype=complex)
    if w <= _DENSE_SYLVESTER_MAX:
        basis = from_vec(np.eye(n, dtype=complex))  # map column j: x basis_j - basis_j r
        basis_r = basis @ r
        step = max(1, _SCRATCH_BYTES // (16 * n * dim * dim))
        for i in range(0, len(x), step):
            L = (x[i:i + step, None] @ basis - basis_r).reshape(-1, n, dim * dim)
            p[i:i + step] = np.linalg.svd(L.swapaxes(-1, -2), full_matrices=False)[2][:, -1].conj()
    else:
        from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh
        for i, (xe, guess) in enumerate(zip(x, spectral_guess)):

            def matvec(p, xe=xe):
                W = from_vec(np.asarray(p, dtype=complex))
                R = xe @ W - W @ r
                G = xe.conj().T @ R - R @ r.conj().T
                out = np.empty(n, dtype=complex)
                out[0] = np.trace(G[:alpha, :alpha])
                out[1:] = G[alpha:, alpha:].ravel()
                return out

            v0 = np.empty(n, dtype=complex)
            v0[0] = 1.0
            v0[1:] = guess[alpha:, alpha:].ravel()
            op = LinearOperator((n, n), matvec=matvec, dtype=complex)
            try:
                p[i] = eigsh(op, k=1, which="SA", v0=v0, maxiter=60, tol=1e-4)[1][:, 0]
            except ArpackNoConvergence:
                p[i] = v0
    s = p[:, 0]
    scale = np.abs(s) > 1e-9
    p = np.where(scale[:, None], p / np.where(scale, s, 1.0)[:, None], p)
    return _blockify_unitary(from_vec(p), alpha)


def dist_conjugacy_stack(xs, target: CosetTarget, stop_below: float = -np.inf,
                         stop_above: float = np.inf) -> tuple:
    """Witnessed bounds for every matrix of an (S, d, d) stack, in stages.

    Each stage runs one start on the samples the ones before left open, and
    after it the sample rule of both stacked solvers (``_decided``) is tested
    on each sample's least bound so far and its lower bound: it decides a
    sample whose first is within 1e-11 (``_CONJ_EXACT``) of the second or at
    most stop_below, or whose second exceeds stop_above by more than 1e-11.
    Stage 0 takes the frame start W = J (``build_JN`` of the target's spec; a
    sweep core at A = 0 is J r J, so J's bound is at most 2 phi(||A||)) and
    the corner bound (``_corner_bound``) as the lower bound; stage 1 the
    spectral start, the lower bound of a sample with ||x^H x - I||_F at most
    1e-10 (``blockmat._UNITARY_TOL``) becoming the larger of the corner bound
    and the Bhatia-Davis gap, which bounds the distance for unitary x only;
    stage 2 the Sylvester start.  Stage 3 refines the three starts in
    lockstep, one lane each with its own best conjugator and step count, and
    tests after every step the sample rule and the lane rule: from step L on
    (L = 5 on a 2 x 2 non-corner block, k = 1, else 25: ``_CONJ_WINDOW``) a
    lane leaves once it trails its sample's leader bound (the least best
    bound of its lanes) by at least ``_MAX_ITERS`` steps at its mean gain
    over its last L steps, as one that gained nothing in them, the leader
    too, always does.  A lane still
    running after 200 steps (``_MAX_ITERS``) is cut.  The first start with the
    least bound wins: converged says whether the winning lane stopped on a
    rule before the cap, and iterations sums the steps of all the sample's
    lanes, its cost, as in ``dist_double_coset_stack``; a sample decided
    before stage 3 takes 0 steps, converged.  A sample's lanes depend on each
    other, not on the rest of the stack: each sample gets, bit for bit, the
    estimate of a stack of one with the same stops, and with no stop (the
    defaults) that of ``dist_conjugacy``, in the arrays of
    ``dist_double_coset_stack`` with complex witnesses W, W^H.  Memory is
    O(S d^2): a lane holds W, its best W and x^H, in stage 3 also Z, plus a
    few Sylvester maps, O(d^2 (1 + w^2)) each with w = d - alpha, or 512 KiB
    chunks of them: callers bound S.
    """
    x, r = _check_stack(xs, target, "unitary_conjugation")
    alpha, samples, dim = target.family.spec.alpha, len(x), len(r)
    xh = x.conj().swapaxes(-1, -2)
    # lanes in (3, S) start order (J, spectral match, Sylvester vector), each
    # with its start's W and bound (inf if no stage reaches it); lead is each
    # sample's leader bound
    W_out = np.empty((3 * samples, dim, dim), dtype=complex)
    op_out, lead = np.full(3 * samples, np.inf), np.full(samples, np.inf)
    iters, converged = np.zeros(3 * samples, dtype=int), np.ones(3 * samples, dtype=bool)
    lower = _corner_bound(x, r, alpha)

    def aligned(W, xh):
        # Z = x^H (W r), with W r as one product over the whole stack: as
        # W^H - r^H W^H x = r^H W^H (W r W^H - x), ||x - W r W^H|| = ||W - Z||
        # for any x; Z's non-corner block is the next step's polar input
        return xh @ (W.reshape(-1, dim) @ r).reshape(W.shape)

    def start(lanes, s, W):
        # the start W on the lanes of the samples s; returns those still open
        W_out[lanes], op_out[lanes] = W, _op_norm(W - aligned(W, xh[s]))
        lead[s] = np.minimum(lead[s], op_out[lanes])
        return np.arange(samples)[s][~_decided(lead[s], lower[s], stop_below, stop_above)]

    # stage 0: J's lanes, and the corner bound as the lower bound
    live = start(slice(samples), slice(samples), build_JN(target.family.spec).entries)
    if len(live):  # stage 1: the spectral start, and the Bhatia-Davis gap for unitary x
        spectral, gap = _spectral_match_init(x[live], r, alpha)
        # ||x^H x - I||_F <= tol implies is_unitary's ||x^H x - I|| <= tol,
        # without an eigensolve per lane
        unitary = np.linalg.norm(xh[live] @ x[live] - np.eye(dim), axis=(1, 2)) <= _UNITARY_TOL
        lower[live] = np.where(unitary, np.maximum(lower[live], gap), lower[live])
        live = start(samples + live, live, spectral)
    if len(live):  # stage 2: the Sylvester start, guessed from the spectral one
        live = start(2 * samples + live, live,
                     _min_singular_init(x[live], r, alpha, W_out[samples + live]))
    # stage 3: the step loop on the lanes of the samples left
    lanes = np.concatenate([live, samples + live, 2 * samples + live])
    own, W, best = lanes % samples, W_out[lanes], op_out[lanes]
    xh, best_W = xh[own], W.copy()
    Z = aligned(W, xh)
    window = _CONJ_WINDOW if dim - alpha == 2 else _CONJ_WINDOW_WIDE
    # each lane's best bound of the last window steps (slot t % window holds
    # step t's; inf before step 0 retires no lane)
    past = np.full((window, len(lanes)), np.inf)
    past[0] = best
    pace = np.inf  # no lane retires on pace before step 1
    for t in range(_MAX_ITERS + 1):
        if t:
            # W keeps its identity corner and zero off-corner blocks, so the step
            # rewrites only its non-corner block
            W[..., alpha:, alpha:] = _polar(Z[..., alpha:, alpha:])
            Z = aligned(W, xh)
            op = _op_norm(W - Z)
            better = op < best - _NO_GAIN
            best = np.where(better, op, best)
            np.copyto(best_W, W, where=better[:, None, None])
            np.minimum.at(lead, own, best)
            pace = _MAX_ITERS * (past[t % window] - best) / window
            past[t % window] = best
        # the sample rule, then the lane rule
        stop = _decided(lead[own], lower[own], stop_below, stop_above) | (best - lead[own] >= pace)
        if stop.any():
            done, keep = lanes[stop], np.flatnonzero(~stop)
            op_out[done], W_out[done], iters[done] = best[stop], best_W[stop], t
            # one index array for every take: half the cost of a mask per array
            lanes, own, W, Z, xh, best, best_W = (
                a.take(keep, axis=0) for a in (lanes, own, W, Z, xh, best, best_W))
            past = past.take(keep, axis=1)
        if not len(lanes):
            break
    op_out[lanes], W_out[lanes], iters[lanes], converged[lanes] = best, best_W, _MAX_ITERS, False

    # per sample, the first start with the least bound
    win = op_out.reshape(3, samples).argmin(axis=0) * samples + np.arange(samples)
    W = W_out[win]
    return (op_out[win], iters.reshape(3, samples).sum(axis=0), converged[win], W,
            W.conj().swapaxes(-1, -2))


def dist_conjugacy(x: BlockMatrix, target: CosetTarget) -> DistanceEstimate:
    """Witnessed upper bound on the distance from x to the conjugacy class of r.

    Uses ||x - W r W^-1|| = ||xW - Wr|| for unitary W = diag(1_alpha, w) and
    refines three starts in lockstep: the frame start J (a sweep core at
    A = 0 is J r J), the spectral match of eigenvalues around the circle,
    and the smallest singular vector of the structured Sylvester map with
    its copy block projected to the nearest unitary.  Two lower bounds hold:
    the corner bound ||x_aa - r_aa||, and for unitary x the matching's largest
    eigenvalue gap, by Bhatia and Davis the distance to r's unitary orbit
    (exact at alpha = 0).
    Each start runs the fixed-point iteration W <- blockified polar of
    x^H W r, which is not monotone (its bound can rise from one step to the
    next), so each start keeps its own best conjugator, which a step
    replaces only when it gains more than ``_NO_GAIN``.  A step forms
    Z = x^H (W r) once: its bound ||W - Z||, equal to ||x - W r W^H|| for
    any x as W and r are unitary, is the root of the top eigenvalue of that
    matrix's Gram matrix (one Hermitian eigensolve), and the next step takes
    the polar factor of Z's non-corner block, in closed form for a 2 x 2
    block, else by the SVD.
    When the Sylvester start's ARPACK solve (non-corner size above 34) does
    not converge, that lane starts from the spectral guess.  A full solve, no
    stop: ``dist_conjugacy_stack`` on a stack of one, whose docstring states
    the stop rules and what converged and iterations mean.
    Raises ValueError for any other family or non-finite entries.
    """
    return _lone(dist_conjugacy_stack, x, target)


# ---------------------------------------------------------------------------
# exact symmetric membership


def sym_membership(x, target: CosetTarget) -> bool:
    """Exact test of x in K.r.K for the symmetric family, by forced propagation.

    Writes x = diag(v).r.diag(u) with u, v permutations of one copy window.
    Binding u(j) fixes, in each copy, where x must send that copy's j-th point:
    either a corner point, which r must give too, or one forced value of v.
    Binding a value of v likewise fixes x^-1 at that label in each copy: a
    corner-point equality or one forced value of u.  So fixing one label forces
    its whole connected piece of labels, in time linear in the piece.

    The corner rows and columns are propagated first.  Then each free label of
    u, in ascending order, takes the least free value whose trial propagates
    without a conflict; a failed trial is undone and a committed one is never
    revisited.  This is exact: if a piece P of x matches an unused piece Q of r,
    a solution that maps P elsewhere maps some other piece onto Q, and swapping
    the two (both are isomorphic to P) gives a solution that maps P onto Q.
    The cost is O(w^2 m) for copy size w and m copies, never exponential.
    """
    fam = target.family
    if fam.kind != "symmetric":
        raise ValueError(f"membership needs the symmetric family, got {fam.kind!r}")
    xw = as_word(x)
    rw = as_word(target.representative)
    if xw.degree != rw.degree:
        raise ValueError("degree mismatch")
    spec = fam.spec
    alpha, w = spec.alpha, spec.copy_size
    xs, rs = list(xw.images), list(rw.images)
    # u fixes the corner, so on each corner point x and r agree or go into one
    # copy; most non-members fail here, before x^-1 is built (each word keeps its inverse)
    for t, s in zip(xs[:alpha], rs[:alpha]):
        if t != s and (t <= alpha or s <= alpha or (t - alpha - 1) // w != (s - alpha - 1) // w):
            return False
    xi, ri = list(xw.inverse().images), list(rw.inverse().images)
    # side 0 binds u and reads (x, r); side 1 binds v^-1 and reads (x^-1, r^-1).
    # image[side][a] is the label of r's copies that x's label a goes to (0-based,
    # -1 = free); taken[side][b] says whether r's label b has been used
    sides = ((xs, rs), (xi, ri))
    image = ([-1] * w, [-1] * w)
    taken = ([False] * w, [False] * w)
    log = []

    def settle(todo):
        # each (side, ts, ss) in todo: side's map must send x's 1-based points ts
        # to r's points ss; bind all that this forces, False on a conflict
        while todo:
            side, ts, ss = todo.pop()
            im, tk = image[side], taken[side]
            xk, rk = sides[side]
            for t, s in zip(ts, ss):
                if t <= alpha or s <= alpha:
                    if t != s:
                        return False
                    continue
                ct, a = divmod(t - alpha - 1, w)
                cs, b = divmod(s - alpha - 1, w)
                if ct != cs:
                    return False
                if im[a] < 0 and not tk[b]:
                    im[a] = b
                    tk[b] = True
                    log.append((side, a))
                    # copy ct only leads back to the pair that gave (t, s), which holds
                    ts2, ss2 = xk[alpha + a::w], rk[alpha + b::w]
                    del ts2[ct], ss2[ct]
                    todo.append((1 - side, ts2, ss2))
                elif im[a] != b:
                    return False
        return True

    # u and v fix the corner, so x and r must agree on its rows and columns
    if not settle([(1, xs[:alpha], rs[:alpha]), (0, xi[:alpha], ri[:alpha])]):
        return False
    low = 0  # every value of u below low is committed
    for a in range(w):
        if image[0][a] >= 0:
            continue
        while taken[0][low]:
            low += 1
        for b in range(low, w):
            if taken[0][b]:
                continue
            mark = len(log)
            image[0][a] = b
            taken[0][b] = True
            log.append((0, a))
            if settle([(1, xs[alpha + a::w], rs[alpha + b::w])]):
                break
            while len(log) > mark:
                side, c = log.pop()
                taken[side][image[side][c]] = False
                image[side][c] = -1
        else:
            return False
    return True


def sym_corner_invariant(x, alpha: int) -> np.ndarray:
    """0-1 pattern of the corner block: entry (i, j) is 1 iff x sends j to i (both
    <= alpha).  Raises ValueError unless 0 <= alpha <= x's degree."""
    xw = as_word(x)
    if not 0 <= alpha <= xw.degree:
        raise ValueError(f"alpha={alpha} must lie in 0..{xw.degree}")
    out = np.zeros((alpha, alpha))
    for j in range(1, alpha + 1):
        i = xw(j)
        if i <= alpha:
            out[i - 1, j - 1] = 1.0
    return out


# ---------------------------------------------------------------------------
# diagnostics


def colligation_char_function(g: BlockMatrix, alpha: int, z_grid) -> list[np.ndarray]:
    """theta(z) = a + b (zI - d)^{-1} c per grid point, g split after its first alpha points.

    Exactly invariant under conjugation by corner-fixing unitaries.  Raises
    ValueError unless 0 <= alpha <= g.dim, or for a grid point within 1e-8
    of d's spectrum.
    """
    if not 0 <= alpha <= g.dim:
        raise ValueError(f"alpha={alpha} must lie in 0..{g.dim}")
    a = g.entries[:alpha, :alpha]
    b = g.entries[:alpha, alpha:]
    c = g.entries[alpha:, :alpha]
    d = g.entries[alpha:, alpha:]
    eigs = np.linalg.eigvals(d) if d.size else np.array([])
    out = []
    eye = np.eye(d.shape[0], dtype=complex)
    for z in z_grid:
        z = complex(z)
        if eigs.size and np.abs(eigs - z).min() <= 1e-8:
            raise ValueError(f"grid point {z} is within 1e-8 of the tail block's spectrum")
        out.append(a + b @ np.linalg.solve(z * eye - d, c))
    return out


def eigenvalue_matching_distance(a, b) -> float:
    """Min-max eigenvalue matching distance of two same-size unitaries (by Bhatia and
    Davis, the operator-norm distance between their unitary orbits); else ValueError."""
    ae, be = (np.asarray(getattr(m, "entries", m), dtype=complex) for m in (a, b))
    if not (ae.shape == be.shape and is_unitary(ae) and is_unitary(be)):
        raise ValueError(f"need two unitaries of one size; got shapes {ae.shape} and {be.shape}")
    if not ae.size:  # two 0 x 0 unitaries have no eigenvalues to match
        return 0.0
    return float(_circle_match(np.linalg.eigvals(ae)[None], np.linalg.eigvals(be))[2][0])
