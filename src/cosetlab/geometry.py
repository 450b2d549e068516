"""Distance bounds and exact membership for coset targets.

Unitary_orthogonal targets get an alternating two-sided Procrustes minimizer
whose alignment steps respect the diagonal-copy block structure; symmetric
targets get exact membership by forced propagation between the two subgroup
factors; conjugation targets get three starts (identity, spectral match,
structured minimal singular vector), each refined on its own by a fixed-point
iteration.  Both unitary solvers run on a stack of samples at once
(``dist_double_coset_stack`` and ``dist_conjugacy_stack``; the per-sample
``dist_double_coset`` and ``dist_conjugacy`` are stacks of one), with numpy's
stacked SVD, eig and matmul, and each lane's result is the one it would get
alone.  Every estimate carries explicit witnesses, so the reported bound can
be re-verified by direct evaluation.

scipy loads only in the ARPACK branch, for conjugation cores of non-corner size > 34.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockmat import BlockMatrix, as_word, embed_k, is_unitary, operator_norm
from .cosets import CosetTarget
from .haar import RandomStream, _as_generator, haar_orthogonal

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


# ---------------------------------------------------------------------------
# alternating minimization for two-sided cosets


def _polar(M: np.ndarray) -> np.ndarray:
    """Unitary (orthogonal, for real M) polar factor of a square matrix, by SVD."""
    u, _, vt = np.linalg.svd(M)
    return u @ vt


class _CopyLayout:
    """Slices and stacked products for the m diagonal copies of one spec; each
    method also takes stacks (leading axes) of x, u and v against one r."""

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


def _alternate_stack(x, r, layout, v0, max_iters, tol, rel_tol, stop_below):
    """One run of the alternating Frobenius descent over real orthogonal (u, v)
    per lane of x, from the lane's start v0.

    The Frobenius residual is tracked through the trace identity
    ||x - UrV||_F^2 = 2 dim - 2 Re tr(x^H U r V), which is free given the
    V-step target matrix; the operator norm is evaluated once at the end.  A
    lane leaves the stack when it stops, so the stack shrinks as it runs.
    Returns per-lane (operator norm, u, v, iterations, converged).
    """
    lanes_total, dim = x.shape[0], x.shape[-1]
    alpha = layout.alpha
    u_out, v_out = np.empty_like(v0), np.empty_like(v0)
    iters = np.full(lanes_total, max_iters)
    converged = np.zeros(lanes_total, dtype=bool)
    lanes, xl, v = np.arange(lanes_total), x, v0
    xc = x[..., :alpha].conj()
    f_prev = None
    for t in range(max_iters):
        rV = layout.apply_right(r, v)
        u = _polar(layout.row_gram(xl, rV))
        Ur = layout.apply_left(r, u)
        Mv = layout.col_gram(Ur, xl)
        v = _polar(Mv)
        corner = (xc * Ur[..., :alpha]).reshape(len(lanes), -1).sum(axis=-1).real
        inner = corner + (Mv * v).reshape(len(lanes), -1).sum(axis=-1)
        f = np.sqrt(np.maximum(2.0 * dim - 2.0 * inner, 0.0))
        below = np.zeros(len(lanes), dtype=bool) if stop_below is None else f <= stop_below
        stop = below
        if f_prev is not None:
            gain = f_prev - f
            stop = below | (gain < tol) | (gain < rel_tol * np.maximum(f, 1e-300))
        n_stop = np.count_nonzero(stop)
        if n_stop:
            done = lanes[stop]
            u_out[done], v_out[done], iters[done] = u[stop], v[stop], t + 1
            converged[done] = ~below[stop]
            if n_stop == len(lanes):
                break
            go = ~stop
            lanes, xl, xc, u, v, f = lanes[go], xl[go], xc[go], u[go], v[go], f[go]
        f_prev = f
    else:
        u_out[lanes], v_out[lanes] = u, v
    a = x - layout.apply_right(layout.apply_left(r, u_out), v_out)
    return np.linalg.svd(a, compute_uv=False)[:, 0], u_out, v_out, iters, converged


def dist_double_coset_stack(
    xs,
    target: CosetTarget,
    gens,
    max_iters: int = 200,
    tol: float = 1e-12,
    restarts: int = 5,
    rel_tol: float = 1e-3,
    stop_below: float | None = None,
) -> list[DistanceEstimate]:
    """``dist_double_coset`` for every matrix of an (S, d, d) stack of
    unitary_orthogonal samples, in one run; gens[i] is lane i's generator.

    Restarts run in rounds: round 0 starts every lane from the identity, and
    each later round draws a start from gens[i] only for the lanes whose best
    bound is still above stop_below.  Without stop_below every lane needs every
    restart, so all S * restarts starts are drawn, lane by lane, and run as one
    stack.  Each lane consumes its generator as the per-sample solver does and
    gets its estimate bit for bit (the first best restart wins), but a
    generator shared between lanes is consumed in round order.  Memory is
    O(S d^2), times restarts without stop_below: callers bound S.
    """
    fam = target.family
    if fam.kind != "unitary_orthogonal":
        raise ValueError(f"two-sided coset distance needs the unitary_orthogonal family, "
                         f"got {fam.kind!r}")
    r = target.representative.entries
    x = np.asarray(xs)
    if x.ndim != 3 or x.shape[1:] != r.shape:
        raise ValueError("dimension mismatch between sample and target")
    if len(gens) != len(x):
        raise ValueError(f"need one generator per sample; got {len(gens)} for {len(x)}")
    if restarts < 1 or max_iters < 1:
        raise ValueError(f"restarts and max_iters must be >= 1; got {restarts} and {max_iters}")
    if not len(x):
        return []
    layout = _CopyLayout(fam.spec)
    w, lanes_total = layout.w, len(x)
    # each lane's best run so far: (bound, u, v, iterations, converged)
    best, lanes, first, eye = None, np.arange(lanes_total), 0, np.eye(w)
    while first < restarts and len(lanes):
        trials = range(first, restarts if stop_below is None else first + 1)
        n = len(trials)
        v0 = np.array([eye if t == 0 else haar_orthogonal(w, gens[i])
                       for i in lanes for t in trials])
        run = _alternate_stack(x[np.repeat(lanes, n)], r, layout, v0,
                               max_iters, tol, rel_tol, stop_below)
        if best is None:  # round 0 starts every lane from the identity
            best = [part[::n].copy() for part in run]
        for j in range(n):
            better = run[0][j::n] < best[0][lanes]
            for kept, part in zip(best, run):
                kept[lanes[better]] = part[j::n][better]
        first = trials.stop
        if stop_below is not None:
            lanes = lanes[best[0][lanes] > stop_below]
    op, u, v, iters, conv = best
    return [DistanceEstimate(float(op[i]), int(iters[i]), bool(conv[i]),
                             embed_k(u[i], fam.spec), embed_k(v[i], fam.spec))
            for i in range(lanes_total)]


def dist_double_coset(
    x: BlockMatrix,
    target: CosetTarget,
    max_iters: int = 200,
    tol: float = 1e-12,
    restarts: int = 5,
    rng=None,
    rel_tol: float = 1e-3,
    stop_below: float | None = None,
) -> DistanceEstimate:
    """Witnessed upper bound on the operator-norm distance from x to K.r.K,
    for a unitary_orthogonal target.

    Alternates block-constrained Procrustes steps: with V fixed, the optimal
    shared copy block u maximizes tr(u^T M) for the stacked real part M of the
    row cross-Gram, solved by the orthogonal polar factor; symmetrically for
    V.  Runs from the identity plus ``restarts - 1`` random starts and keeps
    the best.  This is ``dist_double_coset_stack`` on a stack of one.

    tol/rel_tol stop a run once the Frobenius residual's absolute/relative
    improvement falls below them.  stop_below, when given, skips the remaining
    restarts as soon as a run's bound is already that small; the returned
    bound stays a witnessed upper bound in every case.  Raises ValueError for
    any other family (the symmetric family's view is exact membership,
    ``sym_membership``) and when restarts or max_iters is below 1.
    """
    gen = _as_generator(rng) if rng is not None else RandomStream(0, 0).generator()
    return dist_double_coset_stack(x.entries[None], target, [gen], max_iters=max_iters,
                                   tol=tol, restarts=restarts, rel_tol=rel_tol,
                                   stop_below=stop_below)[0]


# ---------------------------------------------------------------------------
# conjugation distance
#
# These functions take stacks of cores (leading axis: lanes).  numpy's stacked
# linalg and matmul solve each lane with the same LAPACK/BLAS call as a lone
# matrix, so a lane's result does not depend on the rest of its stack.

# A lane whose best bound falls below this is exact and leaves the stack.
_CONJ_EXACT = 1e-11
# Non-improving fixed-point steps after which a lane leaves the stack, converged.
_CONJ_STALL = 25


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


def _spectral_match_init(x: np.ndarray, r: np.ndarray, alpha: int) -> np.ndarray:
    """Per lane of x, the unitary mapping r's eigenbasis to x's, eigenvalues
    matched around the circle."""
    lx, P = np.linalg.eig(x)
    lr, Q = np.linalg.eig(r)
    ix, jr, _ = _circle_match(lx, lr)
    P = np.take_along_axis(P, ix[:, None, :], axis=-1)
    Q = np.moveaxis(Q[:, jr], 1, 0)
    return _blockify_unitary(P @ Q.conj().swapaxes(-1, -2), alpha)


# Largest non-corner size w = dim - alpha whose (1 + w^2)-column Sylvester map
# gets a dense SVD; above it ARPACK runs.  Dense takes 3 ms at w=9, 0.09 s at
# w=20 and 2.0 s at w=35, against 0.01-0.02 s for ARPACK at w=35-49.
_DENSE_SYLVESTER_MAX = 34


def _min_singular_init(x, r, alpha, spectral_guess):
    """Per lane of x, the minimizer of ||xW - Wr||_F over W = diag(s.1_alpha, w):
    smallest singular vector of the restricted Sylvester map, then rescaled to
    a unit corner.  Returns the solved lanes' starts and the mask of those
    lanes; a lane whose ARPACK run does not converge has none."""
    lanes, dim = x.shape[0], x.shape[-1]
    w = dim - alpha
    n = 1 + w * w

    def from_vec(p):
        W = np.zeros(p.shape[:-1] + (dim, dim), dtype=complex)
        W[..., :alpha, :alpha] = p[..., :1, None] * np.eye(alpha)
        W[..., alpha:, alpha:] = p[..., 1:].reshape(p.shape[:-1] + (w, w))
        return W

    if w <= _DENSE_SYLVESTER_MAX:
        L = np.empty((lanes, dim * dim, n), dtype=complex)
        for j, Wj in enumerate(from_vec(np.eye(n, dtype=complex))):
            L[:, :, j] = (x @ Wj - Wj @ r).reshape(L.shape[:2])
        _, _, vh = np.linalg.svd(L, full_matrices=False)
        p = vh[:, -1].conj()
        solved = np.ones(lanes, dtype=bool)
    else:
        from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

        found = []
        for xe, guess in zip(x, spectral_guess):
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
                found.append(eigsh(op, k=1, which="SA", v0=v0, maxiter=60, tol=1e-4)[1][:, 0])
            except ArpackNoConvergence:
                found.append(None)
        solved = np.array([f is not None for f in found], dtype=bool)
        p = np.array([f for f in found if f is not None]).reshape(-1, n)
    s = p[:, 0]
    scale = np.abs(s) > 1e-9
    p = np.where(scale[:, None], p / np.where(scale, s, 1.0)[:, None], p)
    return _blockify_unitary(from_vec(p), alpha), solved


def dist_conjugacy_stack(
    xs,
    target: CosetTarget,
    max_iters: int = 200,
    tol: float = 1e-12,
) -> list[DistanceEstimate]:
    """``dist_conjugacy`` for every matrix of an (S, d, d) stack, in one run.

    Every sample gets one lane per start, so one fixed-point run covers up to
    3S lanes.  Each lane has its own best conjugator, stall counter and
    iteration count, and leaves the stack when it stalls or its bound drops
    below 1e-11, so the stack shrinks as it runs.  A lane's result does not
    depend on the rest of the stack: each sample gets the estimate
    ``dist_conjugacy`` gives for it alone, bit for bit.  Memory is
    O(S d^2 (1 + w^2)) for the dense Sylvester map, w = d - alpha: callers
    bound S.
    """
    fam = target.family
    if fam.kind != "unitary_conjugation":
        raise ValueError(f"conjugation distance needs the conjugation family, got {fam.kind!r}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1; got {max_iters}")
    r = target.representative.entries
    x = np.asarray(xs)
    if x.ndim != 3 or x.shape[1:] != r.shape:
        raise ValueError("dimension mismatch between sample and target")
    alpha, samples = fam.spec.alpha, len(x)
    spectral = _spectral_match_init(x, r, alpha)
    sylvester, solved = _min_singular_init(x, r, alpha, spectral)
    # lanes in start order: each sample's identity, its spectral match, its Sylvester vector
    owner = np.concatenate([np.arange(samples), np.arange(samples), np.flatnonzero(solved)])
    W = np.concatenate([np.broadcast_to(np.eye(len(r), dtype=complex), x.shape),
                        spectral, sylvester])
    lanes, xl = np.arange(len(owner)), x[owner]
    xh = xl.conj().swapaxes(-1, -2)

    def op_of(xl, W):
        return np.linalg.svd(xl - W @ r @ W.conj().swapaxes(-1, -2), compute_uv=False)[:, 0]

    best, best_W = op_of(xl, W), W.copy()
    op_out, W_out, iters = np.empty_like(best), np.empty_like(W), np.full(len(lanes), max_iters)
    converged, stall = np.zeros(len(lanes), dtype=bool), np.zeros(len(lanes), dtype=int)
    for t in range(1, max_iters + 1):
        if not len(lanes):
            break
        W = _blockify_unitary(xh @ W @ r, alpha)
        op = op_of(xl, W)
        better = op < best - tol
        best[better], best_W[better] = op[better], W[better]
        stall = np.where(better, 0, stall + 1)
        stop = (best < _CONJ_EXACT) | (stall >= _CONJ_STALL)
        if stop.any():
            done = lanes[stop]
            op_out[done], W_out[done], iters[done], converged[done] = (
                best[stop], best_W[stop], t, True)
            lanes, W, xl, xh, best, best_W, stall = (
                a[~stop] for a in (lanes, W, xl, xh, best, best_W, stall))
    op_out[lanes], W_out[lanes] = best, best_W

    # per sample, the first start with the least bound (lexsort is stable)
    order = np.lexsort((op_out, owner))
    win = order[np.searchsorted(owner[order], np.arange(samples))]
    total = np.bincount(owner, iters, minlength=samples)
    return [DistanceEstimate(float(op_out[j]), int(total[i]), bool(converged[j]),
                             BlockMatrix(W_out[j], fam.spec),
                             BlockMatrix(W_out[j].conj().T, fam.spec))
            for i, j in enumerate(win)]


def dist_conjugacy(
    x: BlockMatrix,
    target: CosetTarget,
    max_iters: int = 200,
    tol: float = 1e-12,
) -> DistanceEstimate:
    """Witnessed upper bound on the distance from x to the conjugacy class of r.

    Uses ||x - W r W^-1|| = ||xW - Wr|| for unitary W = diag(1_alpha, w) and
    refines three starts independently: the identity, the spectral match of
    eigenvalues around the circle, and the smallest singular vector of the
    structured Sylvester map with its copy block projected to the nearest
    unitary.  Each start runs the fixed-point iteration W <- blockified polar
    of x^H W r (which increases Re tr(W^H x^H W r)) with its own best
    conjugator, until 25 steps bring it no gain beyond tol, its bound falls
    below 1e-11 or max_iters steps have run.  The first start with the least
    bound wins; iterations sums all starts' steps, and converged says whether
    the winner stopped before max_iters ran out.  The Sylvester start is
    skipped when its ARPACK solve (non-corner size above 34) does not
    converge.  This is ``dist_conjugacy_stack`` on a stack of one.  Raises
    ValueError when max_iters is below 1.
    """
    return dist_conjugacy_stack(x.entries[None], target, max_iters=max_iters, tol=tol)[0]


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
    # copy; most non-members fail here, before x^-1 is built (r keeps its inverse)
    for t, s in zip(xs[:alpha], rs[:alpha]):
        if t != s and (t <= alpha or s <= alpha or (t - alpha - 1) // w != (s - alpha - 1) // w):
            return False
    xi = [0] * len(xs)
    for p, q in enumerate(xs, 1):
        xi[q - 1] = p
    ri = list(rw.inverse().images)
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
    """0-1 pattern of the corner block: entry (i, j) is 1 iff x sends j to i (both <= alpha)."""
    xw = as_word(x)
    out = np.zeros((alpha, alpha))
    for j in range(1, alpha + 1):
        i = xw(j)
        if i <= alpha:
            out[i - 1, j - 1] = 1.0
    return out


# ---------------------------------------------------------------------------
# diagnostics


def colligation_char_function(g: BlockMatrix, z_grid) -> list[np.ndarray]:
    """theta(z) = a + b (zI - d)^{-1} c per grid point, for the corner split of g.

    Exactly invariant under conjugation by corner-fixing unitaries.  Grid
    points within 1e-8 of d's spectrum are rejected.
    """
    if g.spec is None:
        raise ValueError("matrix has no block spec")
    alpha = g.spec.alpha
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
    return float(_circle_match(np.linalg.eigvals(ae)[None], np.linalg.eigvals(be))[2][0])
