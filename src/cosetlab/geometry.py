"""Distance bounds and exact membership for coset targets.

Unitary targets get an alternating two-sided Procrustes minimizer whose
alignment steps respect the diagonal-copy block structure; symmetric targets
get exact membership by forced propagation between the two subgroup factors,
plus a discrete (assignment-step) variant of the same alternation; conjugation
targets get a structured minimal-singular-vector initialization refined by a
fixed-point iteration.  Every estimate carries explicit witnesses, so the
reported bound can be re-verified by direct evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .blockmat import BlockMatrix, PermutationWord, as_word, embed_k, operator_norm
from .cosets import CosetTarget
from .haar import RandomStream, _as_generator, haar_orthogonal, uniform_permutation

__all__ = [
    "DistanceEstimate",
    "dist_double_coset",
    "dist_conjugacy",
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


def _polar_orth(M: np.ndarray, warm: np.ndarray | None = None) -> np.ndarray:
    """Orthogonal polar factor of a real square matrix.

    With a warm start close to the answer, a few Newton-Schulz multiplications
    replace the SVD; the SVD path is the fallback whenever the iteration is
    outside its convergence region (singular values must stay below sqrt(3)).
    """
    if warm is not None:
        Y = warm.T @ M
        X = Y
        for _ in range(8):
            G = X.T @ X
            n = G.shape[0]
            err = np.abs(G - np.eye(n)).max()
            if err > 0.3:
                break
            if err < 1e-14:
                return warm @ X
            X = X @ (1.5 * np.eye(n) - 0.5 * G)
    u, _, vt = np.linalg.svd(M)
    return u @ vt


def _perm_procrustes(M: np.ndarray) -> PermutationWord:
    # argmax over permutation matrices P of tr(P^T M)
    rows, cols = linear_sum_assignment(-M)
    im = np.empty(M.shape[0], dtype=int)
    im[cols] = rows + 1
    return PermutationWord(im)


class _CopyLayout:
    """Slices and stacked products for the m diagonal copies of one spec."""

    def __init__(self, spec):
        self.spec = spec
        self.alpha = spec.alpha
        self.w = spec.copy_size
        self.slices = [spec.copy_slice(c) for c in range(spec.m)]

    def apply_right(self, r, v):
        out = r.copy()
        for sl in self.slices:
            out[:, sl] = r[:, sl] @ v
        return out

    def apply_left(self, r, u):
        out = r.copy()
        for sl in self.slices:
            out[sl, :] = u @ r[sl, :]
        return out

    def row_gram(self, x, rV):
        # sum over copies of Re( x[rows] @ rV[rows]^H ): the stacked U-step target
        M = np.zeros((self.w, self.w))
        for sl in self.slices:
            M += (x[sl, :] @ rV[sl, :].conj().T).real
        return M

    def col_gram(self, Ur, x):
        # sum over copies of Re( Ur[cols]^H @ x[cols] ): the stacked V-step target
        M = np.zeros((self.w, self.w))
        for sl in self.slices:
            M += (Ur[:, sl].conj().T @ x[:, sl]).real
        return M


def _alternate_continuous(x, r, layout, v0, max_iters, tol, rel_tol, stop_below):
    """One run of the alternating Frobenius descent over real orthogonal (u, v).

    The Frobenius residual is tracked through the trace identity
    ||x - UrV||_F^2 = 2 dim - 2 Re tr(x^H U r V), which is free given the
    V-step target matrix; the operator norm is evaluated once at the end.
    """
    dim = x.shape[0]
    alpha = layout.alpha
    v = v0
    u = None
    f_prev = None
    f = float("inf")
    iters = 0
    converged = False
    for t in range(max_iters):
        iters = t + 1
        rV = layout.apply_right(r, v)
        u = _polar_orth(layout.row_gram(x, rV), warm=u)
        Ur = layout.apply_left(r, u)
        Mv = layout.col_gram(Ur, x)
        v = _polar_orth(Mv, warm=v)
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
    res = x - layout.apply_right(layout.apply_left(r, u), v)
    op = float(np.linalg.svd(res, compute_uv=False)[0]) if res.size else 0.0
    return op, u, v, iters, converged


def _alternate_discrete(x, r, layout, v0: PermutationWord, max_iters):
    """Alternating descent with exact permutation alignment steps."""
    v = v0
    u = None
    iters = 0
    for t in range(max_iters):
        iters = t + 1
        vm = v.matrix()
        rV = layout.apply_right(r, vm)
        u_new = _perm_procrustes(layout.row_gram(x, rV))
        Ur = layout.apply_left(r, u_new.matrix())
        v_new = _perm_procrustes(layout.col_gram(Ur, x))
        if u_new == u and v_new == v:
            break
        u, v = u_new, v_new
    res = x - layout.apply_right(layout.apply_left(r, u.matrix()), v.matrix())
    op = float(np.linalg.svd(res, compute_uv=False)[0]) if res.size else 0.0
    return op, u, v, iters, True


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
    """Witnessed upper bound on the operator-norm distance from x to K.r.K.

    Alternates block-constrained Procrustes steps: with V fixed, the optimal
    shared copy block u maximizes tr(u^T M) for the stacked real part M of the
    row cross-Gram, solved by the orthogonal polar factor (unitary families)
    or by linear assignment (symmetric family, keeping witnesses inside the
    exact subgroup); symmetrically for V.  Runs from the identity plus
    ``restarts - 1`` random starts and keeps the best.

    tol/rel_tol stop a run once the Frobenius residual's absolute/relative
    improvement falls below them.  stop_below, when given, skips the remaining
    restarts as soon as a run's bound is already that small; the returned
    bound stays a witnessed upper bound in every case.  Raises ValueError when
    restarts or max_iters is below 1.
    """
    fam = target.family
    if fam.kind not in ("unitary_orthogonal", "symmetric"):
        raise ValueError(f"two-sided coset distance undefined for family {fam.kind!r}")
    if x.dim != target.representative.dim:
        raise ValueError("dimension mismatch between sample and target")
    if restarts < 1 or max_iters < 1:
        raise ValueError(f"restarts and max_iters must be >= 1; got {restarts} and {max_iters}")
    layout = _CopyLayout(fam.spec)
    gen = _as_generator(rng) if rng is not None else RandomStream(0, 0).generator()
    xe = x.entries
    re_ = target.representative.entries
    w = layout.w

    best = None
    for trial in range(restarts):
        if fam.kind == "symmetric":
            v0 = PermutationWord.identity(w) if trial == 0 else uniform_permutation(w, gen)
            run = _alternate_discrete(xe, re_, layout, v0, max_iters)
        else:
            v0 = np.eye(w) if trial == 0 else haar_orthogonal(w, gen)
            run = _alternate_continuous(xe, re_, layout, v0, max_iters, tol, rel_tol, stop_below)
        if best is None or run[0] < best[0]:
            best = run
        if stop_below is not None and best[0] <= stop_below:
            break

    op, u, v, iters, converged = best
    return DistanceEstimate(op, iters, converged, embed_k(u, fam.spec), embed_k(v, fam.spec))


# ---------------------------------------------------------------------------
# conjugation distance


def _blockify_unitary(M: np.ndarray, alpha: int) -> np.ndarray:
    """Nearest corner-fixing structured unitary: identity corner, polar of the rest."""
    W = np.zeros_like(M, dtype=complex)
    W[:alpha, :alpha] = np.eye(alpha)
    u, _, vt = np.linalg.svd(M[alpha:, alpha:])
    W[alpha:, alpha:] = u @ vt
    return W


def _spectral_match_init(x: np.ndarray, r: np.ndarray, alpha: int) -> np.ndarray:
    """Unitary mapping r's eigenbasis to x's, eigenvalues matched around the circle."""
    lx, P = np.linalg.eig(x)
    lr, Q = np.linalg.eig(r)
    ix = np.argsort(np.angle(lx))
    ir = np.argsort(np.angle(lr))
    P, lx = P[:, ix], lx[ix]
    Q, lr = Q[:, ir], lr[ir]
    n = len(lx)
    shifts = [np.abs(lx - np.roll(lr, -s)).max() for s in range(n)]
    Q = np.roll(Q, -int(np.argmin(shifts)), axis=1)
    return _blockify_unitary(P @ Q.conj().T, alpha)


def _min_singular_init(x, r, alpha, spectral_guess, dense_cutoff=34):
    """Minimizer of ||xW - Wr||_F over W = diag(s.1_alpha, w): smallest singular
    vector of the restricted Sylvester map, then rescaled to a unit corner."""
    dim = x.shape[0]
    w = dim - alpha
    n = 1 + w * w

    def from_vec(p):
        W = np.zeros((dim, dim), dtype=complex)
        W[:alpha, :alpha] = p[0] * np.eye(alpha)
        W[alpha:, alpha:] = p[1:].reshape(w, w)
        return W

    if w <= dense_cutoff:
        L = np.empty((dim * dim, n), dtype=complex)
        for j in range(n):
            p = np.zeros(n, dtype=complex)
            p[j] = 1.0
            Wj = from_vec(p)
            L[:, j] = (x @ Wj - Wj @ r).ravel()
        _, _, vh = np.linalg.svd(L, full_matrices=False)
        p = vh[-1].conj()
    else:
        def matvec(p):
            W = from_vec(np.asarray(p, dtype=complex))
            R = x @ W - W @ r
            G = x.conj().T @ R - R @ r.conj().T
            out = np.empty(n, dtype=complex)
            out[0] = np.trace(G[:alpha, :alpha])
            out[1:] = G[alpha:, alpha:].ravel()
            return out

        v0 = np.empty(n, dtype=complex)
        v0[0] = 1.0
        v0[1:] = spectral_guess[alpha:, alpha:].ravel()
        op = LinearOperator((n, n), matvec=matvec, dtype=complex)
        try:
            _, vec = eigsh(op, k=1, which="SA", v0=v0, maxiter=60, tol=1e-4)
            p = vec[:, 0]
        except ArpackNoConvergence:
            return None
    s = p[0]
    if abs(s) > 1e-9:
        p = p / s
    W = from_vec(p)
    return _blockify_unitary(W, alpha)


def dist_conjugacy(
    x: BlockMatrix,
    target: CosetTarget,
    max_iters: int = 200,
    tol: float = 1e-12,
) -> DistanceEstimate:
    """Witnessed upper bound on the distance from x to the conjugacy class of r.

    Uses ||x - W r W^-1|| = ||xW - Wr|| for unitary W = diag(1_alpha, w):
    (i) take the smallest singular vector of the structured Sylvester map,
    (ii) project its copy block to the nearest unitary, (iii) refine by the
    fixed-point iteration W <- blockified polar of x^H W r (which increases
    Re tr(W^H x^H W r)), tracking the best conjugator seen.  Identity and
    spectral-matching starts are always included.
    """
    fam = target.family
    if fam.kind != "unitary_conjugation":
        raise ValueError(f"conjugation distance needs the conjugation family, got {fam.kind!r}")
    if x.dim != target.representative.dim:
        raise ValueError("dimension mismatch between sample and target")
    alpha = fam.spec.alpha
    xe = x.entries
    re_ = target.representative.entries
    dim = xe.shape[0]

    spectral = _spectral_match_init(xe, re_, alpha)
    inits = [np.eye(dim, dtype=complex), spectral]
    sval = _min_singular_init(xe, re_, alpha, spectral)
    if sval is not None:
        inits.append(sval)

    def op_of(W):
        return float(np.linalg.svd(xe - W @ re_ @ W.conj().T, compute_uv=False)[0])

    best_op = float("inf")
    best_W = inits[0]
    total_iters = 0
    converged = False
    for W in inits:
        op = op_of(W)
        if op < best_op:
            best_op, best_W = op, W
        stall = 0
        for t in range(max_iters):
            total_iters += 1
            W = _blockify_unitary(xe.conj().T @ W @ re_, alpha)
            op = op_of(W)
            if op < best_op - tol:
                best_op, best_W = op, W
                stall = 0
            else:
                stall += 1
            if best_op < 1e-11 or stall >= 25:
                converged = True
                break
        if best_op < 1e-11:
            break

    wl = BlockMatrix(best_W, fam.spec)
    wr = BlockMatrix(best_W.conj().T, fam.spec)
    return DistanceEstimate(best_op, total_iters, converged, wl, wr)


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
    """Smallest l-infinity distance between the two eigenvalue multisets over all matchings."""
    ae = a.entries if isinstance(a, BlockMatrix) else np.asarray(a, dtype=complex)
    be = b.entries if isinstance(b, BlockMatrix) else np.asarray(b, dtype=complex)
    la = np.linalg.eigvals(ae)
    lb = np.linalg.eigvals(be)
    cost = np.abs(la[:, None] - lb[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())
