"""Distance bounds and exact membership for coset targets.

Unitary targets get an alternating two-sided Procrustes minimizer whose
alignment steps respect the diagonal-copy block structure; symmetric targets
get exact backtracking membership plus a discrete (assignment-step) variant of
the same alternation; conjugation targets get a structured minimal-singular-
vector initialization refined by a fixed-point iteration.  Every estimate
carries explicit witnesses, so the reported bound can be re-verified by direct
evaluation.
"""

from __future__ import annotations

from bisect import bisect_left, insort
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
    bound stays a witnessed upper bound in every case.
    """
    fam = target.family
    if fam.kind not in ("unitary_orthogonal", "symmetric"):
        raise ValueError(f"two-sided coset distance undefined for family {fam.kind!r}")
    if x.dim != target.representative.dim:
        raise ValueError("dimension mismatch between sample and target")
    layout = _CopyLayout(fam.spec)
    gen = _as_generator(rng) if rng is not None else RandomStream(0, 0).generator()
    xe = x.entries
    re_ = target.representative.entries
    w = layout.w

    best = None
    for trial in range(max(restarts, 1)):
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
    """Exact test of x in K.r.K for the symmetric family.

    Searches for the single permutation u of a copy window defining the right
    factor k2 = diag(u); partial images of u force, through
    k1 = x.k2^-1.r^-1, entries of the left factor's copy permutation v, and
    any corner violation or inconsistent v binding prunes the branch.
    """
    fam = target.family
    if fam.kind != "symmetric":
        raise ValueError(f"membership needs the symmetric family, got {fam.kind!r}")
    xw = as_word(x)
    rw = as_word(target.representative)
    if xw.degree != rw.degree:
        raise ValueError("degree mismatch")
    spec = fam.spec
    alpha, w, m = spec.alpha, spec.copy_size, spec.m

    def locate(p):
        # global 1-based position -> ('corner', p) or (copy, local)
        if p <= alpha:
            return ("corner", p)
        q = p - alpha - 1
        return (q // w, q % w + 1)

    def pos(c, j):
        return alpha + c * w + j

    vbind = [0] * w  # forced images of the left copy permutation, 0 = free
    vused = [False] * (w + 1)

    def bind(target_local, value):
        # record v(target_local) = value; False on conflict
        cur = vbind[target_local - 1]
        if cur:
            return cur == value
        if vused[value]:
            return False
        vbind[target_local - 1] = value
        vused[value] = True
        return True

    # corner rows constrain nothing about u but may force v entries outright
    for p in range(1, alpha + 1):
        s = rw(p)
        loc = locate(s)
        xp = xw(p)
        if loc[0] == "corner":
            if xp != s:
                return False
        else:
            c2, l = loc
            tx = locate(xp)
            if tx[0] != c2 or not bind(l, tx[1]):
                return False

    def propagate(j, val, undo):
        # u(j) = val: each copy c demands diag(v)(r(pos(c, val))) = x(pos(c, j))
        for c in range(m):
            s = rw(pos(c, val))
            xp = xw(pos(c, j))
            loc = locate(s)
            if loc[0] == "corner":
                if xp != s:
                    return False
            else:
                c2, l = loc
                tx = locate(xp)
                if tx[0] != c2:
                    return False
                before = vbind[l - 1]
                if not bind(l, tx[1]):
                    return False
                if not before:
                    undo.append(l - 1)
        return True

    # depth-first search over u(1), u(2), ... in increasing value order, on an
    # explicit stack so copy size is not bounded by the recursion limit; frame j
    # is [least value left to try for u(j), value in place or 0, its undo log]
    free = list(range(1, w + 1))  # values not yet taken by u, ascending
    stack = [[1, 0, []]]
    while stack and len(stack) <= w:
        frame = stack[-1]
        nxt, val, undo = frame
        if val:
            for idx in undo:
                vused[vbind[idx]] = False
                vbind[idx] = 0
            insort(free, val)
        i = bisect_left(free, nxt)
        if i == len(free):
            stack.pop()
            continue
        val = free.pop(i)
        frame[:] = [val + 1, val, []]
        if propagate(len(stack), val, frame[2]):
            stack.append([1, 0, []])
    return bool(stack)  # nonempty only once u is complete


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
