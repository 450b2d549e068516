"""Interleaving products of block group elements and samplers for their convolution measures.

Three (G, K) families are supported: complex unitary matrices with two-sided
real-orthogonal diagonal cosets, complex unitary matrices up to diagonal
unitary conjugation, and exact permutations with diagonal-copy cosets.  The
finite-size product of g and h is the double coset (or conjugacy class) of
g.J.h, where J swaps each copy's active block into its tail; samplers draw
from the one-middle-draw and three-draw convolution measures.  In every family
a sample also has a core of dimension alpha + 2mk, equivalent to it under K
for every tail size, built from the first k rows of the middle draw (for
permutations, its k active images) alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockmat import (
    BlockMatrix,
    BlockSpec,
    PermutationWord,
    _place,
    build_JN,
    embed,
    embed_k,
    is_unitary,
)
from .haar import _as_generator, haar_orthogonal, haar_unitary, uniform_permutation

__all__ = [
    "FAMILY_KINDS",
    "GroupFamily",
    "CosetTarget",
    "circ_infinite",
    "circ_N",
    "sample_tau_tilde",
    "sample_tau_full",
    "sample_core",
    "lift_core_witnesses",
]

FAMILY_KINDS = ("unitary_orthogonal", "unitary_conjugation", "symmetric")


@dataclass(frozen=True)
class GroupFamily:
    """Which (group, subgroup) pair is under study, plus the block partition."""

    kind: str
    spec: BlockSpec

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}; expected one of {FAMILY_KINDS}")
        if self.kind == "unitary_conjugation" and self.spec.m != 1:
            raise ValueError("the conjugation family needs m=1")

    def with_n_tail(self, n_tail: int) -> "GroupFamily":
        return GroupFamily(self.kind, BlockSpec(self.spec.alpha, self.spec.k, n_tail, self.spec.m))


@dataclass(frozen=True)
class CosetTarget:
    """K.r.K (or the K-conjugacy class of r for the conjugation family)."""

    representative: BlockMatrix
    family: GroupFamily


def circ_infinite(g: BlockMatrix, h: BlockMatrix, alpha: int | None = None) -> BlockMatrix:
    """Size-stable product of corner groups: (alpha+k1) x (alpha+k2) -> alpha+k1+k2.

    g placed on the first alpha+k1 points times h placed on the corner and the
    last k2 points: with g = [[a, b], [c, d]] and h = [[p, q], [r, t]] split
    at the corner, [[ap, b, aq], [cp, d, cq], [r, 0, t]].  Two permutations
    give an exact permutation, unitary inputs a unitary.  The active sizes may
    differ.  The conjugation family uses the same product; only the ambient
    equivalence differs, being conjugacy by the corner-fixing subgroup rather
    than two-sided cosets.  alpha defaults to the spec of g, else of h.
    """
    specs = [b.spec for b in (g, h) if b.spec is not None]
    if alpha is None and not specs:
        raise ValueError("alpha not given and neither input carries a spec")
    alpha = int(specs[0].alpha if alpha is None else alpha)
    if not 0 <= alpha <= min(g.dim, h.dim):
        raise ValueError(f"alpha={alpha} must lie in 0..{min(g.dim, h.dim)}")
    n = g.dim + h.dim - alpha
    return _place(g, g.dim, n, [0]) @ _place(h, h.dim, n, [[*range(alpha), *range(g.dim, n)]])


def circ_N(g: BlockMatrix, h: BlockMatrix, family: GroupFamily) -> CosetTarget:
    """Finite-size coset product: the class of embed(g) . J . embed(h).

    g and h live on the window (corner + active blocks); the representative is
    full-dimensional.  For the conjugation family the representative is
    embed(g) . J . embed(h) . J instead, so it stays in the same conjugacy
    picture (J is an involution).  Raises ValueError when g or h is not in
    the group: not unitary (tol 1e-10), or for the symmetric family not an
    exact permutation.
    """
    spec = family.spec
    J = build_JN(spec)  # raises when n_tail < k
    if family.kind != "symmetric" and not (is_unitary(g) and is_unitary(h)):
        raise ValueError(f"the {family.kind} family needs unitary g and h")
    rep = embed(g, spec) @ J @ embed(h, spec)
    if family.kind == "unitary_conjugation":
        rep = rep @ J
    if family.kind == "symmetric" and rep.exact_permutation is None:
        raise ValueError("symmetric family requires exact permutation inputs")
    return CosetTarget(rep, family)


def _draw_k(family: GroupFamily, gen: np.random.Generator) -> BlockMatrix:
    w = family.spec.copy_size
    if family.kind == "symmetric":
        return embed_k(uniform_permutation(w, gen), family.spec)
    if family.kind == "unitary_conjugation":
        return embed_k(haar_unitary(w, gen), family.spec)
    return embed_k(haar_orthogonal(w, gen), family.spec)


def _conj_transpose(x: BlockMatrix) -> BlockMatrix:
    if x.exact_permutation is not None:
        return x.inverse()
    return BlockMatrix(x.entries.conj().T, x.spec)


def _check_embedded(name: str, g: BlockMatrix, family: GroupFamily) -> None:
    if g.dim != family.spec.dim:
        raise ValueError(f"{name} must be embedded at full dimension {family.spec.dim}, got {g.dim}")
    if family.kind == "symmetric" and g.exact_permutation is None:
        raise ValueError(f"{name} must be an exact permutation for the symmetric family")


def sample_tau_tilde(g: BlockMatrix, h: BlockMatrix, family: GroupFamily, rng) -> BlockMatrix:
    """One draw from the single-middle-draw convolution measure.

    Returns g . X . h with X a fresh subgroup draw; for the conjugation family
    the sample is g . X . h . X^-1.
    """
    _check_embedded("g", g, family)
    _check_embedded("h", h, family)
    gen = _as_generator(rng)
    X = _draw_k(family, gen)
    out = g @ X @ h
    if family.kind == "unitary_conjugation":
        out = out @ _conj_transpose(X)
    return out


def sample_tau_full(g: BlockMatrix, h: BlockMatrix, family: GroupFamily, rng) -> BlockMatrix:
    """One draw from the fully smoothed convolution measure.

    k1.g.k2.h.k3 with three independent subgroup draws; for the conjugation
    family, z.(g.X.h.X^-1).z^-1 with independent X and z.
    """
    _check_embedded("g", g, family)
    _check_embedded("h", h, family)
    gen = _as_generator(rng)
    if family.kind == "unitary_conjugation":
        X = _draw_k(family, gen)
        z = _draw_k(family, gen)
        core = g @ X @ h @ _conj_transpose(X)
        return z @ core @ _conj_transpose(z)
    k1 = _draw_k(family, gen)
    k2 = _draw_k(family, gen)
    k3 = _draw_k(family, gen)
    return k1 @ g @ k2 @ h @ k3


def sample_core(g: BlockMatrix, h: BlockMatrix, family: GroupFamily, rows) -> BlockMatrix:
    """Core of the sample whose middle draw x_w has first k rows ``rows``.

    g and h live on the window.  Split rows = [A, T] after k columns, take a
    thin QR T^* = Q_t R_t and let q = I_k (+) the complete Householder factor
    of Q_t, Q = embed_k(q), X = embed_k(x_w).  For the sample
    x = embed(g).X.embed(h) (times X^* for the conjugation family), Q^*X^*.x.Q
    (Q^*X^*.x.X.Q) is the identity outside the corner and the first 2k points
    of each copy; the d x d matrix there, d = alpha + 2mk, is the core,
    (I + Y^*(g - I)Y).embed(h) with Y = I_alpha (+) [A, R_t^*] per copy.  So
    the core is K-equivalent (K-conjugate) to the sample, and the outer draws
    of ``sample_tau_full`` do not change it.  Its target is
    circ_N(g, h, family.with_n_tail(k)), the product target restricted to the
    core.  Cost: O(w k^2) for the QR plus the d x d products, for any w.

    For the symmetric family ``rows`` holds u(1..k), the images of the middle
    permutation's active points: k distinct integers in 1..w, else ValueError.
    K holds every tail permutation, so only they matter.  Images above k take
    the first tail slots in order, the other points follow in ascending order,
    and the core is the exact permutation embed(g).embed_k(u_core).embed(h) at
    tail size k, for any w.  Here g, and in every family h, may also be given
    already embedded at core size, so a caller making many cores embeds once.
    """
    spec = family.spec
    alpha, k = spec.alpha, spec.k
    core_spec = family.with_n_tail(k).spec
    rows = np.asarray(rows)
    if family.kind == "symmetric":
        if rows.shape != (k,):
            raise ValueError(f"expected the {k} active images of a {spec.copy_size}-point "
                             f"draw, got shape {rows.shape}")
        images = [int(v) for v in rows]
        if (rows.dtype.kind not in "iu" or len(set(images)) != k
                or not all(1 <= v <= spec.copy_size for v in images)):
            raise ValueError(f"expected {k} distinct active images in 1..{spec.copy_size}, "
                             f"got {images}")
        tail = iter(range(k + 1, 2 * k + 1))
        head = [v if v <= k else next(tail) for v in images]
        u_core = PermutationWord(head + sorted(set(range(1, 2 * k + 1)) - set(head)))
        g, h = (b if b.dim == core_spec.dim else embed(b, core_spec) for b in (g, h))
        return g @ embed_k(u_core, core_spec) @ h
    if rows.shape != (k, spec.copy_size):
        raise ValueError(f"expected the first {k} rows of a {spec.copy_size}-point draw, "
                         f"got shape {rows.shape}")
    r_t = np.linalg.qr(rows[:, k:].conj().T, mode="r")
    frame = np.hstack([rows[:, :k], r_t.conj().T])
    y = np.zeros((spec.window, core_spec.dim), dtype=complex)
    y[:alpha, :alpha] = np.eye(alpha)
    for c in range(spec.m):
        y[alpha + c * k:alpha + (c + 1) * k, core_spec.copy_slice(c)] = frame
    left = np.eye(core_spec.dim) + y.conj().T @ (g.entries - np.eye(spec.window)) @ y
    return BlockMatrix(left, core_spec) @ (h if h.dim == core_spec.dim else embed(h, core_spec))


def lift_core_witnesses(u: BlockMatrix, v: BlockMatrix, x_w, family: GroupFamily):
    """Full-size witnesses (U, V) from core-size ones (u, v) of ``sample_core``.

    x_w is the whole middle draw whose first k rows built the core.  With q as
    in ``sample_core``, U = embed_k(x_w.q.(u (+) I)) and V = embed_k((v (+) I).q^*),
    times x_w^* on the right for the conjugation family, so that
    x - U.r.V is (core - u.r_core.v) (+) 0 and both have the same norm.  Builds
    w x w matrices, so it serves checks at sizes where the sample fits in memory.
    """
    spec = family.spec
    k, w = spec.k, spec.copy_size
    x_w = np.asarray(x_w)
    q = np.eye(w, dtype=complex)
    q[k:, k:] = np.linalg.qr(x_w[:k, k:].conj().T, mode="complete")[0]
    block = family.with_n_tail(k).spec.copy_slice(0)

    def widen(b: BlockMatrix) -> np.ndarray:
        return _place(b.entries[block, block], 2 * k, w, [0]).entries

    left = x_w @ q @ widen(u)
    right = widen(v) @ q.conj().T
    if family.kind == "unitary_conjugation":
        right = right @ x_w.conj().T
    return embed_k(left, spec), embed_k(right, spec)
