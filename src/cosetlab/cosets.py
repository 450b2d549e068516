"""Interleaving products of block group elements and samplers for their convolution measures.

Three (G, K) families are supported: complex unitary matrices with two-sided
real-orthogonal diagonal cosets, complex unitary matrices up to diagonal
unitary conjugation, and exact permutations with diagonal-copy cosets.  The
finite-size product of g and h is the double coset (or conjugacy class) of
g.J.h, where J swaps each copy's active block into its tail; samplers draw
from the one-middle-draw and three-draw convolution measures.  In every family
a sample also has a core of dimension alpha + 2mk, equivalent to it under K
for every tail size, built from the middle draw's leading k x k block A (for
permutations, its k active images) alone, so nothing of size N enters it.
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
from .haar import _as_generator, _draw

__all__ = [
    "FAMILY_KINDS",
    "GroupFamily",
    "CosetTarget",
    "circ_infinite",
    "circ_N",
    "sample_tau_tilde",
    "sample_tau_full",
    "core_images",
    "sample_core",
    "sample_core_stack",
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


def circ_infinite(g: BlockMatrix, h: BlockMatrix, alpha: int) -> BlockMatrix:
    """Size-stable product of corner groups: (alpha+k1) x (alpha+k2) -> alpha+k1+k2.

    g placed on the first alpha+k1 points times h placed on the corner and the
    last k2 points: with g = [[a, b], [c, d]] and h = [[p, q], [r, t]] split
    at the corner, [[ap, b, aq], [cp, d, cq], [r, 0, t]].  Two permutations
    give an exact permutation, unitary inputs a unitary.  The active sizes may
    differ.  The conjugation family uses the same product; only the ambient
    equivalence differs, being conjugacy by the corner-fixing subgroup rather
    than two-sided cosets.  Raises ValueError unless 0 <= alpha <= both sizes.
    """
    if not 0 <= alpha <= min(g.dim, h.dim):
        raise ValueError(f"alpha={alpha} must lie in 0..{min(g.dim, h.dim)}")
    n = g.dim + h.dim - alpha
    return (_place(g, g.dim, n, [range(g.dim)])
            @ _place(h, h.dim, n, [[*range(alpha), *range(g.dim, n)]]))


def circ_N(g: BlockMatrix, h: BlockMatrix, family: GroupFamily) -> CosetTarget:
    """Finite-size coset product: the class of embed(g) . J . embed(h).

    g and h live on the window (corner + active blocks); the representative is
    full-dimensional.  For the conjugation family the representative is
    embed(g) . J . embed(h) . J instead, so it stays in the same conjugacy
    picture (J is an involution).  Raises ValueError when g or h is not in
    the group: not unitary (tol 1e-10), or for the symmetric family not an
    exact permutation.
    """
    _check_group(g, h, family.kind)
    spec = family.spec
    J = build_JN(spec)  # raises when n_tail < k
    rep = embed(g, spec) @ J @ embed(h, spec)
    if family.kind == "unitary_conjugation":
        rep = rep @ J
    return CosetTarget(rep, family)


def _check_group(g: BlockMatrix, h: BlockMatrix, kind: str) -> None:
    """Raise ValueError unless g and h lie in the family's group: unitary (tol
    1e-10), or for the symmetric family exact permutations.  ``embed``,
    ``_place`` and J keep permutations exact, so the products of
    ``circ_N`` and ``circ_infinite`` pass exactly when their inputs do."""
    if kind != "symmetric" and not (is_unitary(g) and is_unitary(h)):
        raise ValueError(f"the {kind} family needs unitary g and h")
    if kind == "symmetric" and (g.exact_permutation is None or h.exact_permutation is None):
        raise ValueError("symmetric family requires exact permutation inputs")


_DRAW_KIND = {"symmetric": "permutation", "unitary_conjugation": "unitary",
              "unitary_orthogonal": "orthogonal"}


def _draw_k(family: GroupFamily, gen: np.random.Generator) -> BlockMatrix:
    return embed_k(_draw(_DRAW_KIND[family.kind], family.spec.copy_size, gen), family.spec)


def _conj_transpose(x: BlockMatrix) -> BlockMatrix:
    return BlockMatrix(x.entries.conj().T)


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


def core_images(images, k: int) -> tuple:
    """Active images of a symmetric sample's core, from those of its middle draw.

    K permutes the tail points of every copy alike, so of an image above k
    only its position matters: those images take the first tail slots k+1,
    k+2, ... in order, and images at most k stay.  The result does not depend
    on the tail size, and mapping it again leaves it as it is.
    """
    tail = iter(range(k + 1, 2 * k + 1))
    return tuple(v if v <= k else next(tail) for v in images)


def _block_a(a, k: int) -> np.ndarray:
    a = np.asarray(a)
    if a.shape != (k, k):
        raise ValueError(f"expected the {k}x{k} block A of the middle draw, got shape {a.shape}")
    return a


def _frame(a) -> np.ndarray:
    """Per lane of an (S, k, k) stack a, the frame [a, D], D = (I - aa^*)^(1/2)
    by eigh with eigenvalues clipped at 0: k orthonormal rows up to ||a|| = 1,
    real for real a, D = I at a = 0.  ValueError unless every lane has
    operator norm at most 1 + 1e-10."""
    lam, vec = np.linalg.eigh(np.eye(a.shape[-1]) - a @ a.conj().swapaxes(-1, -2))
    low = lam[:, 0]  # 1 - ||a||^2, so low >= -2e-10 is ||a|| <= 1 + 1e-10
    bad = ~(low >= -2e-10)
    if bad.any():
        raise ValueError(f"the block A has operator norm {np.sqrt(1 - low[bad][0]):.12g} > 1")
    root = (vec * np.sqrt(np.clip(lam, 0, None))[:, None, :]) @ vec.conj().swapaxes(-1, -2)
    return np.concatenate([a, root], axis=-1)


def sample_core_stack(g: BlockMatrix, h: BlockMatrix, family: GroupFamily, a) -> np.ndarray:
    """``sample_core`` for every lane of an (S, k, k) stack a of unitary middle
    draw blocks, as the (S, d, d) stack of the cores' entries, bit for bit.

    The frames, the products Y^*(g - I)Y and the products with h run as
    stacks; each copy's frame is written into Y by slice.  Raises ValueError
    for the symmetric family, for a stack of another shape, and when any lane
    has operator norm above 1 + 1e-10.
    """
    spec = family.spec
    alpha, k = spec.alpha, spec.k
    if family.kind == "symmetric":
        raise ValueError("stacked cores need a unitary family; symmetric cores are "
                         "built one at a time by sample_core")
    a = np.asarray(a)
    if a.ndim != 3 or a.shape[1:] != (k, k):
        raise ValueError(f"expected a stack of {k}x{k} blocks A, got shape {a.shape}")
    core_spec = family.with_n_tail(k).spec
    y = np.zeros((len(a), spec.window, core_spec.dim), dtype=complex)
    y[:, :alpha, :alpha] = np.eye(alpha)
    frame = _frame(a)
    for i in range(spec.m):  # copy i's k rows and 2k columns hold the frame
        row, col = alpha + i * k, alpha + 2 * i * k
        y[:, row:row + k, col:col + 2 * k] = frame
    left = np.eye(core_spec.dim) + y.conj().swapaxes(-1, -2) @ (
        g.entries - np.eye(spec.window)) @ y
    return left @ (h if h.dim == core_spec.dim else embed(h, core_spec)).entries


def sample_core(g: BlockMatrix, h: BlockMatrix, family: GroupFamily, a) -> BlockMatrix:
    """Core of the sample whose middle draw has leading k x k block ``a``.

    g and h live on the window.  A unitary middle draw with first k rows [a, T]
    is w.x_a.v with embed_k(w), embed_k(v) in K and x_a = c (+) I, c the 2k x 2k
    unitary whose first k rows are the frame [a, D], D = (I - aa^*)^(1/2).  So
    the sample embed(g).X.embed(h) (times X^* for the conjugation family) is
    K-equivalent (K-conjugate) to the one with middle draw X_a = embed_k(x_a),
    which, framed by X_a, is the identity outside the corner and the first 2k
    points of each copy.  The d x d matrix there, d = alpha + 2mk, is the core,
    (I + Y^*(g - I)Y).embed(h) with Y = I_alpha (+) [a, D] per copy; its target
    is circ_N(g, h, family.with_n_tail(k)).  Neither depends on N or on the
    outer draws of ``sample_tau_full``; a core costs O(k^3) plus d x d products.
    For the unitary families this is ``sample_core_stack`` on a stack of one.

    For the symmetric family ``a`` holds u(1..k), the images of the middle
    permutation's active points: k distinct integers in 1..w, else ValueError.
    K holds every tail permutation, so only they matter: ``core_images`` maps
    them to the core's, the other points follow in ascending order, and the
    core is the exact permutation embed(g).embed_k(u_core).embed(h) at tail
    size k, for any w.  Here g, and in every family h, may also be given
    already embedded at core size, so a caller making many cores embeds once.
    """
    spec = family.spec
    k = spec.k
    core_spec = family.with_n_tail(k).spec
    if family.kind == "symmetric":
        rows = np.asarray(a)
        if rows.shape != (k,):
            raise ValueError(f"expected the {k} active images of a {spec.copy_size}-point "
                             f"draw, got shape {rows.shape}")
        images = [int(v) for v in rows]
        if (rows.dtype.kind not in "iu" or len(set(images)) != k
                or not all(1 <= v <= spec.copy_size for v in images)):
            raise ValueError(f"expected {k} distinct active images in 1..{spec.copy_size}, "
                             f"got {images}")
        head = core_images(images, k)
        u_core = PermutationWord([*head, *sorted(set(range(1, 2 * k + 1)) - set(head))])
        g, h = (b if b.dim == core_spec.dim else embed(b, core_spec) for b in (g, h))
        return g @ embed_k(u_core, core_spec) @ h
    return BlockMatrix(sample_core_stack(g, h, family, _block_a(a, k)[None])[0])


def lift_core_witnesses(u: BlockMatrix, v: BlockMatrix, a, family: GroupFamily):
    """Full-size witnesses (U, V) from core-size ones (u, v) of ``sample_core``.

    a is the k x k block that built the core.  The canonical middle draw is
    x_a = c (+) I, where c^* is the complete QR factor of the frame's adjoint
    with that adjoint written into its first k columns.  With u_2k, v_2k the
    first copy blocks, U = embed_k(c.u_2k (+) I) and V = embed_k(v_2k (+) I)
    (times embed_k(c^* (+) I) for conjugation), so that x_a - U.r.V is
    (core - u.r_core.v) (+) 0 for the sample x_a with middle draw embed_k(x_a).
    """
    spec, k = family.spec, family.spec.k
    adj = _frame(_block_a(a, k)[None])[0].conj().T
    c_adj = np.linalg.qr(adj, mode="complete")[0]
    c_adj[:, :k] = adj
    block = family.with_n_tail(k).spec.copy_slice(0)
    left, right = c_adj.conj().T @ u.entries[block, block], v.entries[block, block]
    if family.kind == "unitary_conjugation":
        right = right @ c_adj
    copies = [range(s, s + 2 * k) for s in range(spec.alpha, spec.dim, spec.copy_size)]
    return tuple(_place(x, 2 * k, spec.dim, copies) for x in (left, right))
