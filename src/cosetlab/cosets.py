"""Interleaving products of block group elements and samplers for their convolution measures.

Three (G, K) families are supported: complex unitary matrices with two-sided
real-orthogonal diagonal cosets, complex unitary matrices up to diagonal
unitary conjugation, and exact permutations with diagonal-copy cosets.  The
finite-size product of g and h is the double coset (or conjugacy class) of
g.J.h, where J swaps each copy's active block into its tail; samplers draw
from the one-middle-draw and three-draw convolution measures.  For the two
unitary families a sample also has a core of dimension alpha + 2mk, equivalent
to it under K for every tail size, built from the first k rows of the middle
draw alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockmat import (
    BlockMatrix,
    BlockSpec,
    PermutationWord,
    build_JN,
    embed,
    embed_k,
)
from .haar import _as_generator, haar_orthogonal, haar_unitary, uniform_permutation

__all__ = [
    "FAMILY_KINDS",
    "GroupFamily",
    "CosetTarget",
    "circ_infinite",
    "circ_colligation",
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


def _split(g: BlockMatrix, alpha: int):
    a = g.entries[:alpha, :alpha]
    b = g.entries[:alpha, alpha:]
    c = g.entries[alpha:, :alpha]
    d = g.entries[alpha:, alpha:]
    return a, b, c, d


def _infer_alpha(g: BlockMatrix, h: BlockMatrix, alpha):
    if alpha is not None:
        return int(alpha)
    for side in (g, h):
        if side.spec is not None:
            return side.spec.alpha
    raise ValueError("alpha not given and neither input carries a spec")


def _maybe_exact(entries: np.ndarray, spec=None) -> BlockMatrix:
    # recover the word when entries form an exact 0-1 permutation matrix; the
    # word and the entries-against-word check each raise ValueError otherwise
    word = np.argmax(entries.real, axis=0) + 1
    try:
        return BlockMatrix(entries, spec, PermutationWord(word))
    except ValueError:
        return BlockMatrix(entries, spec)


def circ_infinite(g: BlockMatrix, h: BlockMatrix, alpha: int | None = None) -> BlockMatrix:
    """Size-stable product of corner groups: (alpha+k1) x (alpha+k2) -> alpha+k1+k2.

    With g = [[a, b], [c, d]] and h = [[p, q], [r, t]] split at the corner,
    the result is [[ap, b, aq], [cp, d, cq], [r, 0, t]].  Unitary inputs give
    a unitary output.  The two active sizes may differ.
    """
    alpha = _infer_alpha(g, h, alpha)
    a, b, c, d = _split(g, alpha)
    p, q, r, t = _split(h, alpha)
    k1 = g.dim - alpha
    k2 = h.dim - alpha
    out = np.zeros((alpha + k1 + k2, alpha + k1 + k2), dtype=complex)
    s0, s1, s2 = slice(0, alpha), slice(alpha, alpha + k1), slice(alpha + k1, alpha + k1 + k2)
    out[s0, s0] = a @ p
    out[s0, s1] = b
    out[s0, s2] = a @ q
    out[s1, s0] = c @ p
    out[s1, s1] = d
    out[s1, s2] = c @ q
    out[s2, s0] = r
    out[s2, s2] = t
    if g.exact_permutation is not None and h.exact_permutation is not None:
        return _maybe_exact(out)
    return BlockMatrix(out)


def circ_colligation(g: BlockMatrix, h: BlockMatrix, alpha: int | None = None) -> BlockMatrix:
    """Same representative formula as circ_infinite; the ambient equivalence is
    conjugacy by the corner-fixing subgroup rather than two-sided cosets."""
    return circ_infinite(g, h, alpha)


def circ_N(g: BlockMatrix, h: BlockMatrix, family: GroupFamily) -> CosetTarget:
    """Finite-size coset product: the class of embed(g) . J . embed(h).

    g and h live on the window (corner + active blocks); the representative is
    full-dimensional.  For the conjugation family the representative is
    embed(g) . J . embed(h) . J instead, so it stays in the same conjugacy
    picture (J is an involution).
    """
    spec = family.spec
    J = build_JN(spec)  # raises when n_tail < k
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
    """Core of the unitary-family sample whose middle draw x_w has first k rows ``rows``.

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
    """
    if family.kind == "symmetric":
        raise ValueError("the sample core is defined for the unitary families")
    spec = family.spec
    alpha, k = spec.alpha, spec.k
    rows = np.asarray(rows)
    if rows.shape != (k, spec.copy_size):
        raise ValueError(f"expected the first {k} rows of a {spec.copy_size}-point draw, "
                         f"got shape {rows.shape}")
    r_t = np.linalg.qr(rows[:, k:].conj().T, mode="r")
    frame = np.hstack([rows[:, :k], r_t.conj().T])
    core_spec = family.with_n_tail(k).spec
    y = np.zeros((spec.window, core_spec.dim), dtype=complex)
    y[:alpha, :alpha] = np.eye(alpha)
    for c in range(spec.m):
        y[alpha + c * k:alpha + (c + 1) * k, core_spec.copy_slice(c)] = frame
    left = np.eye(core_spec.dim) + y.conj().T @ (g.entries - np.eye(spec.window)) @ y
    return BlockMatrix(left, core_spec) @ embed(h, core_spec)


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
        out = np.eye(w, dtype=complex)
        out[:2 * k, :2 * k] = b.entries[block, block]
        return out

    left = x_w @ q @ widen(u)
    right = widen(v) @ q.conj().T
    if family.kind == "unitary_conjugation":
        right = right @ x_w.conj().T
    return embed_k(left, spec), embed_k(right, spec)
