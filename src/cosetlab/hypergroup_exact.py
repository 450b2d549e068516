"""Exact convolution structure constants for the symmetric family.

Within ``ENUMERATION_BUDGET``, the product measure of two coset measures is
computed exactly: every middle draw u is enumerated and keyed by what the
coset of g.diag(u).h can depend on (u outside the labels h fixes, with the
labels g fixes merged), the first product of each key is sorted into cosets
by the exact membership test, and the atom probabilities come out as exact
rationals.  ``concentration_exact`` gives the product coset's own probability
at any tail size, from the cores of u's active images.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .blockmat import BlockMatrix, PermutationWord, as_word, tail_sizes
from .cosets import CosetTarget, GroupFamily, circ_N, core_images, sample_core
from .geometry import sym_membership

__all__ = [
    "ENUMERATION_BUDGET",
    "ExactDistribution",
    "exact_convolution",
    "concentration_exact",
]

_MAX_COPY_SIZE = 7  # largest k + n_tail whose draws we agree to enumerate
ENUMERATION_BUDGET = math.factorial(_MAX_COPY_SIZE)  # their number, 5040


@dataclass(frozen=True)
class ExactDistribution:
    """Atoms of a convolution of two coset measures, with exact probabilities."""

    atoms: tuple  # of (PermutationWord representative, Fraction probability)
    family: GroupFamily

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.kind,
            "alpha": self.family.spec.alpha,
            "k": self.family.spec.k,
            "n_tail": self.family.spec.n_tail,
            "m": self.family.spec.m,
            "atoms": [
                {"representative": list(rep.images), "prob": f"{p.numerator}/{p.denominator}"}
                for rep, p in self.atoms
            ],
        }


def _check_budget(spec):
    """ValueError unless the (k + n_tail)! draws fit ``ENUMERATION_BUDGET``,
    that is, unless k + n_tail <= ``_MAX_COPY_SIZE``: one comparison, so a
    huge tail costs no more than a small one."""
    if spec.copy_size > _MAX_COPY_SIZE:
        raise ValueError(f"enumeration budget exceeded: (k + n_tail)! = {spec.copy_size}! "
                         f"> {ENUMERATION_BUDGET}; shrink k + n_tail")


def exact_convolution(g, h, family: GroupFamily) -> ExactDistribution:
    """Exact distribution of the coset of g.diag(u).h over uniform u.

    g and h are full-degree permutations.  Let F_g (F_h) be the labels whose
    point g (h) fixes in every copy.  For a in Sym(F_g), b in Sym(F_h),
    g.diag(a.u.b).h = diag(a).(g.diag(u).h).diag(b) lies in the coset of
    g.diag(u).h, so a draw u is keyed by its values at the labels outside F_h,
    each value in F_g read as one symbol; equal keys are exactly such a.u.b.
    A label is fixed when its point p has images[p - 1] == p in every copy,
    read off the image tuples; a key is built through one table that sends
    each value of F_g to 0 and every other value to itself.
    Only the first draw of a key (in lexicographic u order) is classified: its
    product joins the first earlier representative whose coset contains it,
    or becomes one.  The atoms, their order and probabilities are those of a
    scan of every draw; the cost is w! key builds plus one membership scan per
    key (2 keys for embedded window inputs at alpha=k=1, any N).
    """
    if family.kind != "symmetric":
        raise ValueError(f"exact convolution needs the symmetric family, got {family.kind!r}")
    spec = family.spec
    _check_budget(spec)
    gw, hw = as_word(g), as_word(h)
    if gw.degree != spec.dim or hw.degree != spec.dim:
        raise ValueError(f"g and h must have degree {spec.dim}")
    w, alpha = spec.copy_size, spec.alpha

    def fixed(im):  # per label: whether the image tuple im fixes its point in every copy
        return [all(im[p] == p + 1 for p in range(alpha + j, spec.dim, w)) for j in range(w)]

    keyed = [j for j, f in enumerate(fixed(hw.images)) if not f]
    # symbol[v]: 0 for v in F_g, else v itself; symbol[0] is never read
    symbol = [0] + [0 if f else v for v, f in enumerate(fixed(gw.images), 1)]
    # x = g.diag(u).h on images: x(p) = g(diag(u)(h(p))), and diag(u) fixes the
    # corner and sends point base + 1 + j of a copy to point base + u(j + 1);
    # h(p) is kept as (base, j), or as (h(p), None) in the corner
    gi = gw.images
    h_at = [(q, None) if q <= alpha else (q - 1 - (q - alpha - 1) % w, (q - alpha - 1) % w)
            for q in hw.images]

    reps: list[PermutationWord] = []
    targets: list[CosetTarget] = []
    counts: list[int] = []
    atom_of: dict[tuple, int] = {}
    total = 0
    for images in itertools.permutations(range(1, w + 1)):
        total += 1
        key = tuple([symbol[images[j]] for j in keyed])
        i = atom_of.get(key)
        if i is None:
            x = PermutationWord([gi[b - 1] if j is None else gi[b + images[j] - 1]
                                 for b, j in h_at])
            i = next((t for t, tgt in enumerate(targets) if sym_membership(x, tgt)), len(reps))
            if i == len(reps):
                reps.append(x)
                targets.append(CosetTarget(BlockMatrix.from_permutation(x), family))
                counts.append(0)
            atom_of[key] = i
        counts[i] += 1
    atoms = tuple((rep, Fraction(cnt, total)) for rep, cnt in zip(reps, counts))
    return ExactDistribution(atoms, family)


def concentration_exact(g, h, family: GroupFamily, N_list) -> list[tuple[int, Fraction]]:
    """Exact probability that a uniform middle draw lands in the coset of the
    product representative, at each requested tail size N >= k.

    g and h are window permutations (degree alpha + m*k).  The coset depends
    only on the core pattern (``cosets.core_images``) of the active images
    u(1..k), so each pattern is classified once, at tail size k: 7 at k=2, 34
    at k=3.  A pattern with t tail images stands for falling(N, t) of the
    falling(N+k, k) equally likely image tuples at tail size N, math.perm
    products of at most k terms; nothing of size N is built.  N must still be
    below 2^1023 - 2^969, the sweeps' bound (``blockmat.tail_sizes``).
    """
    gw, hw = as_word(g), as_word(h)
    base = family.spec
    k = base.k
    if gw.degree != base.window or hw.degree != base.window:
        raise ValueError(f"g and h must be window permutations of degree {base.window}")
    Ns = tail_sizes(N_list, k)
    core_fam = family.with_n_tail(k)
    gb, hb = BlockMatrix.from_permutation(gw), BlockMatrix.from_permutation(hw)
    target = circ_N(gb, hb, core_fam)
    patterns = {core_images(p, k) for p in itertools.permutations(range(1, 2 * k + 1), k)}
    tails = [sum(v > k for v in p) for p in patterns
             if sym_membership(sample_core(gb, hb, core_fam, p), target)]
    return [(N, sum((Fraction(math.perm(N, t), math.perm(N + k, k)) for t in tails), Fraction(0)))
            for N in Ns]
