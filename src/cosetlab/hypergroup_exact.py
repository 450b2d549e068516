"""Exact convolution structure constants for the symmetric family.

Within ``ENUMERATION_BUDGET``, the product measure of two coset measures is
computed exactly: every middle draw u is enumerated, the products g.diag(u).h
are sorted into cosets by the exact membership test, and the atom
probabilities come out as exact rationals.  ``concentration_exact`` gives the
product coset's own probability at any tail size, from the cores of u's
active images.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .blockmat import BlockMatrix, PermutationWord, as_word, embed_k, tail_sizes
from .cosets import CosetTarget, GroupFamily, circ_N, core_images, sample_core
from .geometry import sym_membership

__all__ = [
    "ENUMERATION_BUDGET",
    "ExactDistribution",
    "exact_convolution",
    "concentration_exact",
]

ENUMERATION_BUDGET = 5040  # largest (k + n_tail)! we agree to enumerate


@dataclass(frozen=True)
class ExactDistribution:
    """Atoms of a convolution of two coset measures, with exact probabilities."""

    atoms: tuple  # of (PermutationWord representative, Fraction probability)
    family: GroupFamily

    def max_atom(self):
        """(representative, probability) of the most likely atom."""
        return max(self.atoms, key=lambda a: a[1])

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


def _check_budget(spec, budget):
    w = spec.copy_size
    if math.factorial(w) > budget:
        raise ValueError(
            f"enumeration budget exceeded: (k + n_tail)! = {w}! = {math.factorial(w)} "
            f"> {budget}; shrink k + n_tail or raise the budget")


def exact_convolution(g, h, family: GroupFamily, budget: int = ENUMERATION_BUDGET) -> ExactDistribution:
    """Exact distribution of the coset of g.diag(u).h over uniform u.

    g and h are full-degree permutations.  Classification assigns each product
    to the first previously discovered representative whose coset contains it,
    so the atom list is deterministic (enumeration is in lexicographic u
    order) and needs no canonical coset form.
    """
    if family.kind != "symmetric":
        raise ValueError(f"exact convolution needs the symmetric family, got {family.kind!r}")
    spec = family.spec
    _check_budget(spec, budget)
    gw, hw = as_word(g), as_word(h)
    if gw.degree != spec.dim or hw.degree != spec.dim:
        raise ValueError(f"g and h must have degree {spec.dim}")
    w = spec.copy_size

    reps: list[PermutationWord] = []
    targets: list[CosetTarget] = []
    counts: list[int] = []
    total = 0
    for images in itertools.permutations(range(1, w + 1)):
        u = PermutationWord(images)
        x = gw * embed_k(u, spec).exact_permutation * hw
        total += 1
        for i, tgt in enumerate(targets):
            if sym_membership(x, tgt):
                counts[i] += 1
                break
        else:
            reps.append(x)
            targets.append(CosetTarget(BlockMatrix.from_permutation(x, spec), family))
            counts.append(1)
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
    products of at most k terms; nothing of size N is built, so any N runs.
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
