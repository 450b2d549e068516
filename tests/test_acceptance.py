"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Every fixture, seed, tolerance, and runtime budget here is pinned; these tests
are the contract for the package and must not be loosened to make them pass.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from cosetlab.blockmat import BlockMatrix, BlockSpec, PermutationWord, embed, is_unitary
from cosetlab.cosets import CosetTarget, GroupFamily, circ_N, circ_infinite, sample_tau_tilde
from cosetlab.experiments import ExperimentConfig, run_block_decay, run_concentration
from cosetlab.geometry import (
    colligation_char_function,
    dist_conjugacy,
    dist_double_coset,
    eigenvalue_matching_distance,
    sym_corner_invariant,
    sym_membership,
    verify_estimate,
)
from cosetlab.haar import RandomStream, haar_unitary, uniform_permutation
from cosetlab.hypergroup_exact import concentration_exact, exact_convolution
from testkit import fractions_by_N, max_atom, radius_checked

SWAP = PermutationWord([2, 1])


def _verdict(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"acceptance criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_exact_symmetric_concentration():
    start = time.perf_counter()
    fam = GroupFamily("symmetric", BlockSpec(1, 1, 2, 1))
    got = concentration_exact(SWAP, SWAP, fam, [2, 3, 4])
    elapsed = time.perf_counter() - start
    want = [(2, Fraction(2, 3)), (3, Fraction(3, 4)), (4, Fraction(4, 5))]
    ok = got == want and elapsed < 1.0
    _verdict(1, "exact hit probabilities 2/3, 3/4, 4/5 at N=2,3,4 in under 1 s",
             ok, f"got {[(n, str(p)) for n, p in got]}, {elapsed:.2f}s")


def test_criterion_2_enumeration_vs_monte_carlo():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        family="symmetric", alpha=1, k=1, m=1, N_list=(3,), epsilon_list=(0.25,),
        samples=2400, seed=20260823, g_spec="(1 2)", h_spec="(1 2)")
    (row,) = run_concentration(cfg).rows
    elapsed = time.perf_counter() - start
    ok = row.ci_low <= 0.75 <= row.ci_high and elapsed < 5.0
    _verdict(2, "Wilson 95% interval of 2400 samples at N=3 contains 3/4",
             ok, f"[{row.ci_low:.4f}, {row.ci_high:.4f}] around {row.fraction:.4f}, {elapsed:.2f}s")


# the acceptance-scale unitary sweeps of criteria 3 and 6
ORTHOGONAL_SWEEP = ExperimentConfig(
    family="unitary_orthogonal", alpha=1, k=1, m=1, N_list=(8, 32, 128, 256),
    epsilon_list=(0.4,), samples=200, seed=42)
CONJUGATION_SWEEP = ExperimentConfig(
    family="unitary_conjugation", alpha=1, k=1, m=1, N_list=(8, 64),
    epsilon_list=(0.4,), samples=200, seed=42)


def test_criterion_3_unitary_concentration_trend():
    start = time.perf_counter()
    cfg = ORTHOGONAL_SWEEP
    report = run_concentration(cfg)
    elapsed = time.perf_counter() - start
    fr = fractions_by_N(report, 0.4)
    n = cfg.samples
    monotone = True
    for a, b in zip(cfg.N_list, cfg.N_list[1:]):
        se = np.sqrt(fr[a] * (1 - fr[a]) / n + fr[b] * (1 - fr[b]) / n)
        if fr[b] < fr[a] - 2 * se:
            monotone = False
    ok = monotone and fr[256] >= 0.9 and elapsed < 600.0
    _verdict(3, "hit fractions nondecreasing in N (2 joint SE) and >= 0.9 at N=256, under 10 min",
             ok, f"fractions {[round(fr[N], 3) for N in cfg.N_list]}, {elapsed:.1f}s")


def test_criterion_4_block_decay():
    start = time.perf_counter()
    rows = run_block_decay(2, [20, 50, 200], samples=200, seed=4)
    elapsed = time.perf_counter() - start
    med = {n: m for n, m, _ in rows}
    bounds_ok = all(med[n] <= 3 * np.sqrt(2 / n) for n in (20, 50, 200))
    ok = med[200] < 0.5 * med[20] and bounds_ok and elapsed < 60.0
    _verdict(4, "corner-block medians halve from N=20 to N=200 and stay under 3*sqrt(k/N)",
             ok, f"medians {[round(med[n], 4) for n in (20, 50, 200)]}, {elapsed:.1f}s")


def test_criterion_5_two_copy_unique_maximal_atom():
    start = time.perf_counter()
    failures = []
    for trial in range(20):
        gen = RandomStream(900 + trial, 0).generator()
        g = BlockMatrix.from_permutation(uniform_permutation(3, gen))
        h = BlockMatrix.from_permutation(uniform_permutation(3, gen))
        for N in (2, 3):
            fam = GroupFamily("symmetric", BlockSpec(1, 1, N, 2))
            target = circ_N(g, h, fam)
            dist = exact_convolution(embed(g, fam.spec), embed(h, fam.spec), fam)
            probs = sorted((p for _, p in dist.atoms), reverse=True)
            rep, p_max = max_atom(dist)
            if len(probs) > 1 and probs[0] == probs[1]:
                failures.append((trial, N, "tie"))
            elif not sym_membership(rep, target):
                failures.append((trial, N, "max atom is not the product coset"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    _verdict(5, "m=2 exact convolution has the product coset as unique maximal atom (20 pairs)",
             ok, f"failures {failures}, {elapsed:.1f}s")


def test_criterion_6_conjugation_family():
    start = time.perf_counter()
    cfg = CONJUGATION_SWEEP
    report = run_concentration(cfg)
    fr = fractions_by_N(report, 0.4)

    worst_eig = worst_char = 0.0
    grid = [2 * np.exp(2j * np.pi * t / 4) for t in range(4)]
    for N in (8, 64):
        fam = GroupFamily("unitary_conjugation", BlockSpec(1, 1, N, 1))
        setup = RandomStream(cfg.seed, 0).generator()
        g = embed(BlockMatrix(haar_unitary(2, setup)), fam.spec)
        h = embed(BlockMatrix(haar_unitary(2, setup)), fam.spec)
        for i in range(cfg.samples):
            gen = RandomStream(cfg.seed, 1 + i).generator()
            x = sample_tau_tilde(g, h, fam, gen)
            from cosetlab.blockmat import embed_k

            z = embed_k(haar_unitary(fam.spec.copy_size, gen), fam.spec)
            y = BlockMatrix(z.entries @ x.entries @ z.entries.conj().T)
            worst_eig = max(worst_eig, eigenvalue_matching_distance(x, y))
            for a, b in zip(colligation_char_function(x, 1, grid),
                            colligation_char_function(y, 1, grid)):
                worst_char = max(worst_char, float(np.abs(a - b).max()))
    elapsed = time.perf_counter() - start
    ok = (fr[64] >= fr[8] - 0.05 and worst_eig <= 1e-9 and worst_char <= 1e-9
          and elapsed < 300.0)
    _verdict(6, "conjugation hit fraction holds up at N=64 and spectral invariants stay below 1e-9",
             ok, f"fractions {round(fr[8], 3)}->{round(fr[64], 3)}, "
                 f"eig {worst_eig:.1e}, char {worst_char:.1e}, {elapsed:.1f}s")


def test_criterion_7_algebraic_identities():
    gen = RandomStream(1000, 0).generator()
    unitary_ok = True
    for _ in range(100):
        n = int(gen.integers(2, 5))
        g = BlockMatrix(haar_unitary(n, gen))
        h = BlockMatrix(haar_unitary(n, gen))
        if not is_unitary(circ_infinite(g, h, alpha=1)):
            unitary_ok = False

    corner_ok = True
    spec = BlockSpec(2, 1, 2, 1)
    fam = GroupFamily("symmetric", spec)
    for _ in range(100):
        g = uniform_permutation(spec.window, gen)
        h = uniform_permutation(spec.window, gen)
        rep = circ_N(BlockMatrix.from_permutation(g),
                     BlockMatrix.from_permutation(h), fam).representative
        lhs = sym_corner_invariant(rep, spec.alpha)
        rhs = sym_corner_invariant(g, spec.alpha) @ sym_corner_invariant(h, spec.alpha)
        if not np.array_equal(lhs, rhs):
            corner_ok = False

    sym_assoc_ok = True
    worst_assoc = 0.0
    for kind in ("symmetric", "unitary_orthogonal"):
        for m in (1, 2):
            fam1 = GroupFamily(kind, BlockSpec(1, 1, 2, m))
            w1 = fam1.spec.window
            fam2 = GroupFamily(kind, BlockSpec(1, 3, 3, m))
            for trial in range(10):
                tgen = RandomStream(1100 + trial, m).generator()
                if kind == "symmetric":
                    g, h, f = (BlockMatrix.from_permutation(uniform_permutation(w1, tgen))
                               for _ in range(3))
                else:
                    g, h, f = (BlockMatrix(haar_unitary(w1, tgen)) for _ in range(3))
                gh = circ_N(g, h, fam1).representative
                hf = circ_N(h, f, fam1).representative
                A = circ_N(gh, embed(f, fam1.spec), fam2).representative
                B = circ_N(embed(g, fam1.spec), hf, fam2).representative
                if kind == "symmetric":
                    if not sym_membership(A, CosetTarget(B, fam2)):
                        sym_assoc_ok = False
                else:
                    est = dist_double_coset(A, CosetTarget(B, fam2))
                    worst_assoc = max(worst_assoc, est.upper_bound)
    ok = unitary_ok and corner_ok and sym_assoc_ok and worst_assoc <= 1e-6
    _verdict(7, "product unitarity, corner multiplicativity, and coset-level associativity",
             ok, f"worst unitary associativity distance {worst_assoc:.1e}")


@pytest.mark.parametrize("cfg", [ORTHOGONAL_SWEEP, CONJUGATION_SWEEP],
                         ids=["criterion_3", "criterion_6"])
def test_sweep_samples_inside_the_radius_are_hits(monkeypatch, cfg):
    # the radius check (``testkit.radius_checked``) on the sweeps of criteria
    # 3 and 6: every sample with 2 phi(||A||) <= epsilon is a hit
    assert radius_checked(monkeypatch, cfg)[1]


@pytest.mark.parametrize("alpha", [1, 2])
def test_characteristic_function_of_a_product_is_the_product(alpha):
    # theta_r(z) = theta_g(z) theta_h(z) for r = circ_infinite(g, h, alpha), at
    # points |z| > 1 off the tail blocks' spectra; at alpha = 2 the alpha x alpha
    # values do not commute, and the reverse order misses by more than 0.1
    # (0.84 at seed 1), so the order is pinned
    gen = RandomStream(1, 0).generator()
    g = BlockMatrix(haar_unitary(alpha + 2, gen))
    h = BlockMatrix(haar_unitary(alpha + 3, gen))
    grid = [1.5, -2j, 1.2 + 1.2j]
    thetas = [colligation_char_function(m, alpha, grid)
              for m in (circ_infinite(g, h, alpha), g, h)]
    for r_z, g_z, h_z in zip(*thetas):
        assert np.abs(r_z - g_z @ h_z).max() <= 1e-12
        if alpha == 2:
            assert np.abs(r_z - h_z @ g_z).max() > 0.1


def _diag_words(spec):
    """All subgroup words: one copy permutation repeated on every copy."""
    w = spec.copy_size
    out = []
    for images in itertools.permutations(range(1, w + 1)):
        im = list(range(1, spec.dim + 1))
        for c in range(spec.m):
            base = spec.alpha + c * w
            for j, t in enumerate(images):
                im[base + j] = base + t
        out.append(PermutationWord(im))
    return out


def test_criterion_8_geometry_oracles():
    start = time.perf_counter()
    mismatches = 0
    checked = 0
    for w in range(2, 8):  # copy sizes with w! <= 5040
        combos = [(0, 1, 1), (1, 1, 1), (2, 1, 2)] if w <= 5 else [(1, 1, 1)]
        if w >= 4:
            combos = combos + [(1, 2, 1)] if w <= 5 else combos
        for alpha, k, m in combos:
            N = w - k
            if N < k:
                continue
            spec = BlockSpec(alpha, k, N, m)
            fam = GroupFamily("symmetric", spec)
            gen = RandomStream(1200 + w, alpha * 10 + m).generator()
            g = BlockMatrix.from_permutation(uniform_permutation(spec.window, gen))
            h = BlockMatrix.from_permutation(uniform_permutation(spec.window, gen))
            target = circ_N(g, h, fam)
            r = target.representative.exact_permutation
            rinv = r.inverse()
            subgroup = _diag_words(spec)
            subgroup_set = {word.images for word in subgroup}
            for q in range(50):
                if q % 2 == 0:
                    x = uniform_permutation(spec.dim, gen)
                else:  # planted member
                    k1 = subgroup[int(gen.integers(len(subgroup)))]
                    k2 = subgroup[int(gen.integers(len(subgroup)))]
                    x = k1 * r * k2
                brute = any((rinv * k1.inverse() * x).images in subgroup_set
                            for k1 in subgroup)
                checked += 1
                if sym_membership(x, target) != brute:
                    mismatches += 1

    witness_worst = 0.0
    fam_u = GroupFamily("unitary_orthogonal", BlockSpec(1, 1, 5, 1))
    gen = RandomStream(1300, 0).generator()
    for trial in range(10):
        g = BlockMatrix(haar_unitary(2, gen))
        h = BlockMatrix(haar_unitary(2, gen))
        target = circ_N(g, h, fam_u)
        x = BlockMatrix(haar_unitary(fam_u.spec.dim, gen))
        est = dist_double_coset(x, target)
        witness_worst = max(witness_worst, abs(verify_estimate(est, x, target) - est.upper_bound))
    fam_c = GroupFamily("unitary_conjugation", BlockSpec(1, 1, 5, 1))
    for trial in range(5):
        g = BlockMatrix(haar_unitary(2, gen))
        h = BlockMatrix(haar_unitary(2, gen))
        target = circ_N(g, h, fam_c)
        x = BlockMatrix(haar_unitary(fam_c.spec.dim, gen))
        est = dist_conjugacy(x, target)
        witness_worst = max(witness_worst, abs(verify_estimate(est, x, target) - est.upper_bound))
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and witness_worst <= 1e-10
    _verdict(8, "membership matches brute force on every enumerable configuration; "
                "witnesses re-verify their bounds",
             ok, f"{checked} membership queries, witness gap {witness_worst:.1e}, {elapsed:.1f}s")
