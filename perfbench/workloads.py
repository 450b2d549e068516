"""The benchmark's workloads: the public cosetlab calls one pass makes, how many
operations each call attempts, and the checks every answer must pass.

A run makes a fixed number of passes, set by --seconds.  Every call of every
pass has a seed of its own, derived from the run's --seed, so the same seed
and length give the same inputs and hit fractions pool over all passes.
NOTES.md gives the reasons for each workload's shape.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
from collections import defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import cosetlab.cli
import cosetlab.hypergroup_exact
from cosetlab.blockmat import BlockMatrix, BlockSpec, PermutationWord, embed
from cosetlab.cosets import GroupFamily
from cosetlab.experiments import ExperimentConfig
from cosetlab.haar import RandomStream, haar_unitary

EPSILON = 0.4
# Acceptance criteria 3 and 6 draw their random g, h from stream 0 of seed 42.
# The benchmark pins that pair, so --seed varies the samples and not the fixture.
FIXTURE_SEED = 42
SYM_G, SYM_H = "(1 2 3)", "(1 3)"
# Two-sided confidence for the checks on a hit fraction (N=3 sym, N=256 orth): a
# 95% interval would miss the true value on one seed in twenty, which would
# make a correct program fail.
WILSON_CONFIDENCE = 1 - 1e-6

NAMES = ("orth_sweep", "conj_sweep", "sym_exact")
# Wall time of one pass, reference runs included, on the tuning host; a run
# makes seconds // PASS_S passes, and never fewer than MIN_PASSES.
PASS_S = {"orth_sweep": 6.5, "conj_sweep": 6.5, "sym_exact": 5.0}
MIN_PASSES = 2


class CallFailed(Exception):
    pass


@dataclass(frozen=True)
class Call:
    name: str
    kind: str
    ops: int
    run: Callable[[], object]
    sweep: "Sweep | None" = None


def run_cli(argv: list[str]) -> list[dict]:
    """cosetlab.cli.main with JSON output captured; rows of the report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cosetlab.cli.main(argv)
    if code != 0:
        raise CallFailed(f"cosetlab {argv[0]} exited {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())["rows"]


@dataclass(frozen=True)
class Sweep:
    """One `cosetlab concentration` call: alpha=1, k=1, epsilon=0.4, tau_tilde."""

    name: str
    family: str
    m: int
    Ns: tuple
    samples: int
    g: str
    h: str

    def config(self, seed: int) -> dict:
        return {"family": self.family, "alpha": 1, "k": 1, "m": self.m,
                "N_list": list(self.Ns), "epsilon_list": [EPSILON],
                "samples": self.samples, "seed": seed, "g_spec": self.g, "h_spec": self.h}

    def argv(self, seed: int) -> list[str]:
        argv = ["concentration", "--family", self.family, "--alpha", "1", "--k", "1",
                "--m", str(self.m), "--epsilon", str(EPSILON), "--samples", str(self.samples),
                "--seed", str(seed), "--g", self.g, "--h", self.h, "--format", "json"]
        for N in self.Ns:
            argv += ["--N", str(N)]
        return argv

    def call(self, name: str, seed: int) -> Call:
        argv = self.argv(seed)
        return Call(name, "concentration", self.samples * len(self.Ns),
                    lambda: run_cli(argv), self)


def decay_call(name: str, seed: int, Ns, samples: int = 30) -> Call:
    argv = ["block-decay", "--k", "2", "--samples", str(samples), "--seed", str(seed),
            "--format", "json"]
    for N in Ns:
        argv += ["--N", str(N)]
    return Call(name, "decay", samples * len(Ns), lambda: run_cli(argv))


def _sym_window(text: str) -> BlockMatrix:
    return BlockMatrix.from_permutation(PermutationWord.parse(text, degree=3))


def exact_concentration_call(name: str, Ns) -> Call:
    g, h = _sym_window(SYM_G), _sym_window(SYM_H)
    fam = GroupFamily("symmetric", BlockSpec(1, 1, Ns[0], 2))
    draws = sum(math.factorial(1 + N) for N in Ns)
    return Call(name, "exact_concentration", draws,
                lambda: cosetlab.hypergroup_exact.concentration_exact(g, h, fam, list(Ns)))


def exact_pairs_call(name: str, seed: int, pairs: int, Ns=(2, 3)) -> Call:
    """exact_convolution on random degree-3 window pairs, m=2 (criterion 5's shape)."""
    gen = np.random.default_rng(seed)
    jobs = []
    for _ in range(pairs):
        g = BlockMatrix.from_permutation(PermutationWord(gen.permutation(3) + 1))
        h = BlockMatrix.from_permutation(PermutationWord(gen.permutation(3) + 1))
        for N in Ns:
            fam = GroupFamily("symmetric", BlockSpec(1, 1, N, 2))
            jobs.append((embed(g, fam.spec), embed(h, fam.spec), fam))
    draws = pairs * sum(math.factorial(1 + N) for N in Ns)
    return Call(name, "exact_pairs", draws, lambda: [
        cosetlab.hypergroup_exact.exact_convolution(g, h, fam) for g, h, fam in jobs])


def write_fixture(out_dir: Path) -> tuple[str, str]:
    """Criterion 3's random g, h as matrix JSON files; returns their paths."""
    gen = RandomStream(FIXTURE_SEED, 0).generator()
    paths = []
    for name in ("g", "h"):
        path = out_dir / f"fixture_{name}.json"
        path.write_text(json.dumps(BlockMatrix(haar_unitary(2, gen)).to_json_dict()))
        paths.append(str(path))
    return paths[0], paths[1]


def sweeps(name: str, fixture: tuple[str, str]) -> list[tuple[Sweep, int]]:
    """The concentration calls of one pass: each sweep and how many calls of it
    (with seeds of their own) the pass makes.  A call runs at most about a
    second, so the reference runs around it follow the host's speed."""
    g, h = fixture
    uo, uc, sym = "unitary_orthogonal", "unitary_conjugation", "symmetric"
    return {
        "orth_sweep": [(Sweep("orth_small", uo, 1, (8,), 100, g, h), 2),
                       (Sweep("orth_large", uo, 1, (32, 128, 256), 2, g, h), 2)],
        "conj_sweep": [(Sweep("conj_small", uc, 1, (8,), 70, g, h), 3),
                       (Sweep("conj_mid", uc, 1, (24,), 1, g, h), 1),
                       (Sweep("conj_large", uc, 1, (64,), 6, g, h), 1)],
        "sym_exact": [(Sweep("sym_small", sym, 2, (3,), 2400, SYM_G, SYM_H), 2),
                      (Sweep("sym_large", sym, 2, (128, 512), 10, SYM_G, SYM_H), 4)],
    }[name]


def call_seed(seed: int, pass_index: int, j: int) -> int:
    """Seed of call j of a pass: distinct for every call of a run."""
    return (seed * 1000 + pass_index) * 100 + j


def passes_for(name: str, seconds: float) -> int:
    return max(MIN_PASSES, int(seconds // PASS_S[name]))


def build(name: str, seed: int, pass_index: int, fixture: tuple[str, str],
          warmup: bool = False) -> list[Call]:
    """The timed calls of one pass; warmup makes every call shape once, small."""
    calls = []
    for sweep, n_calls in sweeps(name, fixture):
        if warmup:
            sweep, n_calls = replace(sweep, samples=1), 1
        for i in range(n_calls):
            calls.append(sweep.call(f"{sweep.name}.{i}", call_seed(seed, pass_index, len(calls))))
    if name == "orth_sweep":
        calls.append(decay_call("decay", call_seed(seed, pass_index, len(calls)), (20, 200)))
        if not warmup:
            calls.append(decay_call("decay_800", call_seed(seed, pass_index, len(calls)), (800,)))
    elif name == "sym_exact":
        calls.append(exact_concentration_call("exact_concentration",
                                              (2,) if warmup else (2, 3, 4, 5, 6)))
        calls.append(exact_pairs_call("exact_pairs", call_seed(seed, pass_index, len(calls)),
                                      1 if warmup else 20))
    return calls


def probe(name: str, seed: int) -> Call | None:
    """Robustness probe, made in the traced run outside its passes: symmetric N=1024."""
    if name != "sym_exact":
        return None
    return Sweep("probe_n1024", "symmetric", 2, (1024,), 2, SYM_G, SYM_H).call(
        "probe_n1024", seed)


def validate_configs(name: str, fixture: tuple[str, str], seed: int) -> None:
    """Validate every concentration config the workload will run."""
    for sweep, _ in sweeps(name, fixture):
        ExperimentConfig.from_json_dict(sweep.config(seed))


def wilson(hits: int, n: int, confidence: float) -> tuple[float, float]:
    """Wilson score interval, computed here rather than by the program under test."""
    z = statistics.NormalDist().inv_cdf(0.5 + confidence / 2)
    p = hits / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return center - half, center + half


# ---------------------------------------------------------------------------
# checks over the answers of all passes; each is a (name, ok, detail) triple;
# an answer is a (Call, value) pair


def counts(answers) -> dict:
    """N -> (hits, samples) pooled over every concentration call."""
    pooled = defaultdict(lambda: [0, 0])
    for call, rows in answers:
        if call.kind == "concentration":
            for r in rows:
                pooled[r["N"]][0] += r["hits"]
                pooled[r["N"]][1] += r["samples"]
    return {N: tuple(hn) for N, hn in pooled.items()}


def of_kind(answers, kind: str) -> list:
    return [value for call, value in answers if call.kind == kind]


# Slack for the report's own Wilson bounds: wilson_interval rounds 10/10 hits
# to ci_high = 0.9999999999999999 (see NOTES.md, known defects).
CI_ROUNDING = 1e-12


def _check_rows(answers) -> list:
    ok = True
    for call, rows in answers:
        if call.kind != "concentration":
            continue
        s = call.sweep
        ok &= sorted((r["N"], r["samples"]) for r in rows) == [(N, s.samples) for N in s.Ns]
        ok &= all(0 <= r["hits"] <= r["samples"]
                  and r["ci_low"] - CI_ROUNDING <= r["fraction"] <= r["ci_high"] + CI_ROUNDING
                  for r in rows)
    return [("reports.well_formed", ok, "")]


def check_orth(answers) -> list:
    out = _check_rows(answers)
    n_of = counts(answers)
    fr = {N: hits / n for N, (hits, n) in n_of.items()}
    Ns = sorted(fr)
    monotone = True
    for a, b in zip(Ns, Ns[1:]):
        se = math.sqrt(fr[a] * (1 - fr[a]) / n_of[a][1] + fr[b] * (1 - fr[b]) / n_of[b][1])
        if fr[b] < fr[a] - 2 * se:
            monotone = False
    out.append(("criterion3.monotone", monotone, f"{ {N: round(fr[N], 4) for N in Ns} }"))
    # A few samples per run cannot show a fraction of 0.9 by themselves; the
    # claim fails only when the interval of the hits lies wholly below it.
    hits, n = n_of[256]
    lo, hi = wilson(hits, n, WILSON_CONFIDENCE)
    out.append(("criterion3.frac_256", hi >= 0.9, f"{hits}/{n} in [{lo:.4f}, {hi:.4f}]"))
    decay_ok, meds = True, []
    for rows in of_kind(answers, "decay"):
        med = {r["N"]: r["median_norm"] for r in rows}
        decay_ok &= all(med[n] <= 3 * math.sqrt(2 / n) for n in med)
        if 20 in med:
            decay_ok &= med[200] < 0.5 * med[20]
        meds.append(med)
    out.append(("criterion4.decay", decay_ok and bool(meds), f"{meds}"))
    return out


def check_conj(answers) -> list:
    out = _check_rows(answers)
    fr = {N: hits / n for N, (hits, n) in counts(answers).items()}
    out.append(("conj.frac_64_vs_8", fr[64] >= fr[8] - 0.05, f"{fr[8]} -> {fr[64]}"))
    return out


def check_sym(answers) -> list:
    out = _check_rows(answers)
    exact = of_kind(answers, "exact_concentration")
    want = [(N, Fraction(N, N + 1)) for N in range(2, 7)]
    out.append(("exact.N_over_N_plus_1", bool(exact) and all(e == want for e in exact),
                f"{[(N, str(p)) for N, p in exact[0]] if exact else None}"))
    dists = [d for ds in of_kind(answers, "exact_pairs") for d in ds]
    totals = [sum(p for _, p in d.atoms) for d in dists]
    out.append(("exact.atom_totals", bool(dists) and all(t == 1 for t in totals),
                f"{len(dists)} distributions, atoms per distribution "
                f"{sorted({len(d.atoms) for d in dists})}"))
    hits, n = counts(answers)[3]
    lo, hi = wilson(hits, n, WILSON_CONFIDENCE)
    out.append(("wilson.N3_contains_3_4", lo <= 0.75 <= hi,
                f"{hits}/{n} in [{lo:.4f}, {hi:.4f}]"))
    return out


CHECKS = {"orth_sweep": check_orth, "conj_sweep": check_conj, "sym_exact": check_sym}


def check(name: str, answers) -> list:
    """Run the workload's checks; a missing or malformed answer fails them."""
    try:
        return CHECKS[name](answers)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [(f"{name}.answers", False, f"missing or malformed answer: {exc!r}")]
