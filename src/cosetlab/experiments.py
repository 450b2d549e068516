"""Monte Carlo sweeps measuring how convolution samples concentrate on the
product coset as the tail size grows, plus the corner-block decay study that
drives the effect, with reproducible seeds and machine-readable reports.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from io import StringIO

import numpy as np
from scipy.stats import norm as _norm

from .blockmat import BlockMatrix, BlockSpec, PermutationWord, embed, load_source, operator_norm
from .cosets import (
    FAMILY_KINDS,
    GroupFamily,
    circ_N,
    sample_core,
    sample_tau_full,
    sample_tau_tilde,
)
from .geometry import dist_conjugacy, dist_double_coset, sym_membership
from .haar import RandomStream, haar_columns, haar_unitary, top_block, uniform_permutation

__all__ = [
    "ExperimentConfig",
    "ReportRow",
    "ConcentrationReport",
    "run_concentration",
    "run_block_decay",
    "wilson_interval",
    "write_report",
    "write_text",
    "CSV_COLUMNS",
]

CSV_COLUMNS = (
    "family", "alpha", "k", "m", "N", "epsilon", "samples", "hits", "fraction",
    "ci_low", "ci_high", "median_dist", "mean_dist", "seed", "runtime_s",
)

MEASURES = ("tau_tilde", "tau_full")


@dataclass(frozen=True)
class ExperimentConfig:
    """One concentration sweep: fixed (g, h), varying tail size N.

    g_spec / h_spec are "random_unitary" (one Haar window draw per
    experiment, from the seed's stream 0, g before h; a uniform window
    permutation for the symmetric family) or any window-size source that
    ``blockmat.load_source`` reads.
    """

    family: str
    alpha: int
    k: int
    m: int
    N_list: tuple
    epsilon_list: tuple
    samples: int
    seed: int
    g_spec: str = "random_unitary"
    h_spec: str = "random_unitary"
    measure: str = "tau_tilde"
    restarts: int = 10
    max_iters: int = 200
    tol: float = 1e-12

    def __post_init__(self):
        if self.family not in FAMILY_KINDS:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "N_list", tuple(int(n) for n in self.N_list))
        object.__setattr__(self, "epsilon_list", tuple(float(e) for e in self.epsilon_list))
        BlockSpec(self.alpha, self.k, 0, self.m)  # validates the window shape
        if self.family == "unitary_conjugation" and self.m != 1:
            raise ValueError("the conjugation family needs m=1")
        for n in self.N_list:
            if n < self.k:
                raise ValueError(f"every N must be >= k; got N={n} < k={self.k}")
        if not self.N_list:
            raise ValueError("N_list must be nonempty")
        if any(e <= 0 for e in self.epsilon_list) or not self.epsilon_list:
            raise ValueError("epsilon_list must be nonempty and positive")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}; expected one of {MEASURES}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1; got {self.restarts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1; got {self.max_iters}")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be finite and >= 0; got {self.tol}")

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        missing = {"family", "alpha", "k", "m", "N_list", "epsilon_list", "samples", "seed"} - set(data)
        if missing:
            raise ValueError(f"missing config fields: {sorted(missing)}")
        return cls(**data)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family, "alpha": self.alpha, "k": self.k, "m": self.m,
            "N_list": list(self.N_list), "epsilon_list": list(self.epsilon_list),
            "samples": self.samples, "seed": self.seed,
            "g_spec": self.g_spec, "h_spec": self.h_spec, "measure": self.measure,
            "restarts": self.restarts, "max_iters": self.max_iters, "tol": self.tol,
        }


@dataclass(frozen=True)
class ReportRow:
    family: str
    alpha: int
    k: int
    m: int
    N: int
    epsilon: float
    samples: int
    hits: int
    fraction: float
    ci_low: float
    ci_high: float
    median_dist: float
    mean_dist: float
    seed: int
    runtime_s: float


@dataclass(frozen=True)
class ConcentrationReport:
    rows: tuple = field(default_factory=tuple)

    def to_csv_text(self) -> str:
        out = StringIO()
        out.write(",".join(CSV_COLUMNS) + "\n")
        for row in self.rows:
            out.write(",".join(repr(v) if isinstance(v, float) else str(v)
                               for v in (getattr(row, c) for c in CSV_COLUMNS)) + "\n")
        return out.getvalue()

    def to_json_text(self) -> str:
        payload = {"rows": [{c: getattr(row, c) for c in CSV_COLUMNS} for row in self.rows]}
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"

    def with_zeroed_runtime(self) -> "ConcentrationReport":
        """Copy with runtime_s = 0.0 everywhere: the only non-deterministic column."""
        return ConcentrationReport(tuple(replace(r, runtime_s=0.0) for r in self.rows))

    def fractions_by_N(self, epsilon: float) -> dict:
        return {r.N: r.fraction for r in self.rows if r.epsilon == epsilon}


def wilson_interval(hits: int, samples: int, confidence: float = 0.95):
    """Wilson score interval for a binomial proportion, as Python floats; the
    ends are exactly 0.0 at zero hits and 1.0 at full hits."""
    if not 0 <= hits <= samples or samples < 1:
        raise ValueError("need 0 <= hits <= samples and samples >= 1")
    z = float(_norm.ppf(0.5 + confidence / 2.0))
    n = samples
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == samples else min(1.0, center + half)
    return lo, hi


def _resolve_window_element(source, family: GroupFamily, gen) -> BlockMatrix:
    """Turn a g_spec/h_spec matrix source into a window-sized BlockMatrix."""
    window = family.spec.window
    if isinstance(source, BlockMatrix):
        elem = source
    elif isinstance(source, PermutationWord):
        elem = BlockMatrix.from_permutation(source)
    elif not isinstance(source, str):
        raise TypeError(f"cannot interpret matrix source {source!r}")
    elif source == "random_unitary":
        if family.kind == "symmetric":
            elem = BlockMatrix.from_permutation(uniform_permutation(window, gen))
        else:
            elem = BlockMatrix(haar_unitary(window, gen))
    else:
        elem = load_source(source, window)
    if elem.dim != window:
        raise ValueError(f"matrix source has dimension {elem.dim}, expected window {window}")
    if family.kind == "symmetric" and elem.exact_permutation is None:
        raise ValueError("symmetric family needs exact permutation g/h")
    return elem


def _thread_count(threads) -> int:
    if threads is None:
        threads = 1
    cap = os.environ.get("COSETLAB_THREADS")
    if cap is not None:
        threads = min(int(threads), max(1, int(cap)))
    return max(1, int(threads))


def run_concentration(cfg: ExperimentConfig, threads: int | None = None) -> ConcentrationReport:
    """Run the sweep: for each N build the product target, draw samples from
    the configured measure, and report per-(N, epsilon) hit fractions.

    Sample i uses the dedicated stream (seed, 1 + i) for both its subgroup
    draw and any solver restarts, so reports are reproducible and samples can
    run concurrently (COSETLAB_THREADS or the threads argument caps workers).
    Symmetric hits are exact membership verdicts recorded as 0/1 distances.
    A unitary-family sample draws only the first k rows of its middle Haar
    element and is solved as its core (``cosets.sample_core``) of dimension
    alpha + 2mk against the product target at tail size k, so its cost does
    not grow with N; both measures give the same core law, and every distance
    is a witnessed upper bound for the sample.
    """
    setup_gen = RandomStream(cfg.seed, 0).generator()
    fam0 = GroupFamily(cfg.family, BlockSpec(cfg.alpha, cfg.k, max(cfg.N_list), cfg.m))
    g_win = _resolve_window_element(cfg.g_spec, fam0, setup_gen)
    h_win = _resolve_window_element(cfg.h_spec, fam0, setup_gen)
    sampler = sample_tau_tilde if cfg.measure == "tau_tilde" else sample_tau_full
    eps_floor = min(cfg.epsilon_list)
    conj = cfg.family == "unitary_conjugation"
    workers = _thread_count(threads)

    rows = []
    for N in cfg.N_list:
        fam = GroupFamily(cfg.family, BlockSpec(cfg.alpha, cfg.k, N, cfg.m))
        if cfg.family == "symmetric":
            target = circ_N(g_win, h_win, fam)
            g_full = embed(g_win, fam.spec)
            h_full = embed(h_win, fam.spec)

            def one_sample(i, fam=fam, target=target, g_full=g_full, h_full=h_full):
                x = sampler(g_full, h_full, fam, RandomStream(cfg.seed, 1 + i).generator())
                return 0.0 if sym_membership(x, target) else 1.0
        else:
            target = circ_N(g_win, h_win, fam.with_n_tail(cfg.k))

            def one_sample(i, fam=fam, target=target):
                gen = RandomStream(cfg.seed, 1 + i).generator()
                cols = haar_columns(fam.spec.copy_size, cfg.k, gen, unitary=conj)
                core = sample_core(g_win, h_win, fam, cols.T)
                if conj:
                    est = dist_conjugacy(core, target, max_iters=cfg.max_iters, tol=cfg.tol)
                else:
                    est = dist_double_coset(
                        core, target, max_iters=cfg.max_iters, tol=cfg.tol,
                        restarts=cfg.restarts, rng=gen, stop_below=eps_floor)
                return est.upper_bound

        start = time.perf_counter()
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                distances = list(pool.map(one_sample, range(cfg.samples)))
        else:
            distances = [one_sample(i) for i in range(cfg.samples)]
        elapsed = time.perf_counter() - start

        med = float(np.median(distances))
        mean = float(np.mean(distances))
        for eps in cfg.epsilon_list:
            if cfg.family == "symmetric":
                hits = sum(1 for d in distances if d == 0.0)
            else:
                hits = sum(1 for d in distances if d <= eps)
            lo, hi = wilson_interval(hits, cfg.samples)
            rows.append(ReportRow(
                family=cfg.family, alpha=cfg.alpha, k=cfg.k, m=cfg.m, N=N,
                epsilon=eps, samples=cfg.samples, hits=hits,
                fraction=hits / cfg.samples, ci_low=lo, ci_high=hi,
                median_dist=med, mean_dist=mean, seed=cfg.seed,
                runtime_s=elapsed))
    return ConcentrationReport(tuple(rows))


def run_block_decay(k: int, N_list, samples: int, seed: int) -> list[tuple[int, float, float]]:
    """Median and mean operator norm of the leading k x k block of Haar
    orthogonal (k+N) x (k+N) matrices, per N, each drawn as its first k
    columns only.  The decay of this block is what makes the convolution
    samples collapse onto the product coset."""
    if samples < 30:
        raise ValueError("need samples >= 30 for a stable median")
    out = []
    for bi, N in enumerate(N_list):
        N = int(N)
        w = k + N
        norms = [
            operator_norm(top_block(haar_columns(w, k, RandomStream(seed, bi * samples + i)), k))
            for i in range(samples)
        ]
        out.append((N, float(np.median(norms)), float(np.mean(norms))))
    return out


def write_report(report, path, format: str = "csv") -> None:
    """Write a ConcentrationReport (csv/json) or a block-decay table (csv)."""
    if isinstance(report, ConcentrationReport):
        text = report.to_csv_text() if format == "csv" else report.to_json_text()
    else:  # block-decay rows
        if format == "json":
            text = json.dumps(
                {"rows": [{"N": n, "median_norm": md, "mean_norm": mn} for n, md, mn in report]},
                indent=2) + "\n"
        else:
            text = "N,median_norm,mean_norm\n" + "".join(
                f"{n},{md!r},{mn!r}\n" for n, md, mn in report)
    write_text(text, path)


def write_text(text: str, path) -> None:
    """Write text to the file at path, or to stdout when path is None.

    Raises OSError naming the destination when the write fails.
    """
    try:
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w") as fh:
                fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write to {'stdout' if path is None else path}: {exc}") from exc
