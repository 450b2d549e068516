"""Monte Carlo sweeps measuring how convolution samples concentrate on the
product coset as the tail size grows, plus the corner-block decay study that
drives the effect, with reproducible seeds and machine-readable reports.
Wilson intervals take their normal quantile from the standard library's
``statistics.NormalDist``, so this module loads no scipy.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
import time
from collections.abc import Iterable
from dataclasses import MISSING, dataclass, field, fields, replace
from io import StringIO
from statistics import NormalDist

import numpy as np

from .blockmat import BlockMatrix, BlockSpec, embed, load_source, operator_norm
from .cosets import GroupFamily, circ_N, sample_core
from .geometry import dist_conjugacy_stack, dist_double_coset_stack, sym_membership
from .haar import RandomStream, haar_columns, haar_unitary, top_block, uniform_permutation

__all__ = [
    "ExperimentConfig",
    "ReportRow",
    "ConcentrationReport",
    "BlockDecayReport",
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

# Bytes per stacked solver call; a block holds as many samples as fit.  Per
# sample, the Procrustes stack holds about 160 d^2 bytes, and the conjugation
# solver's dense Sylvester map and its SVD about 48 d^2 (1 + w^2), w = d - alpha.
_BLOCK_BYTES = 4 << 20


@dataclass(frozen=True)
class ExperimentConfig:
    """One concentration sweep: fixed (g, h), varying tail size N.

    g_spec / h_spec are matrix-source strings: "random_unitary" (one Haar
    window draw per experiment, from the seed's stream 0, g before h; a uniform
    window permutation for the symmetric family) or any window-size source
    that ``blockmat.load_source`` reads.
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
    restarts: int = 10
    max_iters: int = 200
    tol: float = 1e-12

    def __post_init__(self):
        for name in ("g_spec", "h_spec"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a matrix source; got {getattr(self, name)!r}")
        for name in ("alpha", "k", "m", "samples", "seed", "restarts", "max_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer; got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("N_list", "epsilon_list"):
            value = getattr(self, name)
            if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
                raise ValueError(f"{name} must be a list of numbers; got {value!r}")
            value = tuple(value)
            if any(isinstance(v, bool) or not isinstance(v, numbers.Real) for v in value):
                raise ValueError(f"{name} must be a list of numbers; got {list(value)!r}")
            object.__setattr__(self, name, value)
        if not all(float(n).is_integer() for n in self.N_list):
            raise ValueError(f"every N must be an integer; got {list(self.N_list)}")
        object.__setattr__(self, "N_list", tuple(int(n) for n in self.N_list))
        object.__setattr__(self, "epsilon_list", tuple(float(e) for e in self.epsilon_list))
        # raises for a bad window shape, an unknown family or conjugation with m != 1
        GroupFamily(self.family, BlockSpec(self.alpha, self.k, 0, self.m))
        for n in self.N_list:
            if n < self.k:
                raise ValueError(f"every N must be >= k; got N={n} < k={self.k}")
        if not self.N_list:
            raise ValueError("N_list must be nonempty")
        if not self.epsilon_list or not all(0 < e < math.inf for e in self.epsilon_list):
            raise ValueError("epsilon_list must be nonempty, positive and finite")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1; got {self.restarts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1; got {self.max_iters}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0; got {self.seed}")
        if isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real):
            raise ValueError(f"tol must be a number; got {self.tol!r}")
        object.__setattr__(self, "tol", float(self.tol))
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be finite and >= 0; got {self.tol}")

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(data)
        if missing:
            raise ValueError(f"missing config fields: {sorted(missing)}")
        return cls(**data)

    def to_json_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        return {key: list(v) if isinstance(v, tuple) else v for key, v in data.items()}


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


class BlockDecayReport(tuple):
    """Block-decay rows (N, median_norm, mean_norm), one per N in sweep order.

    A plain tuple of the rows, so callers index and unpack them directly."""

    def to_csv_text(self) -> str:
        return "N,median_norm,mean_norm\n" + "".join(f"{n},{md!r},{mn!r}\n" for n, md, mn in self)

    def to_json_text(self) -> str:
        rows = [{"N": n, "median_norm": md, "mean_norm": mn} for n, md, mn in self]
        return json.dumps({"rows": rows}, indent=2) + "\n"


def wilson_interval(hits: int, samples: int, confidence: float = 0.95):
    """Wilson score interval for a binomial proportion, as Python floats; the
    ends are exactly 0.0 at zero hits and 1.0 at full hits."""
    if not 0 <= hits <= samples or samples < 1:
        raise ValueError("need 0 <= hits <= samples and samples >= 1")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must lie strictly between 0 and 1; got {confidence}")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
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
    if source == "random_unitary":
        if family.kind == "symmetric":
            elem = BlockMatrix.from_permutation(uniform_permutation(window, gen))
        else:
            elem = BlockMatrix(haar_unitary(window, gen))
    else:
        elem = load_source(source, window)
    if family.kind == "symmetric" and elem.exact_permutation is None:
        raise ValueError("symmetric family needs exact permutation g/h")
    return elem


def run_concentration(cfg: ExperimentConfig) -> ConcentrationReport:
    """Run the sweep: for each N draw samples, reduce each to its core and
    report per-(N, epsilon) hit fractions.

    Samples are drawn in order.  Sample i uses the dedicated stream
    (seed, 1 + i) for both its middle draw and any solver restarts, so
    reports are reproducible.  Unitary cores are solved as one stack per block
    of about 4 MB (``geometry.dist_conjugacy_stack`` or
    ``dist_double_coset_stack``), each lane exactly its per-sample estimate;
    symmetric samples go one at a time.  A sample draws only the first k rows
    of its middle Haar element, or the k active images of its middle
    permutation (O(k) for any N), and is solved as its core (``cosets.sample_core``) of dimension
    alpha + 2mk against the product target at tail size k, so its cost does
    not grow with N.  The samples follow tau_tilde; the outer draws of
    tau_full leave the core unchanged, so that measure gives the same report.
    Symmetric hits are exact membership verdicts recorded as 0/1 distances;
    unitary distances are witnessed upper bounds for the sample.
    """
    setup_gen = RandomStream(cfg.seed, 0).generator()
    fam0 = GroupFamily(cfg.family, BlockSpec(cfg.alpha, cfg.k, cfg.k, cfg.m))
    g_win = _resolve_window_element(cfg.g_spec, fam0, setup_gen)
    h_win = _resolve_window_element(cfg.h_spec, fam0, setup_gen)
    target = circ_N(g_win, h_win, fam0)
    eps_floor = min(cfg.epsilon_list)
    sym = cfg.family == "symmetric"
    conj = cfg.family == "unitary_conjugation"
    # sample_core takes h, and the symmetric g, embedded at core size (fam0's spec)
    g_core, h_core = (embed(g_win, fam0.spec) if sym else g_win), embed(h_win, fam0.spec)
    d = fam0.spec.dim
    lane_bytes = 48 * d * d * (1 + (d - cfg.alpha) ** 2) if conj else 160 * d * d
    block = max(1, _BLOCK_BYTES // lane_bytes)

    def core_of(i, fam):
        gen = RandomStream(cfg.seed, 1 + i).generator()
        if sym:
            draw = gen.choice(fam.spec.copy_size, cfg.k, replace=False) + 1
        else:
            draw = haar_columns(fam.spec.copy_size, cfg.k, gen, unitary=conj).T
        return sample_core(g_core, h_core, fam, draw), gen

    def unitary_block(lo, fam):
        drawn = [core_of(i, fam) for i in range(lo, min(lo + block, cfg.samples))]
        cores = np.stack([core.entries for core, _ in drawn])
        if conj:
            ests = dist_conjugacy_stack(cores, target, max_iters=cfg.max_iters, tol=cfg.tol)
        else:
            ests = dist_double_coset_stack(
                cores, target, [gen for _, gen in drawn], max_iters=cfg.max_iters,
                tol=cfg.tol, restarts=cfg.restarts, stop_below=eps_floor)
        return [est.upper_bound for est in ests]

    rows = []
    for N in cfg.N_list:
        fam = GroupFamily(cfg.family, BlockSpec(cfg.alpha, cfg.k, N, cfg.m))
        start = time.perf_counter()
        if sym:
            distances = [0.0 if sym_membership(core_of(i, fam)[0], target) else 1.0
                         for i in range(cfg.samples)]
        else:
            distances = [d for lo in range(0, cfg.samples, block)
                         for d in unitary_block(lo, fam)]
        elapsed = time.perf_counter() - start

        med = float(np.median(distances))
        mean = float(np.mean(distances))
        for eps in cfg.epsilon_list:
            if sym:
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


def run_block_decay(k: int, N_list, samples: int, seed: int) -> BlockDecayReport:
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
    return BlockDecayReport(out)


def write_report(report, path, format: str = "csv") -> None:
    """Write a ConcentrationReport or BlockDecayReport as csv or json."""
    write_text(report.to_csv_text() if format == "csv" else report.to_json_text(), path)


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
