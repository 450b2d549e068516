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
from dataclasses import MISSING, dataclass, field, fields
from io import StringIO
from statistics import NormalDist

import numpy as np

from .blockmat import BlockSpec, embed, load_source, tail_sizes
from .cosets import GroupFamily, circ_N, sample_core, sample_core_stack
from .geometry import dist_conjugacy_stack, dist_double_coset_stack, sym_membership
from .haar import (
    _CHUNK,
    RandomStream,
    _block_normals,
    _chunk_streams,
    _draw,
    _pattern_draw,
    _patterns_at,
    _sample_rows,
    _top_blocks,
)

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

# Bytes per stacked solver call; a block holds as many samples as fit, filled
# in N order, then sample order, so it may hold samples of several N.  Per
# sample of core dimension d, tracemalloc (solvers capped at 2 steps) reads
# 93-165 d^2 bytes for the Procrustes solver, draw and core included (d = 3..17;
# the low end when most lanes stop at the identity start), counted as 175 d^2,
# and 2 KB plus 234-409 d^2 for the conjugation solver's three lanes (d = 3..9,
# alpha = 1; a full block peaks at 0.65-0.86 of this budget), counted as 2 KB +
# 480 d^2, a worst case: where frame starts decide most samples, one peaked at 0.21.
# Dense Sylvester maps are built, and the k = 1 Gram sign table is scored, in
# stacks of at most 512 KiB (``geometry._SCRATCH_BYTES``; a Sylvester chunk may
# be one lane) and A holds O(k^2) numbers (``haar._block_normals``), so nothing
# here grows with the block or with N.
_BLOCK_BYTES = 4 << 20


@dataclass(frozen=True)
class ExperimentConfig:
    """One concentration sweep: fixed (g, h), varying tail size N.

    g_spec / h_spec are matrix-source strings: "random_unitary" (one Haar
    window draw per experiment, from the seed's stream 0, g before h; a uniform
    window permutation for the symmetric family) or any window-size source
    that ``blockmat.load_source`` reads.  The unitary solvers run at most 200
    steps per start (``geometry._MAX_ITERS``).
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

    def __post_init__(self):
        for name in ("g_spec", "h_spec"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a matrix source; got {getattr(self, name)!r}")
        for name in ("alpha", "k", "m", "samples", "seed"):
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
        object.__setattr__(self, "epsilon_list", tuple(float(e) for e in self.epsilon_list))
        # raises for a bad window shape, an unknown family or conjugation with m != 1
        GroupFamily(self.family, BlockSpec(self.alpha, self.k, 0, self.m))
        object.__setattr__(self, "N_list", tail_sizes(self.N_list, self.k))
        if not self.N_list:
            raise ValueError("N_list must be nonempty")
        if not self.epsilon_list or not all(0 < e < math.inf for e in self.epsilon_list):
            raise ValueError("epsilon_list must be nonempty, positive and finite")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0; got {self.seed}")

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


CSV_COLUMNS = tuple(f.name for f in fields(ReportRow))


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



class BlockDecayReport(tuple):
    """Block-decay rows (N, median_norm, mean_norm), one per N in sweep order.

    A plain tuple of the rows, so callers index and unpack them directly."""

    def to_csv_text(self) -> str:
        return "N,median_norm,mean_norm\n" + "".join(f"{n},{md!r},{mn!r}\n" for n, md, mn in self)

    def to_json_text(self) -> str:
        rows = [{"N": n, "median_norm": md, "mean_norm": mn} for n, md, mn in self]
        return json.dumps({"rows": rows}, indent=2) + "\n"


def _median(values) -> float:
    """np.median of a nonempty 1-D array, bit for bit, from one sort: np.median
    imports numpy.ma on its first call, which sweeps need nowhere else."""
    s = np.sort(values)
    h = len(s) // 2
    return float(s[h] if len(s) % 2 else (s[h - 1] + s[h]) / 2)


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


def run_concentration(cfg: ExperimentConfig) -> ConcentrationReport:
    """Run the sweep: for each N draw samples, reduce each to its core and
    report per-(N, epsilon) hit fractions.

    Sample i's middle draw is row i mod 256 of one draw of 256 from stream
    (seed, 1 + i // 256) (``haar._sample_rows``), and the solvers read no
    stream, so sample i's distance depends only on the seed, i and N, and
    reports are reproducible.  Every N reuses the same streams.  A sample
    draws only the leading k x k block A of its middle Haar element, or the
    core pattern of its middle permutation, and is solved as its core
    (``cosets.sample_core``), a function of A or of the pattern alone, of
    dimension alpha + 2mk against the product target at tail size k.  A
    (``haar._block_normals``) and the pattern are drawn from their laws at
    tail size N, at a cost that does not depend on N, so any N runs.  Unitary
    samples run as stacks in blocks of about 4 MB (``_BLOCK_BYTES``: about
    175 d^2 bytes per orthogonal and 2 KB plus 480 d^2 per conjugation sample
    of core dimension d), filled in N order, then sample order, so a block may
    hold the end of one N and the start of the next.  The QR that turns rows
    of Gaussians into A (``haar._top_blocks``) runs on one 256-sample chunk
    of one N; each block's cores (``cosets.sample_core_stack``) and solve
    (``geometry.dist_conjugacy_stack`` or ``dist_double_coset_stack``) run as
    one stack, each lane's core and estimate exactly those of a stack of one
    with the sweep's stops on that sample's A, so each N's rows are those of
    a sweep over that N alone.
    A row's runtime_s is the sum of its N's per-sample time shares: each
    unitary chunk's draw and QR time, and each block's core and solve time,
    is spread evenly over the samples it served.
    A symmetric sample's pattern, ``cosets.core_images`` of its middle
    permutation's k active images, is drawn directly from its law
    (``haar._core_patterns``).  Only the pattern's tail thresholds depend on
    N, so the symmetric sweep runs chunk by chunk: each chunk's uniforms and
    their order are drawn once (``haar._pattern_draw``), and every N derives
    its patterns from that one draw (``haar._patterns_at``).  The draw's
    time is spread evenly over the chunk's samples at every N, and each N's
    pattern pass and membership tests over that N's samples of the chunk.
    Each pattern's membership is tested once per sweep, at its first sample
    (of the first N to meet it), and reused for every later sample and N
    with that pattern.  The samples follow tau_tilde; the outer
    draws of tau_full leave the core unchanged, so that measure gives the same
    report.  Symmetric hits are exact membership verdicts recorded as 0/1
    distances; unitary distances are witnessed upper bounds for the sample.
    The solvers take min(epsilon_list) as ``stop_below`` and max(epsilon_list)
    as ``stop_above``: a sample stops at a bound at most the first or a lower
    bound above the second, so every hit count is the full run's, but
    median_dist and mean_dist summarize bounds cut off there: a conjugation
    sample's least start bound by the first stage that decides it (0: the
    frame start J, at most 2 phi(||A||), where most far-tail samples stop;
    1: spectral; 2: Sylvester), an orthogonal one's identity run.
    """
    rows = []
    for N, dists, elapsed in _sweep_distances(cfg):
        med, mean = _median(dists), float(np.mean(dists))
        for eps in cfg.epsilon_list:
            hits = int(np.count_nonzero(dists == 0.0 if cfg.family == "symmetric" else dists <= eps))
            lo, hi = wilson_interval(hits, cfg.samples)
            rows.append(ReportRow(
                family=cfg.family, alpha=cfg.alpha, k=cfg.k, m=cfg.m, N=N,
                epsilon=eps, samples=cfg.samples, hits=hits,
                fraction=hits / cfg.samples, ci_low=lo, ci_high=hi,
                median_dist=med, mean_dist=mean, seed=cfg.seed,
                runtime_s=elapsed))
    return ConcentrationReport(tuple(rows))


def _sweep_distances(cfg: ExperimentConfig):
    """(N, the samples' distances in order as an array, seconds) for each N, in order.

    Two tables hold every sample, one lane per sample, N by N, then sample by
    sample: its distance and its share of the sweep's time.  A unitary chunk
    is drawn once per N, and its draw and QR time is spread evenly over its
    lanes, as is a block's core and solve time.  A symmetric chunk is drawn
    once per sweep (``haar._pattern_draw``), and its draw time is spread
    evenly over its lanes at every N; each N then derives the chunk's
    patterns (``haar._patterns_at``) and looks up their verdicts, a time
    spread over that N's lanes of the chunk, so a membership test is charged
    to the N that first meets its pattern.  An N's seconds are the sum of
    its lanes."""
    setup_gen = RandomStream(cfg.seed, 0).generator()
    fam0 = GroupFamily(cfg.family, BlockSpec(cfg.alpha, cfg.k, cfg.k, cfg.m))
    kind = "permutation" if cfg.family == "symmetric" else "unitary"
    g_win, h_win = (load_source(src, fam0.spec.window, lambda n: _draw(kind, n, setup_gen))
                    for src in (cfg.g_spec, cfg.h_spec))
    target = circ_N(g_win, h_win, fam0)
    conj = cfg.family == "unitary_conjugation"
    h_core = embed(h_win, fam0.spec)  # sample_core takes h embedded at core size
    dist, seconds = np.empty((2, len(cfg.N_list) * cfg.samples))

    def chunks(draw, prepare):
        # (first lane, prepared rows) for each chunk of samples, in lane order
        lane = 0
        for N in cfg.N_list:
            start = time.perf_counter()
            for rows in _sample_rows(cfg.seed, cfg.samples, lambda gen, count: draw(N, gen, count)):
                rows = prepare(rows)
                seconds[lane:lane + len(rows)] = (time.perf_counter() - start) / len(rows)
                yield lane, rows
                lane, start = lane + len(rows), time.perf_counter()

    if cfg.family == "symmetric":
        # chunk by chunk: one draw serves the chunk's lanes at every N
        verdicts = {}  # distance per core pattern (0 for a hit), for every N
        start = time.perf_counter()
        for lo, n, gen in _chunk_streams(cfg.seed, cfg.samples):
            drawn = [a[:n] for a in _pattern_draw(cfg.k, gen, _CHUNK)]
            share = (time.perf_counter() - start) / (n * len(cfg.N_list))
            for lane, N in zip(range(lo, len(dist), cfg.samples), cfg.N_list):
                start = time.perf_counter()
                keys = list(map(tuple, _patterns_at(cfg.k, N, drawn).tolist()))
                for key in set(keys).difference(verdicts):
                    verdicts[key] = 0.0 if sym_membership(sample_core(g_win, h_core, fam0, key),
                                                          target) else 1.0
                dist[lane:lane + n] = list(map(verdicts.__getitem__, keys))
                seconds[lane:lane + n] = share + (time.perf_counter() - start) / n
            start = time.perf_counter()
    else:
        # blocks fill in lane order, so one may hold the end of one N and the
        # start of the next; held is the filling block's stack of A
        d = fam0.spec.dim
        block = max(1, _BLOCK_BYTES // (2048 + 480 * d * d if conj else 175 * d * d))
        solve = dist_conjugacy_stack if conj else dist_double_coset_stack
        held = np.empty((block, cfg.k, cfg.k), complex if conj else float)
        for lane, a in chunks(lambda N, gen, count: _block_normals(cfg.k, N, gen, conj, count),
                              lambda z: _top_blocks(z, conj)):
            while len(a):
                at = lane % block  # the place of lane in its block
                n = min(len(a), block - at)
                held[at:at + n], a, lane = a[:n], a[n:], lane + n
                if at + n == block or lane == len(dist):
                    lo, start = lane - at - n, time.perf_counter()
                    dist[lo:lane] = solve(sample_core_stack(g_win, h_core, fam0, held[:lane - lo]),
                                          target, stop_below=min(cfg.epsilon_list),
                                          stop_above=max(cfg.epsilon_list))[0]
                    seconds[lo:lane] += (time.perf_counter() - start) / (lane - lo)
    shape = (len(cfg.N_list), cfg.samples)
    return list(zip(cfg.N_list, dist.reshape(shape), seconds.reshape(shape).sum(axis=1).tolist()))


def run_block_decay(k: int, N_list, samples: int, seed: int) -> BlockDecayReport:
    """Median and mean operator norm of the leading k x k block of Haar
    orthogonal (k+N) x (k+N) matrices, per N.  The decay of this block is
    what makes the convolution samples collapse onto the product coset.

    Sample i's block is row i mod 256 of one draw of 256 from stream
    (seed, 1 + i // 256), as in ``run_concentration``, and every N reuses the
    same streams.  A draw (``haar._block_normals``) costs the same at any N,
    so any N runs.  Each chunk's blocks (one stacked QR) and their norms (one
    stacked SVD) are taken as the chunk is drawn, and only the norms are
    kept, so memory holds one chunk's draws and the norms.
    Raises ValueError, before any draw, for samples not an integer >= 30,
    k not an integer >= 1, or an N that is not an integer >= 0."""
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) or samples < 30:
        raise ValueError(f"need an integer samples >= 30 for a stable median; got {samples!r}")
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"k must be an integer >= 1; got {k!r}")
    out = []
    for N in tail_sizes(N_list):
        norms = np.concatenate([np.linalg.norm(_top_blocks(z), 2, axis=(1, 2))
                                for z in _sample_rows(seed, samples, lambda gen, count:
                                                      _block_normals(k, N, gen, count=count))])
        out.append((N, _median(norms), float(np.mean(norms))))
    return BlockDecayReport(out)


def write_report(report, path, format: str = "csv") -> None:
    """Write a ConcentrationReport or BlockDecayReport as csv or json, or
    raise ValueError naming any other format before writing."""
    if format not in ("csv", "json"):
        raise ValueError(f"unknown report format {format!r}; expected 'csv' or 'json'")
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
