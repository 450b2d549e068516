"""Report and distribution views that only tests read; the package's own
callers (the CLI and the sweep) never need them."""

from dataclasses import replace

import numpy as np

import cosetlab.experiments as experiments
from cosetlab.experiments import ConcentrationReport, run_concentration


def zeroed_runtime(report: ConcentrationReport) -> ConcentrationReport:
    """Copy of report with runtime_s = 0.0 everywhere: its only non-deterministic column."""
    return ConcentrationReport(tuple(replace(r, runtime_s=0.0) for r in report.rows))


def fractions_by_N(report: ConcentrationReport, epsilon: float) -> dict:
    """Hit fraction per N of report's rows at epsilon."""
    return {r.N: r.fraction for r in report.rows if r.epsilon == epsilon}


def max_atom(dist):
    """(representative, probability) of an ExactDistribution's most likely atom."""
    return max(dist.atoms, key=lambda a: a[1])


def two_phi(s):
    """2 phi(s), phi(s) = sqrt(2 - 2 sqrt(1 - s^2)): ||core(A) - core(0)|| <= 2 phi(||A||)."""
    return 2.0 * np.sqrt(2.0 - 2.0 * np.sqrt(np.maximum(1.0 - s * s, 0.0)))


def radius_checked(monkeypatch, cfg):
    """run_concentration(cfg) on a unitary family under the radius check, and
    how many (sample, epsilon) pairs lie inside the radius.  core(0) lies in
    the target's coset and a core is within 2 phi(||A||) of it, so every
    sample with 2 phi(||A||) <= epsilon must be a hit at epsilon; A and the
    distances are the sweep's own, recorded as it draws and solves them."""
    blocks, sweeps = [], []

    def record(into, real):
        def recorded(*args):
            into.append(real(*args))
            return into[-1]
        return recorded

    with monkeypatch.context() as patch:
        patch.setattr(experiments, "_top_blocks", record(blocks, experiments._top_blocks))
        patch.setattr(experiments, "_sweep_distances",
                      record(sweeps, experiments._sweep_distances))
        report = run_concentration(cfg)
    radius = two_phi(np.linalg.norm(np.concatenate(blocks), 2, axis=(1, 2)))
    (sweep,) = sweeps
    dist = np.concatenate([d for _, d, _ in sweep])
    inside = 0
    for eps in cfg.epsilon_list:
        assert (dist[radius <= eps] <= eps).all(), (cfg.seed, eps)
        inside += np.count_nonzero(radius <= eps)
    return report, inside
