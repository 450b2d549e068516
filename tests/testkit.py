"""Report and distribution views that only tests read; the package's own
callers (the CLI and the sweep) never need them."""

from dataclasses import replace

from cosetlab.experiments import ConcentrationReport


def zeroed_runtime(report: ConcentrationReport) -> ConcentrationReport:
    """Copy of report with runtime_s = 0.0 everywhere: its only non-deterministic column."""
    return ConcentrationReport(tuple(replace(r, runtime_s=0.0) for r in report.rows))


def fractions_by_N(report: ConcentrationReport, epsilon: float) -> dict:
    """Hit fraction per N of report's rows at epsilon."""
    return {r.N: r.fraction for r in report.rows if r.epsilon == epsilon}


def max_atom(dist):
    """(representative, probability) of an ExactDistribution's most likely atom."""
    return max(dist.atoms, key=lambda a: a[1])
