"""The 15-config comparison that pins the unitary solvers' sweep rows: each
unitary family at (alpha, k) in ``SHAPES``, seeds 1-3, m = 1, random g and
h, 150 samples at N = 8 and 64 and epsilon 0.2 and 0.4.

``python tests/comparison_table.py`` runs every config and prints the table
that ``tests/test_experiments.py`` pins (``COMPARISON_ROWS``) in its literal
form.  A change that moves a row re-pins it with this command and lists the
moves.
"""

from cosetlab.experiments import ExperimentConfig, run_concentration

FAMILIES = ("unitary_orthogonal", "unitary_conjugation")
SHAPES = ((1, 1), (0, 1), (2, 1), (1, 2), (0, 2))
SEEDS = (1, 2, 3)


def config(family, alpha, k, seed):
    return ExperimentConfig(family=family, alpha=alpha, k=k, m=1, N_list=(8, 64),
                            epsilon_list=(0.2, 0.4), samples=150, seed=seed)


def pinned(report):
    """A report's pinned entry: the hits of its rows, in row order, and
    (median_dist, mean_dist) per N, which its rows at that N share."""
    rows = report.rows
    return [row.hits for row in rows], [(row.median_dist, row.mean_dist) for row in rows[::2]]


def table_text():
    """``COMPARISON_ROWS`` as the Python literal the test file holds."""
    lines = ["COMPARISON_ROWS = {"]
    for family in FAMILIES:
        lines.append(f'    "{family}": {{')
        for alpha, k in SHAPES:
            lines.append(f"        ({alpha}, {k}): (")
            for seed in SEEDS:
                hits, dists = pinned(run_concentration(config(family, alpha, k, seed)))
                pairs = ", ".join(f"({md:.15g}, {mn:.15g})" for md, mn in dists)
                lines.append(f"            ({hits},\n             [{pairs}]),")
            lines.append("        ),")
        lines.append("    },")
    return "\n".join(lines + ["}"])


if __name__ == "__main__":
    print(table_text())
