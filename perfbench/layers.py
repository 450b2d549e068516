"""Which cosetlab functions the traced run wraps, and the per-layer metrics
computed from the spans.

Layers are the package's modules.  Spans are opened by the benchmark's own
wrappers around the public functions; nothing inside the package changes.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

import cosetlab.blockmat as blockmat
import cosetlab.cli as cli
import cosetlab.cosets as cosets
import cosetlab.experiments as experiments
import cosetlab.geometry as geometry
import cosetlab.haar as haar
import cosetlab.hypergroup_exact as hypergroup_exact
from tracer import Tracer, p_hi, self_times

PACKAGE = "cosetlab"
# Span names of the program's layers; "bench.call" and "trace.verify" are the
# benchmark's own time.
LAYER_SPANS = (
    "haar.draw", "blockmat.matmul", "blockmat.embed", "blockmat.perm_matrix",
    "cosets.sample", "cosets.circ_n", "geometry.dist_double_coset",
    "geometry.dist_conjugacy", "geometry.sym_membership",
    "hypergroup_exact.concentration_exact", "hypergroup_exact.exact_convolution",
    "experiments.run_concentration", "experiments.run_block_decay", "cli.main",
)
VERIFY_SPAN = "trace.verify"


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions; tracer.unpatch() undoes it."""

    def next_sample(args, kwargs):
        tracer.sample = tracer.sample + 1 if tracer.sample is not None else 0

    def reset_sample(args, kwargs):
        tracer.sample = None

    def record_estimate(span, args, kwargs, est):
        # re-verify the witnesses in a span of its own, so layer times exclude it
        span.info["iters"] = est.iterations
        span.info["converged"] = bool(est.converged)
        check = tracer.open(VERIFY_SPAN)
        try:
            value = geometry.verify_estimate(est, _arg(args, kwargs, 0, "x"),
                                             _arg(args, kwargs, 1, "target"))
        finally:
            tracer.close(check)
        check.info["gap"] = abs(value - est.upper_bound)

    def record_draws(span, args, kwargs, dist):
        span.info["draws"] = math.factorial(_arg(args, kwargs, 2, "family").spec.copy_size)

    fn = tracer.patch_function
    for draw in (haar.haar_orthogonal, haar.haar_unitary, haar.uniform_permutation):
        fn(PACKAGE, draw, "haar.draw")
    tracer.patch_method(blockmat.BlockMatrix, "__matmul__", "blockmat.matmul")
    tracer.patch_method(blockmat.PermutationWord, "matrix", "blockmat.perm_matrix")
    fn(PACKAGE, blockmat.embed, "blockmat.embed")
    fn(PACKAGE, blockmat.embed_k, "blockmat.embed")
    fn(PACKAGE, cosets.sample_tau_tilde, "cosets.sample", before=next_sample)
    fn(PACKAGE, cosets.sample_tau_full, "cosets.sample", before=next_sample)
    fn(PACKAGE, cosets.circ_N, "cosets.circ_n")
    fn(PACKAGE, geometry.dist_double_coset, "geometry.dist_double_coset", after=record_estimate)
    fn(PACKAGE, geometry.dist_conjugacy, "geometry.dist_conjugacy", after=record_estimate)
    fn(PACKAGE, geometry.sym_membership, "geometry.sym_membership")
    fn(PACKAGE, hypergroup_exact.concentration_exact, "hypergroup_exact.concentration_exact")
    fn(PACKAGE, hypergroup_exact.exact_convolution, "hypergroup_exact.exact_convolution",
       after=record_draws)
    fn(PACKAGE, experiments.run_concentration, "experiments.run_concentration")
    fn(PACKAGE, experiments.run_block_decay, "experiments.run_block_decay")
    fn(PACKAGE, cli.main, "cli.main", before=reset_sample)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer figures from one traced pass.  A layer a workload never calls
    reads 0; so do tail figures with too few calls (see p_hi)."""
    st = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    by_id = {s.id: s for s in spans}

    def calls(name):
        return len(by_name[name])

    def self_ms(*names):
        return 1e3 * sum(st[s.id] for n in names for s in by_name[n])

    def durations(name):
        return [s.end - s.start for s in by_name[name]]

    def has_ancestor(span, prefix):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name.startswith(prefix):
                return True
        return False

    out = {}
    out["haar.draw.calls"] = calls("haar.draw")
    out["haar.draw.self_ms"] = self_ms("haar.draw")
    out["haar.draw.p50_us"] = 1e6 * _median(durations("haar.draw"))
    for name in ("blockmat.matmul", "blockmat.embed", "blockmat.perm_matrix"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_ms"] = self_ms(name)
    out["cosets.sample.calls"] = calls("cosets.sample")
    out["cosets.sample.self_ms"] = self_ms("cosets.sample")
    out["cosets.sample.p50_ms"] = 1e3 * _median(durations("cosets.sample"))
    out["cosets.circ_n.self_ms"] = self_ms("cosets.circ_n")

    for name in ("geometry.dist_double_coset", "geometry.dist_conjugacy"):
        spans_n = by_name[name]
        tail = p_hi(durations(name))
        out[f"{name}.calls"] = len(spans_n)
        out[f"{name}.self_ms"] = self_ms(name)
        out[f"{name}.p50_ms"] = 1e3 * _median(durations(name))
        out[f"{name}.p_hi_ms"] = 1e3 * tail[1] if tail else 0.0
        out[f"{name}.p_hi_pct"] = tail[0] if tail else 0.0
        out[f"{name}.p_hi_beyond"] = tail[2] if tail else 0
        out[f"{name}.iters_mean"] = (statistics.fmean(s.info["iters"] for s in spans_n)
                                     if spans_n else 0.0)
        out[f"{name}.converged_frac"] = (sum(s.info["converged"] for s in spans_n) / len(spans_n)
                                         if spans_n else 0.0)
    ddc = {s.id for s in by_name["geometry.dist_double_coset"]}
    restart_draws = sum(1 for s in by_name["haar.draw"] if s.parent in ddc)
    out["geometry.dist_double_coset.restart_draws_per_call"] = (
        restart_draws / len(ddc) if ddc else 0.0)

    out["geometry.sym_membership.calls"] = calls("geometry.sym_membership")
    out["geometry.sym_membership.self_ms"] = self_ms("geometry.sym_membership")
    out["geometry.sym_membership.p50_us"] = 1e6 * _median(durations("geometry.sym_membership"))
    out["geometry.verify_gap_max"] = max((s.info["gap"] for s in by_name[VERIFY_SPAN]),
                                         default=0.0)

    hx = ("hypergroup_exact.concentration_exact", "hypergroup_exact.exact_convolution")
    draws = sum(s.info["draws"] for s in by_name["hypergroup_exact.exact_convolution"])
    hx_top = [s for n in hx for s in by_name[n] if not has_ancestor(s, "hypergroup_exact.")]
    hx_busy = sum(s.end - s.start for s in hx_top)
    hx_membership = sum(1 for s in by_name["geometry.sym_membership"]
                        if has_ancestor(s, "hypergroup_exact."))
    out["hypergroup_exact.self_ms"] = self_ms(*hx)
    out["hypergroup_exact.draws"] = draws
    out["hypergroup_exact.membership_per_draw"] = hx_membership / draws if draws else 0.0
    out["hypergroup_exact.draws_per_s"] = draws / hx_busy if hx_busy else 0.0

    out["experiments.run_concentration.self_ms"] = self_ms("experiments.run_concentration")
    out["experiments.run_block_decay.self_ms"] = self_ms("experiments.run_block_decay")
    decay = by_name["experiments.run_block_decay"]
    decay_ids = {s.id for s in decay}
    decay_draws = sum(1 for s in by_name["haar.draw"] if s.parent in decay_ids)
    decay_busy = sum(s.end - s.start for s in decay)
    out["experiments.run_block_decay.draws_per_s"] = decay_draws / decay_busy if decay_busy else 0.0
    out["cli.main.self_ms"] = self_ms("cli.main")

    total = sum(st.values())
    out["trace.layer_self_frac"] = self_ms(*LAYER_SPANS) / (1e3 * total) if total else 0.0
    out["trace.verify_ms"] = self_ms(VERIFY_SPAN)
    out["bench.self_ms"] = self_ms("bench.call")
    return out
