"""One workload in a fresh process: untimed warm-up, timed passes, checks.

run.py starts this with the BLAS thread pins set and src/ on PYTHONPATH, and
reads the JSON object it prints last.  With --setup-only it stops once
cosetlab is imported and the workload's configs are validated; run.py times
that from outside as the set-up time.

An untraced run makes as many passes as --seconds holds at the tuning host's
speed (workloads.passes_for), each call with a seed of its own, then repeats
the first call untimed to check that it is reproducible.  A traced run makes
one untraced pass and the same pass again traced.  The reference kernel
(reference.py) runs between every two calls.

    python3 perfbench/worker.py --workload orth_sweep --seed 1 --seconds 30 \\
        --trace 0 --out-dir .perfbench_out
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import layers
import workloads
from reference import Scaler
from tracer import Tracer, count_failures


@dataclass
class Outcome:
    call: workloads.Call
    wall_s: float
    scale: float
    ok: bool
    value: object
    error: str | None

    @property
    def ops(self) -> int:
        return self.call.ops

    @property
    def ref_wall_s(self) -> float:
        """Wall time at reference speed."""
        return self.wall_s * self.scale


def run_pass(calls, scaler: Scaler, tracer: Tracer | None = None) -> list[Outcome]:
    out = []
    for call in calls:
        span = tracer.open("bench.call") if tracer else None
        start = time.perf_counter()
        try:
            value, ok, error = call.run(), True, None
        except workloads.CallFailed as exc:
            value, ok, error = None, False, str(exc)
        except Exception:  # a call that raises fails its operations; the run goes on
            value, ok, error = None, False, traceback.format_exc(limit=3)
        wall = time.perf_counter() - start
        if span is not None:
            tracer.close(span)
        out.append(Outcome(call, wall, scaler.close(), ok, value, error))
    return out


def answers(passes) -> list:
    return [(o.call, o.value) for p in passes for o in p if o.ok]


def concentration_rows(passes) -> list[tuple[dict, float]]:
    """(report row, scale of its call) of every concentration call."""
    return [(r, o.scale) for p in passes for o in p
            if o.ok and o.call.kind == "concentration" for r in o.value]


def per_sample_ms(passes, pick) -> float:
    """Time per sample at reference speed at the largest (pick=max) or smallest
    (pick=min) timed N, pooled over the passes."""
    rows = concentration_rows(passes)
    N = pick(r["N"] for r, _ in rows)
    at_n = [(r, f) for r, f in rows if r["N"] == N]
    return 1e3 * sum(r["runtime_s"] * f for r, f in at_n) / sum(r["samples"] for r, _ in at_n)


def pass_wall_s(p) -> float:
    return sum(o.ref_wall_s for o in p)


def end_to_end(passes) -> dict:
    """Times are at reference speed (reference.py).  wall_s is the median pass,
    the per-sample time and the hit fractions pool over all passes."""
    counts = workloads.counts(answers(passes))
    big, small = max(counts), min(counts)
    return {
        "wall_s": statistics.median(pass_wall_s(p) for p in passes),
        "max_n_sample_ms": per_sample_ms(passes, max),
        "hit_frac_max_n": counts[big][0] / counts[big][1],
        "hit_frac_min_n": counts[small][0] / counts[small][1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def strip_runtime(value):
    if isinstance(value, list) and all(isinstance(r, dict) for r in value):
        return [{k: v for k, v in r.items() if k != "runtime_s"} for r in value]
    return value


def reproducible(first: list[Outcome], again: list[Outcome]) -> tuple[str, bool, str]:
    """The same calls give the same answers apart from runtime_s."""
    same = len(first) == len(again) and all(
        a.ok and b.ok and strip_runtime(a.value) == strip_runtime(b.value)
        for a, b in zip(first, again))
    return ("reports.reproducible", same, ", ".join(o.call.name for o in again))


def traced_metrics(untraced, traced, spans, probe) -> dict:
    metrics = layers.layer_metrics(spans)
    traced_raw = sum(o.wall_s for o in traced)
    verify_share = metrics["trace.verify_ms"] / 1e3 / traced_raw
    metrics["trace.wall_ms"] = 1e3 * traced_raw
    metrics["trace.overhead_frac"] = (
        pass_wall_s(traced) * (1.0 - verify_share) / pass_wall_s(untraced) - 1.0)
    rows = [r for r, _ in concentration_rows([untraced])]
    metrics["experiments.mean_dist_max_n"] = (
        max(rows, key=lambda r: r["N"])["mean_dist"] if rows else 0.0)
    metrics["experiments.min_n_sample_ms"] = per_sample_ms([untraced], min)
    metrics["cli.probe_failed_frac"] = probe["failed"] / probe["attempted"] if probe else 0.0
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    fixture = workloads.write_fixture(args.out_dir)
    workloads.validate_configs(args.workload, fixture, args.seed)
    if args.setup_only:
        return 0

    scaler = Scaler()
    run_pass(workloads.build(args.workload, args.seed, 0, fixture, warmup=True), scaler)

    n_passes = 1 if args.trace else workloads.passes_for(args.workload, args.seconds)
    plans = [workloads.build(args.workload, args.seed, i, fixture) for i in range(n_passes)]
    passes = [run_pass(calls, scaler) for calls in plans]
    spans = []
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
        try:
            again = run_pass(plans[0], scaler, tracer)
        finally:
            tracer.unpatch()
        spans = tracer.spans
    else:
        # untimed: the first call of the run once more, to show it is reproducible
        again = run_pass(plans[0][:1], scaler)
    checked = passes + [again]

    checks = workloads.check(args.workload, answers(passes))
    checks.append(reproducible(passes[0][:len(again)], again))
    attempted, failed = count_failures(o for p in checked for o in p)
    errors = [f"{o.call.name}: {o.error}" for p in checked for o in p if not o.ok]
    metrics = {} if args.trace or errors else end_to_end(passes)

    probe_call = workloads.probe(args.workload, args.seed) if args.trace else None
    probe = None
    if probe_call is not None:
        (outcome,) = run_pass([probe_call], scaler)
        p_attempted, p_failed = count_failures([outcome])
        probe = {"name": outcome.call.name, "attempted": p_attempted, "failed": p_failed,
                 "error": outcome.error}

    result = {"attempted": attempted, "failed": failed, "errors": errors, "probe": probe,
              "reference_s": scaler.runs,
              "passes": [[{"name": o.call.name, "ops": o.ops, "wall_s": o.wall_s,
                           "scale": o.scale, "ok": o.ok} for o in p] for p in checked]}
    if args.trace:
        metrics = traced_metrics(passes[0], again, spans, probe)
        gap = metrics["geometry.verify_gap_max"]
        checks.append(("trace.verify_gap", gap <= 1e-9, f"{gap:.3g}"))
        spans_path = args.out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w") as fh:
            for s in spans:
                fh.write(json.dumps(s.as_dict()) + "\n")
        result["spans_file"] = str(spans_path)
    result["metrics"] = metrics
    result["checks"] = [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
