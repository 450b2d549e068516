"""cosetlab benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload orth_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from src/.
Each workload runs in a fresh single-threaded worker process (BLAS pinned to
one thread).  With --trace 0 the last line of stdout holds the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics, under the keys
correct, attempted, failed and metrics.  The line before it records the
environment.  Full results and spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 5
# Whole run, worker included, must end well inside three minutes.
DEADLINE_S = 170.0
PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "COSETLAB_THREADS": "1",
    # the same dict and set layouts in every process
    "PYTHONHASHSEED": "0",
}
# The reference kernel that brackets each set-up process runs in this process;
# pin it as the worker is pinned.
os.environ.update(PINS)
from reference import Scaler  # noqa: E402


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ, **PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--out-dir", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def measure_setup(workload: str, seed: int, deadline: float) -> tuple[float, list[float]]:
    """Set-up time at reference speed: the median over fresh processes that
    import cosetlab and validate the workload's configs, each timed between
    two runs of the reference kernel.  Also the raw wall times."""
    scaler = Scaler()
    scaled, raw = [], []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        run_worker(["--workload", workload, "--seed", str(seed), "--setup-only"],
                   timeout=deadline - time.monotonic())
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * scaler.close())
    return statistics.median(scaled), raw


def git_head() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown'
    outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cosetlab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "git_head": git_head(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "pins": PINS,
        "seed": seed,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        if not (ROOT / "src" / "cosetlab" / "__init__.py").is_file():
            raise BenchError(f"no cosetlab sources under {ROOT / 'src'}")
        if args.seed < 0 or args.seconds < 1:
            raise BenchError("--seed must be >= 0 and --seconds >= 1")
        OUT_DIR.mkdir(exist_ok=True)
        setup_s, setup_raw = (None, None) if args.trace else measure_setup(
            args.workload, args.seed, deadline)
        proc = run_worker(["--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(args.trace)],
                          timeout=deadline - time.monotonic())
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = dict(result["metrics"])
        if setup_s is not None:
            metrics["setup_s"] = setup_s
        if set(metrics) != set(units):
            raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} differ from "
                             f"BENCHMARK.json; errors: {result['errors']}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    correct = all(c["ok"] for c in result["checks"]) and result["failed"] == 0
    env = environment(args.seed)
    full = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
            "env": env, "correct": correct, "setup_raw_s": setup_raw, **result,
            "metrics": metrics}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(full, indent=1) + "\n")
    for c in result["checks"]:
        if not c["ok"]:
            print(f"perfbench: check failed: {c['name']}: {c['detail']}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
