"""Run one benchmark workload, or all four, and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lp_generic --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` the end-to-end metrics are measured with tracing off; with
``--trace 1`` a traced pass between two untraced ones over the same inputs
gives the per-layer metrics. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
hold the environment and a readable report. The exit code is 0 only when every
output passed the correctness gate. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("suite_sweep", "lp_generic", "lp_degenerate", "region_scan")
DEFAULT_SEED = 20220909
HELD_OUT_SEED = 4549
SETUP_REPEATS = 7
# The reference library's (``reference/povmcoarse_ref``) metrics, measured
# once per workload on a 2-core x86-64 cloud VM (lp_generic and suite_sweep:
# medians over six seeds); the program's metrics are reported at the machine
# speed of that measurement.
REFERENCE = {
    "suite_sweep": {"items_per_s": 130.0, "item_p50_ms": 9.7, "item_tail_ms": 54.6},
    "lp_generic": {"items_per_s": 55.6, "item_p50_ms": 5.39, "item_tail_ms": 37.0},
    "lp_degenerate": {"items_per_s": 98.1, "item_p50_ms": 4.17, "item_tail_ms": 20.9},
    "region_scan": {"items_per_s": 1779.0, "item_p50_ms": 5735.0, "item_tail_ms": 5971.0},
}
# one BLAS thread: the workloads are single-process and their matrices are
# small, so more threads only add contention on a shared machine
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare_environment() -> None:
    """Pin BLAS threads; put the checkout's sources and the reference on the path."""
    for var in BLAS_VARIABLES:
        os.environ[var] = BLAS_THREADS
    for path in (str(BENCH_DIR / "reference"), str(BENCH_DIR), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import importlib.metadata
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARIABLES},
        "loadavg": list(os.getloadavg()),
        "commit": _git_commit(),
        "seed": seed,
    }


def probe(workload: str, seed: int, passes: int) -> tuple[float, float]:
    """Set-up seconds and peak resident MB of a fresh interpreter (see ``probe.py``)."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed), str(passes)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    setup_s, rss_mb = out.stdout.split()[-2:]
    return float(setup_s), float(rss_mb)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value.

    With fewer than eleven samples this is the maximum (percentile 100).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def pass_stats(workload, inputs, item_times, walls) -> dict:
    """Throughput and item latency of one side's passes."""
    if len(item_times[0]) >= 11:
        # per-item medians over the passes: one sample per distinct item
        samples = [statistics.median(t) for t in zip(*item_times)]
    else:
        samples = [t for times in item_times for t in times]
    pct, tail_ms = tail(samples)
    return {
        # the median pass: a slow phase in part of the run moves it less than a total
        "items_per_s": workload.items(inputs) / statistics.median(walls),
        "item_p50_ms": statistics.median(samples),
        "item_tail_ms": tail_ms,
        "tail_percentile": pct,
        "item_samples": len(samples),
    }


def end_to_end(name, workload, inputs, ref_inputs, seconds: float):
    """Passes of the program and of the reference, interleaved chunk by chunk.

    Within a pair of passes every chunk (one ``run_all`` call, one decision,
    one region scan) runs on both libraries back to back, alternating which
    goes first, so both see the same machine speed. The pair count fills
    ``seconds`` and is fixed after the first pair. Each metric is the
    program's value times ``REFERENCE[name][metric]`` divided by the
    reference's value from the same passes.
    """
    import povmcoarse
    import povmcoarse_ref

    libs = (povmcoarse, povmcoarse_ref)
    chunk_pairs = list(zip(workload.chunks(inputs), workload.chunks(ref_inputs)))
    # per library and pass: outcomes, item times and wall time
    passes, item_times, walls = ({lib: [] for lib in libs} for _ in range(3))
    pairs = k = 1
    while k <= pairs:
        for lib in libs:
            passes[lib].append([])
            item_times[lib].append([])
            walls[lib].append(0.0)
        for c, pair in enumerate(chunk_pairs):
            order = list(zip(libs, pair))
            for lib, chunk in order if (k + c) % 2 else order[::-1]:
                start = time.perf_counter()
                outcomes, item_ms = workload.run_chunk(chunk, lib)
                walls[lib][-1] += time.perf_counter() - start
                passes[lib][-1] += outcomes
                item_times[lib][-1] += item_ms
        if k == 1:
            pairs = max(1, round(seconds / (walls[povmcoarse][0] + walls[povmcoarse_ref][0])))
        k += 1
    program = pass_stats(workload, inputs, item_times[povmcoarse], walls[povmcoarse])
    reference = pass_stats(workload, ref_inputs, item_times[povmcoarse_ref], walls[povmcoarse_ref])
    units = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_tail_ms": "ms"}
    metrics = {
        m: (program[m] * REFERENCE[name][m] / reference[m], unit) for m, unit in units.items()
    }
    report = {
        "pairs": pairs, "items": workload.items(inputs) * pairs,
        "measured_s": sum(walls[povmcoarse]), "reference_s": sum(walls[povmcoarse_ref]),
        "tail_percentile": program["tail_percentile"], "item_samples": program["item_samples"],
        "unscaled": {m: program[m] for m in units},
        "reference": {m: reference[m] for m in units},
    }
    return passes[povmcoarse], metrics, report


def per_layer(workload, inputs):
    """One traced pass between two untraced ones over the same inputs.

    The untraced time is the mean of the two passes around the traced one, so
    a drift in machine speed during the three passes largely cancels in
    ``trace.overhead_s``.
    """
    from tracer import LAYERS, Tracer

    def untraced_pass():
        start = time.perf_counter()
        outcomes, _ = workload.run_pass(inputs)
        return outcomes, time.perf_counter() - start

    before, before_s = untraced_pass()
    with Tracer() as tracer:
        traced, _ = workload.run_pass(inputs)
    after, after_s = untraced_pass()
    untraced_s = (before_s + after_s) / 2
    layers = tracer.layer_times()
    c = tracer.counters
    metrics = {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = (layers[name]["calls"], "count")
        metrics[f"{name}.self_s"] = (layers[name]["self_s"], "s")
    covered = sum(layers[name]["self_s"] for name in LAYERS)
    metrics.update({
        "simplex.pivots": (c.pivots, "count"),
        "simplex.pivots_max": (c.pivots_max, "count"),
        "simplex.matrix_cells": (c.matrix_cells, "count"),
        "simplex.infeasible": (c.lp_verdicts["infeasible"], "count"),
        "simplex.ambiguous": (c.lp_verdicts["ambiguous"], "count"),
        "coarseness.residual_max": (c.residual_max, "1"),
        "coarseness.ambiguous": (c.certificates_ambiguous, "count"),
        "entropy.states": (c.states, "count"),
        "operators.density_checks": (c.density_checks, "count"),
        "randomgen.share": (layers["randomgen"]["inclusive_s"] / tracer.wall_s, "ratio"),
        "trace.wall_s": (tracer.wall_s, "s"),
        "trace.uncovered_s": (tracer.wall_s - covered, "s"),
        "trace.overhead_s": (tracer.wall_s - untraced_s, "s"),
    })
    return [before, traced, after], metrics, {"untraced_s": [before_s, after_s]}


def run_one(args) -> int:
    from workloads import WORKLOADS, oracle_check, region_digest

    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    inputs = workload.build(args.seed)
    workload.run_pass(workload.warmup(inputs))  # lazy imports and caches

    if args.trace:
        passes, metrics, report = per_layer(workload, inputs)
    else:
        import povmcoarse_ref
        import povmcoarse_ref.cli  # noqa: F401  (the region scan calls it)

        ref_inputs = workload.build(args.seed, povmcoarse_ref)
        workload.run_pass(workload.warmup(ref_inputs), povmcoarse_ref)
        passes, metrics, report = end_to_end(
            args.workload, workload, inputs, ref_inputs, args.seconds
        )
        setup = [probe(args.workload, args.seed, 0)[0] for _ in range(SETUP_REPEATS)]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            **metrics,
            "peak_rss_mb": (probe(args.workload, args.seed, 1)[1], "MB"),
        }
        report["setup_samples_s"] = setup

    attempted, failed, notes = workload.gate(inputs, passes)
    if workload.lp:
        highs_s, oracle_failed, oracle_notes = oracle_check(inputs)
        failed += oracle_failed
        notes += oracle_notes
    else:
        highs_s = 0.0
    if args.trace:
        metrics["oracle.highs_s"] = (highs_s, "s")
    if args.workload == "region_scan":
        report["digest"] = region_digest(passes[-1][-1][1])
    report.update({
        "workload": args.workload, "trace": args.trace, "mix": workload.mix(inputs),
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "failures": notes[:20],
    })
    if args.workload in ("lp_generic", "lp_degenerate"):
        report["verdicts"] = verdict_counts(passes[-1])

    print(json.dumps({"env": env}))
    print(json.dumps({"report": report}))
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def verdict_counts(outcomes) -> dict:
    counts: dict[str, int] = {}
    for cert in outcomes:
        key = type(cert).__name__ if isinstance(cert, Exception) else cert.verdict
        counts[key] = counts.get(key, 0) + 1
    return counts


def run_all_workloads(args) -> int:
    """Each workload in its own process (so peak memory is its own), then a table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        if out.returncode not in (0, 1) or not lines:
            sys.stderr.write(out.stderr)
            print(f"{name}: exited with {out.returncode}", file=sys.stderr)
            return 2
        report = next(json.loads(line)["report"] for line in lines if line.startswith('{"report"'))
        results[name] = (json.loads(lines[-1]), report)
    names = list(next(iter(results.values()))[0]["metrics"])
    print(f"{'metric':28s} " + " ".join(f"{w:>14s}" for w in results) + "  unit")
    for metric in names:
        unit = next(iter(results.values()))[0]["metrics"][metric]["unit"]
        row = " ".join(f"{r['metrics'][metric]['value']:>14.6g}" for r, _ in results.values())
        print(f"{metric:28s} {row}  {unit}")
    print(f"{'fail_ratio':28s} " + " ".join(f"{rep['fail_ratio']:>14.6g}" for _, rep in results.values()))
    if not args.trace:
        print(f"{'tail percentile / samples':28s} " + " ".join(
            f"{rep['tail_percentile']:>8.1f} /{rep['item_samples']:>4d}" for _, rep in results.values()))
    print(json.dumps({
        "correct": all(r["correct"] for r, _ in results.values()),
        "attempted": sum(r["attempted"] for r, _ in results.values()),
        "failed": sum(r["failed"] for r, _ in results.values()),
        "metrics": {f"{w}.{k}": v for w, (r, _) in results.items() for k, v in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r, _ in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "povmcoarse" / "__init__.py").is_file():
        print(f"error: no povmcoarse sources under {SRC}", file=sys.stderr)
        return 2
    prepare_environment()
    if args.workload == "all":
        return run_all_workloads(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
