"""The four benchmark workloads.

Each workload is single-process and closed-loop: the next library call is
made only when the previous one has returned. A workload has

- ``build(seed, lib)``: the inputs, made from the seed only (this is set-up);
- ``chunks(inputs)`` and ``run_chunk(chunk, lib)``: a pass is a sequence of
  chunks (one ``run_all`` call, one decision, one region scan); a chunk
  returns its outcomes and the time of every item timed one by one, in
  milliseconds, and ``run_pass`` joins them;
- ``items``: work items completed by one pass;
- ``warmup(inputs)``: smaller inputs that take the same code paths, run
  once untimed before measuring;
- ``mix(inputs)``: the composition of the inputs, which must not depend on
  the seed;
- ``gate(inputs, passes)``: the correctness check, returning
  ``(attempted, failed, notes)``; it runs outside the timed region.

``lib`` is the library module: ``povmcoarse`` by default, or the frozen
timing reference that ``run.py`` runs in alternation with it.

Why each workload exists:

suite_sweep
    ``run_all`` over dims 2-6; the per-state layers (operators,
    measurements, entropy, distributions, randomgen, suites) dominate.
lp_generic
    ``check_coarser``/``check_coarser_in_subspace`` on full-rank systems;
    simplex pivots and LP assembly dominate.
lp_degenerate
    rank-deficient systems that need many (Bland) pivots, so a fast path for
    generic systems cannot hide a slowdown on them.
region_scan
    ``region-scan --grid 101`` in-process: about 10^4 tiny classical LPs
    where fixed per-call overhead dominates, plus the CLI's CSV path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import povmcoarse as pc
import povmcoarse.cli  # noqa: F401  (makes ``pc.cli`` available)
from instances import (
    FEASIBLE, INFEASIBLE, decide, degenerate_instances, generic_instances, rank_deficient,
)

SUITE_DIMS = (2, 3, 4, 5, 6)
SUITE_TRIALS = 3
REGION_ARGV = ("region-scan", "--grid", "101")
REGION_REFERENCE = Path(__file__).with_name("region_reference.json")
RESIDUAL_BOUND = 1e-7


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable
    chunks: Callable
    run_chunk: Callable
    items: Callable  # inputs -> work items per pass
    warmup: Callable
    mix: Callable
    gate: Callable
    lp: bool = False  # decides LP instances that the HiGHS oracle can replay

    def run_pass(self, inputs, lib=pc):
        """One pass: every chunk in order; returns all outcomes and item times."""
        outcomes, item_ms = [], []
        for chunk in self.chunks(inputs):
            out, ms = self.run_chunk(chunk, lib)
            outcomes += out
            item_ms += ms
        return outcomes, item_ms


# -- suite_sweep -------------------------------------------------------------


def _suite_build(seed: int, lib=pc):
    seeds = np.random.default_rng(seed).integers(0, 2**31, size=len(SUITE_DIMS))
    return [(dim, int(s)) for dim, s in zip(SUITE_DIMS, seeds)]


def _suite_chunk(chunk, lib):
    dim, seed = chunk
    reports = lib.run_all(SUITE_TRIALS, dim, seed)
    return reports, [r.elapsed_ms for r in reports]


def _suite_items(inputs) -> int:
    return SUITE_TRIALS * len(pc.suites.SUITE_NAMES) * len(inputs)


def _suite_mix(inputs):
    return {"items": len(inputs) * len(pc.suites.SUITE_NAMES), "dims": [d for d, _ in inputs],
            "trials": SUITE_TRIALS}


def _suite_gate(inputs, passes):
    attempted = failed = 0
    notes = []
    expected = list(pc.suites.SUITE_NAMES) * len(inputs)
    for reports in passes:
        names = [r.suite for r in reports]
        if names != expected:
            failed += 1
            notes.append(f"suites run: {names}")
        for report in reports:
            attempted += 1
            if report.failures > 0:
                failed += 1
                notes.append(f"{report.suite} has {report.failures} failures")
    return attempted, failed, notes


# -- lp_generic / lp_degenerate ----------------------------------------------


def _lp_chunk(instance, lib):
    start = time.perf_counter()
    try:
        outcome = decide(instance, lib)
    except Exception as exc:  # counted as a failed decision by the gate
        outcome = exc
    return [outcome], [(time.perf_counter() - start) * 1e3]


def _lp_mix(inputs):
    return {
        "items": len(inputs),
        "feasible": sum(i.expected == FEASIBLE for i in inputs),
        "infeasible": sum(i.expected == INFEASIBLE for i in inputs),
        "degenerate": sum(rank_deficient(i) for i in inputs),
        "subspace": sum(i.subspace is not None for i in inputs),
    }


def _lp_gate(inputs, passes):
    from oracle import witness_residual

    attempted = failed = 0
    notes = []
    for outcomes in passes:
        for instance, cert in zip(inputs, outcomes):
            attempted += 1
            problem = None
            if isinstance(cert, Exception):
                problem = f"raised {type(cert).__name__}: {cert}"
            elif cert.verdict != instance.expected:
                problem = f"verdict {cert.verdict}, expected {instance.expected}"
            elif cert.verdict == FEASIBLE:
                basis = None if instance.subspace is None else instance.subspace.basis
                residual = witness_residual(
                    instance.coarse.stacked(), instance.fine.stacked(), cert.witness.matrix,
                    basis, cert.coarse_outcomes, cert.fine_outcomes,
                    instance.coarse.volumes(), instance.fine.volumes(),
                )
                if not residual <= RESIDUAL_BOUND:
                    problem = f"witness residual {residual:.3e} above {RESIDUAL_BOUND:g}"
            if problem:
                failed += 1
                notes.append(f"{instance.label}: {problem}")
    return attempted, failed, notes


def oracle_check(inputs):
    """Replay every instance on HiGHS; returns ``(seconds, failed, notes)``."""
    from oracle import highs_feasible

    failed = 0
    notes = []
    seconds = 0.0
    for instance in inputs:
        basis = None if instance.subspace is None else instance.subspace.basis
        start = time.perf_counter()
        feasible = highs_feasible(instance.coarse.stacked(), instance.fine.stacked(), basis)
        seconds += time.perf_counter() - start
        if (FEASIBLE if feasible else INFEASIBLE) != instance.expected:
            failed += 1
            notes.append(f"{instance.label}: HiGHS disagrees with the construction")
    return seconds, failed, notes


# -- region_scan ---------------------------------------------------------------


def _region_chunk(argv, lib):
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = lib.cli.main(list(argv))
    elapsed = (time.perf_counter() - start) * 1e3
    return [(code, out.getvalue())], [elapsed]


def region_cells(text: str) -> tuple[str, str]:
    """The ``s_greater`` and ``feasible`` columns of a region-scan CSV, as bit strings."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "p2,v2,s_greater,feasible":
        raise ValueError("region-scan output lacks its CSV header")
    rows = [line.split(",") for line in lines[1:]]
    return "".join(r[2] for r in rows), "".join(r[3] for r in rows)


def region_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _region_gate(argv, passes):
    reference = json.loads(REGION_REFERENCE.read_text())
    expected = (reference["s_greater"], reference["feasible"])
    attempted = failed = 0
    notes = []
    for outcomes in passes:
        for code, text in outcomes:
            attempted += reference["cells"]
            if code != 0:
                failed += reference["cells"]
                notes.append(f"region-scan exited with {code}")
                continue
            try:
                got = region_cells(text)
            except (ValueError, IndexError) as exc:
                failed += reference["cells"]
                notes.append(f"unreadable region-scan output: {exc}")
                continue
            # a missing or extra row counts as a differing cell
            wrong = abs(len(got[0]) - reference["cells"])
            wrong += sum(
                a != b or c != d
                for a, b, c, d in zip(got[0], expected[0], got[1], expected[1])
            )
            if wrong:
                failed += wrong
                notes.append(f"{wrong} region-scan cells differ from the reference")
    return attempted, failed, notes


def _region_mix(argv):
    reference = json.loads(REGION_REFERENCE.read_text())
    return {
        "items": reference["cells"],
        "feasible": reference["feasible"].count("1"),
        "infeasible": reference["cells"] - reference["feasible"].count("1"),
        "s_greater": reference["s_greater"].count("1"),
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "suite_sweep", _suite_build, list, _suite_chunk, _suite_items,
            lambda inputs: inputs[:1], _suite_mix, _suite_gate,
        ),
        Workload(
            "lp_generic", generic_instances, list, _lp_chunk, len,
            lambda inputs: inputs[::6], _lp_mix, _lp_gate, lp=True,
        ),
        Workload(
            "lp_degenerate", degenerate_instances, list, _lp_chunk, len,
            lambda inputs: inputs[::6], _lp_mix, _lp_gate, lp=True,
        ),
        Workload(
            "region_scan", lambda seed, lib=pc: REGION_ARGV, lambda argv: [argv], _region_chunk,
            lambda argv: int(argv[-1]) ** 2, lambda argv: (*argv[:-1], "11"),
            _region_mix, _region_gate,
        ),
    )
}
