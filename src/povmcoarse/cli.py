"""Command-line interface.

Subcommands: ``entropy``, ``check-coarser``, ``compose``, ``verify``,
``region-scan``, ``counterexamples``. Standard output carries only data (JSON,
or CSV for the region scan); diagnostics go to standard error.

Exit codes: ``0`` success / feasible / all checks passed; ``1`` infeasible or
a failing suite; ``2`` usage, parse or validation errors, or an array too
large to allocate; ``3`` ambiguous feasibility verdict.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .coarseness import _majorization, check_coarser, check_coarser_in_subspace
from .distributions import WeightedDistribution, weighted_rows
from .entropy import _weighted_log_ratio, observational_entropy, s_obs_classical
from .errors import InvalidRangeError, UnknownSuiteError, ValidationError
from .measurements import compose_measurements, outcome_probabilities
from .serialization import (
    certificate_to_dict,
    dump_json,
    load_json,
    measurement_from_dict,
    measurement_to_dict,
    state_from_dict,
    subspace_from_dict,
)
from .suites import SUITE_NAMES, counterexample_registry, run_all, run_suite
from .tolerances import BUILD_ATOL, DEFAULT_FEAS_TOL, SCAN_ENTROPY_SLACK

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_ERROR = 2
EXIT_AMBIGUOUS = 3


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def cmd_entropy(args) -> int:
    measurement = measurement_from_dict(load_json(args.measurement), atol=args.tol)
    rho = state_from_dict(load_json(args.state), atol=args.tol)
    w = outcome_probabilities(measurement, rho)
    report = observational_entropy(measurement, rho)
    payload = {
        "p": [float(x) for x in w.probs],
        "V": [float(x) for x in w.volumes],
        "s_obs": report.s_obs,
        "s_vn": report.s_vn,
        "ln_v_tot": report.ln_vtot,
        "d_kl_to_uniform": report.d_kl_to_uniform,
    }
    _emit(dump_json(payload), args.out)
    return EXIT_OK


def cmd_check_coarser(args) -> int:
    coarse = measurement_from_dict(load_json(args.coarse), atol=BUILD_ATOL)
    fine = measurement_from_dict(load_json(args.fine), atol=BUILD_ATOL)
    if args.subspace is not None:
        subspace = subspace_from_dict(load_json(args.subspace))
        cert = check_coarser_in_subspace(coarse, fine, subspace, tol=args.tol)
    else:
        cert = check_coarser(coarse, fine, tol=args.tol)
    _emit(dump_json(certificate_to_dict(cert)), args.out)
    if cert.verdict == "feasible":
        return EXIT_OK
    if cert.verdict == "infeasible":
        return EXIT_INFEASIBLE
    return EXIT_AMBIGUOUS


def cmd_compose(args) -> int:
    first = measurement_from_dict(load_json(args.first), atol=BUILD_ATOL)
    second = measurement_from_dict(load_json(args.second), atol=BUILD_ATOL)
    combined = compose_measurements(first, second)
    _emit(dump_json(measurement_to_dict(combined)), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite == "all":
        reports = run_all(args.trials, args.dim, args.seed)
    else:
        reports = [run_suite(args.suite, args.trials, args.dim, args.seed)]
    _emit(dump_json([r.to_dict() for r in reports]), args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_INFEASIBLE


def cmd_region_scan(args) -> int:
    p1, v1, vtot, grid = args.p1, args.v1, args.vtot, args.grid
    if not (0.0 < p1 < 1.0):
        raise InvalidRangeError(f"p1 must lie strictly between 0 and 1, got {p1}")
    if not (0.0 < v1 < vtot):
        raise InvalidRangeError(f"v1 must lie strictly between 0 and vtot={vtot}, got {v1}")
    if grid < 2:
        raise InvalidRangeError(f"grid must be at least 2, got {grid}")

    base = WeightedDistribution([p1, 1.0 - p1], [v1, vtot - v1])
    s_base = s_obs_classical(base)
    p_values = np.linspace(0.0, 1.0, grid)
    v_values = np.linspace(0.0, vtot, grid)
    half_step = 0.5 * vtot / (grid - 1)
    v_values[0] = half_step
    v_values[-1] = vtot - half_step

    # one candidate row per cell, p2 major, checked as WeightedDistribution checks one
    p_cells, v_cells = np.repeat(p_values, grid), np.tile(v_values, grid)
    probs, volumes = weighted_rows(np.stack([p_cells, 1.0 - p_cells], axis=1),
                                   np.stack([v_cells, vtot - v_cells], axis=1))
    s_greater = _weighted_log_ratio(probs, volumes, probs, -1) >= s_base - SCAN_ENTROPY_SLACK
    feasible = _majorization(base, probs, volumes, args.tol)[0] == 0  # band 0 is feasible
    inclusion_violations = int(np.count_nonzero(feasible & ~s_greater))
    if inclusion_violations:
        raise RuntimeError(
            f"{inclusion_violations} grid points are feasible but lower entropy; "
            "this contradicts entropy monotonicity under processing"
        )
    if args.format == "json":
        cells = zip(p_cells.tolist(), v_cells.tolist(), s_greater.tolist(), feasible.tolist())
        payload = [
            {"p2": p2, "v2": v2, "s_greater": sg, "feasible": fe}
            for p2, v2, sg, fe in cells
        ]
        _emit(dump_json(payload), args.out)
    else:
        # each grid value is formatted once and each p2 row joined once, with
        # both flags "0"; a set flag is then one byte, found from the lengths
        # of the value strings: a line ends in "s_greater,feasible\n"
        p_text = [f"{p2:.17g}," for p2 in p_values.tolist()]
        v_text = [f"{v2:.17g}," for v2 in v_values.tolist()]
        header = "p2,v2,s_greater,feasible\n"
        rows = (p2 + ("0,0\n" + p2).join(v_text) + "0,0\n" for p2 in p_text)
        text = bytearray((header + "".join(rows)).encode())
        lengths = np.add.outer([len(p2) for p2 in p_text], [len(v2) for v2 in v_text]) + 4
        flags = np.cumsum(lengths, axis=None) + (len(header) - 4)
        cells = np.frombuffer(text, dtype=np.uint8)
        cells[flags[s_greater]] = cells[flags[feasible] + 2] = ord("1")
        _emit(text.decode(), args.out)
    return EXIT_OK


def cmd_counterexamples(args) -> int:
    report = run_suite("counterexamples")
    failed = {record["trial"] for record in report.details}
    lines = [f"{'FAIL' if name in failed else 'PASS'} {name}" for name, _ in counterexample_registry()]
    _emit("\n".join(lines), args.out)
    return EXIT_OK if report.passed else EXIT_INFEASIBLE


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="povmcoarse",
        description="Coarse-graining relations between measurements, observational "
        "entropy reports, and randomized verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("entropy", help="observational entropy of a state under a measurement")
    sp.add_argument("measurement", help="measurement JSON file")
    sp.add_argument("state", help="state JSON file")
    sp.add_argument("--tol", type=float, default=BUILD_ATOL, help="validation tolerance")
    sp.add_argument("--out", default=None, help="write output here instead of stdout")
    sp.set_defaults(func=cmd_entropy)

    sp = sub.add_parser("check-coarser", help="decide whether one measurement coarse-grains another")
    sp.add_argument("coarse", help="candidate coarser measurement JSON file")
    sp.add_argument("fine", help="finer measurement JSON file")
    sp.add_argument("--subspace", default=None, help="optional subspace JSON file")
    sp.add_argument("--tol", type=float, default=DEFAULT_FEAS_TOL, help="feasibility tolerance")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_check_coarser)

    sp = sub.add_parser("compose", help="compose two measurements (first, then second)")
    sp.add_argument("first", help="first measurement JSON file (needs Kraus operators)")
    sp.add_argument("second", help="second measurement JSON file")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_compose)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", help=f"one of: all, {', '.join(SUITE_NAMES)}")
    sp.add_argument("--trials", type=int, default=500)
    sp.add_argument("--dim", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("region-scan", help="grid scan of entropy vs feasibility for two-outcome pairs")
    sp.add_argument("--p1", type=float, default=0.75, help="source probability of outcome 1")
    sp.add_argument("--v1", type=float, default=1.0, help="source volume of outcome 1")
    sp.add_argument("--vtot", type=float, default=2.0, help="total volume")
    sp.add_argument("--grid", type=int, default=101, help="grid points per axis")
    sp.add_argument("--tol", type=float, default=DEFAULT_FEAS_TOL)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.set_defaults(func=cmd_region_scan)

    sp = sub.add_parser("counterexamples", help="replay the golden counterexample instances")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_counterexamples)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits with 2 on usage errors
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        if getattr(args, "trials", 1) < 1:
            raise InvalidRangeError("--trials must be at least 1")
        if not 0 < getattr(args, "tol", 1.0) < math.inf:
            raise InvalidRangeError("--tol must be positive and finite")
        return args.func(args)
    except UnknownSuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValidationError, OSError, ValueError, RuntimeError, MemoryError) as exc:
        # a MemoryError (numpy raises a subclass for an array it cannot
        # allocate, say for an impossible --grid) would otherwise exit 1,
        # which means "infeasible"
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    entry()
