"""Scan the verdicts of the benchmark's LP instance families over a range of seeds.

Usage::

    python tools/verdict_scan.py [--seeds 1-120] [--save FILE] [--against FILE]

Decides every instance of ``generic_instances`` and ``degenerate_instances``
(``perfbench/instances.py``, imported as it is) at each seed, and prints:

- one ``wrong`` line per verdict that differs from the one its construction
  gives, and one ``moved`` line per verdict that differs from the verdicts
  saved in ``--against``;
- a summary: decisions, wrong, moved and ``ambiguous`` verdicts, the calls
  to ``lp_feasible``, their pivots (total and largest), and the largest
  witness residual of a ``feasible`` verdict, recomputed here from the
  witness (mixture equalities, column sums, negative entries and, in a
  subspace, the volume inequality).

``--save`` writes the verdicts as JSON, one string per seed with one letter
(``f``, ``i`` or ``a``) per instance in the families' order. Exits 1 when
any verdict is wrong or moved, or when a recomputed witness residual exceeds
``RESIDUAL_BOUND`` (``1e-7``, the bound that the benchmark's correctness
gate puts on a witness). Standard library and numpy only; the library is
imported from ``src``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import povmcoarse.coarseness as coarseness  # noqa: E402
from instances import decide, degenerate_instances, generic_instances  # noqa: E402

LETTERS = {"feasible": "f", "infeasible": "i", "ambiguous": "a"}
RESIDUAL_BOUND = 1e-7


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def witness_residual(instance, cert) -> float:
    """Largest violation of the relation by the certificate's witness."""
    p = cert.witness.matrix
    coarse, fine = instance.coarse.stacked(), instance.fine.stacked()
    worst = max(float(np.max(np.abs(p.sum(axis=0) - 1.0))), float(max(0.0, -p.min())))
    if instance.subspace is not None:
        rows, cols = list(cert.coarse_outcomes), list(cert.fine_outcomes)
        pg = instance.subspace.basis @ instance.subspace.basis.conj().T
        coarse, fine = pg @ coarse[rows] @ pg, pg @ fine[cols] @ pg
        slack = instance.coarse.volumes()[rows] - p @ instance.fine.volumes()[cols]
        worst = max(worst, float(max(0.0, -slack.min())))
    mixed = np.einsum("ji,iab->jab", p, fine)
    return max(worst, float(np.max(np.linalg.norm(mixed - coarse, axis=(1, 2)))))


def scan(seeds, saved):
    """Decide every instance at every seed; returns ``(verdicts, counts, residual_max)``."""
    verdicts = {}
    counts = {"decisions": 0, "wrong": 0, "moved": 0, "ambiguous": 0}
    residual_max = 0.0
    for seed in seeds:
        letters = []
        for instance in generic_instances(seed) + degenerate_instances(seed):
            cert = decide(instance)
            letters.append(LETTERS[cert.verdict])
            counts["decisions"] += 1
            counts["ambiguous"] += cert.verdict == "ambiguous"
            if cert.verdict != instance.expected:
                counts["wrong"] += 1
                print(f"wrong  seed {seed}  {instance.label}: {cert.verdict}, "
                      f"expected {instance.expected}")
            if cert.feasible:
                residual_max = max(residual_max, witness_residual(instance, cert))
        verdicts[str(seed)] = "".join(letters)
        before = saved.get(str(seed))
        if before is not None and before != verdicts[str(seed)]:
            for k, (old, new) in enumerate(zip(before, verdicts[str(seed)])):
                if old != new:
                    counts["moved"] += 1
                    print(f"moved  seed {seed}  instance {k}: {old} -> {new}")
    return verdicts, counts, residual_max


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-120"))
    parser.add_argument("--save", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    saved = json.loads(args.against.read_text()) if args.against else {}

    pivots = []
    solve = coarseness.lp_feasible

    def counting(*a, **k):
        result = solve(*a, **k)
        pivots.append(result.iterations)
        return result

    coarseness.lp_feasible = counting
    try:
        verdicts, counts, residual_max = scan(args.seeds, saved)
    finally:
        coarseness.lp_feasible = solve

    print("  ".join(f"{name} {value}" for name, value in counts.items()))
    print(f"lp_calls {len(pivots)}  pivots {sum(pivots)}  pivots_max {max(pivots, default=0)}")
    print(f"residual_max {residual_max:.3e}")
    over = residual_max > RESIDUAL_BOUND
    if over:
        print(f"residual_max exceeds {RESIDUAL_BOUND:.0e}")
    if args.save:
        args.save.write_text(json.dumps(verdicts, indent=0) + "\n")
    return 1 if counts["wrong"] or counts["moved"] or over else 0


if __name__ == "__main__":
    sys.exit(main())
