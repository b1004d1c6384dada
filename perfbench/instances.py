"""Seeded coarse-graining instances for the LP workloads.

Every instance carries the verdict it must get, known from its construction:

- feasible: the coarse measurement is built as ``Π'_j = Σ_i P_ji Π_i`` (or, in
  a subspace, as that mixture of projected elements plus a complement term
  that balances the volumes), so ``P`` is a witness;
- infeasible: the roles of such a pair are swapped and the span argument
  rules a witness out. The (projected) elements of the new coarse side are
  linearly independent and outnumber the elements of the new fine side, so
  no mixture of the latter can produce them.

Inputs are built only through the public API of the library passed as
``lib`` (``povmcoarse``, or the timing reference). Every grid
point is drawn ``DRAWS`` times, each from its own generator seeded by
``(seed, family, index, draw)``, so the item list and its sizes are the same
for every seed and only the random matrices change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import povmcoarse as pc

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class Instance:
    """One decision: is ``coarse`` a coarse-graining of ``fine`` (in ``subspace``)?"""

    label: str
    coarse: pc.GeneralizedMeasurement
    fine: pc.GeneralizedMeasurement
    subspace: pc.Subspace | None
    expected: str


# (d, n, m): full-rank fine elements (n <= d^2), m < n coarse outcomes.
GENERIC_GRID = (
    (2, 3, 2), (2, 4, 2), (2, 4, 3),
    (3, 4, 2), (3, 6, 3), (3, 9, 4),
    (4, 6, 3), (4, 8, 4), (4, 12, 6),
    (6, 6, 3), (6, 10, 5),
    (8, 8, 4), (8, 10, 6),
    (10, 10, 5),
    (12, 12, 6),
)

# (d, n, m, merge) with n > d^2: dependent fine elements; ``merge`` picks a
# deterministic 0/1 transition matrix, whose witness sits on a degenerate vertex.
OVERCOMPLETE_GRID = (
    (2, 5, 2, False), (2, 6, 3, True),
    (3, 10, 4, False), (3, 12, 5, True),
    (4, 18, 6, False), (4, 20, 8, False), (4, 20, 8, True),
)

# (d, block ranks): projective coarse measurement; each block of rank r is
# refined into r + 1 pieces that are diagonal in the block basis, so the fine
# elements span at most d dimensions while there are d + blocks of them.
PROJECTIVE_GRID = (
    (4, (2, 2)),
    (6, (2, 4)),
    (6, (3, 3)),
    (8, (3, 5)),
    (10, (2, 3, 5)),
)

# (d, g, n, m): fine POVM with n > g^2 outcomes seen through a rank-g
# subspace, so its projected elements are dependent and most of the d^2
# projected component rows are redundant; m < g^2 keeps the swap infeasible.
SUBSPACE_GRID = (
    (3, 2, 5, 2),
    (4, 2, 6, 3),
    (5, 2, 6, 2),
    (5, 3, 10, 4),
    (6, 2, 8, 3),
    (6, 3, 11, 5),
)


# independent draws per grid point: enough items for a tail percentile
# with ten samples beyond it
DRAWS = 2


def _draws(seed: int, family: int, grid):
    """``(generator, grid entry)`` for every draw of every grid point."""
    for index, entry in enumerate(grid):
        for draw in range(DRAWS):
            seq = np.random.SeedSequence((int(seed), family, index, draw))
            yield np.random.default_rng(seq), entry


def _pair(label, coarse, fine, subspace):
    """The feasible pair and its swapped, infeasible counterpart."""
    return [
        Instance(label + "/feasible", coarse, fine, subspace, FEASIBLE),
        Instance(label + "/swapped", fine, coarse, subspace, INFEASIBLE),
    ]


def rank_deficient(instance: Instance) -> bool:
    """Whether the fine side's (projected) elements are linearly dependent."""
    fine = instance.fine.stacked()
    if instance.subspace is not None:
        pg = instance.subspace.projector.matrix
        fine = pg @ fine @ pg
    flat = fine.reshape(len(fine), -1)
    rank = np.linalg.matrix_rank(np.concatenate([flat.real, flat.imag], axis=1), tol=1e-9)
    return bool(rank < len(fine))


def _subspace_pair(lib, rng, dim: int, rank: int, n: int, m: int):
    """Fine POVM, a coarse-graining of it inside a random rank-``rank`` subspace."""
    u = lib.random_unitary(dim, rng)
    inside = lib.Subspace(u[:, :rank])
    fine = lib.random_povm(dim, n, rng, with_kraus=False)
    mix = lib.random_left_stochastic(m, n, rng).matrix
    pg = inside.projector.matrix
    projected = np.stack([pg @ e @ pg for e in fine.elements])
    mixed = np.einsum("ji,iab->jab", mix, projected)
    # volume each coarse element lacks w.r.t. the full traces it mixes; it is
    # put back on the complement, together with a random share of the rest
    deficits = mix @ (fine.volumes() - np.einsum("iaa->i", projected).real)
    leftover = max((dim - rank) - float(deficits.sum()), 0.0)
    share = rng.exponential(size=m)
    extra = deficits + leftover * share / share.sum()
    complement = np.eye(dim) - pg
    coarse = lib.validate_measurement(
        [mixed[j] + (extra[j] / (dim - rank)) * complement for j in range(m)], atol=1e-9
    )
    return fine, coarse, inside


def generic_instances(seed: int, lib=pc) -> list[Instance]:
    """Global and subspace checks on full-rank fine elements, half of them infeasible."""
    out = []
    for rng, (d, n, m) in _draws(seed, 0, GENERIC_GRID):
        fine = lib.random_povm(d, n, rng, with_kraus=False)
        coarse = lib.coarsen(fine, lib.random_left_stochastic(m, n, rng))
        out += _pair(f"global d={d} n={n} m={m}", coarse, fine, None)
        # a subspace large enough (g^2 >= n) to keep the projections independent
        g = next(r for r in range(1, d + 1) if r * r >= n)
        if g < d:
            fine_s, coarse_s, sub = _subspace_pair(lib, rng, d, g, n, m)
            out += _pair(f"subspace d={d} g={g} n={n} m={m}", coarse_s, fine_s, sub)
    return out


def _refined_projective(lib, rng, dim: int, ranks):
    u = lib.random_unitary(dim, rng)
    projectors, pieces = [], []
    start = 0
    for r in ranks:
        basis = u[:, start : start + r]
        start += r
        projectors.append(basis @ basis.conj().T)
        # r + 1 pieces, diagonal in the block basis, summing to the projector
        weights = lib.random_left_stochastic(r + 1, r, rng).matrix
        for row in weights:
            pieces.append((basis * row) @ basis.conj().T)
    order = rng.permutation(len(pieces))
    fine = lib.validate_measurement([pieces[i] for i in order], atol=1e-9)
    coarse = lib.validate_measurement(projectors, atol=1e-9)
    return fine, coarse


def degenerate_instances(seed: int, lib=pc) -> list[Instance]:
    """Rank-deficient systems: overcomplete POVMs, projective refinements, subspaces."""
    out = []
    for rng, (d, n, m, merge) in _draws(seed, 1, OVERCOMPLETE_GRID):
        fine = lib.random_povm(d, n, rng, with_kraus=False)
        p_mat = lib.random_left_stochastic(m, n, rng, merge=merge, surjective=merge)
        coarse = lib.coarsen(fine, p_mat)
        kind = "merge" if merge else "mix"
        out += _pair(f"overcomplete d={d} n={n} m={m} {kind}", coarse, fine, None)
    for rng, (d, ranks) in _draws(seed, 2, PROJECTIVE_GRID):
        fine, coarse = _refined_projective(lib, rng, d, ranks)
        label = f"projective d={d} blocks={'+'.join(map(str, ranks))}"
        out += _pair(label, coarse, fine, None)
    for rng, (d, g, n, m) in _draws(seed, 3, SUBSPACE_GRID):
        fine, coarse, sub = _subspace_pair(lib, rng, d, g, n, m)
        out += _pair(f"subspace d={d} g={g} n={n} m={m}", coarse, fine, sub)
    return out


def decide(instance: Instance, lib=pc) -> pc.CoarsenessCertificate:
    """The library decision for one instance, looked up on the package at call time."""
    if instance.subspace is None:
        return lib.check_coarser(instance.coarse, instance.fine)
    return lib.check_coarser_in_subspace(instance.coarse, instance.fine, instance.subspace)
