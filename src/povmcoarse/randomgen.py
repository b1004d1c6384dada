"""Seeded random generators for states, measurements, subspaces and matrices.

Every generator accepts either an integer seed or a ``numpy.random.Generator``
and is deterministic for a fixed seed. Suites derive one child generator per
trial from ``(seed, trial)`` so that trials are independent and reproducible
regardless of execution order: everything a trial draws, its states included,
comes from ``trial_rng(seed, t)``. States are drawn as one ``(k, d, d)`` stack
from one Gaussian call; the one-state draws are its one-row case. A random
POVM draws all its outcomes in one Gaussian call too; that call gives the
numbers of one :func:`complex_gaussian` call per outcome and leaves the
generator where they leave it, so the one-call draw keeps every seeded stream.
"""

from __future__ import annotations

import numpy as np

from .distributions import StochasticMatrix, WeightedDistribution
from .errors import InvalidRangeError, InvalidRankError, SingularSumError, ValidationError
from .measurements import GeneralizedMeasurement, validate_measurement
from .operators import DensityMatrix, Subspace, dagger, matrix_sqrt_psd, require_density
from .tolerances import BUILD_ATOL, NORMALIZER_TOL

# draws of a random POVM's normalizer before a singular sum is an error
_POVM_DRAWS = 5


def rng_from(seed) -> np.random.Generator:
    """Pass through a Generator or build one from an integer seed."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent child generator for one trial of a seeded suite."""
    return np.random.default_rng(np.random.SeedSequence((int(seed) & (2**64 - 1), int(trial))))


def complex_gaussian(rng, shape) -> np.ndarray:
    """i.i.d. standard complex Gaussian entries."""
    rng = rng_from(rng)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-like random unitary from the QR decomposition of a Gaussian matrix."""
    rng = rng_from(seed)
    q, r = np.linalg.qr(complex_gaussian(rng, (dim, dim)))
    phases = np.diag(r)
    return q * (phases / np.abs(phases))


def _checked_ranks(dim: int, ranks) -> np.ndarray:
    """``ranks`` as a 1-D integer array with entries in ``[1, dim]``; anything else is an error.

    Floats are refused rather than truncated, so a rank of ``2.5`` is an error
    and not a rank-2 state.
    """
    try:
        arr = np.asarray(ranks)
    except (TypeError, ValueError) as exc:
        raise InvalidRankError(f"ranks must be a 1-D sequence of integers: {exc}") from None
    if arr.ndim != 1 or arr.size == 0 or arr.dtype.kind not in "iu":
        raise InvalidRankError(f"ranks must be a nonempty 1-D sequence of integers, got {ranks!r}")
    bad = (arr < 1) | (arr > dim)
    if bad.any():
        raise InvalidRankError(f"rank {arr[bad][0]} outside [1, {dim}]")
    return arr


def _state_draws(dim: int, ranks, seed) -> np.ndarray:
    """``BB†/Tr[BB†]`` for every rank, from one ``(k, dim, dim)`` complex Gaussian draw; not yet validated.

    State ``s`` keeps the first ``ranks[s]`` columns of its ``B``, so it has
    rank ``ranks[s]``. Every state draw of this module goes through here.
    """
    ranks = _checked_ranks(dim, ranks)
    b = complex_gaussian(seed, (ranks.size, dim, dim)) * (np.arange(dim) < ranks[:, None])[:, None, :]
    raw = b @ b.conj().swapaxes(1, 2)
    return raw / np.trace(raw, axis1=1, axis2=2).real[:, None, None]


def random_density_stack(dim: int, ranks, seed=0) -> np.ndarray:
    """Random states as one validated ``(k, dim, dim)`` stack, state ``s`` of rank ``ranks[s]``.

    ``ranks`` is a 1-D sequence of integers in ``[1, dim]``, else
    :class:`InvalidRankError`. One ``(k, dim, dim)`` complex Gaussian draw from
    ``seed`` gives every state, and the stack passes the checks of
    :class:`DensityMatrix` once, through ``require_density``.
    """
    return require_density(_state_draws(dim, ranks, seed), atol=BUILD_ATOL)


def random_density_matrix(dim: int, rank: int | None = None, seed=0) -> DensityMatrix:
    """One random state of rank ``rank`` (``None`` means ``dim``): the one-row stack draw.

    Equal bit for bit to ``random_density_stack(dim, [rank], seed)[0]``.
    """
    return DensityMatrix(_state_draws(dim, [dim if rank is None else rank], seed)[0], atol=BUILD_ATOL)


def random_povm(dim: int, n_outcomes: int, seed=0, *, with_kraus: bool = True) -> GeneralizedMeasurement:
    """Random POVM ``Π_i = S^{-1/2} A_i S^{-1/2}`` with PSD Gaussian ``A_i``.

    Each attempt draws every ``A_i = G_i G_i†`` from one ``(n, 2, dim, dim)``
    Gaussian call, real then imaginary part of each ``G_i`` in turn: the
    numbers, and the generator state after, of ``n`` :func:`complex_gaussian`
    calls of shape ``(dim, dim)``. The normalizer ``S = sum_i A_i`` is redrawn
    on (practically impossible) singular draws, at most ``_POVM_DRAWS`` times in
    all. With ``with_kraus`` each outcome gets the single Kraus operator
    ``Π_i^{1/2}``, all from one stacked square root.
    """
    if n_outcomes < 1:
        raise ValidationError("need at least one outcome")
    if dim < 1:
        raise InvalidRangeError(f"dimension must be at least 1, got {dim}")
    rng = rng_from(seed)
    for _ in range(_POVM_DRAWS):
        parts = rng.standard_normal((n_outcomes, 2, dim, dim))
        blocks = parts[:, 0] + 1j * parts[:, 1]
        raw = blocks @ blocks.conj().swapaxes(1, 2)
        # sum() adds in draw order; raw.sum(axis=0) may add pairwise and change the bits
        w, v = np.linalg.eigh(sum(raw))
        if w[0] <= NORMALIZER_TOL * w[-1]:
            continue
        inv_sqrt = (v / np.sqrt(w)) @ dagger(v)
        elements = inv_sqrt @ raw @ inv_sqrt
        kraus = matrix_sqrt_psd(elements)[:, None] if with_kraus else None
        return validate_measurement(elements, kraus, atol=BUILD_ATOL)
    raise SingularSumError(f"no well-conditioned normalizer after {_POVM_DRAWS} draws")


def random_projective(dim: int, n_blocks: int, seed=0) -> GeneralizedMeasurement:
    """Random projective measurement with ``n_blocks`` eigenspaces of random ranks."""
    if not 1 <= n_blocks <= dim:
        raise ValidationError(f"block count {n_blocks} outside [1, {dim}]")
    rng = rng_from(seed)
    u = random_unitary(dim, rng)
    cuts = np.sort(rng.choice(np.arange(1, dim), size=n_blocks - 1, replace=False))
    bounds = [0, *cuts.tolist(), dim]
    projectors = []
    for k in range(n_blocks):
        cols = u[:, bounds[k] : bounds[k + 1]]
        projectors.append(cols @ dagger(cols))
    return validate_measurement(projectors, [[p] for p in projectors], atol=BUILD_ATOL)


def random_left_stochastic(
    m: int,
    n: int,
    seed=0,
    *,
    merge: bool = False,
    surjective: bool = False,
) -> StochasticMatrix:
    """Random left stochastic matrix.

    Columns are drawn from the flat simplex distribution (normalized
    exponentials). With ``merge`` each column instead puts unit mass on one
    random row (a deterministic merge); ``surjective`` additionally guarantees
    every row receives at least one column (requires ``m <= n``).
    """
    if m < 1 or n < 1:
        raise ValidationError("matrix dimensions must be positive")
    rng = rng_from(seed)
    if merge:
        if surjective:
            if m > n:
                raise ValidationError("surjective merge needs m <= n")
            rows = np.concatenate([rng.permutation(m), rng.integers(0, m, size=n - m)])
            rows = rows[rng.permutation(n)]
        else:
            rows = rng.integers(0, m, size=n)
        mat = np.zeros((m, n))
        mat[rows, np.arange(n)] = 1.0
        return StochasticMatrix(mat)
    cols = rng.exponential(size=(m, n))
    return StochasticMatrix(cols / cols.sum(axis=0, keepdims=True))


def random_simplex(n: int, seed=0) -> np.ndarray:
    """Strictly positive probability vector of length ``n >= 1`` from the flat simplex distribution."""
    if n < 1:
        raise InvalidRangeError(f"a probability vector needs at least one entry, got {n}")
    rng = rng_from(seed)
    e = rng.exponential(size=n) + 1e-12
    return e / e.sum()


def random_weighted_distribution(n: int, seed=0) -> WeightedDistribution:
    """Random (probability, volume) pair; volumes bounded away from zero."""
    rng = rng_from(seed)
    probs = random_simplex(n, rng)
    volumes = rng.exponential(size=n) + 0.05
    return WeightedDistribution(probs, volumes)


def random_subspace(dim: int, rank: int, seed=0) -> Subspace:
    """Random subspace from the leading columns of a random unitary."""
    if not 1 <= rank <= dim:
        raise InvalidRankError(f"rank {rank} outside [1, {dim}]")
    u = random_unitary(dim, seed)
    return Subspace(u[:, :rank])


def random_subspace_of(parent: Subspace, rank: int, seed=0) -> Subspace:
    """Random subspace inside ``parent`` (rank between 1 and the parent rank)."""
    if not 1 <= rank <= parent.rank:
        raise InvalidRankError(f"rank {rank} outside [1, {parent.rank}]")
    rotation = random_unitary(parent.rank, seed)
    return Subspace(parent.basis @ rotation[:, :rank])


def random_subspace_state_stack(subspace: Subspace, ranks, seed=0) -> np.ndarray:
    """The draw of :func:`random_density_stack` on the subspace, embedded and validated once."""
    return require_density(subspace.embed(_state_draws(subspace.rank, ranks, seed)), atol=BUILD_ATOL)


def random_state_in_subspace(subspace: Subspace, seed=0, rank: int | None = None) -> DensityMatrix:
    """One random state supported exactly inside the subspace: the one-row subspace stack draw."""
    small = _state_draws(subspace.rank, [subspace.rank if rank is None else rank], seed)[0]
    return DensityMatrix(subspace.embed(small), atol=BUILD_ATOL)
