"""Seeded random generators for states, measurements, subspaces and matrices.

Every generator accepts either an integer seed or a ``numpy.random.Generator``
and is deterministic for a fixed seed. Suites derive one child generator per
trial from ``(seed, trial)`` so that trials are independent and reproducible
regardless of execution order.
"""

from __future__ import annotations

import numpy as np

from .distributions import StochasticMatrix, WeightedDistribution
from .errors import InvalidRankError, SingularSumError, ValidationError
from .measurements import GeneralizedMeasurement, validate_measurement
from .operators import DensityMatrix, Subspace, dagger, matrix_sqrt_psd, require_density

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


def _gaussian_gram(dim: int, rank: int | None, rng) -> np.ndarray:
    """``BB†`` with ``B`` a ``dim x rank`` complex Gaussian; ``rank=None`` means ``dim``."""
    if rank is None:
        rank = dim
    if not 1 <= rank <= dim:
        raise InvalidRankError(f"rank {rank} outside [1, {dim}]")
    b = complex_gaussian(rng, (dim, rank))
    return b @ dagger(b)


def _unit_trace(raw: np.ndarray) -> np.ndarray:
    """``raw / Tr raw`` for one matrix or a ``(k, d, d)`` stack; every state draw normalizes here."""
    return raw / np.trace(raw, axis1=-2, axis2=-1).real[..., None, None]


def random_density_matrix(dim: int, rank: int | None = None, seed=0) -> DensityMatrix:
    """Random state ``BB†/Tr[BB†]`` with ``B`` a ``dim x rank`` complex Gaussian."""
    raw = _gaussian_gram(dim, rank, rng_from(seed))
    return DensityMatrix(_unit_trace(raw), atol=1e-9)


def random_density_stack(dim: int, draws) -> np.ndarray:
    """Random states as one validated ``(k, dim, dim)`` stack, one per ``(rank, seed)`` pair.

    Slice ``s`` equals ``random_density_matrix(dim, rank_s, seed_s).matrix``
    bit for bit, and the stack passes the checks of :class:`DensityMatrix`
    once. ``draws`` is consumed one pair per state, so a pair may draw its
    rank from the generator that then draws the state.
    """
    raw = np.stack([_gaussian_gram(dim, rank, rng_from(seed)) for rank, seed in draws])
    return require_density(_unit_trace(raw), atol=1e-9)


def random_povm(dim: int, n_outcomes: int, seed=0, *, with_kraus: bool = True) -> GeneralizedMeasurement:
    """Random POVM ``Π_i = S^{-1/2} A_i S^{-1/2}`` with PSD Gaussian ``A_i``.

    The normalizer ``S = sum_i A_i`` is redrawn on (practically impossible)
    singular draws, at most ``_POVM_DRAWS`` times in all. With ``with_kraus``
    each outcome gets the single Kraus operator ``Π_i^{1/2}``.
    """
    if n_outcomes < 1:
        raise ValidationError("need at least one outcome")
    rng = rng_from(seed)
    for _ in range(_POVM_DRAWS):
        blocks = np.stack([complex_gaussian(rng, (dim, dim)) for _ in range(n_outcomes)])
        raw = blocks @ blocks.conj().swapaxes(1, 2)
        # sum() adds in draw order; raw.sum(axis=0) may add pairwise and change the bits
        w, v = np.linalg.eigh(sum(raw))
        if w[0] <= 1e-10 * w[-1]:
            continue
        inv_sqrt = (v / np.sqrt(w)) @ dagger(v)
        elements = inv_sqrt @ raw @ inv_sqrt
        kraus = [[matrix_sqrt_psd(e)] for e in elements] if with_kraus else None
        return validate_measurement(elements, kraus, atol=1e-9)
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
    return validate_measurement(projectors, [[p] for p in projectors], atol=1e-9)


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
    """Strictly positive probability vector from the flat simplex distribution."""
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


def random_state_in_subspace(subspace: Subspace, seed=0, rank: int | None = None) -> DensityMatrix:
    """Random state supported exactly inside the subspace."""
    rng = rng_from(seed)
    small = random_density_matrix(subspace.rank, rank, rng)
    return DensityMatrix(subspace.embed(small.matrix), atol=1e-9)


def random_subspace_state_stack(subspace: Subspace, draws) -> np.ndarray:
    """Random states inside the subspace as one validated stack, one per ``(rank, seed)`` pair.

    Slice ``s`` equals ``random_state_in_subspace(subspace, seed_s, rank_s).matrix``
    bit for bit.
    """
    small = random_density_stack(subspace.rank, draws)
    return require_density(subspace.embed(small), atol=1e-9)
