"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from povmcoarse import coarsen, require_density, validate_measurement
from povmcoarse.randomgen import (
    random_density_stack,
    random_left_stochastic,
    random_povm,
    random_projective,
    random_unitary,
)


def ket(*amplitudes):
    return np.asarray(amplitudes, dtype=complex)


def proj(vec):
    vec = np.asarray(vec, dtype=complex)
    return np.outer(vec, vec.conj())


KET_PLUS = ket(1, 1) / math.sqrt(2)
KET_MINUS = ket(1, -1) / math.sqrt(2)


@pytest.fixture
def z_measurement():
    """Computational-basis measurement on a qubit, projectors as Kraus ops."""
    p0, p1 = proj(ket(1, 0)), proj(ket(0, 1))
    return validate_measurement([p0, p1], [[p0], [p1]])


@pytest.fixture
def x_measurement():
    p_plus, p_minus = proj(KET_PLUS), proj(KET_MINUS)
    return validate_measurement([p_plus, p_minus], [[p_plus], [p_minus]])


@pytest.fixture
def halves_measurement():
    """The non-projective two-outcome example {|0><0|/2, |0><0|/2 + |1><1|}."""
    return validate_measurement([0.5 * proj(ket(1, 0)), 0.5 * proj(ket(1, 0)) + proj(ket(0, 1))])


def kernel_cases():
    """``(measurement, states)`` pairs that the stack kernels must match the scalar functions on.

    Random POVMs on states of every rank, rank-1 states, degenerate spectra
    (maximally mixed, a repeated nonzero eigenvalue) and outcomes whose
    probability falls below ``ZERO_PROB_TOL`` (a state inside one projector).
    Every stack is validated, as the kernels expect.
    """
    rng = np.random.default_rng(2022)
    cases = []
    for d in range(1, 7):
        povm = random_povm(d, int(rng.integers(1, 6)), rng, with_kraus=False)
        cases.append((povm, random_density_stack(d, rng.integers(1, d + 1, size=40), rng)))
        cases.append((povm, random_density_stack(d, [1] * 10, rng)))
        u = random_unitary(d, rng)
        spectra = [np.full(d, 1.0 / d)]
        if d >= 3:
            spectra.append(np.array([0.4, 0.4, 0.2] + [0.0] * (d - 3)))
        cases.append((povm, np.stack([(u * w) @ u.conj().T for w in spectra])))
    for d in (2, 4):
        z = random_projective(d, d, rng)
        inside = np.stack([z.elements[k] for k in range(d)])  # pure states, one per projector
        cases.append((z, inside))
    halves = validate_measurement([0.5 * proj(ket(1, 0)), 0.5 * proj(ket(1, 0)) + proj(ket(0, 1))])
    cases.append((halves, np.stack([proj(ket(1, 0)), proj(ket(0, 1)), np.eye(2) / 2])))
    return [(m, require_density(states, atol=1e-9)) for m, states in cases]


def exhaustive_partition_exists(coarse, fine, tol=1e-8) -> bool:
    """Independent oracle: search all assignments of fine outcomes to coarse ones.

    Checks every function {fine outcomes} -> {coarse outcomes} for whether the
    grouped sums reproduce the coarse elements. Exponential, so only usable for
    small outcome counts; deliberately does not share code with the library's
    greedy fast path.
    """
    n = fine.n_outcomes
    m = coarse.n_outcomes
    fine_stack = np.stack(fine.elements)
    coarse_stack = np.stack(coarse.elements)
    for assignment in itertools.product(range(m), repeat=n):
        choice = np.asarray(assignment)
        ok = True
        for j in range(m):
            total = fine_stack[choice == j].sum(axis=0)
            if np.linalg.norm(total - coarse_stack[j]) > tol:
                ok = False
                break
        if ok:
            return True
    return False


def classical_two_outcome_feasible(p1, v1, p2, v2, vtot=2.0, tol=1e-12) -> bool:
    """Closed-form oracle for the two-outcome classical processing relation.

    With source ((p1, 1-p1), (v1, vtot-v1)) and target ((p2, 1-p2),
    (v2, vtot-v2)), eliminating the stochastic matrix from the probability and
    volume equations leaves a 2x2 linear system for the first row of P; the
    relation is feasible iff that row lands in [0, 1]^2. Derived by hand for
    v-volumes (v1, vtot-v1) generic: solving
        P11*p1 + P12*(1-p1) = p2
        P11*v1 + P12*(vtot-v1) = v2
    and requiring 0 <= P11, P12 <= 1 (the second row is the complement).
    """
    a = np.array([[p1, 1.0 - p1], [v1, vtot - v1]])
    det = float(np.linalg.det(a))
    if abs(det) < 1e-14:
        raise ValueError("degenerate source, oracle not applicable")
    row = np.linalg.solve(a, np.array([p2, v2]))
    return bool(np.all(row >= -tol) and np.all(row <= 1.0 + tol))


def seeded_rng(seed, family, index, draw):
    """The generator of one benchmark draw: ``(seed, family, grid index, draw)``."""
    return np.random.default_rng(np.random.SeedSequence((seed, family, index, draw)))


# (seed, draw) of the benchmark's overcomplete d=4 n=20 m=8 merge family
# (grid index 6) whose rank-deficient LPs once came back with wrong verdicts
MERGE_DRAWS = [(1, 1), (9, 1), (14, 0), (14, 1), (15, 1), (27, 0), (36, 0), (74, 1), (100, 0)]


def overcomplete_merge_pair(seed, draw):
    """``(coarse, fine)``: 20 qudit (d = 4) elements merged by a 0/1 transition matrix into 8."""
    rng = seeded_rng(seed, 1, 6, draw)
    fine = random_povm(4, 20, rng, with_kraus=False)
    coarse = coarsen(fine, random_left_stochastic(8, 20, rng, merge=True, surjective=True))
    return coarse, fine


def refined_projective_pair(rng, dim, ranks):
    """A projective measurement and a refinement of each block into rank + 1 diagonal pieces."""
    u = random_unitary(dim, rng)
    projectors, pieces = [], []
    start = 0
    for r in ranks:
        basis = u[:, start : start + r]
        start += r
        projectors.append(basis @ basis.conj().T)
        for row in random_left_stochastic(r + 1, r, rng).matrix:
            pieces.append((basis * row) @ basis.conj().T)
    order = rng.permutation(len(pieces))
    fine = validate_measurement([pieces[i] for i in order], atol=1e-9)
    return validate_measurement(projectors, atol=1e-9), fine


def eliminated_processing_system(comp_fine, comp_coarse, v_fine=None, v_coarse=None):
    """The processing LP over all of ``P`` but its last row, assembled one entry at a time.

    ``comp_coarse[j] = sum_i P_ji comp_fine[i]`` is one block of ``D``
    equality rows per coarse outcome ``j < m - 1`` over the variables
    ``P_ji`` at ``j * n + i``; ``P_{m-1,i} = 1 - sum_{j<m-1} P_ji`` is the
    slack of column sum ``i``, and with volumes the last outcome's volume row
    is rewritten in the other rows' variables. The library solves a reduced
    form of this system; the full one keeps the simplex tests on its many
    degenerate equality rows. Returns ``(a_eq, b_eq, a_ub, b_ub)``.
    """
    n, big_d = comp_fine.shape
    k = comp_coarse.shape[0] - 1
    a_eq = np.zeros((k * big_d, k * n))
    b_eq = np.zeros(k * big_d)
    for j in range(k):
        for c in range(big_d):
            b_eq[j * big_d + c] = comp_coarse[j, c]
            for i in range(n):
                a_eq[j * big_d + c, j * n + i] = comp_fine[i, c]
    rows = n if v_fine is None else n + k + 1
    a_ub = np.zeros((rows, k * n))
    b_ub = np.zeros(rows)
    for i in range(n):
        b_ub[i] = 1.0
        for j in range(k):
            a_ub[i, j * n + i] = 1.0
    if v_fine is None:
        return a_eq, b_eq, a_ub, b_ub
    for j in range(k):
        b_ub[n + j] = v_coarse[j]
        for i in range(n):
            a_ub[n + j, j * n + i] = v_fine[i]
    # V'_{m-1} >= sum_i (1 - sum_{j<m-1} P_ji) V_i
    b_ub[n + k] = v_coarse[k] - np.sum(v_fine)
    for j in range(k):
        for i in range(n):
            a_ub[n + k, j * n + i] = -v_fine[i]
    return a_eq, b_eq, a_ub, b_ub
