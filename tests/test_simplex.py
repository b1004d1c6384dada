"""Feasibility solver: basic cases, randomized cross-check against scipy, parity with the full tableau."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog

from povmcoarse import lp_feasible, simplex
from povmcoarse.coarseness import _component_rows
from povmcoarse.errors import (
    InvalidRangeError,
    IterationLimitError,
    ShapeMismatchError,
    ValidationError,
)

from conftest import (
    MERGE_DRAWS,
    eliminated_processing_system,
    overcomplete_merge_pair,
    refined_projective_pair,
    seeded_rng,
)


def scipy_feasible(a_eq, b_eq, a_ub=None, b_ub=None, n_vars=None) -> bool:
    """Independent oracle: phase-1 via scipy's HiGHS with a zero objective."""
    res = linprog(
        c=np.zeros(n_vars),
        A_eq=a_eq,
        b_eq=b_eq,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(0, None)] * n_vars,
        method="highs",
    )
    return res.status == 0


class TestBasics:
    def test_simplex_line_feasible(self):
        res = lp_feasible([[1.0, 1.0]], [1.0], n_vars=2)
        assert res.feasible
        assert res.residual <= 1e-10
        assert res.x.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(res.x >= 0)

    def test_negative_rhs_infeasible(self):
        res = lp_feasible([[1.0]], [-1.0], n_vars=1)
        assert res.verdict == "infeasible"
        assert res.phase1_optimum > 1e-7
        assert res.x is None

    def test_inequality_only(self):
        res = lp_feasible(a_ub=[[1.0, 1.0]], b_ub=[2.0], n_vars=2)
        assert res.feasible

    def test_inequality_with_negative_rhs_needs_artificial(self):
        # -x <= -3 means x >= 3; feasible with x = 3
        res = lp_feasible(a_ub=[[-1.0]], b_ub=[-3.0], n_vars=1)
        assert res.feasible
        assert res.x[0] >= 3.0 - 1e-9

    def test_conflicting_inequalities_infeasible(self):
        res = lp_feasible(a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0], n_vars=1)
        assert res.verdict == "infeasible"

    def test_no_constraints(self):
        res = lp_feasible(n_vars=3)
        assert res.feasible
        np.testing.assert_allclose(res.x, 0.0)

    def test_shape_errors(self):
        with pytest.raises(ShapeMismatchError):
            lp_feasible([[1.0, 2.0]], [1.0, 2.0], n_vars=2)
        with pytest.raises(ShapeMismatchError):
            lp_feasible([[1.0, 2.0, 3.0]], [1.0], n_vars=2)

    @pytest.mark.parametrize("n_vars", [-1, 2.5, 2.0, True, np.bool_(True), "2", None, np.int64(-3)])
    def test_n_vars_must_be_a_non_negative_integer(self, n_vars):
        with pytest.raises(InvalidRangeError, match="n_vars must be a non-negative integer"):
            lp_feasible([[1.0, 1.0]], [1.0], n_vars=n_vars)

    @pytest.mark.parametrize("n_vars", [0, np.int64(0), np.uint8(2)])
    def test_numpy_and_zero_n_vars_accepted(self, n_vars):
        res = lp_feasible(a_ub=np.zeros((1, int(n_vars))), b_ub=[1.0], n_vars=n_vars)
        assert res.feasible
        assert res.x.shape == (int(n_vars),)

    @pytest.mark.parametrize("part", ["a_eq", "b_eq", "a_ub", "b_ub"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, part, bad):
        system = {"a_eq": [[1.0, 1.0]], "b_eq": [1.0], "a_ub": [[1.0, 0.0]], "b_ub": [2.0]}
        system[part] = np.array(system[part])
        system[part].flat[-1] = bad
        with pytest.raises(ValidationError, match=r"entry \[0(, 1)?\] is .*not finite"):
            lp_feasible(**system, n_vars=2)

    def test_converse_counterexample_system(self):
        # p' = P p, V' = P V for p=(3/4,1/4), V=(1,1) vs p'=(1,0), V'=(9/5,1/5):
        # writing the four unknown entries of P column-major by target outcome
        a_eq = [
            [0.75, 0.25, 0.0, 0.0],   # p'_1
            [0.0, 0.0, 0.75, 0.25],   # p'_2
            [1.0, 1.0, 0.0, 0.0],     # V'_1
            [0.0, 0.0, 1.0, 1.0],     # V'_2
            [1.0, 0.0, 1.0, 0.0],     # column sums
            [0.0, 1.0, 0.0, 1.0],
        ]
        b_eq = [1.0, 0.0, 1.8, 0.2, 1.0, 1.0]
        res = lp_feasible(a_eq, b_eq, n_vars=4)
        assert res.verdict == "infeasible"

    def test_degenerate_zero_rows(self):
        # redundant zero equalities must not disturb feasibility
        res = lp_feasible([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]], [0.0, 1.0, 0.0], n_vars=2)
        assert res.feasible


class TestBarredColumn:
    def test_column_without_usable_pivot_is_barred(self):
        """Five rows ``5e-8 x0 + 2e-7 x_k = 2e-7`` (k = 1..5).

        ``x0`` has the most negative reduced cost (-2.5e-7), but none of its
        entries reaches ``_PIVOT_TOL``, so the first pricing bars it and
        another column enters. HiGHS finds the system feasible (``x0 = 4``).
        """
        a = np.zeros((5, 6))
        a[:, 0] = 5e-8
        a[np.arange(5), np.arange(1, 6)] = 2e-7
        b = np.full(5, 2e-7)
        assert a[:, 0].max() < simplex._PIVOT_TOL
        res = lp_feasible(a, b, n_vars=6)
        assert res.verdict == "feasible"
        assert res.residual <= 1e-7
        assert np.all(res.x >= 0)
        assert scipy_feasible(a, b, n_vars=6)


class TestVerdictBand:
    def test_band_edges(self):
        tol = 1e-8
        violations = [0.0, tol, 2 * tol, 10 * tol, 11 * tol, np.nan, np.inf]
        bands = [simplex._verdict_band(v, tol) for v in violations]
        assert bands == [
            "feasible", "feasible", "ambiguous", "ambiguous", "infeasible", "ambiguous", "infeasible"
        ]
        numpy_scalars = [simplex._verdict_band(np.float64(v), tol) for v in violations]
        assert numpy_scalars == bands
        assert all(type(b) is str for b in bands + numpy_scalars)
        # an array's bands name the same verdicts element by element
        array = simplex._BANDS[simplex._band(np.array(violations), tol)]
        assert array.dtype == np.dtype("<U10")
        assert array.tolist() == bands

    def test_majorization_verdicts_apply_the_scalar_rule(self):
        from povmcoarse import majorization_verdicts, push_forward
        from povmcoarse.randomgen import random_left_stochastic, random_weighted_distribution

        rng = np.random.default_rng(2016)
        seen = set()
        for _ in range(80):
            n, m = (int(k) for k in rng.integers(1, 13, size=2))
            tol = float(10.0 ** rng.uniform(-9, -1))
            fine = random_weighted_distribution(n, rng)
            rows = [push_forward(random_left_stochastic(m, n, rng), fine) for _ in range(4)]
            rows += [random_weighted_distribution(m, rng) for _ in range(4)]
            verdicts, _, slacks, gaps = majorization_verdicts(
                fine, np.stack([w.probs for w in rows]), np.stack([w.volumes for w in rows]), tol
            )
            assert verdicts.dtype == np.dtype("<U10")
            want = [simplex._verdict_band(v, tol) for v in np.maximum(-slacks, gaps).tolist()]
            assert verdicts.tolist() == want
            seen.update(want)
        assert seen == {"feasible", "ambiguous", "infeasible"}


class TestTinyPivotRegression:
    def test_constructed_coarse_graining_systems_stay_feasible(self):
        """Feasible mixture systems whose ratio tests meet near-zero pivots.

        A draw at dim 6 (seed fixed below) once produced pivot elements of
        1e-10 that corrupted the tableau into a false infeasibility verdict;
        the solver must treat such entries as zero instead of dividing by
        them.
        """
        from povmcoarse.coarseness import check_coarser, coarsen
        from povmcoarse.randomgen import random_left_stochastic, random_povm, trial_rng

        rng = trial_rng(20240914, 265)
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n + 1))
        fine = random_povm(6, n, rng, with_kraus=False)
        coarse = coarsen(fine, random_left_stochastic(m, n, rng))
        cert = check_coarser(coarse, fine)
        assert cert.feasible
        assert cert.residual <= 1e-7

    def test_scipy_agreement_on_larger_structured_systems(self):
        from povmcoarse.coarseness import _component_rows
        from povmcoarse.randomgen import random_left_stochastic, random_povm

        rng = np.random.default_rng(977)
        for k in range(40):
            d = int(rng.integers(4, 7))
            n = int(rng.integers(3, 6))
            m = int(rng.integers(2, n + 1))
            fine = random_povm(d, n, rng, with_kraus=False)
            if k % 2 == 0:
                from povmcoarse.coarseness import coarsen

                coarse = coarsen(fine, random_left_stochastic(m, n, rng))
            else:
                coarse = random_povm(d, m, rng, with_kraus=False)
            comp_fine = _component_rows(fine.elements)
            comp_coarse = _component_rows(coarse.elements)
            big_d = comp_fine.shape[1]
            mm = coarse.n_outcomes
            n_vars = mm * n
            a_eq = np.zeros((mm * big_d + n, n_vars))
            b_eq = np.zeros(mm * big_d + n)
            for j in range(mm):
                a_eq[j * big_d : (j + 1) * big_d, j * n : (j + 1) * n] = comp_fine.T
                b_eq[j * big_d : (j + 1) * big_d] = comp_coarse[j]
            for i in range(n):
                a_eq[mm * big_d + i, i::n] = 1.0
                b_eq[mm * big_d + i] = 1.0
            mine = lp_feasible(a_eq, b_eq, n_vars=n_vars, tol=1e-8)
            oracle = scipy_feasible(a_eq, b_eq, n_vars=n_vars)
            assert mine.verdict != "ambiguous"
            assert mine.feasible == oracle, f"pair {k}"


class TestAgainstScipy:
    def test_random_equality_systems(self):
        rng = np.random.default_rng(101)
        disagreements = 0
        for k in range(150):
            n = int(rng.integers(2, 9))
            rows = int(rng.integers(1, 7))
            a = rng.standard_normal((rows, n))
            if k % 2 == 0:
                # feasible by construction: b = A x0 with x0 >= 0
                x0 = rng.exponential(size=n)
                b = a @ x0
            else:
                b = rng.standard_normal(rows) * 2.0
            mine = lp_feasible(a, b, n_vars=n, tol=1e-8)
            oracle = scipy_feasible(a, b, n_vars=n)
            if mine.verdict == "ambiguous":
                disagreements += 1
            elif mine.feasible != oracle:
                disagreements += 1
            if mine.feasible:
                assert mine.residual <= 1e-7
        assert disagreements == 0

    def test_random_mixed_systems(self):
        rng = np.random.default_rng(103)
        for k in range(100):
            n = int(rng.integers(2, 7))
            me = int(rng.integers(1, 4))
            mu = int(rng.integers(1, 4))
            a_eq = rng.standard_normal((me, n))
            a_ub = rng.standard_normal((mu, n))
            if k % 2 == 0:
                x0 = rng.exponential(size=n)
                b_eq = a_eq @ x0
                b_ub = a_ub @ x0 + rng.exponential(size=mu)
            else:
                b_eq = rng.standard_normal(me)
                b_ub = rng.standard_normal(mu)
            mine = lp_feasible(a_eq, b_eq, a_ub, b_ub, n_vars=n, tol=1e-8)
            oracle = scipy_feasible(a_eq, b_eq, a_ub, b_ub, n_vars=n)
            assert mine.verdict != "ambiguous"
            assert mine.feasible == oracle
            if mine.feasible:
                assert mine.residual <= 1e-7
                assert np.all(mine.x >= -1e-12)


def _zero_rhs_systems(seed: int, count: int):
    """Equality systems with homogeneous rows, whose basic artificials sit at zero.

    Every other system is feasible by construction: the homogeneous rows are
    made orthogonal to a positive ``x0`` that also fixes the other right-hand
    sides. Ratio tests then tie at zero, so phase 1 makes degenerate pivots.
    """
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(3, 8))
        me = int(rng.integers(1, 4))
        mz = int(rng.integers(1, 4))
        a = rng.standard_normal((me, n))
        x0 = rng.exponential(size=n)
        g = rng.standard_normal((mz, n))
        if k % 2 == 0:
            b = a @ x0
            g -= np.outer(g @ x0, x0) / (x0 @ x0)
        else:
            b = rng.standard_normal(me)
        yield np.vstack([g, a]), np.concatenate([np.zeros(mz), b]), n


class TestBlandRule:
    """With a stall limit of 0 the first degenerate pivot switches to Bland's entering rule.

    The switch is for good and changes only the entering column; the leaving
    row stays the largest pivot among Harris's candidates. The mixed and
    structured systems never make a degenerate pivot, so there the lower
    limit must change nothing; the homogeneous-row systems are the ones that
    reach Bland's rule.
    """

    @pytest.fixture(autouse=True)
    def bland_at_first_stall(self, monkeypatch):
        monkeypatch.setattr(simplex, "_STALL_LIMIT", 0)

    def test_random_mixed_systems(self):
        TestAgainstScipy().test_random_mixed_systems()

    def test_structured_systems(self):
        TestTinyPivotRegression().test_scipy_agreement_on_larger_structured_systems()

    def test_degenerate_systems(self, monkeypatch):
        bland_pivots = 0
        for a, b, n in _zero_rhs_systems(103, 100):
            mine = lp_feasible(a, b, n_vars=n, tol=1e-8)
            assert mine.verdict != "ambiguous"
            assert mine.feasible == scipy_feasible(a, b, n_vars=n)
            if mine.feasible:
                assert mine.residual <= 1e-7
            bland_pivots += mine.iterations
        monkeypatch.undo()
        default_pivots = sum(
            lp_feasible(a, b, n_vars=n).iterations for a, b, n in _zero_rhs_systems(103, 100)
        )
        # the switch fired and changed the pivot path
        assert bland_pivots != default_pivots


def _pair_form(a_eq, b_eq, a_ub, b_ub):
    """The system with each equality row written as two inequality rows: ``(a_ub, b_ub)``."""
    return np.vstack([a_eq, -a_eq, a_ub]), np.concatenate([b_eq, -b_eq, b_ub])


class TestLeavingRule:
    """The largest pivot among Harris's candidates leaves, also after the stall switch.

    In inequality-pair form these merge systems stall long enough for the
    switch to fire. With the smallest basis id leaving after it (Bland's own
    leaving choice), draw (14, 0) came back ``infeasible`` with phase-1
    optimum 74.4 after 16,533 pivots, and draw (15, 1) had no result after
    150,000. The largest pivot ends both in under 2,300 pivots; the cap keeps
    a regression below the default budget of 37,200 pivots (740 rows and
    columns).
    """

    @pytest.mark.parametrize("seed, draw", [(14, 0), (15, 1)])
    def test_merge_system_in_pair_form_is_feasible(self, seed, draw):
        coarse, fine = overcomplete_merge_pair(seed, draw)
        a, b = _pair_form(
            *eliminated_processing_system(
                _component_rows(fine.stacked()), _component_rows(coarse.stacked())
            )
        )
        n = (coarse.n_outcomes - 1) * fine.n_outcomes
        res = lp_feasible(a_ub=a, b_ub=b, n_vars=n, max_iter=20_000)
        assert res.verdict == "feasible"
        assert res.residual <= 1e-7
        assert scipy_feasible(None, None, a, b, n_vars=n)


class TestStallSwitch:
    """Hall and McKinnon's cycling example (*Math. Programming* 100, 133 (2004)) in phase-1 form.

    Its two rows ``x <= 0``, with its objective as a third row ``<= -0.05``,
    make the only artificial's row. Dantzig's rule cycles through degenerate
    pivots on it until the pivot cap; Bland's entering rule, after the stall
    switch, ends phase 1 at a feasible point.
    """

    A_UB = np.array(
        [[0.4, 0.2, -1.4, -0.2], [-7.8, -1.4, 7.8, 0.4], [-2.3, -2.15, 13.55, 0.4]]
    )
    B_UB = np.array([0.0, 0.0, -0.05])

    def test_switch_reaches_a_feasible_point(self):
        res = lp_feasible(a_ub=self.A_UB, b_ub=self.B_UB, n_vars=4)
        assert res.verdict == "feasible"
        assert res.residual <= 1e-7
        assert scipy_feasible(None, None, self.A_UB, self.B_UB, n_vars=4)

    def test_without_the_switch_the_cap_is_reached(self, monkeypatch):
        monkeypatch.setattr(simplex, "_STALL_LIMIT", 10**9)
        with pytest.raises(IterationLimitError):
            lp_feasible(a_ub=self.A_UB, b_ub=self.B_UB, n_vars=4)


class TestIterationCap:
    def test_cap_raises_with_pivot_count(self):
        with pytest.raises(IterationLimitError) as info:
            lp_feasible([[1.0, 1.0], [1.0, -1.0]], [1.0, 0.0], n_vars=2, max_iter=1)
        assert info.value.iterations == 2

    def test_default_cap_grows_linearly_with_the_system(self, monkeypatch):
        """A solve that does not end stops after a budget linear in rows + columns.

        Merge draw (9, 1) in equality form does not end with the switch at
        the first stall. Its 132 rows, 160 structural and 112 artificial
        columns give a budget of 50 * 404 + 200 = 20,400 pivots; the budget
        ``10 * 404**2`` that it replaced ran 1,632,160 pivots, about a minute.
        """
        monkeypatch.setattr(simplex, "_STALL_LIMIT", 0)
        coarse, fine = overcomplete_merge_pair(9, 1)
        a_eq, b_eq, a_ub, b_ub = eliminated_processing_system(
            _component_rows(fine.stacked()), _component_rows(coarse.stacked())
        )
        assert (len(a_eq) + len(a_ub), a_eq.shape[1] + len(a_ub)) == (132, 160)
        with pytest.raises(IterationLimitError) as info:
            lp_feasible(a_eq, b_eq, a_ub, b_ub, n_vars=a_eq.shape[1])
        assert info.value.iterations == 50 * 404 + 200 + 1


def full_tableau_feasible(a_eq, b_eq, a_ub, b_ub, n_vars):
    """Reference phase 1 on the full ``(m + 1, n_struct + 1)`` tableau.

    Every structural column is stored at its id and updated by every pivot,
    basic or not, so both entering rules break ties by column id without
    bookkeeping. It reads the solver's constants at call time, so a patched
    stall limit applies to both. Returns ``(iterations, phase1_optimum, x)``.
    """
    a_eq, b_eq = np.asarray(a_eq, dtype=float), np.asarray(b_eq, dtype=float)
    a_ub = np.zeros((0, n_vars)) if a_ub is None else np.asarray(a_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)
    me, mu = a_eq.shape[0], a_ub.shape[0]
    m = me + mu
    n_struct = n_vars + mu
    T = np.zeros((m + 1, n_struct + 1))
    T[:me, :n_vars] = a_eq
    T[me:m, :n_vars] = a_ub
    T[me:m, n_vars:n_struct] = np.eye(mu)
    T[:m, -1] = np.concatenate([b_eq, b_ub])
    flipped = T[:m, -1] < 0
    T[:m][flipped] *= -1.0
    art_rows = [r for r in range(m) if r < me or flipped[r]]
    basis = n_vars - me + np.arange(m)
    basis[art_rows] = n_struct + np.arange(len(art_rows))
    T[m] = -T[art_rows].sum(axis=0)
    rhs, obj = T[:m, -1], T[m, :n_struct]

    bland = False
    stall = 0
    best_value = float(rhs[art_rows].sum())
    iterations = 0
    barred = []
    while True:
        window = obj
        if barred:
            window = obj.copy()
            window[barred] = 0.0
        eligible = (window < -simplex._ENTER_TOL).nonzero()[0]
        if eligible.size == 0:
            break
        j = int(eligible[0]) if bland else int(window.argmin())
        col = T[:m, j]
        rows = (col > simplex._PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            barred.append(j)
            continue
        head, piv = rhs[rows], col[rows]
        bound = float(((head + simplex._HARRIS_DELTA) / piv).min())
        tie = rows[head / piv <= bound]
        r = int(tie[col[tie].argmax()])
        iterations += 1
        T[r] /= T[r, j]
        other = T[:, j].copy()
        other[r] = 0.0
        T -= other[:, None] * T[r]
        basis[r] = j
        barred = []
        value = float(rhs[basis >= n_struct].sum())
        if value < best_value - 1e-12:
            best_value = value
            stall = 0
        else:
            stall += 1
            if stall > simplex._STALL_LIMIT:
                bland = True

    art_basic = basis >= n_struct
    optimum = float(np.clip(rhs[art_basic], 0.0, None).sum())
    x_struct = np.zeros(n_struct)
    x_struct[basis[~art_basic]] = np.clip(rhs[~art_basic], 0.0, None)
    return iterations, optimum, x_struct[:n_vars]


def assert_same_solve(a_eq, b_eq, a_ub=None, b_ub=None, *, n_vars):
    """``lp_feasible`` repeats the reference's iterations, optimum and witness bit for bit."""
    res = lp_feasible(a_eq, b_eq, a_ub, b_ub, n_vars=n_vars)
    iterations, optimum, x = full_tableau_feasible(a_eq, b_eq, a_ub, b_ub, n_vars)
    assert res.iterations == iterations
    assert np.float64(res.phase1_optimum).tobytes() == np.float64(optimum).tobytes()
    assert res.verdict == simplex._verdict_band(optimum, 1e-8)
    if res.x is not None:
        assert res.x.tobytes() == x.tobytes()
    return res


def _integer_systems(seed: int, count: int):
    """Small integer systems, two in three feasible by construction.

    Integer entries make exact ties among the reduced costs common, and the
    many equality rows make artificials leave early, so the condensed
    tableau moves columns out of id order before such ties are broken.
    """
    rng = np.random.default_rng(seed)
    for k in range(count):
        n, me, mu = (int(v) for v in rng.integers((4, 2, 0), (9, 6, 3)))
        a_eq = rng.integers(-1, 3, size=(me, n)).astype(float)
        a_ub = rng.integers(-1, 3, size=(mu, n)).astype(float)
        x0 = rng.integers(0, 3, size=n).astype(float)
        b_eq = a_eq @ x0 + (k % 3 == 0)
        b_ub = a_ub @ x0 + rng.integers(-1, 2, size=mu)
        yield a_eq, b_eq, a_ub, b_ub, n


class TestCondensedTableau:
    """The condensed, column-major tableau against the full one it replaced."""

    def test_rank_deficient_processing_systems(self):
        pairs = [overcomplete_merge_pair(seed, draw) for seed, draw in MERGE_DRAWS]
        pairs.append(refined_projective_pair(seeded_rng(20, 2, 4, 0), 10, (2, 3, 5)))
        for coarse, fine in pairs:
            system = eliminated_processing_system(
                _component_rows(fine.stacked()), _component_rows(coarse.stacked())
            )
            res = assert_same_solve(*system, n_vars=(coarse.n_outcomes - 1) * fine.n_outcomes)
            assert res.verdict == "feasible"

    def test_exact_ties_after_columns_moved(self):
        verdicts = {
            assert_same_solve(a_eq, b_eq, a_ub, b_ub, n_vars=n).verdict
            for a_eq, b_eq, a_ub, b_ub, n in _integer_systems(2025, 200)
        }
        assert verdicts == {"feasible", "infeasible"}

    def test_barred_column(self):
        a = np.zeros((5, 6))
        a[:, 0] = 5e-8
        a[np.arange(5), np.arange(1, 6)] = 2e-7
        assert assert_same_solve(a, np.full(5, 2e-7), n_vars=6).verdict == "feasible"

    @pytest.mark.parametrize("stall_limit", [0, simplex._STALL_LIMIT])
    def test_bland_switch(self, monkeypatch, stall_limit):
        monkeypatch.setattr(simplex, "_STALL_LIMIT", stall_limit)
        for a, b, n in _zero_rhs_systems(103, 100):
            assert_same_solve(a, b, n_vars=n)
        for a_eq, b_eq, a_ub, b_ub, n in _integer_systems(7, 100):
            assert_same_solve(a_eq, b_eq, a_ub, b_ub, n_vars=n)

    def test_every_column_leaves_the_block(self):
        # each unit column enters in place of its row's artificial, which
        # empties the block of nonbasic columns
        res = lp_feasible(np.eye(3), np.ones(3), n_vars=3)
        assert res.verdict == "feasible"
        assert res.iterations == 3
        assert np.array_equal(res.x, np.ones(3))
        assert_same_solve(np.eye(3), np.ones(3), n_vars=3)

    def test_infeasible_optimum_and_verdict(self):
        # x0 + x1 cannot equal 1 and 2: the least total violation is 1
        res = assert_same_solve([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0], n_vars=2)
        assert res.verdict == "infeasible"
        assert res.phase1_optimum == 1.0
        assert res.x is None
