"""Transport problem layer: kernel, potentials, objectives, rounding."""

import numpy as np
import pytest

from pinkhorn import (
    METHODS,
    OTProblem,
    Potentials,
    SolverConfig,
    as_constraint_system,
    eval_f,
    gibbs_kernel,
    marginal_violation,
    plan_from_potentials,
    round_to_feasible,
    solve,
    transport_cost,
)
from pinkhorn.kernel import kl_terms


def toy_problem(gamma=1.0):
    return OTProblem(
        cost=[[0.0, 1.0], [1.0, 0.0]], gamma=gamma, p=[0.5, 0.5], q=[0.5, 0.5]
    )


def random_problem(rng, n, m=None, gamma=1.0):
    m = n if m is None else m
    p = rng.uniform(0.5, 1.5, n)
    q = rng.uniform(0.5, 1.5, m)
    return OTProblem(cost=rng.random((n, m)), gamma=gamma, p=p / p.sum(), q=q / q.sum())


class TestOTProblem:
    def test_valid_rectangular(self):
        prob = OTProblem(
            cost=[[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]],
            gamma=0.5,
            p=[0.4, 0.6],
            q=[0.2, 0.3, 0.5],
        )
        assert prob.shape == (2, 3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(cost=[[0.0, np.inf], [0.0, 0.0]], gamma=1.0, p=[0.5, 0.5], q=[0.5, 0.5]),
            dict(cost=[[0.0, 1.0], [1.0, 0.0]], gamma=0.0, p=[0.5, 0.5], q=[0.5, 0.5]),
            dict(cost=[[0.0, 1.0], [1.0, 0.0]], gamma=-1.0, p=[0.5, 0.5], q=[0.5, 0.5]),
            dict(cost=[[0.0, 1.0], [1.0, 0.0]], gamma=1.0, p=[0.4, 0.5], q=[0.5, 0.5]),
            dict(cost=[[0.0, 1.0], [1.0, 0.0]], gamma=1.0, p=[1.0, 0.0], q=[0.5, 0.5]),
            dict(cost=[[0.0, 1.0], [1.0, 0.0]], gamma=1.0, p=[0.5, 0.5], q=[0.3, 0.3, 0.4]),
            dict(cost=[[1.0, 2.0], [3.0, 0.5]], gamma=1e-320, p=[0.5, 0.5], q=[0.5, 0.5]),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            OTProblem(**kwargs)

    def test_potentials_must_be_finite_vectors(self):
        Potentials(u=np.zeros(2), v=np.zeros(2))
        with pytest.raises(ValueError):
            Potentials(u=np.array([np.nan, 0.0]), v=np.zeros(2))
        with pytest.raises(ValueError):
            Potentials(u=np.zeros((2, 2)), v=np.zeros(2))


class TestGibbsKernel:
    def test_zero_cost_gives_ones(self):
        prob = OTProblem(cost=np.zeros((2, 2)), gamma=1.0, p=[0.5, 0.5], q=[0.5, 0.5])
        np.testing.assert_array_equal(np.exp(gibbs_kernel(prob)), np.ones((2, 2)))

    def test_known_kernel(self):
        k = np.exp(gibbs_kernel(toy_problem(gamma=1.0)))
        np.testing.assert_allclose(
            k, [[1.0, 0.36787944117144233], [0.36787944117144233, 1.0]], rtol=1e-15
        )

    def test_gamma_scales_log_entries(self):
        lk1 = gibbs_kernel(toy_problem(gamma=1.0))
        lk2 = gibbs_kernel(toy_problem(gamma=2.0))
        np.testing.assert_allclose(lk2, lk1 / 2.0, rtol=1e-15)


class TestPlanFromPotentials:
    def test_zero_potentials_give_gibbs(self):
        prob = toy_problem()
        pot = Potentials(u=np.zeros(2), v=np.zeros(2))
        np.testing.assert_allclose(
            plan_from_potentials(prob, pot), np.exp(gibbs_kernel(prob)), rtol=1e-15
        )

    def test_row_scaling(self):
        # all-ones kernel with u = (log 0.375, log 0.125) scales whole rows
        prob = OTProblem(cost=np.zeros((2, 2)), gamma=1.0, p=[0.75, 0.25], q=[0.5, 0.5])
        pot = Potentials(u=np.log([0.375, 0.125]), v=np.zeros(2))
        np.testing.assert_allclose(
            plan_from_potentials(prob, pot),
            [[0.375, 0.375], [0.125, 0.125]],
            rtol=1e-14,
        )

    def test_gauge_invariance(self):
        rng = np.random.default_rng(30)
        prob = random_problem(rng, 4)
        u, v = rng.normal(size=4), rng.normal(size=4)
        base = plan_from_potentials(prob, Potentials(u=u, v=v))
        shifted = plan_from_potentials(prob, Potentials(u=u + 2.5, v=v - 2.5))
        np.testing.assert_allclose(shifted, base, rtol=1e-12)

    def test_overflow_reported_with_indices(self):
        prob = toy_problem()
        with pytest.raises(OverflowError):
            plan_from_potentials(prob, Potentials(u=np.array([800.0, 0.0]), v=np.zeros(2)))

    def test_length_mismatch(self):
        prob = toy_problem()
        with pytest.raises(ValueError):
            plan_from_potentials(prob, Potentials(u=np.zeros(3), v=np.zeros(2)))


class TestObjectives:
    def test_transport_cost_examples(self):
        prob = toy_problem()
        assert transport_cost(prob, [[0.5, 0.0], [0.0, 0.5]]) == 0.0
        assert transport_cost(prob, [[0.0, 0.5], [0.5, 0.0]]) == 1.0
        with pytest.raises(ValueError):
            transport_cost(prob, np.ones((3, 3)))

    def test_objective_known_value(self):
        # all-ones plan: each of the four marginal constraints contributes
        # 2 log 4 - 2 + 0.5, so the total is 8 log 4 - 6
        system = as_constraint_system(toy_problem())
        expected = 8.0 * np.log(4.0) - 6.0
        assert eval_f(system, np.ones(4)).objective == pytest.approx(expected, rel=1e-12)
        # a zero cost starts every solve at the all-ones plan
        zero_cost = OTProblem(cost=np.zeros((2, 2)), gamma=1.0, p=[0.5, 0.5], q=[0.5, 0.5])
        for method in METHODS:
            report = solve(zero_cost, SolverConfig(method=method, max_iter=1))
            assert report.trace[0].objective == pytest.approx(expected, rel=1e-12)

    def test_objective_zero_at_feasible(self):
        system = as_constraint_system(toy_problem())
        assert eval_f(system, np.full(4, 0.25)).objective == 0.0

    def test_start_objective_matches_penalty(self):
        rng = np.random.default_rng(31)
        for n in (2, 4):
            for _ in range(10):
                prob = random_problem(rng, n, gamma=float(rng.uniform(0.3, 2.0)))
                system = as_constraint_system(prob)
                for method in METHODS:
                    starts = []
                    cfg = SolverConfig(method=method, max_iter=1)
                    report = solve(prob, cfg, callback=lambda k, pl: starts.append(pl.copy()))
                    plan, objective = starts[0], report.trace[0].objective
                    assert objective == pytest.approx(eval_f(system, plan.reshape(-1)).objective, rel=1e-12, abs=1e-14)
                    # the row part plus the column part, each summed on its own, to
                    # the last bits of the marginals each method forms
                    r, c = plan.sum(axis=1), plan.sum(axis=0)
                    parts = np.sum(kl_terms(r, prob.p)) + np.sum(kl_terms(c, prob.q))
                    assert objective == pytest.approx(parts, rel=1e-15, abs=0.0)

    def test_marginal_violation(self):
        prob = toy_problem()
        # rows and columns each sum to 2 against targets of 0.5
        assert marginal_violation(prob, np.ones((2, 2))) == pytest.approx(6.0, rel=1e-14)
        assert marginal_violation(prob, [[0.25, 0.25], [0.25, 0.25]]) == 0.0


class TestConstraintSystemBridge:
    def test_single_point_problem(self):
        prob = OTProblem(cost=[[0.3]], gamma=1.0, p=[1.0], q=[1.0])
        system = as_constraint_system(prob)
        assert system.n_constraints == 2
        assert system.n_blocks == 2
        for row in system.rows:
            np.testing.assert_array_equal(row.indices, [0])
            np.testing.assert_array_equal(row.values, [1.0])
            assert row.b == 1.0

    def test_row_major_layout(self):
        rng = np.random.default_rng(32)
        prob = random_problem(rng, 3, m=2)
        system = as_constraint_system(prob)
        assert system.n_constraints == 5
        assert system.blocks == [[0, 1, 2], [3, 4]]
        # first row constraint must select the first matrix row {0, 1}
        np.testing.assert_array_equal(system.rows[0].indices, [0, 1])
        # first column constraint selects {0, 2, 4}
        np.testing.assert_array_equal(system.rows[3].indices, [0, 2, 4])
        plan = rng.uniform(0.1, 1.0, (3, 2))
        np.testing.assert_allclose(
            system.dots(plan.reshape(-1)),
            np.concatenate([plan.sum(axis=1), plan.sum(axis=0)]),
            rtol=1e-14,
        )
        np.testing.assert_array_equal(system.b, np.concatenate([prob.p, prob.q]))


class TestRounding:
    def test_feasible_input_unchanged(self):
        prob = toy_problem()
        plan = np.array([[0.3, 0.2], [0.2, 0.3]])
        np.testing.assert_allclose(round_to_feasible(prob, plan), plan, atol=1e-12)

    def test_scaled_and_random_inputs_become_feasible(self):
        rng = np.random.default_rng(33)
        for n in (2, 5):
            prob = random_problem(rng, n)
            for _ in range(10):
                plan = rng.uniform(0.01, 0.5, (n, n))
                out = round_to_feasible(prob, plan)
                assert np.all(out >= 0.0)
                assert marginal_violation(prob, out) <= 1e-12

    def test_zero_rows_and_columns_get_mass_from_correction(self):
        prob = toy_problem()
        for plan in (np.zeros((2, 2)), [[0.6, 0.0], [0.0, 0.0]], [[0.0, 0.2], [0.0, 0.3]]):
            out = round_to_feasible(prob, plan)
            assert np.all(out >= 0.0)
            assert marginal_violation(prob, out) <= 1e-15

    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
    def test_negative_or_nonfinite_entries_rejected(self, bad):
        with pytest.raises(ValueError):
            round_to_feasible(toy_problem(), [[0.5, bad], [0.1, 0.4]])

    def test_cost_shift_bounded_by_violation(self):
        rng = np.random.default_rng(34)
        prob = random_problem(rng, 4)
        plan = rng.uniform(0.05, 0.4, (4, 4))
        out = round_to_feasible(prob, plan)
        shift = abs(transport_cost(prob, out) - transport_cost(prob, plan))
        bound = float(np.abs(prob.cost).max()) * marginal_violation(prob, plan)
        assert shift <= bound + 1e-12
