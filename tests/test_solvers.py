"""Solver family: mirror-descent core, matrix-scaling methods, telemetry."""

import numpy as np
import pytest

from pinkhorn import (
    ConstraintSystem,
    Hyperplane,
    OTProblem,
    SolverConfig,
    TraceEntry,
    acc_pinkhorn,
    bregman_div,
    eval_f,
    gibbs_kernel,
    grad_conjugate,
    grad_fi,
    grad_mirror,
    greenkhorn,
    marginal_violation,
    pinkhorn,
    plan_from_potentials,
    reference_solve,
    sinkhorn,
    smd_step,
    solve,
    solve_smd,
    stop_check,
)
from pinkhorn import solvers
from pinkhorn.kernel import kl_terms, log_sum_exp


def toy_system():
    # x1 + x2 = 2 and x2 + x3 = 2, one row per block
    rows = [
        Hyperplane(indices=[0, 1], values=[1.0, 1.0], b=2.0),
        Hyperplane(indices=[1, 2], values=[1.0, 1.0], b=2.0),
    ]
    return ConstraintSystem(rows, dimension=3)


def random_ot(rng, n, gamma=1.0):
    p = rng.uniform(0.5, 1.5, n)
    q = rng.uniform(0.5, 1.5, n)
    return OTProblem(cost=rng.random((n, n)), gamma=gamma, p=p / p.sum(), q=q / q.sum())


def feasible_start_problem():
    # cost chosen so the unconstrained optimum already has the right marginals
    p = np.array([0.6, 0.4])
    q = np.array([0.3, 0.7])
    gamma = 0.8
    cost = -gamma * np.log(np.outer(p, q))
    return OTProblem(cost=cost, gamma=gamma, p=p, q=q)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.method == "sinkhorn"
        assert cfg.eta is None
        assert cfg.sampling == "cyclic"
        assert cfg.tol == 1e-8
        assert cfg.max_iter == 100_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(method="newton"),
            dict(sampling="importance"),
            dict(eta=0.0),
            dict(eta=-1.0),
            dict(tol=0.0),
            dict(tol=-1e-8),
            dict(max_iter=0),
            dict(seed=-1),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestStopCheck:
    def test_decisions(self):
        cfg = SolverConfig(tol=1e-6, max_iter=10)
        t = lambda it, viol: [TraceEntry(it, 1.0, viol, 0.0)]
        assert stop_check(t(3, 0.0), cfg) == "converged"
        assert stop_check(t(3, 5e-7), cfg) == "converged"
        assert stop_check(t(3, 2e-6), cfg) is None
        assert stop_check(t(10, 2e-6), cfg) == "max_iter"


class TestSmdStep:
    def test_projection_at_eta_one(self):
        sys_ = toy_system()
        z = smd_step(sys_, [1.0, 3.0, 5.0], block=0, eta=1.0)
        np.testing.assert_allclose(z, [0.5, 1.5, 5.0], rtol=1e-14)

    def test_eta_zero_identity(self):
        sys_ = toy_system()
        x = np.array([1.0, 3.0, 5.0])
        np.testing.assert_array_equal(smd_step(sys_, x, block=0, eta=0.0), x)

    def test_half_step(self):
        sys_ = toy_system()
        z = smd_step(sys_, [1.0, 3.0, 5.0], block=0, eta=0.5)
        root_half = np.sqrt(0.5)
        np.testing.assert_allclose(z, [root_half, 3.0 * root_half, 5.0], rtol=1e-14)

    def test_matches_mirror_arithmetic(self):
        # z must equal grad_conjugate(grad_mirror(x) - eta * sum of block grads)
        rng = np.random.default_rng(40)
        rows = [
            Hyperplane(indices=[0, 2], values=[1.5, 0.5], b=1.0),
            Hyperplane(indices=[1, 3], values=[1.0, 2.0], b=2.0),
        ]
        sys_ = ConstraintSystem(rows, dimension=4, blocks=[[0, 1]])
        for _ in range(20):
            x = rng.uniform(0.2, 3.0, 4)
            eta = float(rng.uniform(0.1, 1.0))
            g = grad_fi(sys_, 0, x) + grad_fi(sys_, 1, x)
            expected = grad_conjugate(grad_mirror(x) - eta * g)
            np.testing.assert_allclose(smd_step(sys_, x, 0, eta), expected, rtol=1e-12)

    def test_errors(self):
        sys_ = toy_system()
        with pytest.raises(ValueError):
            smd_step(sys_, [1.0, -1.0, 1.0], 0, 1.0)
        with pytest.raises(ValueError):
            smd_step(sys_, [1.0, 1.0], 0, 1.0)
        with pytest.raises(IndexError):
            smd_step(sys_, [1.0, 1.0, 1.0], 5, 1.0)
        with pytest.raises(ValueError):
            smd_step(sys_, [1.0, 1.0, 1.0], 0, -0.5)


class TestSolveSmd:
    def test_feasible_start_stops_immediately(self):
        sys_ = toy_system()
        report = solve_smd(sys_, [1.0, 1.0, 1.0], SolverConfig(method="smd"))
        assert report.stop_reason == "converged"
        assert report.iterations == 0
        assert len(report.trace) == 1
        assert report.selected is None

    def test_cyclic_hand_iterated_steps(self):
        sys_ = toy_system()
        seen = []
        cfg = SolverConfig(method="smd", sampling="cyclic", max_iter=2)
        report = solve_smd(sys_, [1.0, 3.0, 5.0], cfg, callback=lambda k, x: seen.append(x.copy()))
        np.testing.assert_allclose(seen[0], [1.0, 3.0, 5.0], rtol=1e-15)
        np.testing.assert_allclose(seen[1], [0.5, 1.5, 5.0], rtol=1e-14)
        np.testing.assert_allclose(
            seen[2], [0.5, 1.5 * (2.0 / 6.5), 5.0 * (2.0 / 6.5)], rtol=1e-14
        )
        assert report.selected == [0, 1]
        assert report.stop_reason == "max_iter"

    def test_converges_under_all_samplings(self):
        sys_ = toy_system()
        for sampling in ("cyclic", "uniform", "greedy"):
            cfg = SolverConfig(method="smd", sampling=sampling, tol=1e-10, seed=7)
            report = solve_smd(sys_, [1.0, 3.0, 5.0], cfg)
            assert report.stop_reason == "converged"
            assert report.trace[-1].violation_l1 <= 1e-10
            s = sys_.dots(report.final_iterate)
            assert np.abs(s - sys_.b).sum() <= 1e-10

    def test_uniform_seed_determinism(self):
        sys_ = toy_system()
        cfg = SolverConfig(method="smd", sampling="uniform", tol=1e-10, seed=3)
        r1 = solve_smd(sys_, [1.0, 3.0, 5.0], cfg)
        r2 = solve_smd(sys_, [1.0, 3.0, 5.0], cfg)
        assert r1.selected == r2.selected
        np.testing.assert_array_equal(r1.final_iterate, r2.final_iterate)
        for e1, e2 in zip(r1.trace, r2.trace):
            assert e1.iteration == e2.iteration
            assert e1.objective == e2.objective
            assert e1.violation_l1 == e2.violation_l1

    def test_greedy_picks_largest_block_penalty(self):
        sys_ = toy_system()
        cfg = SolverConfig(method="smd", sampling="greedy", tol=1e-10)
        states = []
        report = solve_smd(
            sys_, [1.0, 3.0, 9.0], cfg, callback=lambda k, x: states.append(x.copy())
        )
        assert report.stop_reason == "converged"
        for step, block in enumerate(report.selected):
            per = eval_f(sys_, states[step]).per_constraint_kl
            assert per[block] == max(per)
            assert per[block] > 0.0

    def test_numeric_failure_preserves_last_valid_iterate(self):
        sys_ = toy_system()
        cfg = SolverConfig(method="smd", eta=1e6, max_iter=50)
        report = solve_smd(sys_, [1.0, 3.0, 5.0], cfg)
        assert report.stop_reason == "numeric_failure"
        assert np.all(np.isfinite(report.final_iterate))
        assert np.all(report.final_iterate > 0.0)

    def test_fejer_monotonicity_toward_reference(self):
        sys_ = toy_system()
        x0 = np.array([1.0, 3.0, 5.0])
        x_star = reference_solve(sys_, x0)
        iterates = []
        cfg = SolverConfig(method="smd", tol=1e-12)
        solve_smd(sys_, x0, cfg, callback=lambda k, x: iterates.append(x.copy()))
        dists = [bregman_div(x_star, xk) for xk in iterates]
        for prev, nxt in zip(dists, dists[1:]):
            assert nxt <= prev + 1e-10

    def test_input_validation(self):
        sys_ = toy_system()
        cfg = SolverConfig(method="smd")
        with pytest.raises(ValueError):
            solve_smd(sys_, [1.0, 1.0], cfg)
        with pytest.raises(ValueError):
            solve_smd(sys_, [1.0, -1.0, 1.0], cfg)


class TestSinkhorn:
    def test_symmetric_one_sweep(self):
        prob = OTProblem(cost=np.zeros((2, 2)), gamma=1.0, p=[0.5, 0.5], q=[0.5, 0.5])
        report = sinkhorn(prob, SolverConfig())
        assert report.stop_reason == "converged"
        assert report.iterations == 1
        np.testing.assert_allclose(report.final_iterate, 0.25, rtol=1e-14)

    def test_first_u_update_values(self):
        prob = OTProblem(cost=np.zeros((2, 2)), gamma=1.0, p=[0.75, 0.25], q=[0.5, 0.5])
        report = sinkhorn(prob, SolverConfig(max_iter=1, tol=1e-16))
        np.testing.assert_allclose(
            report.potentials.u, [np.log(0.375), np.log(0.125)], rtol=1e-14
        )
        np.testing.assert_array_equal(report.potentials.v, [0.0, 0.0])

    def test_single_point(self):
        prob = OTProblem(cost=[[0.3]], gamma=1.0, p=[1.0], q=[1.0])
        report = sinkhorn(prob, SolverConfig())
        np.testing.assert_allclose(report.final_iterate, [[1.0]], rtol=1e-14)

    def test_rows_match_p_after_u_update(self):
        rng = np.random.default_rng(41)
        prob = random_ot(rng, 6, gamma=0.5)
        report = sinkhorn(prob, SolverConfig(max_iter=1, tol=1e-16))
        rows = report.final_iterate.sum(axis=1)
        np.testing.assert_allclose(rows, prob.p, rtol=1e-12)

    def test_converges_and_plan_matches_potentials(self):
        rng = np.random.default_rng(42)
        prob = random_ot(rng, 8)
        report = sinkhorn(prob, SolverConfig(tol=1e-10))
        assert report.stop_reason == "converged"
        assert marginal_violation(prob, report.final_iterate) <= 1e-10
        np.testing.assert_allclose(
            report.final_iterate, plan_from_potentials(prob, report.potentials), rtol=1e-13
        )

    def test_one_log_sum_exp_per_iteration(self, monkeypatch):
        # the column LSE taken for the marginals after a u update is the one
        # the next v update needs (and vice versa), so each iteration reuses it
        calls = []

        def counting(v, axis=None):
            calls.append(axis)
            return log_sum_exp(v, axis=axis)

        monkeypatch.setattr(solvers, "log_sum_exp", counting)
        rng = np.random.default_rng(43)
        prob = random_ot(rng, 7, gamma=0.3)
        report = sinkhorn(prob, SolverConfig(tol=1e-300, max_iter=9))
        assert report.iterations == 9
        assert len(calls) == report.iterations + 2


class TestGreenkhorn:
    def test_first_selection_is_worst_row(self):
        prob = OTProblem(cost=np.zeros((2, 2)), gamma=1.0, p=[0.75, 0.25], q=[0.5, 0.5])
        report = greenkhorn(prob, SolverConfig(max_iter=1, tol=1e-16))
        assert report.selected[0] == 1
        # the updated row marginal must now be exact
        assert report.final_iterate.sum(axis=1)[1] == pytest.approx(0.25, rel=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        prob = OTProblem(cost=np.zeros((2, 2)), gamma=1.0, p=[0.5, 0.5], q=[0.5, 0.5])
        report = greenkhorn(prob, SolverConfig(max_iter=1, tol=1e-16))
        assert report.selected[0] == 0

    def test_selection_attains_argmax(self):
        rng = np.random.default_rng(43)
        prob = random_ot(rng, 4)
        plans = []
        report = greenkhorn(
            prob, SolverConfig(tol=1e-9), callback=lambda k, g: plans.append(g)
        )
        assert report.stop_reason == "converged"
        for step, sel in enumerate(report.selected):
            g = plans[step]
            f_all = np.concatenate(
                (kl_terms(g.sum(axis=1), prob.p), kl_terms(g.sum(axis=0), prob.q))
            )
            # the solver tracks marginals incrementally, so allow roundoff
            # relative to the freshly recomputed penalties
            assert f_all[sel] >= f_all.max() - 1e-12 * max(1.0, f_all.max())
            assert f_all[sel] > 0.0

    def test_long_run_bookkeeping_stays_consistent(self):
        # enough iterations to cross the periodic refresh boundary
        rng = np.random.default_rng(44)
        prob = random_ot(rng, 16, gamma=0.1)
        report = greenkhorn(prob, SolverConfig(tol=1e-8))
        assert report.stop_reason == "converged"
        assert report.iterations > 500
        assert marginal_violation(prob, report.final_iterate) <= 1.1e-8

    def test_failed_step_keeps_last_valid_iterate(self):
        # two Gibbs kernel rows underflow to zero, so no single-row update can
        # make every row sum positive and the first step fails
        cost = np.array([[0.0, 0.0, 0.0], [1e3, 1e3, 1e3], [1e3, 1e3, 1e3]])
        prob = OTProblem(cost=cost, gamma=1.0, p=np.full(3, 1 / 3), q=np.full(3, 1 / 3))
        plans = []
        report = greenkhorn(prob, SolverConfig(), callback=lambda k, g: plans.append(g))
        assert report.stop_reason == "numeric_failure"
        assert report.iterations == 0
        assert report.selected is None
        np.testing.assert_array_equal(report.potentials.u, 0.0)
        np.testing.assert_array_equal(report.final_iterate, plans[-1])


class TestPinkhorn:
    def test_first_step_outer_update(self):
        prob = OTProblem(cost=np.zeros((2, 2)), gamma=1.0, p=[0.75, 0.25], q=[0.5, 0.5])
        seen = []
        pinkhorn(
            prob,
            SolverConfig(method="pinkhorn", max_iter=1, tol=1e-16),
            callback=lambda k, x: seen.append(x),
        )
        expected = np.sqrt(np.outer([0.375, 0.125], [0.25, 0.25]))
        np.testing.assert_allclose(seen[1], expected, rtol=1e-10)

    def test_feasible_start_is_fixed_point(self):
        report = pinkhorn(feasible_start_problem(), SolverConfig(method="pinkhorn"))
        assert report.stop_reason == "converged"
        assert report.iterations == 0

    def test_descent_and_convergence(self):
        rng = np.random.default_rng(45)
        prob = random_ot(rng, 6, gamma=0.4)
        report = pinkhorn(prob, SolverConfig(method="pinkhorn", tol=1e-9))
        assert report.stop_reason == "converged"
        objs = [e.objective for e in report.trace]
        for prev, nxt in zip(objs, objs[1:]):
            assert nxt <= prev + 1e-12
        assert marginal_violation(prob, report.final_iterate) <= 1e-9

    def test_divergent_stepsize_ends_numeric_failure(self):
        # eta = 3 is far beyond the smoothness bound: the potentials oscillate
        # with growing amplitude until the marginals overflow
        prob = random_ot(np.random.default_rng(0), 8, gamma=0.1)
        plans = []
        report = pinkhorn(
            prob,
            SolverConfig(method="pinkhorn", eta=3.0),
            callback=lambda k, x: plans.append(x),
        )
        assert report.stop_reason == "numeric_failure"
        assert report.trace[-1].iteration == report.iterations
        for e in report.trace:
            assert np.isfinite(e.objective) and np.isfinite(e.violation_l1)
        # the report holds the last valid iterate, the one the callback saw last
        assert len(plans) == report.iterations + 1
        assert np.all(np.isfinite(report.final_iterate))
        np.testing.assert_array_equal(report.final_iterate, plans[-1])
        np.testing.assert_array_equal(
            report.final_iterate, plan_from_potentials(prob, report.potentials)
        )


class TestAccPinkhorn:
    def test_feasible_start_stops_immediately(self):
        report = acc_pinkhorn(feasible_start_problem(), SolverConfig(method="acc_pinkhorn"))
        assert report.stop_reason == "converged"
        assert report.iterations == 0

    def test_converges_with_monotone_trace(self):
        rng = np.random.default_rng(46)
        prob = random_ot(rng, 8, gamma=0.5)
        cfg = SolverConfig(method="acc_pinkhorn", tol=1e-8)
        report = acc_pinkhorn(prob, cfg)
        assert report.stop_reason == "converged"
        assert report.trace[-1].objective <= cfg.tol
        objs = [e.objective for e in report.trace]
        for prev, nxt in zip(objs, objs[1:]):
            assert nxt <= prev + 1e-12
        assert marginal_violation(prob, report.final_iterate) <= 1e-8


class TestDispatchAndTrace:
    def test_solve_smd_method_runs_on_marginal_system(self):
        rng = np.random.default_rng(47)
        prob = random_ot(rng, 5)
        report = solve(prob, SolverConfig(method="smd", tol=1e-9))
        assert report.stop_reason == "converged"
        assert report.final_iterate.shape == prob.shape
        assert marginal_violation(prob, report.final_iterate) <= 1e-9

    def test_trace_invariants_all_methods(self):
        rng = np.random.default_rng(48)
        prob = random_ot(rng, 5, gamma=0.6)
        for method in ("sinkhorn", "greenkhorn", "pinkhorn", "acc_pinkhorn", "smd"):
            cfg = SolverConfig(method=method, max_iter=2000)
            report = solve(prob, cfg)
            assert len(report.trace) <= cfg.max_iter + 1
            assert report.trace[0].iteration == 0
            assert report.trace[-1].iteration == report.iterations
            for e in report.trace:
                assert e.objective >= 0.0
                assert e.violation_l1 >= 0.0
                assert e.time_ms >= 0.0

    def test_trace_cadence_dense_then_sparse(self):
        prob = feasible_start_problem()
        hard = OTProblem(
            cost=prob.cost, gamma=2.0, p=prob.p, q=prob.q
        )  # wrong gamma, so the start is infeasible and progress is slow
        report = pinkhorn(hard, SolverConfig(method="pinkhorn", tol=1e-300, max_iter=1495))
        assert report.stop_reason == "max_iter"
        iters = [e.iteration for e in report.trace]
        expected = list(range(0, 1001)) + list(range(1010, 1491, 10)) + [1495]
        assert iters == expected
