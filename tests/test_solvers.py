"""Solver family: mirror-descent core, matrix-scaling methods, telemetry."""

import warnings

import numpy as np
import pytest

from pinkhorn import (
    METHODS,
    ConstraintSystem,
    Hyperplane,
    OTProblem,
    SolverConfig,
    acc_pinkhorn,
    as_constraint_system,
    bregman_div,
    eval_f,
    gibbs_kernel,
    grad_fi,
    grad_mirror,
    greenkhorn,
    marginal_violation,
    pinkhorn,
    plan_from_potentials,
    sinkhorn,
    solve,
    solve_smd,
)
from pinkhorn import solvers
from pinkhorn.checks import _random_problem
from pinkhorn.kernel import kl_terms, log_sum_exp


def toy_system():
    # x1 + x2 = 2 and x2 + x3 = 2, one row per block
    rows = [
        Hyperplane(indices=[0, 1], values=[1.0, 1.0], b=2.0),
        Hyperplane(indices=[1, 2], values=[1.0, 1.0], b=2.0),
    ]
    return ConstraintSystem.from_rows(rows, dimension=3)


def random_ot(rng, n, gamma=1.0, m=None):
    m = n if m is None else m
    p = rng.uniform(0.5, 1.5, n)
    q = rng.uniform(0.5, 1.5, m)
    return OTProblem(cost=rng.random((n, m)), gamma=gamma, p=p / p.sum(), q=q / q.sum())


def point_cloud(rng, n, gamma):
    # squared Euclidean cost between two clouds of n points in the unit square
    x, y = rng.random((n, 2)), rng.random((n, 2))
    p = rng.uniform(0.5, 1.5, n)
    q = rng.uniform(0.5, 1.5, n)
    cost = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1)
    return OTProblem(cost=cost, gamma=gamma, p=p / p.sum(), q=q / q.sum())


# every entry of exp(-C/gamma) underflows to zero at gamma 1
ALL_UNDERFLOW = 1000.0 + np.arange(9.0).reshape(3, 3) / 9.0


def uniform_ot(cost, gamma=1.0):
    n, m = np.shape(cost)
    return OTProblem(cost=cost, gamma=gamma, p=np.full(n, 1.0 / n), q=np.full(m, 1.0 / m))


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
            # a step of infinite length: every pinkhorn, acc_pinkhorn and smd run ends at iteration 0
            dict(eta=float("inf")),
            dict(eta=float("nan")),
            dict(tol=0.0),
            dict(tol=-1e-8),
            dict(max_iter=0),
            # k >= NaN is never true, so a run would not end; 1.5 would stop after 2 iterations
            dict(max_iter=float("nan")),
            dict(max_iter=1.5),
            dict(max_iter=2.0),
            dict(max_iter="3"),
            dict(seed=-1),
            dict(seed=1.5),
            dict(seed=np.float64(2.0)),
            dict(seed="3"),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_integer_like_max_iter_is_accepted(self):
        prob = random_ot(np.random.default_rng(3), 4)
        report = solve(prob, SolverConfig(tol=1e-300, max_iter=np.int64(3)))
        assert (report.stop_reason, report.iterations) == ("max_iter", 3)


class TestStopRule:
    @staticmethod
    def run(violations, cfg=SolverConfig(tol=1e-6, max_iter=10)):
        """``_iterate`` on measurements that report the given violations in turn."""
        measured = iter(violations)
        return solvers._iterate(cfg, None, lambda: (1.0, next(measured)), lambda k: True, lambda: None, list)

    @pytest.mark.parametrize(
        "violations, stop",
        [
            ([2e-6, 2e-6, 2e-6, 0.0], ("converged", 3)),  # violation 0
            ([2e-6, 2e-6, 2e-6, 5e-7], ("converged", 3)),  # under tol
            ([2e-6, 1e-6], ("converged", 1)),  # at tol
            ([2e-6] * 11, ("max_iter", 10)),  # over tol up to max_iter
        ],
    )
    def test_decisions(self, violations, stop):
        run = self.run(violations)
        assert (run["stop_reason"], run["iterations"]) == stop
        # a violation over tol goes on to the next iterate: each one is measured once
        assert [e.violation_l1 for e in run["trace"]] == violations

    def test_decisions_through_solve(self):
        # a plan that meets its marginals exactly converges at the start
        exact = OTProblem(cost=[[0.0]], gamma=1.0, p=[1.0], q=[1.0])
        report = solve(exact, SolverConfig(tol=1e-300))
        assert (report.stop_reason, report.iterations, report.trace[-1].violation_l1) == ("converged", 0, 0.0)
        prob = random_ot(np.random.default_rng(3), 7, gamma=0.01)
        report = solve(prob, SolverConfig(tol=1e-6, max_iter=10))
        assert (report.stop_reason, report.iterations) == ("max_iter", 10)
        assert report.trace[-1].violation_l1 > 1e-6
        report = solve(prob, SolverConfig(tol=report.trace[3].violation_l1, max_iter=10))
        assert (report.stop_reason, report.iterations) == ("converged", 3)


def one_step(system, x, eta):
    """The iterate after one cyclic ``solve_smd`` step, the step on block 0."""
    seen = {}
    cfg = SolverConfig(method="smd", eta=eta, tol=1e-300, max_iter=1)
    report = solve_smd(system, x, cfg, callback=seen.__setitem__)
    assert report.selected == [0]
    return seen[1]


class TestSmdStep:
    def test_projection_at_eta_one(self):
        sys_ = toy_system()
        z = one_step(sys_, [1.0, 3.0, 5.0], eta=1.0)
        np.testing.assert_allclose(z, [0.5, 1.5, 5.0], rtol=1e-14)

    def test_half_step(self):
        sys_ = toy_system()
        z = one_step(sys_, [1.0, 3.0, 5.0], eta=0.5)
        root_half = np.sqrt(0.5)
        np.testing.assert_allclose(z, [root_half, 3.0 * root_half, 5.0], rtol=1e-14)

    def test_matches_mirror_arithmetic(self):
        # z must equal exp(grad_mirror(x) - eta * sum of block grads)
        rng = np.random.default_rng(40)
        rows = [
            Hyperplane(indices=[0, 2], values=[1.5, 0.5], b=1.0),
            Hyperplane(indices=[1, 3], values=[1.0, 2.0], b=2.0),
        ]
        sys_ = ConstraintSystem.from_rows(rows, dimension=4, blocks=[[0, 1]])
        for _ in range(20):
            x = rng.uniform(0.2, 3.0, 4)
            eta = float(rng.uniform(0.1, 1.0))
            g = grad_fi(sys_, 0, x) + grad_fi(sys_, 1, x)
            expected = np.exp(grad_mirror(x) - eta * g)
            np.testing.assert_allclose(one_step(sys_, x, eta), expected, rtol=1e-12)


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
        # the KL projection of x0 is (A, 3 A B, 5 B); x1 + x2 = x2 + x3 forces
        # A = 5 B, and then x1 + x2 = 2 reads 15 B^2 + 5 B = 2
        b = (np.sqrt(145.0) - 5.0) / 30.0
        x_star = np.array([5.0 * b, 15.0 * b * b, 5.0 * b])
        iterates = []
        cfg = SolverConfig(method="smd", tol=1e-12)
        solve_smd(sys_, x0, cfg, callback=lambda k, x: iterates.append(x.copy()))
        dists = [bregman_div(x_star, xk) for xk in iterates]
        for prev, nxt in zip(dists, dists[1:]):
            assert nxt <= prev + 1e-10

    def test_caller_x0_and_callback_iterates_are_not_overwritten(self):
        # the run updates its own two iterate buffers in place
        sys_ = toy_system()
        x0 = np.array([1.0, 3.0, 9.0])
        seen, copies = [], []

        def callback(k, x):
            seen.append(x)
            copies.append(x.copy())

        report = solve_smd(sys_, x0, SolverConfig(method="smd", tol=1e-10), callback=callback)
        assert report.iterations > 2
        np.testing.assert_array_equal(x0, [1.0, 3.0, 9.0])
        for x, copy in zip(seen, copies):
            np.testing.assert_array_equal(x, copy)
        np.testing.assert_array_equal(report.final_iterate, copies[-1])

    def test_input_validation(self):
        sys_ = toy_system()
        cfg = SolverConfig(method="smd")
        with pytest.raises(ValueError):
            solve_smd(sys_, [1.0, 1.0], cfg)
        with pytest.raises(ValueError):
            solve_smd(sys_, [1.0, -1.0, 1.0], cfg)
        # x0 is positive, but 0.5 * 5e-324 rounds to 0: the dots are [0, 0.5]
        tiny = ConstraintSystem.from_dense([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]], [1.0, 1.0])
        x0 = np.array([5e-324, 5e-324, 1.0])
        np.testing.assert_array_equal(tiny.dots(x0), [0.0, 0.5])
        with pytest.raises(ValueError, match="^x0 gives a nonpositive inner product for some constraint$"):
            solve_smd(tiny, x0, cfg)


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

    def test_no_log_sum_exp_when_nothing_underflows(self, monkeypatch):
        # each step is a matrix-vector product on the stabilized kernel;
        # log-sum-exp is only for a row or column of it that sums to 0
        calls = []

        def counting(v, axis=None):
            calls.append(axis)
            return log_sum_exp(v, axis=axis)

        monkeypatch.setattr(solvers, "log_sum_exp", counting)
        rng = np.random.default_rng(43)
        prob = random_ot(rng, 7, gamma=0.3)
        report = sinkhorn(prob, SolverConfig(tol=1e-300, max_iter=9))
        assert report.iterations == 9
        assert calls == []


class TestScalingProducts:
    """``_Scaling.scale`` keeps (K~ b, K~^T a) as the matrix products give them, in both orientations."""

    @staticmethod
    def assert_products(st, rows=True, cols=True):
        n, K, ab = st.n, st.K, st.ab
        if rows:
            np.testing.assert_array_equal(st.kab[:n], K @ ab[n:], strict=True)
        if cols:
            np.testing.assert_array_equal(st.kab[n:], K.T @ ab[:n], strict=True)

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (7, 3)])
    def test_row_then_column_step(self, shape):
        st = solvers._Scaling(random_ot(np.random.default_rng(sum(shape)), shape[0], m=shape[1]))
        n, size = st.n, st.pq.size
        w = st.w
        assert st.scale(slice(0, n))
        self.assert_products(st, rows=False)  # a row step recomputes K~^T a only
        assert st.scale(slice(n, size))
        self.assert_products(st)
        assert st.w is w  # no absorption: the products are the incremental ones

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (7, 3)])
    def test_both_sides_and_refresh(self, shape):
        st = solvers._Scaling(random_ot(np.random.default_rng(10 + sum(shape)), shape[0], m=shape[1]))
        assert st.scale(slice(0, st.pq.size), 0.5)
        self.assert_products(st)
        st.ab = st.ab * np.linspace(0.5, 1.5, st.ab.size)
        st.refresh()
        self.assert_products(st)


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

    def test_first_selection_is_worst_column(self):
        prob = OTProblem(cost=np.zeros((2, 2)), gamma=1.0, p=[0.5, 0.5], q=[0.75, 0.25])
        report = greenkhorn(prob, SolverConfig(max_iter=1, tol=1e-16))
        assert report.selected[0] == 3
        assert report.final_iterate.sum(axis=0)[1] == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("offset", [100.0, 700.0])
    def test_selects_row_whose_marginal_is_far_below_target(self, offset):
        # row 0 holds about exp(-offset) of its target, below 2^-54 of it, so
        # its penalty is about p_0 and it must be selected, not read as 0
        cost = [[offset, offset + 1.0], [0.0, 1.0]]
        prob = OTProblem(cost=cost, gamma=1.0, p=[0.5, 0.5], q=[0.5, 0.5])
        report = greenkhorn(prob, SolverConfig(max_iter=2000))
        assert report.stop_reason == "converged"
        assert report.iterations <= 4
        assert 0 in report.selected

    @staticmethod
    def _tiny_mass_problem():
        # one marginal entry of 1e-200: a scaling falls by many orders of
        # magnitude, and its incremental kernel products keep rounding residue
        rng = np.random.default_rng(126)
        x, y = rng.random((7, 2)) * 10, rng.random((7, 2)) * 10
        p = np.ones(7)
        p[0] = 1e-200
        p /= p.sum()
        return OTProblem(cost=((x[:, None] - y[None]) ** 2).sum(-1), gamma=1e-3, p=p, q=p)

    @staticmethod
    def _ordinary_problem():
        # seed 65 of a sweep over random squared-Euclidean clouds: 4x2 at gamma 1e-2
        rng = np.random.default_rng(65)
        n, m = rng.integers(2, 15, 2)
        x, y = rng.random((n, 2)) * 10, rng.random((m, 2)) * 10
        p, q = rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, m)
        return OTProblem(cost=((x[:, None] - y[None]) ** 2).sum(-1), gamma=1e-2, p=p / p.sum(), q=q / q.sum())

    @pytest.mark.parametrize("make, max_iter", [("_tiny_mass_problem", 3000), ("_ordinary_problem", 5000)])
    def test_converged_means_the_plan_meets_tol(self, make, max_iter):
        # the products K~ b and K~^T a are updated in O(n + m) per step; their
        # drift must not let the state's marginals read exact while the plan's miss
        prob = getattr(self, make)()
        cfg = SolverConfig(method="greenkhorn", max_iter=max_iter)
        report = greenkhorn(prob, cfg)
        if report.stop_reason == "converged":
            assert marginal_violation(prob, report.final_iterate) <= cfg.tol
        # the last entry reports what the returned plan misses by, not the drift
        assert report.trace[-1].violation_l1 == pytest.approx(marginal_violation(prob, report.final_iterate), rel=1e-6)


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

    def test_overflowing_penalty_ends_numeric_failure_without_warning(self):
        # here a penalty term leaves the double range before the marginals do
        prob = random_ot(np.random.default_rng(2), 8, gamma=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = pinkhorn(prob, SolverConfig(method="pinkhorn", eta=3.0, max_iter=2000))
        assert report.stop_reason == "numeric_failure"
        assert np.all(np.isfinite(report.final_iterate))


    @pytest.mark.parametrize("seed, eta", [(0, 2.0), (0, 3.0), (2, 3.0)])
    def test_divergent_stepsize_keeps_a_plan_with_mass(self, seed, eta):
        # the oscillating potentials can also drive every marginal to 0 (on
        # these instances the plan underflowed to all zeros): the run must
        # end at the last iterate that still carries mass
        prob = random_ot(np.random.default_rng(seed), 8, gamma=0.1)
        report = pinkhorn(prob, SolverConfig(method="pinkhorn", eta=eta, max_iter=2000))
        assert report.stop_reason == "numeric_failure"
        assert report.final_iterate.sum() > 0.0
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

    def test_zero_kernel_entries_with_mass_in_every_row_and_column(self):
        # exp(-1000) underflows off the two diagonal blocks, yet every row and
        # column keeps mass on its block; sinkhorn converges here in 24 steps
        cost = np.full((4, 4), 1000.0)
        cost[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
        cost[2:, 2:] = [[0.0, 2.0], [1.0, 0.0]]
        prob = OTProblem(cost=cost, gamma=1.0, p=[0.2, 0.3, 0.1, 0.4], q=[0.25, 0.25, 0.3, 0.2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = acc_pinkhorn(prob, SolverConfig(method="acc_pinkhorn", tol=1e-9))
        assert report.stop_reason == "converged"
        assert marginal_violation(prob, report.final_iterate) <= 1e-9
        # the zero entries of the kernel stay zero
        np.testing.assert_array_equal(report.final_iterate[:2, 2:], 0.0)
        np.testing.assert_array_equal(report.final_iterate[2:, :2], 0.0)

    @pytest.mark.parametrize("seed, n, gamma", [(0, 6, 0.05), (5, 6, 0.05), (7, 6, 0.05), (3, 30, 0.05)])
    def test_objective_never_rises_at_the_floor(self, seed, n, gamma):
        # at tol 1e-16 the run reaches the rounding floor of the objective,
        # where a step that would raise it is held by the restart
        prob = random_ot(np.random.default_rng(seed), n, gamma=gamma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = acc_pinkhorn(prob, SolverConfig(method="acc_pinkhorn", tol=1e-16, max_iter=300))
        assert report.stop_reason == "max_iter"
        objs = [e.objective for e in report.trace]
        assert all(nxt <= prev for prev, nxt in zip(objs, objs[1:]))

    @pytest.mark.parametrize(
        "prob",
        [
            OTProblem(cost=[[800.0, 801.0], [0.0, 1.0]], gamma=1.0, p=[0.5, 0.5], q=[0.3, 0.7]),
            uniform_ot(ALL_UNDERFLOW),
            uniform_ot(np.full((5, 5), 3.0), gamma=1e-3),
            # column 1 underflows while both rows keep mass
            OTProblem(cost=[[0.0, 800.0], [1.0, 801.0]], gamma=1.0, p=[0.3, 0.7], q=[0.5, 0.5]),
        ],
    )
    def test_underflowed_row_is_lifted_and_converges_without_warning(self, prob):
        # exp(-800) underflows, so row 0 of exp(-C/gamma) has no mass and the
        # gradient log(r / p) would be undefined there; the start lifts it
        reference = sinkhorn(prob, SolverConfig(tol=1e-12))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = acc_pinkhorn(prob, SolverConfig(method="acc_pinkhorn"))
        assert report.stop_reason == "converged"
        assert marginal_violation(prob, report.final_iterate) <= 1e-8
        assert np.abs(report.final_iterate - reference.final_iterate).sum() <= 1e-7
        np.testing.assert_array_equal(plan_from_potentials(prob, report.potentials), report.final_iterate)

    def test_converges_where_the_objective_is_flat_to_rounding(self):
        # at gamma 0.002 the plan is nearly a permutation: for hundreds of
        # steps the objective moves below its last bit while the potentials
        # travel, and the Armijo test stays out of reach of any L; sinkhorn
        # needs 1794 iterations here
        prob = random_ot(np.random.default_rng(49), 6, gamma=0.002)
        reference = sinkhorn(prob, SolverConfig(tol=1e-12, max_iter=100_000))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = acc_pinkhorn(prob, SolverConfig(method="acc_pinkhorn", tol=1e-8, max_iter=5000))
        assert report.stop_reason == "converged"
        assert np.abs(report.final_iterate - reference.final_iterate).sum() <= 1e-7
        objs = [e.objective for e in report.trace]
        assert all(nxt <= prev for prev, nxt in zip(objs, objs[1:]))

    @pytest.mark.parametrize(
        "problem, tol, max_iter",
        # the criterion-4 grid
        [
            (random_ot(np.random.default_rng(100 + 2 * i + j), n, gamma), 1e-8, 100_000)
            for i, n in enumerate((5, 20, 50))
            for j, gamma in enumerate((0.1, 1.0))
        ]
        + [
            # at the numerical floor: seed 1 meets 1e-15 just, seed 0 never meets 1e-16
            (random_ot(np.random.default_rng(1), 6, gamma=0.05), 1e-15, 300),
            (random_ot(np.random.default_rng(0), 6, gamma=0.05), 1e-16, 300),
            # this run stops converged at iteration 96 on a plan at 6.4e-16,
            # and its one confirmation holds
            (random_ot(np.random.default_rng(6), 5, gamma=0.1), 1e-15, 400),
            # without the confirmation the next three runs stop on a trace
            # violation within 1e-15 from a plan outside it (1.2e-15,
            # 1.1e-15 and 1.1e-15); with it, each one's first confirmation
            # fails and the run goes on to a plan within tol
            (random_ot(np.random.default_rng(45), 6, gamma=0.05), 1e-15, 400),
            (random_ot(np.random.default_rng(44), 20, gamma=0.1), 1e-15, 400),
            (random_ot(np.random.default_rng(56), 5, gamma=0.1), 1e-15, 400),
        ],
    )
    def test_converged_plan_meets_tol(self, problem, tol, max_iter):
        # a trace violation within tol is confirmed on the returned plan's
        # own sums before the run stops converged
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = acc_pinkhorn(problem, SolverConfig(method="acc_pinkhorn", tol=tol, max_iter=max_iter))
        assert report.stop_reason != "numeric_failure"
        if report.stop_reason == "converged":
            assert marginal_violation(problem, report.final_iterate) <= tol
        else:
            assert report.iterations == max_iter


class TestFamilyIdentities:
    """Greenkhorn and pinkhorn as configurations of mirror descent on KL(Ax || b)."""

    @pytest.mark.parametrize(
        "n, m, seed, gamma", [(8, 8, 0, 1.0), (20, 20, 1, 1.0), (15, 25, 2, 1.0), (10, 12, 3, 0.1), (6, 9, 4, 0.05)]
    )
    def test_greenkhorn_is_greedy_smd_on_singleton_blocks(self, n, m, seed, gamma):
        # one block per row and per column constraint of the n x m plan
        prob = _random_problem(np.random.default_rng(seed), n, m, gamma=gamma)
        marginals = np.vstack((np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))))
        system = ConstraintSystem.from_dense(marginals, np.concatenate((prob.p, prob.q)))
        x0 = np.exp(gibbs_kernel(prob)).ravel()
        smd = solve_smd(system, x0, SolverConfig(method="smd", sampling="greedy", tol=1e-9))
        green = greenkhorn(prob, SolverConfig(method="greenkhorn", tol=1e-9))
        assert green.stop_reason == smd.stop_reason == "converged"
        assert green.selected == smd.selected
        np.testing.assert_allclose(green.final_iterate, smd.final_iterate.reshape(n, m), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("seed, gamma", [(0, 1.0), (1, 0.1)])
    def test_pinkhorn_default_step_is_one_over_smooth_constant(self, seed, gamma):
        prob = _random_problem(np.random.default_rng(seed), 7, 9, gamma=gamma)
        eta = 1.0 / as_constraint_system(prob).smooth_constant()
        assert eta == 0.5
        default = pinkhorn(prob, SolverConfig(method="pinkhorn", tol=1e-10))
        explicit = pinkhorn(prob, SolverConfig(method="pinkhorn", eta=eta, tol=1e-10))
        assert (default.iterations, default.stop_reason) == (explicit.iterations, explicit.stop_reason)
        entries = lambda report: [(e.iteration, e.objective, e.violation_l1) for e in report.trace]
        assert entries(default) == entries(explicit)
        np.testing.assert_array_equal(default.final_iterate, explicit.final_iterate)


    @pytest.mark.parametrize("omega", [0.5, 1.5])
    def test_over_relaxed_sinkhorn_is_cyclic_smd_at_that_stepsize(self, omega):
        # sinkhorn at eta omega scales rows and columns in turn by (target / marginal)^omega
        prob = _random_problem(np.random.default_rng(11), 9, 7, gamma=0.5)
        plans_sink, plans_smd = [], []
        sinkhorn(
            prob,
            SolverConfig(method="sinkhorn", eta=omega, tol=1e-300, max_iter=100),
            callback=lambda k, pl: plans_sink.append(pl),
        )
        solve(
            prob,
            SolverConfig(method="smd", eta=omega, sampling="cyclic", tol=1e-300, max_iter=100),
            callback=lambda k, pl: plans_smd.append(pl.copy()),
        )
        assert len(plans_sink) == len(plans_smd) == 101
        # the plain half-step lands on the same plans only at omega 1
        assert np.max(np.abs(plans_sink[1] - sinkhorn(prob, SolverConfig(max_iter=1)).final_iterate)) > 1e-3
        for a, b in zip(plans_sink, plans_smd):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-10)


# criterion 4's grid, then two 80 x 80 point clouds; greenkhorn, which
# changes one scaling per step, runs the clouds at the benchmark's tol
ENTROPIC_CASES = [
    (random_ot(np.random.default_rng(100 + i), n, gamma), 1e-8)
    for i, (n, gamma) in enumerate((n, gamma) for n in (5, 20, 50) for gamma in (0.1, 1.0))
] + [(point_cloud(np.random.default_rng(seed), 80, 0.02), 1e-6) for seed in (0, 1)]


class TestEntropicPlan:
    """Every scaling method converges to the one entropic plan exp(u - C/gamma + v)."""

    @pytest.mark.parametrize("problem, tol", ENTROPIC_CASES)
    def test_converged_plans_are_the_entropic_plan(self, problem, tol):
        reference = sinkhorn(problem, SolverConfig(tol=1e-12, max_iter=1_000_000))
        assert reference.stop_reason == "converged"
        for method in ("sinkhorn", "greenkhorn", "pinkhorn", "acc_pinkhorn"):
            report = solve(problem, SolverConfig(method=method, tol=tol, max_iter=1_000_000))
            assert report.stop_reason == "converged", method
            gap = np.abs(report.final_iterate - reference.final_iterate).sum()
            assert gap <= 10.0 * tol, (method, gap)
            np.testing.assert_array_equal(plan_from_potentials(problem, report.potentials), report.final_iterate)


class TestDispatchAndTrace:
    @pytest.mark.parametrize("method", METHODS)
    def test_final_iterate_is_the_last_one_the_callback_saw(self, method):
        prob = random_ot(np.random.default_rng(3), 6, gamma=0.05)
        seen = []
        report = solve(prob, SolverConfig(method=method, max_iter=25), callback=lambda k, x: seen.append(x.copy()))
        assert report.stop_reason == "max_iter"
        np.testing.assert_array_equal(report.final_iterate, seen[-1])

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

    @pytest.mark.parametrize(
        "cost, reason",
        [
            # the off-diagonal entries of exp(-C/gamma) underflow to zero
            ([[0.0, 1000.0], [1000.0, 0.0]], "numeric_failure"),
            ([[np.log(2.0), 1000.0], [1000.0, np.log(2.0)]], "converged"),
        ],
    )
    def test_smd_on_underflowed_kernel_stops_at_start(self, cost, reason):
        prob = uniform_ot(cost)
        plans = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(prob, SolverConfig(method="smd"), callback=lambda k, x: plans.append(x))
        kernel = np.exp(-prob.cost)
        assert report.stop_reason == reason
        assert report.iterations == 0
        assert len(report.trace) == 1
        assert report.trace[0].violation_l1 == marginal_violation(prob, kernel)
        np.testing.assert_array_equal(report.final_iterate, kernel)
        np.testing.assert_array_equal(plans[-1], kernel)

    @pytest.mark.parametrize(
        "cost, gamma, axis",
        [
            (ALL_UNDERFLOW, 1.0, 1),
            (np.full((5, 5), 3.0), 1e-3, 1),
            # only column 1 underflows
            ([[0.0, 1000.0], [0.0, 1000.5]], 1.0, 0),
        ],
    )
    def test_smd_starts_from_the_lifted_kernel(self, cost, gamma, axis):
        # whole rows (axis 1) or columns (axis 0) of exp(-C/gamma) underflow to
        # zeros: the start lifts each one to a largest entry of 1, and cyclic
        # smd is sinkhorn from there
        prob = uniform_ot(cost, gamma)
        plans = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(prob, SolverConfig(method="smd"), callback=lambda k, x: plans.append(x))
        expected = sinkhorn(prob, SolverConfig())
        assert report.stop_reason == "converged"
        assert report.iterations == expected.iterations
        np.testing.assert_array_equal(plans[0].max(axis=axis), 1.0)
        np.testing.assert_allclose(report.final_iterate, expected.final_iterate, rtol=0, atol=1e-10)

    @pytest.mark.parametrize(
        "cost, p, q",
        [
            ([[800.0, 801.0], [0.0, 1.0]], [0.5, 0.5], [0.3, 0.7]),
            ([[0.0, 0.0, 0.0], [1e3, 1e3, 1e3], [1e3, 1e3, 1e3]], [1 / 3] * 3, [1 / 3] * 3),
            (ALL_UNDERFLOW, [1 / 3] * 3, [1 / 3] * 3),
        ],
    )
    @pytest.mark.parametrize("method", ["sinkhorn", "greenkhorn", "pinkhorn"])
    def test_scaling_methods_converge_from_underflowed_rows(self, method, cost, p, q):
        # a row of exp(-C/gamma) is all zeros: the start lifts it to a largest
        # entry of 1 through its potential
        prob = OTProblem(cost=cost, gamma=1.0, p=p, q=q)
        assert not np.exp(gibbs_kernel(prob)).sum(axis=1).all()
        plans = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(prob, SolverConfig(method=method), callback=lambda k, x: plans.append(x))
        assert report.stop_reason == "converged"
        assert marginal_violation(prob, report.final_iterate) <= 1.1e-8
        np.testing.assert_array_equal(report.final_iterate, plans[-1])

    @pytest.mark.parametrize(
        "cost",
        [
            # exp(-C/gamma) overflows on the diagonal
            [[-800.0, 0.0], [0.0, -800.0]],
            # its entries exp(709) are finite, but its row and column sums overflow
            np.full((3, 3), -709.0),
        ],
    )
    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_starts_where_the_kernel_overflows(self, method, cost):
        # the start is exp(-C/gamma) divided by its largest entry, which
        # _Scaling carries in the row potentials
        prob = uniform_ot(cost)
        assert gibbs_kernel(prob).max() + np.log(max(prob.shape)) > np.log(np.finfo(np.float64).max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(prob, SolverConfig(method=method))
        assert np.isfinite(report.final_iterate).all()
        if method in ("sinkhorn", "pinkhorn"):
            assert report.iterations == 1
        if method == "smd" and prob.shape == (2, 2):
            # exp(-800) / exp(800) underflows off the diagonal: no positive start
            assert (report.stop_reason, report.iterations) == ("numeric_failure", 0)
        else:
            assert report.stop_reason == "converged"
            assert marginal_violation(prob, report.final_iterate) <= 1e-8
        if report.potentials is not None:
            np.testing.assert_array_equal(plan_from_potentials(prob, report.potentials), report.final_iterate)

    @pytest.mark.parametrize("method", METHODS)
    def test_start_is_the_gibbs_kernel_where_nothing_overflows(self, method):
        # exp(100) is the largest entry and row 1 is exp(-700): a start
        # divided by its largest entry would underflow row 1 to zero
        prob = uniform_ot([[-100.0, 0.0], [700.0, 700.0]])
        plans = []
        solve(prob, SolverConfig(method=method, max_iter=1), callback=lambda k, x: plans.append(x))
        np.testing.assert_array_equal(plans[0], np.exp(gibbs_kernel(prob)))

    @pytest.mark.parametrize("method", ["sinkhorn", "pinkhorn"])
    def test_absorbed_scalings_follow_log_domain_iterates(self, method, monkeypatch):
        # at gamma 0.002 the potentials run far past log(_SCALING_RANGE), so
        # the scalings are absorbed into the kernel along the way
        absorbed = []
        absorb = solvers._Scaling._absorb
        monkeypatch.setattr(solvers._Scaling, "_absorb", lambda st, w: absorbed.append(1) or absorb(st, w))
        prob = random_ot(np.random.default_rng(49), 6, gamma=0.002)
        seen = []
        solve(prob, SolverConfig(method=method, tol=1e-300, max_iter=40), callback=lambda k, x: seen.append(x))
        assert len(absorbed) > 1  # more than the initial build
        logK = gibbs_kernel(prob)
        u, v = np.zeros(6), np.zeros(6)
        for k in range(1, 41):
            log_r = u + log_sum_exp(logK + v, axis=1)
            log_c = v + log_sum_exp(logK + u[:, None], axis=0)
            if method == "pinkhorn":
                u, v = u + 0.5 * (np.log(prob.p) - log_r), v + 0.5 * (np.log(prob.q) - log_c)
            elif k % 2:
                u = u + np.log(prob.p) - log_r
            else:
                v = v + np.log(prob.q) - log_c
            np.testing.assert_allclose(seen[k], np.exp(u[:, None] + logK + v), rtol=1e-11)

    @pytest.mark.parametrize("fail_at", [1005, 1011])
    def test_failed_step_keeps_last_trace_entry(self, fail_at):
        # iteration 1004 falls between the every-tenth entries kept past 1000
        run = solvers._iterate(
            SolverConfig(max_iter=5000), None, lambda: (1.0, 1.0), lambda k: k < fail_at, lambda: None, list
        )
        assert run["stop_reason"] == "numeric_failure"
        assert run["iterations"] == fail_at - 1
        iters = [e.iteration for e in run["trace"]]
        assert iters[-1] == run["iterations"]
        assert len(iters) == len(set(iters))


def direct_solve(method, prob, cfg, callback):
    """The method's own solver, not ``solve``, with the callback passed by position.

    smd starts from exp(-C/gamma), so the kernel must be positive and finite.
    """
    if method == "smd":
        x0 = np.exp(gibbs_kernel(prob)).reshape(-1)
        return solve_smd(as_constraint_system(prob), x0, cfg, lambda k, x: callback(k, x.reshape(prob.shape)))
    return {"sinkhorn": sinkhorn, "greenkhorn": greenkhorn, "pinkhorn": pinkhorn, "acc_pinkhorn": acc_pinkhorn}[
        method
    ](prob, cfg, callback)


# numpy's error state at import, which a caller who sets none runs under
DEFAULT_ERRSTATE = dict(divide="warn", over="warn", under="ignore", invalid="warn")
# every kind set, none to the default
CALLER_ERRSTATE = dict(divide="raise", over="ignore", under="raise", invalid="print")
# inputs that reach the overflow shift, log-domain steps, underflowed starts
# and a divergent stepsize: at least one method overflows, underflows or
# divides by zero inside its steps on each
HARD_INPUTS = {
    "overflowing kernel": (uniform_ot([[-800.0, 0.0], [0.0, -800.0]]), None),
    "overflowing sums": (uniform_ot(np.full((3, 3), -709.0)), None),
    "underflowed kernel": (uniform_ot(ALL_UNDERFLOW), None),
    "constant cost, small gamma": (uniform_ot(np.full((3, 3), 3.0), gamma=1e-3), None),
    "eta 2": (random_ot(np.random.default_rng(0), 8, gamma=0.1), 2.0),
}


class TestErrorState:
    """A solve ignores floating-point errors inside, and leaves the caller's numpy state as it was."""

    @pytest.mark.parametrize("name", HARD_INPUTS)
    @pytest.mark.parametrize("method", METHODS)
    def test_raise_state_gives_the_default_states_stop(self, method, name):
        prob, eta = HARD_INPUTS[name]
        cfg = SolverConfig(method=method, eta=eta, max_iter=2000)
        with np.errstate(**DEFAULT_ERRSTATE), warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = solve(prob, cfg)
        with np.errstate(all="raise"):
            reports = [solve(prob, cfg)]
            if method != "smd":  # smd's own start is exp(-C/gamma), which these kernels break
                reports.append(direct_solve(method, prob, cfg, None))
        for r in reports:
            assert (r.stop_reason, r.iterations) == (expected.stop_reason, expected.iterations)
            np.testing.assert_array_equal(r.final_iterate, expected.final_iterate)

    @pytest.mark.parametrize("method", METHODS)
    def test_callback_and_caller_keep_the_callers_state(self, method):
        prob = random_ot(np.random.default_rng(4), 5)
        seen = []
        with np.errstate(**CALLER_ERRSTATE):
            solve(prob, SolverConfig(method=method, max_iter=3), callback=lambda k, x: seen.append(np.geterr()))
            direct_solve(method, prob, SolverConfig(method=method, max_iter=3), lambda k, x: seen.append(np.geterr()))
            after = np.geterr()
        assert after == CALLER_ERRSTATE
        assert len(seen) > 2 and all(state == CALLER_ERRSTATE for state in seen)

    @pytest.mark.parametrize("method", METHODS)
    def test_state_is_restored_after_a_failure_or_a_raising_callback(self, method):
        prob, eta = HARD_INPUTS["eta 2"]
        with np.errstate(**CALLER_ERRSTATE):
            if method == "pinkhorn":  # this input's numeric_failure run
                assert solve(prob, SolverConfig(method=method, eta=eta)).stop_reason == "numeric_failure"
                assert np.geterr() == CALLER_ERRSTATE

            class Stop(Exception):
                pass

            def stop(k, x):
                if k == 2:
                    raise Stop

            for run in (lambda: solve(prob, SolverConfig(method=method), callback=stop),
                        lambda: direct_solve(method, prob, SolverConfig(method=method), stop)):
                with pytest.raises(Stop):
                    run()
                assert np.geterr() == CALLER_ERRSTATE

    @pytest.mark.parametrize("method", METHODS)
    def test_callback_errors_follow_the_callers_state(self, method):
        prob = random_ot(np.random.default_rng(4), 5)
        cfg = SolverConfig(method=method, max_iter=3)

        def divide(k, x):
            return 1.0 / np.zeros(1)

        with np.errstate(divide="raise"):
            with pytest.raises(FloatingPointError):
                solve(prob, cfg, callback=divide)
            with pytest.raises(FloatingPointError):
                direct_solve(method, prob, cfg, divide)


# the steps that read the penalties or the objective: their snapshot is what they read
GREEDY_OR_ACCELERATED = [("greenkhorn", "cyclic"), ("acc_pinkhorn", "cyclic"), ("smd", "greedy")]


class TestTraceObjectives:
    """Every method evaluates its trace objectives in batches."""

    @staticmethod
    def spy(monkeypatch, nbytes=None):
        """Record the size of every batch of objectives ``_iterate`` evaluates, and into ``nbytes`` its snapshots' bytes."""
        batches = []
        iterate = solvers._iterate

        def wrapped(cfg, callback, measure, step, current, objectives):
            def counted(snapshots):
                batches.append(len(snapshots))
                if nbytes is not None:
                    nbytes.append(sum(s.nbytes for s in snapshots))
                return objectives(snapshots)

            return iterate(cfg, callback, measure, step, current, counted)

        monkeypatch.setattr(solvers, "_iterate", wrapped)
        return batches

    @staticmethod
    def measured(monkeypatch, prob, cfg):
        """The report, and each iterate's (objective, violation) as a per-step measurement gives it."""
        if cfg.method == "smd":
            system = as_constraint_system(prob)
            seen = []
            report = solve(prob, cfg, callback=lambda k, x: seen.append(system.dots(x.reshape(-1))))
            b = system.b
            return report, [(float(np.add.reduce(kl_terms(s, b))), float(np.add.reduce(np.abs(s - b)))) for s in seen]
        n, add = prob.shape[0], np.add.reduce
        measurements = []
        if cfg.method == "greenkhorn":  # its own measurement gives each iterate's penalties
            penalties = solvers._penalties
            monkeypatch.setattr(solvers, "_penalties", lambda *a: measurements.append(penalties(*a)) or measurements[-1])
        else:
            pq = np.concatenate((prob.p, prob.q))
            snapshot = solvers._Scaling.snapshot
            monkeypatch.setattr(
                solvers._Scaling, "snapshot", lambda st: measurements.append(solvers._penalties(st.rc, pq, n)) or snapshot(st)
            )
        report = solve(prob, cfg)
        return report, [(float(add(per[:n]) + add(per[n:])), violation) for per, violation in measurements]

    @pytest.mark.parametrize(
        "method, sampling",
        [("sinkhorn", "cyclic"), ("pinkhorn", "cyclic"), ("greenkhorn", "cyclic")]
        + [("smd", "cyclic"), ("smd", "uniform"), ("smd", "greedy")],
    )
    # 255 and 1230 keep 256 and 1024 entries, whole chunks; 1237 is past
    # _DENSE_TRACE_LIMIT and off the every-tenth cadence
    @pytest.mark.parametrize("max_iter", [255, 1230, 1237])
    def test_batched_objectives_equal_per_iterate_ones(self, monkeypatch, method, sampling, max_iter):
        assert solvers._OBJECTIVE_CHUNK == 128 and solvers._DENSE_TRACE_LIMIT == 1000
        batches = self.spy(monkeypatch)
        prob = random_ot(np.random.default_rng(49), 6, gamma=0.002)
        cfg = SolverConfig(method=method, sampling=sampling, tol=1e-300, max_iter=max_iter, seed=3)
        report, ref = self.measured(monkeypatch, prob, cfg)
        assert (report.stop_reason, report.iterations) == ("max_iter", max_iter)
        iters = [e.iteration for e in report.trace]
        assert iters == sorted(set(range(min(max_iter, 1000) + 1)) | set(range(1010, max_iter + 1, 10)) | {max_iter})
        for e in report.trace:
            assert (e.objective, e.violation_l1) == ref[e.iteration]
        assert sum(batches) == len(report.trace)
        assert max(batches) <= solvers._OBJECTIVE_CHUNK
        if max_iter != 1237:
            assert batches == [solvers._OBJECTIVE_CHUNK] * (len(report.trace) // solvers._OBJECTIVE_CHUNK)

    @pytest.mark.parametrize("method, sampling", [("sinkhorn", "cyclic"), ("pinkhorn", "cyclic"), ("smd", "cyclic"), ("smd", "uniform")])
    def test_chunks_are_bounded_by_bytes(self, monkeypatch, method, sampling):
        # a 60x80 snapshot holds 140 doubles, 1120 bytes: 58 of them fill
        # 64 KB before 128 entries are kept
        assert solvers._OBJECTIVE_BYTES == 64 * 1024
        nbytes = []
        batches = self.spy(monkeypatch, nbytes)
        prob = random_ot(np.random.default_rng(50), 60, gamma=0.1, m=80)
        cfg = SolverConfig(method=method, sampling=sampling, tol=1e-300, max_iter=200, seed=3)
        report, ref = self.measured(monkeypatch, prob, cfg)
        assert (report.stop_reason, report.iterations) == ("max_iter", 200)
        assert [e.iteration for e in report.trace] == list(range(201))
        for e in report.trace:
            assert (e.objective, e.violation_l1) == ref[e.iteration]
        assert batches == [58, 58, 58, 27]
        assert max(nbytes) <= solvers._OBJECTIVE_BYTES and max(batches) <= solvers._OBJECTIVE_CHUNK

    @pytest.mark.parametrize("eta, stop", [(None, "converged"), (2.0, "numeric_failure")])
    def test_pinkhorn_objectives_at_a_stop_before_max_iter(self, monkeypatch, eta, stop):
        batches = self.spy(monkeypatch)
        prob = random_ot(np.random.default_rng(0), 8, gamma=0.1)
        report, ref = self.measured(monkeypatch, prob, SolverConfig(method="pinkhorn", eta=eta, max_iter=2000))
        assert report.stop_reason == stop
        assert [e.iteration for e in report.trace] == list(range(report.iterations + 1))
        for e in report.trace:
            assert (e.objective, e.violation_l1) == ref[e.iteration]
        assert sum(batches) == len(report.trace) and max(batches) <= solvers._OBJECTIVE_CHUNK

    @pytest.mark.parametrize("method, sampling", GREEDY_OR_ACCELERATED)
    def test_methods_that_read_penalties_batch_their_objectives(self, monkeypatch, method, sampling):
        batches = self.spy(monkeypatch)
        report = solve(random_ot(np.random.default_rng(5), 5), SolverConfig(method=method, sampling=sampling))
        assert report.stop_reason == "converged"
        assert batches and sum(batches) == len(report.trace)
        assert max(batches) <= solvers._OBJECTIVE_CHUNK


# rows 3 and 0 share block 0, rows 2 and 4 block 2: neither block is a
# contiguous, sorted run of row indices
NONCONTIG_A = np.array(
    [
        [1.0, 2.0, 0.0, 0.0, 0.0, 0.0],
        [0.5, 0.0, 1.5, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 3.0, 0.0, 0.0],
        [0.0, 0.0, 2.0, 0.0, 0.0, 0.5],
        [0.7, 0.0, 0.0, 0.0, 1.2, 1.0],
    ]
)
# the same supports with every coefficient 1: block_update's one-exp-per-row
# path, on blocks that cover part of x and rows stored out of the caller's order
NONCONTIG_01 = (NONCONTIG_A > 0.0).astype(float)
NONCONTIG_BLOCKS = [[3, 0], [1], [2, 4]]


def _target(a):
    return a @ np.linspace(0.5, 1.5, 6)


def _noncontig_dense(a, blocks=NONCONTIG_BLOCKS):
    return ConstraintSystem.from_dense(a, _target(a), blocks=blocks)


def _noncontig_triplets(a, blocks=NONCONTIG_BLOCKS):
    rows, cols = np.nonzero(a)
    trips = list(zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist()))
    return ConstraintSystem.from_triplets(trips, _target(a), dimension=6, blocks=blocks)


def _noncontig_rows(a, blocks=NONCONTIG_BLOCKS):
    rows = [Hyperplane(indices=np.arange(6), values=ai, b=b) for ai, b in zip(a, _target(a))]
    return ConstraintSystem.from_rows(rows, dimension=6, blocks=blocks)


def _dense_block_step(a, x, block, eta):
    s, b = a @ x, _target(a)
    z = x.copy()
    for i in NONCONTIG_BLOCKS[block]:
        z = z * (b[i] / s[i]) ** (eta * a[i])
    return z


def _dense_block_choice(a, sampling, k, x, rng):
    if sampling == "cyclic":
        return (k - 1) % len(NONCONTIG_BLOCKS)
    if sampling == "uniform":
        return int(rng.integers(len(NONCONTIG_BLOCKS)))
    s, b = a @ x, _target(a)
    per = s * np.log(s / b) - s + b
    return int(np.argmax([per[blk].sum() for blk in NONCONTIG_BLOCKS]))


@pytest.mark.parametrize(
    "build, a",
    [
        pytest.param(build, NONCONTIG_A, id=build.__name__)
        for build in (_noncontig_dense, _noncontig_triplets, _noncontig_rows)
    ]
    + [pytest.param(_noncontig_dense, NONCONTIG_01, id="_noncontig_dense_01")],
)
class TestNonContiguousBlocks:
    def test_layout_keeps_caller_numbering(self, build, a):
        system = build(a)
        assert system.blocks == NONCONTIG_BLOCKS
        np.testing.assert_array_equal(system.b, _target(a))
        for i, row in enumerate(system.rows):
            np.testing.assert_array_equal(row.indices, np.nonzero(a[i])[0])
            np.testing.assert_array_equal(row.values, a[i][a[i] > 0])

    def test_dots_and_steps_match_dense_reference(self, build, a):
        system = build(a)
        # the blocks listed from ``block`` on, so a first cyclic step takes ``block``
        rotated = [build(a, NONCONTIG_BLOCKS[block:] + NONCONTIG_BLOCKS[:block]) for block in range(3)]
        rng = np.random.default_rng(60)
        for _ in range(5):
            x = rng.uniform(0.1, 3.0, 6)
            np.testing.assert_allclose(system.dots(x), a @ x, rtol=1e-14)
            for block in range(3):
                np.testing.assert_allclose(
                    one_step(rotated[block], x, 0.7), _dense_block_step(a, x, block, 0.7), rtol=1e-12
                )

    def test_smooth_constants_match_dense_reference(self, build, a):
        system = build(a)
        per_block = [a[blk].max() for blk in NONCONTIG_BLOCKS]
        assert [system.block_smooth_constant(k) for k in range(3)] == per_block
        assert system.smooth_constant() == sum(per_block)

    @pytest.mark.parametrize("sampling", ["cyclic", "uniform", "greedy"])
    def test_solve_smd_matches_dense_reference(self, build, a, sampling):
        x0 = np.linspace(2.0, 0.5, 6)
        cfg = SolverConfig(method="smd", sampling=sampling, eta=0.5, tol=1e-300, max_iter=40, seed=3)
        report = solve_smd(build(a), x0, cfg)
        rng = np.random.default_rng(3)
        x, chosen = x0, []
        for k in range(1, 41):
            chosen.append(_dense_block_choice(a, sampling, k, x, rng))
            x = _dense_block_step(a, x, chosen[-1], 0.5)
        assert report.stop_reason == "max_iter"
        assert report.selected == chosen
        np.testing.assert_allclose(report.final_iterate, x, rtol=1e-10)
