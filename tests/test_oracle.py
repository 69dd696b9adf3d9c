"""Independent verification helpers: finite differences, prox, closed-form 2x2."""

import numpy as np
import pytest

from pinkhorn import (
    analytic_symmetric_2x2,
    bregman_prox_entropy_linear,
    fd_gradient,
    prox_1d_numeric,
)


class TestFdGradient:
    def test_quadratic(self):
        g = fd_gradient(lambda v: float(v @ v), np.array([1.0, 2.0, 0.5]))
        np.testing.assert_allclose(g, [2.0, 4.0, 1.0], rtol=1e-9)

    def test_mixed_log_terms(self):
        def f(v):
            return float(v[0] * np.log(v[1]))

        x = np.array([2.0, 3.0])
        np.testing.assert_allclose(
            fd_gradient(f, x), [np.log(3.0), 2.0 / 3.0], rtol=1e-9
        )

    def test_relative_step_handles_scale_spread(self):
        # coordinates four orders of magnitude apart; a fixed absolute step
        # would overshoot the small coordinate entirely
        def f(v):
            return float(np.sum(v * np.log(v)))

        x = np.array([1e-3, 10.0])
        np.testing.assert_allclose(
            fd_gradient(f, x), np.log(x) + 1.0, rtol=1e-5
        )


class TestProx1dNumeric:
    def test_known_value(self):
        assert prox_1d_numeric(1.0, 3.0, 1.0) == pytest.approx(np.e, abs=1e-9)

    def test_eta_zero_identity(self):
        assert prox_1d_numeric(2.5, -7.0, 0.0) == 2.5

    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(50)
        worst = 0.0
        for _ in range(50):
            x = float(np.exp(rng.uniform(-2.0, 2.0)))
            c = float(rng.uniform(-3.0, 3.0))
            eta = float(np.exp(rng.uniform(-2.0, 1.0)))
            closed = float(bregman_prox_entropy_linear([x], [c], eta)[0])
            worst = max(worst, abs(prox_1d_numeric(x, c, eta) - closed))
        assert worst <= 1e-8

    def test_errors(self):
        with pytest.raises(ValueError):
            prox_1d_numeric(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            prox_1d_numeric(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            prox_1d_numeric(1.0, 1.0, -1.0)


class TestAnalytic2x2:
    def test_half_gamma_values(self):
        plan, cost = analytic_symmetric_2x2(0.5)
        k = np.exp(-2.0)
        np.testing.assert_allclose(
            plan, np.array([[1.0, k], [k, 1.0]]) / (2.0 * (1.0 + k)), rtol=1e-15
        )
        assert cost == pytest.approx(k / (1.0 + k), rel=1e-15)
        assert cost == pytest.approx(0.11920292202211755, rel=1e-12)

    def test_marginals_are_uniform(self):
        for gamma in (0.1, 0.5, 2.0):
            plan, _ = analytic_symmetric_2x2(gamma)
            np.testing.assert_allclose(plan.sum(axis=1), [0.5, 0.5], rtol=1e-14)
            np.testing.assert_allclose(plan.sum(axis=0), [0.5, 0.5], rtol=1e-14)

    def test_limits(self):
        # gamma -> 0 concentrates on the diagonal; gamma -> inf spreads uniformly
        sharp, cost_sharp = analytic_symmetric_2x2(0.01)
        assert cost_sharp < 1e-40
        flat, cost_flat = analytic_symmetric_2x2(1e6)
        np.testing.assert_allclose(flat, 0.25, rtol=1e-5)
        assert cost_flat == pytest.approx(0.5, rel=1e-5)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            analytic_symmetric_2x2(0.0)
        with pytest.raises(ValueError):
            analytic_symmetric_2x2(-1.0)
