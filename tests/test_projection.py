"""KL projections onto hyperplanes and the entropy prox step."""

import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from pinkhorn import (
    ConvergenceError,
    Hyperplane,
    bregman_prox_entropy_linear,
    kl_div,
    project_binary,
    project_general,
)
from pinkhorn import projection


def random_binary_row(rng, d):
    k = int(rng.integers(1, d + 1))
    idx = rng.choice(d, size=k, replace=False)
    return Hyperplane(indices=idx, values=np.ones(k), b=float(rng.uniform(0.1, 5.0)))


def random_general_row(rng, d):
    k = int(rng.integers(1, d + 1))
    idx = rng.choice(d, size=k, replace=False)
    val = rng.uniform(0.1, 4.0, k)
    return Hyperplane(indices=idx, values=val, b=float(rng.uniform(0.1, 5.0)))


def feasible_point(rng, h, d):
    """A random positive vector lying exactly on the hyperplane."""
    y = rng.uniform(0.2, 3.0, d)
    y[h.indices] *= h.b / h.dot(y)
    return y


class TestHyperplane:
    def test_sorts_and_drops_zeros(self):
        h = Hyperplane(indices=[4, 1, 2], values=[2.0, 0.0, 3.0], b=1.0)
        np.testing.assert_array_equal(h.indices, [2, 4])
        np.testing.assert_array_equal(h.values, [3.0, 2.0])
        assert not h.is_binary
        assert h.support_size == 2

    def test_binary_flag(self):
        assert Hyperplane(indices=[0, 3], values=[1.0, 1.0], b=2.0).is_binary
        assert not Hyperplane(indices=[0, 3], values=[1.0, 2.0], b=2.0).is_binary

    def test_from_dense(self):
        h = Hyperplane(indices=np.arange(4), values=[0.0, 2.0, 0.0, 1.0], b=3.0)
        np.testing.assert_array_equal(h.indices, [1, 3])
        np.testing.assert_array_equal(h.values, [2.0, 1.0])
        assert h.dot(np.array([9.0, 1.0, 9.0, 4.0])) == pytest.approx(6.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(indices=[0], values=[-1.0], b=1.0),
            dict(indices=[0], values=[np.inf], b=1.0),
            dict(indices=[0, 0], values=[1.0, 1.0], b=1.0),
            dict(indices=[-1], values=[1.0], b=1.0),
            dict(indices=[0], values=[0.0], b=1.0),
            dict(indices=[0], values=[1.0], b=0.0),
            dict(indices=[0], values=[1.0], b=-2.0),
            dict(indices=[0], values=[1.0], b=np.nan),
            dict(indices=[0, 1], values=[1.0], b=1.0),
        ],
    )
    def test_rejects_invalid_rows(self, kwargs):
        with pytest.raises(ValueError):
            Hyperplane(**kwargs)


class TestProjectBinary:
    def test_closed_form_example(self):
        # support sum is 4, target 2: support halves, off-support untouched
        h = Hyperplane(indices=[0, 2], values=[1.0, 1.0], b=2.0)
        z = project_binary(np.array([1.0, 5.0, 3.0]), h)
        np.testing.assert_allclose(z, [0.5, 5.0, 1.5], rtol=1e-15)

    def test_feasibility_idempotence_pythagoras(self):
        rng = np.random.default_rng(10)
        d = 8
        for _ in range(200):
            x = rng.uniform(0.05, 10.0, d)
            h = random_binary_row(rng, d)
            z = project_binary(x, h)
            assert np.all(z > 0.0)
            assert h.dot(z) == pytest.approx(h.b, rel=1e-12)
            np.testing.assert_allclose(project_binary(z, h), z, rtol=1e-12)
            # three-point identity with equality on affine sets
            y = feasible_point(rng, h, d)
            assert kl_div(y, x) == pytest.approx(
                kl_div(y, z) + kl_div(z, x), rel=1e-9, abs=1e-12
            )

    def test_rejects_general_row(self):
        h = Hyperplane(indices=[0, 1], values=[1.0, 2.0], b=1.0)
        with pytest.raises(ValueError):
            project_binary(np.array([1.0, 1.0]), h)


class TestProjectGeneral:
    def test_residual_and_form(self):
        rng = np.random.default_rng(11)
        d = 8
        for _ in range(200):
            x = rng.uniform(0.05, 10.0, d)
            h = random_general_row(rng, d)
            z = project_general(x, h)
            assert abs(h.dot(z) - h.b) <= 1e-11 * h.b
            # off-support coordinates must be untouched
            off = np.setdiff1d(np.arange(d), h.indices)
            np.testing.assert_array_equal(z[off], x[off])
            # on-support ratios must follow z_j = x_j * exp(alpha * a_j)
            # for one shared alpha
            alphas = np.log(z[h.indices] / x[h.indices]) / h.values
            assert np.ptp(alphas) <= 1e-9 * (1.0 + np.abs(alphas).max())

    def test_matches_independent_root_solver(self):
        rng = np.random.default_rng(12)
        d = 6
        for _ in range(50):
            x = rng.uniform(0.05, 10.0, d)
            h = random_general_row(rng, d)
            xs = x[h.indices]
            a = h.values

            def g(alpha):
                with np.errstate(over="ignore"):
                    return float(a @ (xs * np.exp(alpha * a))) - h.b

            alpha = brentq(g, -200.0, 200.0, xtol=1e-14, rtol=1e-15)
            ref = x.copy()
            ref[h.indices] = xs * np.exp(alpha * a)
            np.testing.assert_allclose(project_general(x, h), ref, rtol=1e-10)

    def test_reduces_to_binary_scaling(self):
        rng = np.random.default_rng(13)
        d = 7
        for _ in range(100):
            x = rng.uniform(0.05, 10.0, d)
            h = random_binary_row(rng, d)
            np.testing.assert_allclose(
                project_general(x, h), project_binary(x, h), rtol=1e-12
            )

    def test_pythagoras(self):
        rng = np.random.default_rng(14)
        d = 6
        for _ in range(100):
            x = rng.uniform(0.1, 5.0, d)
            h = random_general_row(rng, d)
            z = project_general(x, h)
            y = feasible_point(rng, h, d)
            assert kl_div(y, x) == pytest.approx(
                kl_div(y, z) + kl_div(z, x), rel=1e-9, abs=1e-12
            )

    def test_extreme_targets_still_converge(self):
        h = Hyperplane(indices=[0, 1, 2], values=[0.5, 1.5, 3.0], b=1e-8)
        z = project_general(np.array([10.0, 20.0, 30.0]), h)
        assert abs(h.dot(z) - h.b) <= 1e-11 * h.b
        h2 = Hyperplane(indices=[0, 1, 2], values=[0.5, 1.5, 3.0], b=1e8)
        z2 = project_general(np.array([1e-4, 2e-4, 3e-4]), h2)
        assert abs(h2.dot(z2) - h2.b) <= 1e-11 * h2.b

    def test_step_far_above_the_root_converges_without_warning(self):
        # from the start below the root, the first Newton step lands where
        # the log residual is about 837, beyond the range of expm1
        h = Hyperplane(indices=[0, 1], values=[0.001, 1.0], b=10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = project_general(np.array([1.0, 1e-9]), h)
        assert abs(h.dot(z) - h.b) <= 1e-11 * h.b

    @pytest.mark.parametrize("tol", [0.0, float("nan")])
    def test_bad_tol_rejected(self, tol):
        # two distinct coefficients, so a NaN tol let through would run Newton to its cap
        h = Hyperplane(indices=[0, 1], values=[1.0, 3.0], b=2.0)
        with pytest.raises(ValueError, match="tol must be positive"):
            project_general(np.array([1.0, 1.0]), h, tol=tol)

    def test_iteration_cap_raises(self, monkeypatch):
        # two distinct coefficients so the initial guess is inexact and the
        # Newton loop actually has work to do
        monkeypatch.setattr(projection, "_NEWTON_MAX_ITER", 0)
        h = Hyperplane(indices=[0, 1], values=[1.0, 3.0], b=2.0)
        with pytest.raises(ConvergenceError):
            project_general(np.array([1.0, 1.0]), h)


class TestProx:
    def test_known_value(self):
        # x=1, c=3, eta=1: log z = (0 + 2)/2 so z = e
        z = bregman_prox_entropy_linear([1.0], [3.0], 1.0)
        assert z[0] == pytest.approx(np.e, rel=1e-14)

    def test_eta_zero_is_identity_copy(self):
        x = np.array([1.0, 2.0])
        z = bregman_prox_entropy_linear(x, [5.0, -5.0], 0.0)
        np.testing.assert_array_equal(z, x)
        assert z is not x

    def test_stationarity(self):
        # the output must satisfy eta * (log z + 1 - c) + log(z / x) = 0
        rng = np.random.default_rng(15)
        for _ in range(100):
            x = np.exp(rng.uniform(-2.0, 2.0, 5))
            c = rng.uniform(-3.0, 3.0, 5)
            eta = float(np.exp(rng.uniform(-2.0, 1.0)))
            z = bregman_prox_entropy_linear(x, c, eta)
            resid = eta * (np.log(z) + 1.0 - c) + np.log(z / x)
            np.testing.assert_allclose(resid, 0.0, atol=1e-12)

    def test_minimizes_objective(self):
        rng = np.random.default_rng(16)
        x = np.exp(rng.uniform(-1.0, 1.0, 4))
        c = rng.uniform(-2.0, 2.0, 4)
        eta = 0.7

        def total(v):
            f = float(v @ np.log(v)) - float(c @ v)
            return eta * f + kl_div(v, x)

        z = bregman_prox_entropy_linear(x, c, eta)
        best = total(z)
        for _ in range(200):
            v = z * np.exp(rng.uniform(-0.5, 0.5, 4))
            assert total(v) >= best - 1e-12

    def test_errors(self):
        with pytest.raises(ValueError):
            bregman_prox_entropy_linear([1.0, 2.0], [1.0], 1.0)
        with pytest.raises(ValueError):
            bregman_prox_entropy_linear([1.0], [np.inf], 1.0)
        with pytest.raises(ValueError):
            bregman_prox_entropy_linear([1.0], [1.0], -0.5)
        with pytest.raises(OverflowError):
            bregman_prox_entropy_linear([1.0], [2000.0], 1.0)
