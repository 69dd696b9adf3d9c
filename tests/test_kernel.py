"""KL divergence and log-sum-exp."""

import threading
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from pinkhorn import as_positive_vector, kl_div, log_sum_exp
from pinkhorn.kernel import kl_terms


def test_as_positive_vector_accepts_scalars_and_lists():
    np.testing.assert_array_equal(as_positive_vector(2.0), [2.0])
    np.testing.assert_array_equal(as_positive_vector([1, 2, 3]), [1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [[1.0, 0.0], [1.0, -2.0], [1.0, np.nan], [1.0, np.inf]])
def test_as_positive_vector_rejects_nonpositive_and_nonfinite(bad):
    with pytest.raises(ValueError):
        as_positive_vector(bad)


def test_as_positive_vector_rejects_matrix_input():
    with pytest.raises(ValueError):
        as_positive_vector([[1.0, 2.0], [3.0, 4.0]])


def test_kl_div_known_values():
    # hand-computed: 2 log 2 - 2 + 1 and 2 * (1 - log 2)
    assert kl_div([2.0], [1.0]) == pytest.approx(2.0 * np.log(2.0) - 1.0, rel=1e-12)
    assert kl_div([1.0, 1.0], [2.0, 2.0]) == pytest.approx(2.0 - 2.0 * np.log(2.0), rel=1e-12)


def test_kl_div_zero_iff_equal_and_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(0.1, 10.0, 6)
        y = rng.uniform(0.1, 10.0, 6)
        assert kl_div(x, x) == 0.0
        assert kl_div(x, y) >= 0.0


def test_kl_div_shape_mismatch():
    with pytest.raises(ValueError):
        kl_div([1.0, 2.0], [1.0])


def test_kl_terms_matches_naive_formula_when_well_separated():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(0.2, 5.0, 8)
        y = rng.uniform(0.2, 5.0, 8)
        naive = x * np.log(x / y) - x + y
        np.testing.assert_allclose(kl_terms(x, y), naive, rtol=1e-12, atol=1e-14)


def test_kl_terms_resolves_tiny_differences():
    # naive three-term evaluation returns pure roundoff here; the true value
    # is b * t^2 / 2 to leading order
    for t in (1e-7, 1e-9, 1e-11):
        got = float(kl_terms(np.array([1.0 + t]), np.array([1.0]))[0])
        expected = t * t / 2.0 - t ** 3 / 6.0
        assert got == pytest.approx(expected, rel=1e-4)


def test_kl_terms_is_nonnegative_near_equality():
    rng = np.random.default_rng(2)
    y = rng.uniform(0.5, 2.0, 1000)
    x = y * (1.0 + rng.uniform(-1e-15, 1e-15, 1000))
    assert np.all(kl_terms(x, y) >= 0.0)


def test_kl_terms_tiny_ratio_tends_to_y():
    # below x/y = 2^-54, x/y - 1 rounds to -1 and log1p(-1) = -inf; the term
    # y (1 - r + r log r) with r = x/y is y to within an ulp or two
    for r in (1e-17, 1e-20, 1e-300, 5e-324):
        for y in (1.0, 3.0, 1e-200):
            got = float(kl_terms(np.array([r * y]), np.array([y]))[0])
            assert got == pytest.approx(y, rel=1e-15)
    assert kl_div([1e-20], [1.0]) == pytest.approx(1.0, rel=1e-15)
    # x/y itself underflows to zero: the same limit
    assert kl_div([1e-300], [1e300]) == pytest.approx(1e300, rel=1e-15)


def test_kl_terms_beyond_double_range_is_inf_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kl_div([1e308], [1e3]) == np.inf  # y times the bracket overflows
        terms = kl_terms([1e308, 2.0], [1e-300, 1.0])
    assert terms[0] == np.inf
    assert terms[1] == pytest.approx(2.0 * np.log(2.0) - 1.0, rel=1e-15)


def _kl_term_decimal(x: float, y: float) -> float:
    """x log(x / y) - x + y to 50 digits, rounded to the nearest double (inf beyond the range)."""
    with localcontext() as ctx:
        ctx.prec = 50
        X, Y = Decimal(x), Decimal(y)
        term = X * (X.ln() - Y.ln()) - X + Y
    return float(term) if term <= Decimal(np.finfo(np.float64).max) else np.inf


@pytest.mark.parametrize("y", [1e-300, 2.5e-201, 1e-10, 1.0])
def test_kl_terms_at_overflowing_ratios_matches_decimal(y):
    # x / y from 1e300 to 1e600 in steps of a quarter decade, every x a
    # finite double: from 1e305 on the ratio or ratio * log(ratio) leaves
    # the double range while the term itself may not
    xs = np.array([float(Decimal(10) ** Decimal(e / 4) * Decimal(y)) for e in range(1200, 2401)])
    xs = xs[xs < np.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kl_terms(xs, y)
        assert kl_terms(xs[-1], y) == got[-1]  # 0-d inputs too
    want = np.array([_kl_term_decimal(x, y) for x in xs])
    finite = want < np.inf
    assert finite.any()
    np.testing.assert_array_equal(got[~finite], np.inf)
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-14)


def test_kl_terms_of_zero_against_zero_is_zero():
    # 0 log 0 = 0: acc_pinkhorn's bound meets (0, 0) pairs where the kernel
    # underflows.  NaN inputs still give NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kl_terms(0.0, 0.0) == 0.0
        np.testing.assert_array_equal(kl_terms([0.0, 0.0, 1.0], [0.0, 2.0, 1.0]), [0.0, 2.0, 0.0])
        np.testing.assert_array_equal(kl_terms(np.zeros((2, 3)), np.zeros((2, 3))), np.zeros((2, 3)))
        assert np.isnan(kl_terms(np.nan, 1.0))


def _kl_terms_reference(x, y):
    """The out-of-place expression ``kl_terms`` evaluates in its ratio buffer."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = x / y
        t = ratio - 1.0
        h = ratio * np.log1p(t) - t
        h = np.where(h > -np.inf, h, np.abs(t))
        # where x / y or (x / y) log(x / y) overflows, the term is taken in logs
        in_logs = (h == np.inf) & (x < np.inf)
        return np.where(in_logs, x * (np.log(x) - np.log(y)) - x + y, y * np.maximum(h, 0.0))


def _kl_terms_cases():
    """(x, y) pairs of one length: random values, near-equal pairs and the limits."""
    rng = np.random.default_rng(3)
    y = np.exp(rng.uniform(-30.0, 30.0, 64))
    x = y * np.exp(rng.uniform(-5.0, 5.0, 64))  # random ratios
    x[8:24] = y[8:24] * (1.0 + rng.uniform(-1e-12, 1e-12, 16))  # near-equal pairs
    x[24:32] = y[24:32] * np.array([2.0**-55, 1e-17, 1e-20, 1e-100, 1e-200, 1e-250, 2.0**-60, 3e-17])
    x[32], y[32] = 1e-300, 1e300  # x / y underflows to 0
    x[33], y[33] = 5e-324, 1.0
    x[34], y[34] = 1e300, 1e-10  # x / y overflows
    x[35], y[35] = 1e300, 1e-8  # (x / y) log(x / y) overflows
    x[36], y[36] = 1e308, 1e3  # y times the bracket overflows
    x[37] = y[37]  # exactly equal
    return x, y


def _assert_same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert got.dtype == expected.dtype == np.float64
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("shape", [(64,), (8, 8), (4, 16)])
def test_kl_terms_equals_reference_bit_for_bit(shape):
    x, y = (a.reshape(shape) for a in _kl_terms_cases())
    x_before, y_before = x.copy(), y.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kl_terms(x, y)
    _assert_same_bits(got, _kl_terms_reference(x_before, y_before))
    # the caller's arrays are read, never written
    _assert_same_bits(x, x_before)
    _assert_same_bits(y, y_before)


def test_kl_terms_on_0d_inputs_equals_reference_bit_for_bit():
    # eval_fi passes a float and one entry of b
    x, y = _kl_terms_cases()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for xi, yi in zip(x, y):
            for args in ((float(xi), yi), (np.asarray(xi), np.asarray(yi))):
                got = kl_terms(*args)
                assert np.ndim(got) == 0
                _assert_same_bits(got, _kl_terms_reference(xi, yi))


class _F64Subclass(np.ndarray):
    pass


def test_kl_terms_converts_other_inputs_as_asarray_does():
    # float64 ndarrays are read as they are; everything else goes through
    # np.asarray(..., float64): lists, other dtypes, byte orders, subclasses
    x, y = _kl_terms_cases()
    for convert in (
        list,
        lambda a: a.astype(np.float32),
        lambda a: a.astype(">f8"),
        lambda a: a.view(_F64Subclass),
        lambda a: np.round(a).astype(np.int64),
    ):
        with np.errstate(all="ignore"):  # the casts overflow and underflow
            xc, yc = convert(x), y
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kl_terms(xc, yc)
            assert type(got) is np.ndarray
            _assert_same_bits(got, _kl_terms_reference(np.asarray(xc, dtype=np.float64), yc))
            _assert_same_bits(kl_terms(yc, xc), _kl_terms_reference(yc, np.asarray(xc, dtype=np.float64)))


# the caller's state for divide, overflow and invalid does not reach
# kl_terms; its underflow state does (kl_terms underflows on some cases)
_CALLER_STATES = [
    {"all": "raise", "under": "ignore"},
    {"all": "warn", "under": "ignore"},
    {"all": "ignore"},
    {"divide": "raise", "over": "warn", "invalid": "call", "under": "ignore"},
]


def _call_in_state(state, x, y):
    """kl_terms(x, y) under ``state``, with warnings as errors; returns (terms, np.geterr() after)."""
    with np.errstate(**state), warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kl_terms(x, y)
        return got, np.geterr()


@pytest.mark.parametrize("state", _CALLER_STATES, ids=lambda s: ",".join(f"{k}={v}" for k, v in s.items()))
def test_kl_terms_leaves_the_callers_fp_state(state):
    x, y = _kl_terms_cases()
    with np.errstate(**state):
        want_state = np.geterr()

    def callback(kind, flag):
        pytest.fail(f"error callback for {kind}")

    prior = np.seterrcall(callback)
    try:
        got, after = _call_in_state(state, x, y)
        _assert_same_bits(got, _kl_terms_reference(x, y))
        assert after == want_state
        for xi, yi in zip(x, y):
            got, after = _call_in_state(state, float(xi), float(yi))
            _assert_same_bits(got, _kl_terms_reference(xi, yi))
            assert after == want_state
        assert np.geterrcall() is callback
    finally:
        np.seterrcall(prior)


def test_kl_terms_underflow_follows_the_caller():
    # only underflow is the caller's: at x / y = 1e-600 the ratio underflows
    x, y = np.array([1e-300, 2.0]), np.array([1e300, 1.0])
    with np.errstate(all="warn"), warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        _assert_same_bits(kl_terms(x, y), _kl_terms_reference(x, y))
    assert seen and all("underflow" in str(w.message) for w in seen)
    with np.errstate(all="ignore", under="raise"), pytest.raises(FloatingPointError, match="underflow"):
        kl_terms(x, y)


def test_kl_terms_fp_state_is_per_thread():
    # two threads in different states call kl_terms in turn: each sees its
    # own state after every call, and the same terms
    x, y = _kl_terms_cases()
    want = _kl_terms_reference(x, y)
    barrier = threading.Barrier(2)
    errors = []

    def worker(state):
        try:
            with np.errstate(**state):
                own = np.geterr()
                for _ in range(200):
                    barrier.wait(timeout=10)
                    got, after = _call_in_state(state, x, y)
                    _assert_same_bits(got, want)
                    assert after == own
        except BaseException as exc:  # reported from the main thread
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=worker, args=(s,)) for s in _CALLER_STATES[:2]]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert not errors, errors


def test_kl_terms_where_the_sum_of_squares_overflows():
    # x / y from 1e150 to 1e305 in steps of an eighth of a decade: every
    # term is finite, but past h ~ 1e154 the finiteness test's sum of
    # squares overflows, so the edge branch runs and must change nothing
    for y in (1e-300, 2.5e-201, 1e-10, 1.0):
        xs = np.array([float(Decimal(10) ** (Decimal(e) / 8) * Decimal(y)) for e in range(1200, 2441)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kl_terms(xs, y)
            assert not np.vdot(got / y, got / y) < np.inf  # h = terms / y
            _assert_same_bits(got, _kl_terms_reference(xs, y))
            for xi, gi in zip(xs[::40], got[::40]):  # 0-d inputs too
                _assert_same_bits(kl_terms(xi, y), gi)
        assert np.all(got < np.inf)
        want = np.array([_kl_term_decimal(x, y) for x in xs])
        np.testing.assert_allclose(got, want, rtol=1e-14)


def test_bregman_div_equals_kl_div():
    # the Bregman divergence of the entropy map, from its definition, is an
    # independent arithmetic path from kl_div
    def mirror_map(v):
        return np.sum(v * (np.log(v) - 1.0))

    def bregman_div(x, y):
        return mirror_map(x) - mirror_map(y) - np.log(y) @ (x - y)

    rng = np.random.default_rng(4)
    for _ in range(50):
        x = rng.uniform(0.1, 10.0, 5)
        y = rng.uniform(0.1, 10.0, 5)
        assert bregman_div(x, y) == pytest.approx(kl_div(x, y), rel=1e-9, abs=1e-12)


def test_log_sum_exp_against_scipy():
    rng = np.random.default_rng(5)
    for _ in range(30):
        m = rng.normal(0.0, 3.0, (4, 6))
        assert log_sum_exp(m) == pytest.approx(scipy_logsumexp(m), rel=1e-13)
        np.testing.assert_allclose(log_sum_exp(m, axis=0), scipy_logsumexp(m, axis=0), rtol=1e-13)
        np.testing.assert_allclose(log_sum_exp(m, axis=1), scipy_logsumexp(m, axis=1), rtol=1e-13)


def test_log_sum_exp_extreme_values_do_not_overflow():
    assert log_sum_exp(np.array([-1000.0, -1000.0])) == pytest.approx(
        -1000.0 + np.log(2.0), rel=1e-13
    )
    assert log_sum_exp(np.array([1000.0, 1000.0])) == pytest.approx(
        1000.0 + np.log(2.0), rel=1e-13
    )
