"""Gamma / Mittag-Leffler tests against stdlib oracles and identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracpicard.special_functions import (
    MLParams,
    SeriesConvergenceError,
    gamma,
    log_gamma,
    mittag_leffler,
)

GAMMA_HALF_3 = 0.8862269254527580  # gamma(1.5)
E_HALF_AT_MINUS_1 = 0.4275835761558070  # exp(1) * erfc(1)


class TestGamma:
    def test_matches_stdlib_across_working_range(self):
        xs = np.concatenate([np.linspace(0.1, 5.0, 197), np.linspace(5.0, 50.0, 181)])
        for x in xs:
            assert gamma(float(x)) == pytest.approx(math.gamma(float(x)), rel=1e-12)

    def test_frozen_value_at_three_halves(self):
        assert gamma(1.5) == pytest.approx(GAMMA_HALF_3, rel=1e-13)

    def test_negative_non_integers_via_reflection(self):
        for x in (-0.5, -1.5, -2.25, -6.9, -0.01):
            assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-11)

    def test_poles_raise(self):
        for x in (0.0, -1.0, -2.0, -17.0):
            with pytest.raises(ValueError):
                gamma(x)

    def test_integer_factorials(self):
        for n in range(1, 15):
            assert gamma(float(n)) == pytest.approx(math.factorial(n - 1), rel=1e-13)

    @given(st.floats(min_value=0.05, max_value=40.0))
    @settings(max_examples=200)
    def test_recurrence_property(self, x):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-11)


class TestLogGamma:
    def test_matches_stdlib(self):
        for x in np.concatenate([np.linspace(0.1, 10, 89), np.linspace(10, 200, 77)]):
            assert log_gamma(float(x)) == pytest.approx(math.lgamma(float(x)), abs=1e-12, rel=1e-13)

    def test_consistent_with_gamma(self):
        for x in (0.3, 1.0, 2.5, 7.75):
            assert math.exp(log_gamma(x)) == pytest.approx(gamma(x), rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-1.2)


class TestMittagLeffler:
    def test_order_one_is_exp(self):
        p = MLParams(1.0, 1.0)
        for x in np.linspace(-5.0, 5.0, 41):
            assert mittag_leffler(p, float(x)) == pytest.approx(math.exp(float(x)), rel=1e-12)

    def test_order_two_is_cos(self):
        p = MLParams(2.0, 1.0)
        for x in np.linspace(0.0, 6.0, 25):
            assert mittag_leffler(p, -float(x) ** 2) == pytest.approx(
                math.cos(float(x)), abs=1e-12
            )

    def test_order_two_beta_two_is_sinc(self):
        p = MLParams(2.0, 2.0)
        for x in np.linspace(0.1, 6.0, 23):
            assert mittag_leffler(p, -float(x) ** 2) == pytest.approx(
                math.sin(float(x)) / float(x), rel=1e-11
            )

    def test_half_order_erfc_identity(self):
        # E_(1/2)(z) = exp(z^2) erfc(-z)
        p = MLParams(0.5, 1.0)
        for z in np.linspace(-2.0, 0.5, 26):
            z = float(z)
            expected = math.exp(z * z) * math.erfc(-z)
            assert mittag_leffler(p, z) == pytest.approx(expected, rel=1e-11)

    def test_frozen_value_at_minus_one(self):
        val = mittag_leffler(MLParams(0.5, 1.0), -1.0)
        assert val == pytest.approx(E_HALF_AT_MINUS_1, abs=1e-13)
        assert val == pytest.approx(math.exp(1.0) * math.erfc(1.0), rel=1e-12)

    def test_at_zero_is_reciprocal_gamma(self):
        for alpha, beta in ((0.5, 1.0), (1.3, 2.2), (0.7, 0.4)):
            assert mittag_leffler(MLParams(alpha, beta), 0.0) == pytest.approx(
                1.0 / math.gamma(beta), rel=1e-13
            )

    @given(
        st.floats(min_value=0.4, max_value=2.5),
        st.floats(min_value=0.5, max_value=3.0),
        st.floats(min_value=-3.0, max_value=4.0),
    )
    @settings(max_examples=150)
    def test_shift_identity_property(self, alpha, beta, z):
        # E_(a,b)(z) = z E_(a,a+b)(z) + 1/gamma(b): index shift of the series.
        # z is kept moderate: for z << 0 the alternating sum loses digits to
        # cancellation (terms peak at ~exp(|z|^(1/alpha))) on both sides.
        lhs = mittag_leffler(MLParams(alpha, beta), z)
        rhs = z * mittag_leffler(MLParams(alpha, alpha + beta), z) + 1.0 / gamma(beta)
        assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-9)

    def test_exhausted_budget_raises(self):
        with pytest.raises(SeriesConvergenceError):
            mittag_leffler(MLParams(0.5, 1.0, max_terms=3), -5.0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            MLParams(0.0, 1.0)
        with pytest.raises(ValueError):
            MLParams(0.5, 1.0, tol=0.0)
        with pytest.raises(ValueError):
            MLParams(0.5, 1.0, max_terms=0)
