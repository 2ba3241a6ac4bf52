"""Mittag-Leffler tests against stdlib oracles and identities."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracpicard.special_functions import (
    _MAX_TERMS,
    _TOL,
    MLParams,
    SeriesConvergenceError,
    mittag_leffler,
)

E_HALF_AT_MINUS_1 = 0.4275835761558070  # exp(1) * erfc(1)
# E_(0.4,0.5)(-3), E_(1/2)(-5) = exp(25) erfc(5) and E_(0.4,2.5)(-3), summed in
# 50-digit arithmetic
E_04_05_AT_MINUS_3 = 0.052113392617980212
E_HALF_AT_MINUS_5 = 0.11070463773306863
E_04_25_AT_MINUS_3 = 0.22806604720026073


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
        cases = [(a, b, 1.0 / math.gamma(b)) for a, b in ((0.5, 1.0), (1.3, 2.2), (0.7, 0.4))]
        # Gamma(beta) overflows: 1/Gamma(171.7) = 1/(170.7 Gamma(170.7)) is
        # subnormal, 1/Gamma(200) rounds to 0
        cases += [(0.5, 171.7, 1.0 / math.gamma(170.7) / 170.7), (0.5, 200.0, 0.0)]
        for alpha, beta, expected in cases:
            p = MLParams(alpha, beta)
            assert mittag_leffler(p, 0.0) == pytest.approx(expected, rel=1e-13, abs=0.0)
            got = mittag_leffler(p, np.array([0.0, 1.0]))[0]
            assert got == pytest.approx(expected, rel=1e-13, abs=0.0)

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
        rhs = z * mittag_leffler(MLParams(alpha, alpha + beta), z) + 1.0 / math.gamma(beta)
        assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-9)

    def test_cancelling_sums_keep_digits(self):
        # the series' terms would reach 2.4e6 and 5.8e9 at the first two;
        # the contour takes both
        got = mittag_leffler(MLParams(0.4, 0.5), -3.0)
        assert got == pytest.approx(E_04_05_AT_MINUS_3, rel=1e-7)
        got = mittag_leffler(MLParams(0.5, 1.0), -5.0)
        assert got == pytest.approx(E_HALF_AT_MINUS_5, rel=1e-13)
        # beta = 2.5 stays on the series, whose terms reach 9.7e3: the sum is
        # within its tolerance only if those terms are right to a few ulp
        got = mittag_leffler(MLParams(0.4, 2.5), -3.0)
        assert got == pytest.approx(E_04_25_AT_MINUS_3, rel=1e-9)

    def test_series_with_no_digit_left_raises(self):
        # the terms of E_1(-40) reach 1.5e16 > 2^53, and the sum would read -104
        # where exp(-40) = 4.2e-18
        with pytest.raises(SeriesConvergenceError, match="beta = 1.0, z = -40"):
            mittag_leffler(MLParams(1.0, 1.0), np.array([-1.0, -40.0]))

    def test_order_one_series_error_is_absolute(self):
        # at alpha = 1 the series keeps a few ulp of its largest term,
        # about e^x / sqrt(2 pi x), up to where it raises: relative error
        # passes 1 from x = 19.4 on, yet no value is further off than this
        x = np.linspace(1.0, 36.7, 4000)
        err = np.abs(mittag_leffler(MLParams(1.0, 1.0), -x) - np.exp(-x))
        eps = np.finfo(float).eps
        assert np.all(err <= 8 * eps * np.exp(x) / np.sqrt(2 * np.pi * x))

    def test_exhausted_budget_raises(self):
        # at alpha = 0.001 the terms are about 0.999^k: 0.13 after 2000 of them
        with pytest.raises(SeriesConvergenceError, match=f"{_MAX_TERMS} terms"):
            mittag_leffler(MLParams(0.001, 1.0), 0.999)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            MLParams(0.0, 1.0)

    def test_params_reject_non_finite(self):
        for alpha, beta in ((math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan), (0.5, math.inf)):
            with pytest.raises(ValueError):
                MLParams(alpha, beta)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, [0.5, math.nan]])
    def test_non_finite_argument_rejected(self, z):
        with pytest.raises(ValueError, match="finite"):
            mittag_leffler(MLParams(0.5, 1.0), z)


def _series_per_element(params, z):
    """The per-element scalar loop the array series replaced, kept as the
    reference: returns E_(alpha,beta)(z) and the sum of |term| it added.
    A zero term at a gamma pole still ends its sum, so compare it only
    where no alpha k + beta is a pole. Like the array series, it takes the
    terms above 1 of a cancelling sum (z < 0, |z|^(1/alpha) < 53 log 2) as
    |z|^k / Gamma(alpha k + beta), with the exact alpha k + beta."""
    cap = math.log(53.0 * math.log(2.0))
    total, absum, prev = 0.0, 0.0, math.inf
    for k in range(_MAX_TERMS):
        arg = params.alpha * k + params.beta
        if abs(arg - round(arg)) < 1e-12 and arg <= 1e-12:
            term = 0.0
        elif z == 0.0:
            term = 1.0 / math.gamma(arg) if k == 0 else 0.0
        elif arg > 0.5:
            term = math.exp(k * math.log(abs(z)) - math.lgamma(arg))
            if (z < 0.0 and term > 1.0 and math.log(-z) < params.alpha * cap
                    and arg < 171.0 and k * params.alpha * cap < 700.0):
                delta = float(Fraction(params.alpha) * k + Fraction(params.beta) - Fraction(arg))
                psi = (math.lgamma(arg + 1e-6) - math.lgamma(arg - 1e-6)) / 2e-6
                term = (-z) ** k / (math.gamma(arg) * (1.0 + psi * delta))
            if z < 0.0 and k % 2 == 1:
                term = -term
        else:
            term = z**k / math.gamma(arg)
        total += term
        absum += abs(term)
        if abs(term) < _TOL and abs(term) <= prev:
            return total, absum
        prev = abs(term)
    raise AssertionError("reference series did not converge")


MIXED_Z = np.concatenate([
    np.random.default_rng(5).uniform(-6.0, 3.0, 996), [0.0, -6.0, 3.0, -1.0],
])


class TestMittagLefflerArrays:
    def test_shapes_kept(self):
        p = MLParams(0.5, 1.0)
        assert type(mittag_leffler(p, -1.0)) is float
        assert type(mittag_leffler(p, np.float64(-1.0))) is float
        zero_d = mittag_leffler(p, np.array(-1.0))
        assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
        assert mittag_leffler(p, np.linspace(-2.0, 1.0, 7)).shape == (7,)
        grid = np.linspace(-2.0, 1.0, 12).reshape(3, 4)
        out = mittag_leffler(p, grid)
        assert out.shape == (3, 4)
        assert out[2, 1] == mittag_leffler(p, float(grid[2, 1]))
        assert mittag_leffler(p, np.array([])).shape == (0,)

    @pytest.mark.parametrize("alpha,beta", [(0.5, 1.0), (1.0, 2.0), (2.0, 1.0), (0.7, 0.4)])
    def test_elements_independent(self, alpha, beta):
        # each element stops on its own, so one call over many z gives every
        # element bit for bit what a call on that z alone gives
        p = MLParams(alpha, beta)
        together = mittag_leffler(p, MIXED_Z)
        alone = np.array([mittag_leffler(p, float(z)) for z in MIXED_Z])
        assert np.array_equal(together, alone)

    @pytest.mark.parametrize("alpha,beta", [
        (0.5, 1.0), (1.0, 1.0), (2.0, 2.0), (0.7, 0.4), (1.3, 2.2), (0.8, -0.3),
        (0.5, 2.0), (0.5, 2.5),
    ])
    def test_matches_per_element_loop(self, alpha, beta):
        # numpy's exp/log may differ from math's in the last ulp, so each
        # element may differ by the rounding of the sum, not more
        p = MLParams(alpha, beta)
        got = mittag_leffler(p, MIXED_Z)
        for z, g in zip(MIXED_Z, got):
            ref, absum = _series_per_element(p, float(z))
            assert abs(g - ref) <= 4.0 * np.finfo(float).eps * absum, z

    def test_identities_in_one_call(self):
        # the scalar identity tests above, each as one array call, with the
        # same tolerances (pytest.approx adds an absolute 1e-12)
        x = np.linspace(-5.0, 5.0, 41)
        got = mittag_leffler(MLParams(1.0, 1.0), x)
        np.testing.assert_allclose(got, np.exp(x), rtol=1e-12, atol=1e-12)
        x = np.linspace(0.0, 6.0, 25)
        got = mittag_leffler(MLParams(2.0, 1.0), -(x**2))
        np.testing.assert_allclose(got, np.cos(x), rtol=0.0, atol=1e-12)
        x = np.linspace(0.1, 6.0, 23)
        got = mittag_leffler(MLParams(2.0, 2.0), -(x**2))
        np.testing.assert_allclose(got, np.sin(x) / x, rtol=1e-11, atol=1e-12)
        z = np.linspace(-2.0, 0.5, 26)
        expected = [math.exp(v * v) * math.erfc(-v) for v in z]
        got = mittag_leffler(MLParams(0.5, 1.0), z)
        np.testing.assert_allclose(got, expected, rtol=1e-11, atol=1e-12)

    def test_leading_gamma_poles_do_not_stop_the_sum(self):
        # 1/gamma(alpha k + beta) is 0 for the first terms; the sum goes on
        x = np.linspace(-3.0, 2.0, 21)
        got = mittag_leffler(MLParams(1.0, -1.0), x)
        np.testing.assert_allclose(got, x**2 * np.exp(x), rtol=1e-12, atol=1e-12)
        got = mittag_leffler(MLParams(1.0, 0.0), x)
        np.testing.assert_allclose(got, x * np.exp(x), rtol=1e-12, atol=1e-12)
        got = mittag_leffler(MLParams(2.0, 0.0), -(x**2))
        np.testing.assert_allclose(got, -x * np.sin(x), rtol=1e-12, atol=1e-12)

    def test_one_overflowing_element_raises(self):
        z = np.linspace(-1.0, 1.0, 50)
        z[17] = 40.0  # alpha = 1/2: terms reach exp(|z|^2) > exp(700)
        with pytest.raises(SeriesConvergenceError, match="z = 40"):
            mittag_leffler(MLParams(0.5, 1.0), z)

    def test_out_of_range_gamma_raises_clearly(self):
        # Gamma(beta) leaves the double range, so 1/Gamma(beta) would overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for beta in (-171.7, -200.5):
                for z in (1.0, 0.0):
                    with pytest.raises(SeriesConvergenceError, match=f"beta = {beta}, z = {z:g}"):
                        mittag_leffler(MLParams(0.5, beta), z)

    def test_exhausted_budget_names_the_argument(self):
        z = np.array([0.0, 0.1, 0.999])
        with pytest.raises(SeriesConvergenceError, match="z = 0.999"):
            mittag_leffler(MLParams(0.001, 1.0), z)


def _ml_quadrature(mp, alpha, x):
    """E_alpha(-x) for 0 < alpha < 1 and x > 0 in 30-digit arithmetic, from
    (sin(alpha pi) / (alpha pi)) int_0^inf exp(-u^(1/alpha)) x
    / (u^2 + 2 x u cos(alpha pi) + x^2) du (Gorenflo, Loutchko & Luchko,
    Fract. Calc. Appl. Anal. 5 (2002) 491), split where the integrand turns."""
    with mp.workdps(30):
        a, x = mp.mpf(alpha), mp.mpf(x)
        c = mp.cos(a * mp.pi)
        points = sorted({mp.mpf(0), x / 2, x, 2 * x, mp.mpf(1), mp.mpf(2)}) + [mp.inf]
        value = mp.quad(lambda u: mp.exp(-u ** (1 / a)) * x / (u * u + 2 * x * u * c + x * x),
                        points)
        return float(mp.sin(a * mp.pi) / (a * mp.pi) * value)


def _ml_series_mp(mp, alpha, beta, z):
    """E_(alpha,beta)(z) summed in 120-digit arithmetic, past its largest term
    and on to a term below 1e-40."""
    with mp.workdps(120):
        a, b, z = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        total, zk, k = mp.mpf(0), mp.mpf(1), 0
        while True:
            term = zk * mp.rgamma(a * k + b)
            total += term
            if a * k > abs(z) ** (1 / a) and abs(term) < mp.mpf(10) ** -40:
                return float(total)
            k += 1
            zk *= z


class TestContour:
    """E_(alpha,beta)(z) for 0 < alpha < 1, 0 < beta <= 1.9 and z < 0, which
    takes the Bromwich contour, against references that do not use it."""

    def test_half_order_is_erfcx(self):
        erfcx = pytest.importorskip("scipy.special").erfcx
        for x in (np.linspace(0.0, 50.0, 2001), np.geomspace(1e-6, 1e8, 401)):
            got = mittag_leffler(MLParams(0.5, 1.0), -x)
            np.testing.assert_allclose(got, erfcx(x), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("alpha", [0.01, 0.2, 0.5, 0.8, 0.95, 0.995])
    def test_beta_one_against_quadrature(self, alpha):
        mp = pytest.importorskip("mpmath")
        x = np.geomspace(1e-6, 1e4, 6)
        got = mittag_leffler(MLParams(alpha, 1.0), -x)
        expected = [_ml_quadrature(mp, alpha, xi) for xi in x]
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("beta", [0.001, 0.4, 1.7, 1.9])
    def test_other_beta_against_series(self, alpha, beta):
        # |z|^(1/alpha) up to 40 keeps the largest term of the 120-digit sum
        # below e^40; the rule's error is largest near z = 0
        mp = pytest.importorskip("mpmath")
        x = np.array([1e-6, 0.3, 1.0]) * 40.0**alpha
        got = mittag_leffler(MLParams(alpha, beta), -x)
        expected = [_ml_series_mp(mp, alpha, beta, -xi) for xi in x]
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13)
