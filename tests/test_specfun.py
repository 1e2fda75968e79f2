"""Special-function accuracy against independent references.

The gamma/log-gamma references are the C library implementations behind
math.gamma/math.lgamma; digamma is checked against values frozen from a
partial-sum series oracle (sum_k (1/k - 1/(k+x-1)) with an integral tail
correction, accumulated with math.fsum at N = 4e6).
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betaquad import specfun as sf

SQRT_PI = math.sqrt(math.pi)

# frozen from the series oracle (see module docstring)
PSI_ORACLE = {
    1.0: -0.5772156649015329,
    0.5: -1.9635100260214235,
    2.0: 0.4227843350984671,
    0.25: -4.2274535333762655,
    3.75: 1.1825373886117962,
}


class TestGamma:
    def test_integer_values(self):
        assert sf.gamma(1.0) == pytest.approx(1.0, rel=1e-14)
        assert sf.gamma(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_half_integer_values(self):
        assert sf.gamma(0.5) == pytest.approx(1.7724538509055160, rel=1e-13)
        assert sf.gamma(3.5) == pytest.approx(3.3233509704478426, rel=1e-13)

    def test_factorials_to_20(self):
        for n in range(1, 21):
            assert sf.gamma(float(n)) == pytest.approx(
                math.factorial(n - 1), rel=1e-14
            )

    def test_half_integers_to_15(self):
        for n in range(0, 16):
            expected = SQRT_PI * math.factorial(2 * n) / (4.0 ** n * math.factorial(n))
            assert sf.gamma(n + 0.5) == pytest.approx(expected, rel=1e-13)

    def test_against_libm_on_main_range(self):
        n = 4000
        for i in range(n):
            x = 0.5 + (171.0 - 0.5) * i / (n - 1)
            assert sf.gamma(x) == pytest.approx(math.gamma(x), rel=1e-13)

    def test_reflection_branch_against_libm(self):
        # +-6e-309: 1/|x| is still finite through the reflection
        for x in (-0.5, -1.5, -3.3, -7.25, 0.1, 0.25, 0.49, -0.001, 6e-309, -6e-309):
            assert sf.gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)

    def test_pole_arguments_raise(self):
        for x in (0.0, -1.0, -2.0, -17.0):
            with pytest.raises(ValueError):
                sf.gamma(x)

    def test_overflow_reported(self):
        # above the threshold, and where the reflection's pi / (sin(pi x) Gamma(1-x)) is infinite
        for x in (172.0, 171.7, 5e-309, 1e-310, 5e-324, -1e-310, -5e-324):
            with pytest.raises(OverflowError, match="overflows double precision"):
                sf.gamma(x)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            sf.gamma(math.inf)
        with pytest.raises(ValueError):
            sf.gamma(math.nan)


class TestLogGamma:
    def test_zeros(self):
        assert abs(sf.log_gamma(1.0)) < 5e-15
        assert abs(sf.log_gamma(2.0)) < 5e-15

    def test_value_at_10(self):
        assert sf.log_gamma(10.0) == pytest.approx(12.801827480081469, rel=1e-13)

    def test_against_libm(self):
        for i in range(1, 2000):
            x = 1e-3 + (250.0 - 1e-3) * i / 1999
            assert sf.log_gamma(x) == pytest.approx(
                math.lgamma(x), rel=1e-13, abs=5e-13
            )

    def test_exp_consistency_with_gamma(self):
        for x in (0.7, 1.0, 2.3, 9.9, 45.0, 130.0, 171.0):
            assert math.exp(sf.log_gamma(x)) == pytest.approx(sf.gamma(x), rel=1e-12)

    def test_domain_error(self):
        for x in (0.0, -0.5, -4.0):
            with pytest.raises(ValueError):
                sf.log_gamma(x)


class TestBeta:
    def test_examples(self):
        assert sf.beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert sf.beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert sf.beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-12)

    def test_against_gamma_product(self):
        for a, b in ((0.3, 2.7), (1.5, 1.5), (4.0, 0.05), (6.0, 6.0)):
            expected = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
            assert sf.beta(a, b) == pytest.approx(expected, rel=1e-12)

    def test_negative_arguments_via_reflection(self):
        for a, b in ((-0.5, 1.2), (-1.3, 0.4), (-0.5, -0.7)):
            expected = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
            assert sf.beta(a, b) == pytest.approx(expected, rel=1e-11)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=0.05, max_value=20.0),
    )
    def test_symmetry_bit_for_bit(self, a, b):
        assert sf.beta(a, b) == sf.beta(b, a)

    def test_non_finite_rejected(self):
        # the large-argument path must not turn an infinite b into a number
        for a, b in ((1.0, math.inf), (math.inf, 1.0), (math.nan, 5e3), (0.5, math.nan)):
            for fn in (sf.beta, sf.log_beta):
                with pytest.raises(ValueError):
                    fn(a, b)

    def test_pole_raises(self):
        with pytest.raises(ValueError):
            sf.beta(0.0, 1.0)
        with pytest.raises(ValueError):
            sf.beta(-1.0, 0.5)
        # a + b = 0 alone is no pole: 1/Gamma(a+b) = 0 gives a zero with the
        # sign of Gamma(a)Gamma(b)
        for (a, b), zero in (((0.5, -0.5), math.copysign(0.0, -1.0)), ((-0.5, -0.5), 0.0)):
            value = sf.beta(a, b)
            assert value == 0.0 and math.copysign(1.0, value) == math.copysign(1.0, zero)


class TestDigamma:
    def test_frozen_oracle_values(self):
        for x, expected in PSI_ORACLE.items():
            assert sf.digamma(x) == pytest.approx(expected, rel=1e-12)

    def test_unit_difference(self):
        assert sf.digamma(2.0) - sf.digamma(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_half_value(self):
        gamma_const = 0.5772156649015329
        assert sf.digamma(0.5) == pytest.approx(
            -gamma_const - 2.0 * math.log(2.0), rel=1e-12
        )

    @settings(max_examples=150, deadline=None)
    @given(st.floats(min_value=0.1, max_value=50.0))
    def test_recurrence(self, x):
        assert sf.digamma(x + 1.0) - sf.digamma(x) - 1.0 / x == pytest.approx(
            0.0, abs=1e-12
        )

    def test_negative_reflection(self):
        # psi(x) = psi(1-x) - pi cot(pi x)
        x = -0.3
        expected = sf.digamma(1.0 - x) - math.pi / math.tan(math.pi * x)
        assert sf.digamma(x) == pytest.approx(expected, rel=1e-12)

    def test_pole_raises(self):
        for x in (0.0, -3.0):
            with pytest.raises(ValueError):
                sf.digamma(x)


class TestResiduals:
    def test_reflection_examples(self):
        assert abs(sf.reflection_residual(0.5)) <= 1e-12 * math.pi
        for a in (0.25, 0.9):
            bound = 1e-12 * abs(math.pi / math.sin(math.pi * a))
            assert abs(sf.reflection_residual(a)) <= bound

    def test_reflection_grid_1000(self):
        for i in range(1, 1001):
            a = i / 1001.0
            bound = 1e-12 * abs(math.pi / math.sin(math.pi * a))
            assert abs(sf.reflection_residual(a)) <= bound

    def test_duplication_examples(self):
        for a in (0.5, 1.0, 2.75):
            assert abs(sf.duplication_residual(a)) <= 1e-12 * sf.gamma(a + 0.5)

    def test_duplication_grid_500(self):
        for i in range(1, 501):
            a = 20.0 * i / 501.0
            assert abs(sf.duplication_residual(a)) <= 1e-12 * sf.gamma(a + 0.5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sf.reflection_residual(1.5)
        with pytest.raises(ValueError):
            sf.duplication_residual(-1.0)


def lanczos_loop(x):
    """The Lanczos series as an index loop, the reference for the written-out sum."""
    s = sf._LANCZOS_COEF[0]
    for k in range(1, len(sf._LANCZOS_COEF)):
        s += sf._LANCZOS_COEF[k] / (x - 1.0 + k)
    return s


def test_lanczos_series_bit_identical_to_loop():
    rng = random.Random(20061)
    xs = [rng.uniform(0.5, 21.0) for _ in range(50_000)]
    xs += [0.5, math.nextafter(0.5, 1.0), 1.0, 2.0, 10.5, 11.5, math.nextafter(21.0, 0.0), 21.0]
    assert [sf._lanczos_series(x).hex() for x in xs] == [lanczos_loop(x).hex() for x in xs]
