"""Quadrature engine behaviour: spot values, invariants, failure modes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betaquad import quad
from betaquad.quad import IntegralSpec

SQRT_PI = math.sqrt(math.pi)
TOL = 1e-10


def beta_ref(a, b):
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


class TestSpecValidation:
    def test_exponents_must_be_integrable(self):
        with pytest.raises(ValueError):
            IntegralSpec.finite(0.0, 1.0, alpha_lo=-1.0)

    def test_finite_needs_ordered_endpoints(self):
        with pytest.raises(ValueError):
            IntegralSpec.finite(1.0, 1.0)

    def test_pole_strictly_inside(self):
        with pytest.raises(ValueError):
            IntegralSpec.finite(0.0, 1.0, poles=(1.0,))
        with pytest.raises(ValueError):
            IntegralSpec.half_line_up(0.0, poles=(-2.0,))

    def test_poles_distinct_and_sorted(self):
        with pytest.raises(ValueError):
            IntegralSpec.finite(0.0, 3.0, poles=(1.0, 1.0))
        spec = IntegralSpec.finite(0.0, 3.0, poles=(2.0, 1.0))
        assert spec.poles == (1.0, 2.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            IntegralSpec("circle")


class TestFinite:
    def test_linear(self):
        res = quad.integrate_finite(
            lambda x, dlo, dhi: x, IntegralSpec.finite(0.0, 1.0), TOL
        )
        assert res.converged and res.evaluations > 0
        assert res.value == pytest.approx(0.5, abs=1e-12)

    def test_arcsine_singularity(self):
        res = quad.integrate_finite(
            lambda x, dlo, dhi: 1.0 / np.sqrt(dlo * dhi),
            IntegralSpec.finite(0.0, 1.0, -0.5, -0.5),
            TOL,
        )
        assert res.converged
        assert res.value == pytest.approx(math.pi, rel=1e-12)

    def test_polynomial(self):
        res = quad.integrate_finite(
            lambda x, dlo, dhi: x * dhi * dhi, IntegralSpec.finite(0.0, 1.0), TOL
        )
        assert res.value == pytest.approx(1.0 / 12.0, rel=1e-12)

    def test_extreme_exponents(self):
        res = quad.integrate_finite(
            lambda x, dlo, dhi: dlo ** -0.95 * dhi ** -0.95,
            IntegralSpec.finite(0.0, 1.0, -0.95, -0.95),
            TOL,
        )
        assert res.converged
        assert res.value == pytest.approx(beta_ref(0.05, 0.05), rel=1e-10)

    def test_distances_always_positive(self):
        seen = {"min": math.inf}

        def probe(x, dlo, dhi):
            seen["min"] = min(seen["min"], float(np.min(dlo)), float(np.min(dhi)))
            return np.ones_like(x)

        quad.integrate_finite(probe, IntegralSpec.finite(2.0, 5.0), TOL)
        assert seen["min"] > 0.0

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError):
            quad.integrate_finite(
                lambda x, dlo, dhi: x, IntegralSpec.half_line_up(0.0), TOL
            )


def _never_called(x, dlo, dhi):
    raise AssertionError("integrand evaluated despite a bad tol")


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
@pytest.mark.parametrize(
    "engine",
    [
        lambda tol: quad.integrate_finite(_never_called, IntegralSpec.finite(0.0, 1.0), tol),
        lambda tol: quad.integrate_half_line(_never_called, IntegralSpec.half_line_up(0.0), tol),
        lambda tol: quad.integrate_real_line(_never_called, tol),
        lambda tol: quad.integrate_pv(
            _never_called, IntegralSpec.finite(0.0, 2.0, poles=(1.0,)), tol
        ),
        lambda tol: quad.integrate(_never_called, IntegralSpec.finite(0.0, 1.0), tol),
    ],
    ids=["finite", "half_line", "real_line", "pv", "integrate"],
)
def test_rejects_bad_args(engine, tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        engine(tol)


class TestHalfLine:
    def test_arctan(self):
        res = quad.integrate_half_line(
            lambda x, dlo, dhi: 1.0 / (1.0 + x * x), IntegralSpec.half_line_up(0.0), TOL
        )
        assert res.converged
        assert res.value == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_euler_reflection_integral(self):
        res = quad.integrate_half_line(
            lambda x, dlo, dhi: 1.0 / (np.sqrt(dlo) * (1.0 + x)),
            IntegralSpec.half_line_up(0.0, alpha_lo=-0.5),
            TOL,
        )
        assert res.value == pytest.approx(math.pi, rel=1e-11)

    def test_three_halves_decay(self):
        res = quad.integrate_half_line(
            lambda x, dlo, dhi: (1.0 + x) ** -1.5, IntegralSpec.half_line_up(0.0), TOL
        )
        assert res.value == pytest.approx(2.0, rel=1e-12)

    def test_downward_direction(self):
        res = quad.integrate_half_line(
            lambda x, dlo, dhi: np.exp(x), IntegralSpec.half_line_down(0.0), TOL
        )
        assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_divergent_integrand_flagged(self):
        res = quad.integrate_half_line(
            lambda x, dlo, dhi: 1.0 / (1.0 + x), IntegralSpec.half_line_up(0.0), TOL
        )
        assert not res.converged
        assert res.status == "diverging"


class TestRealLine:
    def test_gaussian(self):
        res = quad.integrate_real_line(lambda x, dlo, dhi: np.exp(-x * x), TOL)
        assert res.value == pytest.approx(SQRT_PI, rel=1e-12)

    def test_logistic_kernel(self):
        def f(x, dlo, dhi):
            ax = np.abs(x)
            softplus = np.log1p(np.exp(-ax)) + np.maximum(-x, 0.0)
            return np.exp(-0.5 * x - softplus)

        res = quad.integrate_real_line(f, TOL)
        assert res.value == pytest.approx(math.pi, rel=1e-11)

    def test_odd_sech_squared(self):
        def f(x, dlo, dhi):
            return x / np.cosh(np.minimum(np.abs(x), 700.0)) ** 2

        res = quad.integrate_real_line(f, TOL)
        assert res.value == pytest.approx(0.0, abs=1e-12)


class TestPrincipalValue:
    def test_odd_pole_on_finite_interval(self):
        # default pairing carries ~1e-9 of offset-reconstruction noise
        res = quad.integrate_pv(
            lambda x, dlo, dhi: 1.0 / (x - 1.0),
            IntegralSpec.finite(0.0, 2.0, poles=(1.0,)),
            TOL,
        )
        assert res.converged
        assert res.value == pytest.approx(0.0, abs=1e-8)

    def test_half_line_pole_odd_exponent(self):
        # PV int_0^inf x^(-1/2)/(x-1) dx = 0
        res = quad.integrate_pv(
            lambda x, dlo, dhi: 1.0 / (np.sqrt(dlo) * (x - 1.0)),
            IntegralSpec.half_line_up(0.0, alpha_lo=-0.5, poles=(1.0,)),
            TOL,
        )
        assert res.value == pytest.approx(0.0, abs=1e-8)

    def test_half_line_down_pole_odd_exponent(self):
        # mirror image: PV int_-inf^0 (-x)^(-1/2)/(-x-1) dx = 0
        res = quad.integrate_pv(
            lambda x, dlo, dhi: 1.0 / (np.sqrt(dhi) * (-x - 1.0)),
            IntegralSpec.half_line_down(0.0, alpha_hi=-0.5, poles=(-1.0,)),
            TOL,
        )
        assert res.value == pytest.approx(0.0, abs=1e-8)

    def test_half_line_pole_quarter_exponent(self):
        # PV int_0^inf x^(-3/4)/(x-1) dx = -pi cot(pi/4) = -pi
        res = quad.integrate_pv(
            lambda x, dlo, dhi: dlo ** -0.75 / (x - 1.0),
            IntegralSpec.half_line_up(0.0, alpha_lo=-0.75, poles=(1.0,)),
            TOL,
        )
        assert res.value == pytest.approx(-math.pi, rel=1e-6)

    def test_analytic_fold_beats_naive(self):
        # e^{-t/2}/(1-e^{-t}) over R, pole at 0: exactly zero by symmetry
        def f(x, dlo, dhi):
            x = np.asarray(x, dtype=float)
            out = np.empty_like(x)
            pos = x > 0
            out[pos] = np.exp(-0.5 * x[pos] - np.log(-np.expm1(-x[pos])))
            out[~pos] = -np.exp(0.5 * x[~pos] - np.log1p(-np.exp(x[~pos])))
            return out

        def fold(u):
            num = 4.0 * np.sinh(0.5 * u) * np.sinh(0.0 * u)
            den = np.expm1(u) * (-np.expm1(-u))
            return -num / den

        res = quad.integrate_pv(
            f, IntegralSpec.real_line(poles=(0.0,)), TOL, folds=(fold,)
        )
        assert res.value == pytest.approx(0.0, abs=1e-8)

    def test_two_pole_partial_fractions(self):
        mu, a, b = 0.4, 1.0, 2.2
        expected = (
            math.pi
            / math.tan(mu * math.pi)
            * (a ** (mu - 1.0) - b ** (mu - 1.0))
            / (b - a)
        )
        res = quad.integrate_pv(
            lambda x, dlo, dhi: dlo ** (mu - 1.0) / ((a - x) * (b - x)),
            IntegralSpec.half_line_up(0.0, alpha_lo=mu - 1.0, poles=(a, b)),
            TOL,
        )
        assert res.value == pytest.approx(expected, rel=1e-6)

    def test_pv_symmetry_offset_pole(self):
        # odd about the pole at 1.3: 1/(x-s) + (x-s)^3
        s = 1.3
        res = quad.integrate_pv(
            lambda x, dlo, dhi: 1.0 / (x - s) + (x - s) ** 3,
            IntegralSpec.finite(s - 1.0, s + 1.0, poles=(s,)),
            TOL,
        )
        assert res.value == pytest.approx(0.0, abs=1e-7)

    def test_requires_declared_pole(self):
        with pytest.raises(ValueError):
            quad.integrate_pv(
                lambda x, dlo, dhi: x, IntegralSpec.finite(0.0, 1.0), TOL
            )


class TestDriverBehaviour:
    def test_nonconvergence_on_interior_kink(self):
        res = quad.integrate_finite(
            lambda x, dlo, dhi: np.abs(x - 1.0 / math.pi),
            IntegralSpec.finite(0.0, 1.0),
            1e-13,
        )
        assert not res.converged
        assert res.status in ("max_level", "diverging")

    def test_error_estimates_shrink_past_level_3(self):
        res = quad.integrate_finite(
            lambda x, dlo, dhi: 1.0 / np.sqrt(dlo * dhi),
            IntegralSpec.finite(0.0, 1.0, -0.5, -0.5),
            1e-12,
        )
        diffs = res.level_errors
        assert len(diffs) >= 3
        for i in range(3, len(diffs)):
            assert diffs[i] <= diffs[i - 1]

    def test_non_finite_integrand_reported(self):
        with pytest.raises(quad.EvaluationError):
            quad.integrate_finite(
                lambda x, dlo, dhi: np.full_like(x, np.nan),
                IntegralSpec.finite(0.0, 1.0),
                TOL,
            )

    def test_evaluation_cap(self, monkeypatch):
        monkeypatch.setattr(quad, "MAX_EVALUATIONS", 100)
        res = quad.integrate_finite(
            lambda x, dlo, dhi: np.abs(x - 1.0 / math.pi),
            IntegralSpec.finite(0.0, 1.0),
            1e-13,
        )
        assert not res.converged
        assert res.status == "max_evals"

    def test_converged_respects_tolerance_contract(self):
        res = quad.integrate_finite(
            lambda x, dlo, dhi: np.exp(-x), IntegralSpec.finite(0.0, 3.0), 1e-9
        )
        assert res.converged
        assert res.error_estimate <= 1e-9 * max(1.0, abs(res.value))


class TestCallCounts:
    """Levels 0..MIN_LEVEL cost one integrand call, each later level one more."""

    CASES = [
        # (engine, integrand, spec or None, level the sequence converges at)
        (quad.integrate_finite, lambda x, dlo, dhi: x, IntegralSpec.finite(0.0, 1.0), 3),
        (quad.integrate_finite, lambda x, dlo, dhi: np.exp(-x), IntegralSpec.finite(0.0, 3.0), 4),
        (quad.integrate_finite, lambda x, dlo, dhi: np.cos(20.0 * x), IntegralSpec.finite(0.0, 1.0), 5),
        (quad.integrate_half_line, lambda x, dlo, dhi: 1.0 / (1.0 + x * x),
         IntegralSpec.half_line_up(0.0), 3),
        (quad.integrate_half_line, lambda x, dlo, dhi: np.exp(x), IntegralSpec.half_line_down(0.0), 5),
        (quad.integrate_real_line, lambda x, dlo, dhi: 1.0 / (1.0 + x * x) ** 2, None, 3),
        (quad.integrate_real_line, lambda x, dlo, dhi: np.exp(-x * x), None, 5),
    ]

    @pytest.mark.parametrize("engine, f, spec, level", CASES)
    def test_one_call_per_level_block(self, engine, f, spec, level):
        calls = nodes = 0

        def counted(x, dlo, dhi):
            nonlocal calls, nodes
            calls += 1
            nodes += x.size
            return f(x, dlo, dhi)

        args = (counted, TOL) if spec is None else (counted, spec, TOL)
        res = engine(*args)
        assert res.converged
        assert len(res.level_errors) == level
        assert calls == 1 + level - quad.MIN_LEVEL
        assert res.evaluations == nodes

    @pytest.mark.parametrize("engine, f, spec, level", CASES)
    def test_fused_block_matches_level_by_level(self, engine, f, spec, level, monkeypatch):
        args = (f, TOL) if spec is None else (f, spec, TOL)
        fused = engine(*args)
        drive = quad._drive

        def level_by_level(level_sum, tol, max_level=quad.MAX_LEVEL):
            def split(first, last):
                return [t for k in range(first, last + 1) for t in level_sum(k, k)]

            return drive(split, tol, max_level)

        monkeypatch.setattr(quad, "_drive", level_by_level)
        assert engine(*args) == fused


class TestInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_linearity(self, alpha, beta):
        spec = IntegralSpec.finite(0.0, 1.0)

        def f(x, dlo, dhi):
            return np.exp(-x)

        def g(x, dlo, dhi):
            return x * x

        def combo(x, dlo, dhi):
            return alpha * f(x, dlo, dhi) + beta * g(x, dlo, dhi)

        lhs = quad.integrate_finite(combo, spec, TOL).value
        rhs = (
            alpha * quad.integrate_finite(f, spec, TOL).value
            + beta * quad.integrate_finite(g, spec, TOL).value
        )
        assert abs(lhs - rhs) <= 2.0 * TOL * (1.0 + abs(alpha) + abs(beta))

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.3, max_value=2.5),
        st.floats(min_value=0.3, max_value=2.5),
    )
    def test_substitution_invariance(self, a, b):
        # t = x/(1-x) maps the defining beta integral onto the half line
        finite = quad.integrate_finite(
            lambda x, dlo, dhi: dlo ** (a - 1.0) * dhi ** (b - 1.0),
            IntegralSpec.finite(0.0, 1.0, a - 1.0, b - 1.0),
            TOL,
        )
        half = quad.integrate_half_line(
            lambda t, dlo, dhi: np.exp((a - 1.0) * np.log(dlo) - (a + b) * np.log1p(t)),
            IntegralSpec.half_line_up(0.0, alpha_lo=a - 1.0),
            TOL,
        )
        assert abs(finite.value - half.value) <= 2.0 * TOL * max(1.0, abs(finite.value))


class TestOracle:
    def test_matches_de_on_finite_examples(self):
        cases = [
            (lambda x, dlo, dhi: x, IntegralSpec.finite(0.0, 1.0), 0.5),
            (
                lambda x, dlo, dhi: 1.0 / np.sqrt(dlo * dhi),
                IntegralSpec.finite(0.0, 1.0, -0.5, -0.5),
                math.pi,
            ),
            (
                lambda x, dlo, dhi: x * dhi * dhi,
                IntegralSpec.finite(0.0, 1.0),
                1.0 / 12.0,
            ),
        ]
        for f, spec, expected in cases:
            de = quad.integrate_finite(f, spec, TOL).value
            orc = quad.oracle_integrate(f, spec)
            assert orc == pytest.approx(expected, rel=1e-9, abs=1e-9)
            assert abs(de - orc) <= 1e-9 * max(1.0, abs(expected))

    def test_half_line(self):
        orc = quad.oracle_integrate(
            lambda x, dlo, dhi: 1.0 / (1.0 + x * x), IntegralSpec.half_line_up(0.0)
        )
        assert orc == pytest.approx(math.pi / 2.0, rel=1e-9)

    def test_real_line(self):
        orc = quad.oracle_integrate(
            lambda x, dlo, dhi: np.exp(-x * x), IntegralSpec.real_line()
        )
        assert orc == pytest.approx(SQRT_PI, rel=1e-9)

    def test_rejects_principal_values(self):
        with pytest.raises(ValueError):
            quad.oracle_integrate(
                lambda x, dlo, dhi: 1.0 / (x - 1.0),
                IntegralSpec.finite(0.0, 2.0, poles=(1.0,)),
            )
