"""Quadrature engine behaviour: spot values, invariants, failure modes."""

import dataclasses
import json
import math
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betaquad import catalog, oracle, quad, verify
from betaquad.quad import IntegralSpec

SQRT_PI = math.sqrt(math.pi)
TOL = 1e-10


def beta_ref(a, b):
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def rejects(message):
    """pytest.raises for a ValueError with exactly this message."""
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


# the infinite ends of each domain shape, which a test row's fields may override
SHAPE_ENDS = {
    "finite": {},
    "half_line_up": {"hi": math.inf},
    "half_line_down": {"lo": -math.inf},
    "real_line": {"lo": -math.inf, "hi": math.inf},
}


def shaped(shape, **fields):
    """A spec of one domain shape: its infinite ends, then ``fields``."""
    return IntegralSpec(**{**SHAPE_ENDS[shape], **fields})


class TestSpecValidation:
    def test_exponents_must_be_integrable(self):
        with rejects("endpoint exponents must exceed -1 for integrability"):
            IntegralSpec(0.0, 1.0, alpha_lo=-1.0)

    def test_finite_needs_ordered_endpoints(self):
        with rejects("finite domain requires lo < hi"):
            IntegralSpec(1.0, 1.0)

    def test_pole_strictly_inside(self):
        with rejects("pole 1.0 is not strictly inside (0.0, 1.0)"):
            IntegralSpec(0.0, 1.0, poles=(1.0,))
        with rejects("pole -2.0 is not strictly inside (0.0, inf)"):
            IntegralSpec(0.0, math.inf, poles=(-2.0,))
        with rejects("pole 0.0 is not strictly inside (-inf, 0.0)"):
            IntegralSpec(-math.inf, 0.0, poles=(-1.0, 0.0))

    def test_poles_distinct_and_sorted(self):
        with rejects("interior poles must be pairwise distinct"):
            IntegralSpec(0.0, 3.0, poles=(1.0, 1.0))
        spec = IntegralSpec(0.0, 3.0, poles=(2.0, 1.0))
        assert spec.poles == (1.0, 2.0)
        assert IntegralSpec(-math.inf, math.inf, poles=[]).poles == ()

    @pytest.mark.parametrize("lo, hi", [(-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_finite_endpoints_must_be_finite(self, lo, hi):
        # an infinite end makes a half-line, which the finite engine refuses;
        # NaN is no end at all, which the spec refuses
        if math.isnan(lo):
            with rejects("lo must be finite in every row or -inf in every row"):
                IntegralSpec(lo, hi)
        else:
            with rejects("integrate_finite requires a finite-domain spec"):
                quad.integrate_finite(_never_called, IntegralSpec(lo, hi))

    def test_half_line_anchor_must_be_finite(self):
        with rejects("lo must be finite in every row or -inf in every row"):
            IntegralSpec(math.inf, math.inf)
        with rejects("hi must be finite in every row or inf in every row"):
            IntegralSpec(-math.inf, -math.inf)
        with rejects("lo must be finite in every row or -inf in every row"):
            IntegralSpec(math.nan, math.inf)

    @pytest.mark.parametrize("shape, fields", [
        ("half_line_up", dict(lo=0.0, alpha_hi=0.5)),
        ("half_line_down", dict(hi=0.0, alpha_lo=0.5)),
        ("real_line", dict(alpha_lo=0.5)),
        ("real_line", dict(alpha_hi=-0.5)),
    ])
    def test_infinite_end_takes_no_endpoint_or_exponent(self, shape, fields):
        end = "lo" if "alpha_lo" in fields else "hi"
        with rejects(f"an infinite {end} takes no exponent"):
            shaped(shape, **fields)

    def test_finite_width_must_not_overflow(self):
        # hi - lo would be inf: the engines' interval length
        with rejects("finite domain width hi - lo overflows"):
            IntegralSpec(-1e308, 1e308)

    def test_nan_exponent_rejected(self):
        with rejects("endpoint exponents must exceed -1 for integrability"):
            IntegralSpec(0.0, 1.0, alpha_lo=math.nan)
        with rejects("endpoint exponents must exceed -1 for integrability"):
            IntegralSpec(-math.inf, 0.0, 0.0, math.nan)

    def test_infinite_exponent_rejected(self):
        # an infinite exponent passes the integrability test but is no power law
        with rejects("endpoint exponents must be finite"):
            IntegralSpec(0.0, 1.0, alpha_lo=math.inf)
        with rejects("endpoint exponents must be finite"):
            IntegralSpec(0.0, math.inf, math.inf)

    @pytest.mark.parametrize("spec, lo, hi", [
        (IntegralSpec(0.0, 1.0), 0.0, 1.0),
        (IntegralSpec(2.0, math.inf, 0.5), 2.0, math.inf),
        (IntegralSpec(-math.inf, -1.0, poles=(-3.0,)), -math.inf, -1.0),
        (IntegralSpec(-math.inf, math.inf, poles=(0.5,)), -math.inf, math.inf),
    ])
    def test_infinite_ends_are_stored_as_infinities(self, spec, lo, hi):
        assert (spec.lo, spec.hi) == (lo, hi)
        # replace passes the stored infinities back in
        assert dataclasses.replace(spec) == spec
        assert dataclasses.replace(spec, poles=()).poles == ()
        assert IntegralSpec(lo, hi, spec.alpha_lo, spec.alpha_hi, spec.poles) == spec
        assert IntegralSpec(**dataclasses.asdict(spec)) == spec

    @pytest.mark.parametrize("shape, fields", [
        ("half_line_up", dict(lo=0.0, hi=-math.inf)),
        ("half_line_down", dict(lo=math.inf, hi=0.0)),
        ("real_line", dict(lo=math.inf)),
        ("real_line", dict(hi=-math.inf)),
    ])
    def test_infinite_end_takes_only_its_own_infinity(self, shape, fields):
        end, infinity = ("lo", "-inf") if fields.get("lo") == math.inf else ("hi", "inf")
        with rejects(f"{end} must be finite in every row or {infinity} in every row"):
            shaped(shape, **fields)

    @pytest.mark.parametrize("value", [True, pytest.param(np.True_, id="np.True_"), "0.25", 0.25j, None])
    def test_end_must_be_real(self, value):
        # a bool would count as 0 or 1; a string or complex fails a comparison;
        # None does not stand for an infinite end
        lower = "lo must be finite in every row or -inf in every row"
        upper = "hi must be finite in every row or inf in every row"
        with rejects(lower):
            IntegralSpec(value, 2.0)
        with rejects(upper):
            IntegralSpec(-2.0, value)
        with rejects(lower):
            IntegralSpec(value, math.inf)
        with rejects(upper):
            IntegralSpec(-math.inf, value)

    @pytest.mark.parametrize("value", [
        True, False, pytest.param(np.True_, id="np.True_"), pytest.param(np.False_, id="np.False_"),
        "0.5", 0.5j,
    ])
    def test_exponent_must_be_real(self, value):
        with rejects("endpoint exponents must exceed -1 for integrability"):
            IntegralSpec(0.0, 1.0, alpha_lo=value)
        with rejects("endpoint exponents must exceed -1 for integrability"):
            IntegralSpec(0.0, 1.0, alpha_hi=value)
        with rejects("endpoint exponents must exceed -1 for integrability"):
            IntegralSpec(0.0, math.inf, value)

    @pytest.mark.parametrize("value", [True, pytest.param(np.True_, id="np.True_"), "0.5", 0.5j])
    def test_pole_must_be_real(self, value):
        with rejects(f"pole {value!r} is not strictly inside (-2.0, 2.0)"):
            IntegralSpec(-2.0, 2.0, poles=(value,))
        with rejects(f"pole {value!r} is not strictly inside (-inf, inf)"):
            IntegralSpec(-math.inf, math.inf, poles=(-1.0, value))

    def test_numpy_reals_accepted(self):
        spec = IntegralSpec(np.float64(0.0), np.int64(2), np.float32(0.5), poles=(np.float64(1.0),))
        assert spec == IntegralSpec(0.0, 2.0, 0.5, poles=(1.0,))

    def test_integer_too_large_for_a_float_is_infinite(self):
        assert IntegralSpec(0, 10**400) == IntegralSpec(0.0, math.inf)
        with rejects("hi must be finite in every row or inf in every row"):
            IntegralSpec(0, -10**400)
        with rejects("endpoint exponents must be finite"):
            IntegralSpec(0.0, 1.0, alpha_lo=10**400)
        with rejects("endpoint exponents must exceed -1 for integrability"):
            IntegralSpec(0.0, 1.0, alpha_hi=-10**400)

    def test_poles_must_be_an_iterable(self):
        for poles in (None, 0.5, "0.5"):
            with rejects("poles must be an iterable of interior poles"):
                IntegralSpec(-math.inf, math.inf, poles=poles)
        # any other iterable is taken as a tuple
        spec = IntegralSpec(0.0, 3.0, poles=(2.0, 1.0))
        for poles in ([2.0, 1.0], np.array([2.0, 1.0]), (s for s in (2.0, 1.0)), range(2, 0, -1)):
            assert IntegralSpec(0.0, 3.0, poles=poles) == spec

    def test_list_pole_is_not_a_column(self):
        with rejects("pole [0.5] is not strictly inside (0.0, 1.0)"):
            IntegralSpec(0.0, 1.0, poles=([0.5],))
        with rejects("pole array([0.5]) is not strictly inside (0.0, 1.0)"):
            IntegralSpec(0.0, 1.0, poles=(np.array([0.5]),))
        with rejects("hi must be finite in every row or inf in every row"):
            IntegralSpec(0.0, np.array([[True]]))


def _row(value, i):
    """Row i of a column case: a list holds one value per row."""
    if isinstance(value, tuple):
        return tuple(_row(v, i) for v in value)
    return value[i] if isinstance(value, list) else value


def _column(value):
    """A column case's lists as (rows x 1) columns."""
    if isinstance(value, tuple):
        return tuple(_column(v) for v in value)
    return np.array(value)[:, None] if isinstance(value, list) else value


class TestColumnSpec:
    """One spec for many rows: each end, exponent and pole a number or a
    (rows x 1) column, every row checked as its own spec would be."""

    # four rows each, exactly one of them bad
    @pytest.mark.parametrize("shape, fields", [
        ("finite", dict(lo=0.0, hi=1.0, alpha_lo=[0.5, -0.5, -1.0, 0.2])),
        ("finite", dict(lo=0.0, hi=1.0, alpha_hi=[0.0, math.inf, 0.1, 0.2])),
        ("finite", dict(lo=0.0, hi=[1.0, 2.0, math.nan, 3.0])),
        ("half_line_up", dict(lo=[0.0, math.inf, 1.0, 2.0])),
        ("real_line", dict(alpha_lo=[0.0, 0.0, 0.5, 0.0])),
        ("finite", dict(lo=[0.0, 1.0, 2.0, 3.0], hi=[1.0, 2.0, 2.0, 4.0])),
        ("finite", dict(lo=[0.0, -1e308, 0.0, 0.0], hi=[1.0, 1e308, 1.0, 1.0])),
        ("finite", dict(lo=0.0, hi=[1.0, 2.0, 3.0, 4.0], poles=([0.5, 1.5, 3.5, 2.0],))),
        ("finite", dict(lo=0.0, hi=1.0, poles=([0.2, 0.3, 0.4, 0.5], [0.6, 0.3, 0.7, 0.8]))),
        ("half_line_down", dict(hi=0.0, poles=(-0.5, [-1.0, -2.0, 0.5, -3.0]))),
        ("real_line", dict(poles=([1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 3.0, 5.0]))),
    ])
    def test_one_bad_row_raises_its_lone_message(self, shape, fields):
        messages = []
        for i in range(4):
            try:
                shaped(shape, **{k: _row(v, i) for k, v in fields.items()})
            except ValueError as exc:
                messages.append(str(exc))
        assert len(messages) == 1
        with rejects(messages[0]):
            shaped(shape, **{k: _column(v) for k, v in fields.items()})

    def test_columns_are_kept_and_poles_sorted_per_row(self):
        a = np.array([[0.5], [2.0]])
        b = np.array([[1.5], [0.25]])
        spec = IntegralSpec(0.0, 3.0, a - 1.0, poles=(a, b))
        assert spec.lo == 0.0 and spec.hi == 3.0
        np.testing.assert_array_equal(spec.alpha_lo, a - 1.0)
        assert all(s.shape == (2, 1) for s in spec.poles)
        np.testing.assert_array_equal(np.hstack(spec.poles), [[0.5, 1.5], [0.25, 2.0]])
        assert IntegralSpec(a, math.inf).hi == math.inf

    def test_columns_share_one_length(self):
        with rejects("spec columns must share one length"):
            IntegralSpec(np.zeros((2, 1)), np.ones((3, 1)))
        # a one-row column holds for every row
        IntegralSpec(np.zeros((1, 1)), np.ones((3, 1)))

    def test_rows_share_their_infinite_sides(self):
        # each row alone is a valid spec, but the driver reads the shape from row 0
        hi = np.array([[math.inf], [2.0]])
        with rejects("hi must be finite in every row or inf in every row"):
            quad.integrate_rows(lambda rows: _never_called, IntegralSpec(0.0, hi), 2)

    def test_one_row_column_names_the_failing_rows_values(self):
        # the ends hold for every row: row 1's message reads them from row 0
        with rejects("pole 2.0 is not strictly inside (0.0, 1.0)"):
            IntegralSpec(np.zeros((1, 1)), np.ones((1, 1)), poles=(np.array([[0.5], [2.0]]),))
        with rejects("pole 3 is not strictly inside (-inf, 0.0)"):
            IntegralSpec(-math.inf, np.zeros((1, 1)), poles=(np.array([[-1], [-2], [3]]), -0.5))

    @pytest.mark.parametrize("fields", [
        dict(lo=np.zeros((0, 1)), hi=1.0),
        dict(lo=0.0, hi=1.0, alpha_lo=np.zeros((0, 1))),
        dict(lo=0.0, hi=1.0, poles=(np.full((0, 1), 0.5),)),
    ], ids=["end", "exponent", "pole"])
    def test_zero_row_columns_are_rejected(self, fields):
        with rejects("spec columns must have at least one row"):
            IntegralSpec(**fields)

    def test_integer_columns_are_checked_in_float(self):
        # hi - lo is 2**63 in row 0, which wraps negative in int64
        lo, hi = np.array([[-2**62], [-4]]), np.array([[2**62], [4]])
        spec = IntegralSpec(lo, hi, poles=(np.array([[1], [-1]]), np.array([[-3], [2]])))
        assert spec.lo is lo and spec.hi is hi
        assert all(s.dtype == float and s.shape == (2, 1) for s in spec.poles)
        np.testing.assert_array_equal(np.hstack(spec.poles), [[-3.0, 1.0], [-1.0, 2.0]])


class TestRecordLayout:
    """The per-row records are slotted: no instance dict, frozen as before."""

    SPEC = IntegralSpec(0.0, 2.0, alpha_lo=0.5, poles=(1.0,))
    RESULT = quad.QuadratureResult(0.5, 1e-12, 99, "converged", (0.1, 1e-12))

    @pytest.mark.parametrize("record", [SPEC, RESULT], ids=["spec", "result"])
    def test_slots_are_the_fields(self, record):
        assert not hasattr(record, "__dict__")
        names = tuple(f.name for f in dataclasses.fields(record))
        assert type(record).__slots__ == names
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, names[0], None)
        with pytest.raises(TypeError):
            vars(record)

    @pytest.mark.parametrize("record", [SPEC, RESULT], ids=["spec", "result"])
    def test_replace_eq_and_pickle(self, record):
        assert dataclasses.replace(record) == record
        assert dataclasses.replace(record) is not record
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record and type(clone) is type(record)
        assert dataclasses.astuple(clone) == dataclasses.astuple(record)

    def test_spec_hash_and_validation_survive(self):
        spec = self.SPEC
        assert hash(spec) == hash(IntegralSpec(0.0, 2.0, alpha_lo=0.5, poles=(1.0,)))
        assert hash(pickle.loads(pickle.dumps(spec))) == hash(spec)
        assert {spec, dataclasses.replace(spec)} == {spec}
        assert dataclasses.replace(spec, poles=(1.5, 0.5)).poles == (0.5, 1.5)
        with rejects("pole 3.0 is not strictly inside (0.0, 2.0)"):
            dataclasses.replace(spec, poles=(3.0,))
        assert dataclasses.replace(IntegralSpec(1.0, math.inf), lo=2.0).hi == math.inf

    def test_result_repr_hides_level_errors(self):
        res = self.RESULT
        assert repr(res) == (
            "QuadratureResult(value=0.5, error_estimate=1e-12, evaluations=99, status='converged')"
        )
        assert res.converged
        assert dataclasses.replace(res, status="max_level").level_errors == (0.1, 1e-12)
        assert not dataclasses.replace(res, status="max_level").converged
        assert hash(res) == hash(quad.QuadratureResult(0.5, 1e-12, 99, "converged", (0.1, 1e-12)))
        assert res != dataclasses.replace(res, level_errors=())


class TestFinite:
    def test_linear(self):
        res = quad.integrate_finite(
            lambda x, dlo, dhi: x, IntegralSpec(0.0, 1.0), TOL
        )
        assert res.converged and res.evaluations > 0
        assert res.value == pytest.approx(0.5, abs=1e-12)

    def test_arcsine_singularity(self):
        res = quad.integrate_finite(
            lambda x, dlo, dhi: 1.0 / np.sqrt(dlo * dhi),
            IntegralSpec(0.0, 1.0, -0.5, -0.5),
            TOL,
        )
        assert res.converged
        assert res.value == pytest.approx(math.pi, rel=1e-12)

    def test_polynomial(self):
        res = quad.integrate_finite(
            lambda x, dlo, dhi: x * dhi * dhi, IntegralSpec(0.0, 1.0), TOL
        )
        assert res.value == pytest.approx(1.0 / 12.0, rel=1e-12)

    def test_extreme_exponents(self):
        res = quad.integrate_finite(
            lambda x, dlo, dhi: dlo ** -0.95 * dhi ** -0.95,
            IntegralSpec(0.0, 1.0, -0.95, -0.95),
            TOL,
        )
        assert res.converged
        assert res.value == pytest.approx(beta_ref(0.05, 0.05), rel=1e-10)

    def test_distances_always_positive(self):
        seen = {"min": math.inf}

        def probe(x, dlo, dhi):
            seen["min"] = min(seen["min"], float(np.min(dlo)), float(np.min(dhi)))
            return np.ones_like(x)

        quad.integrate_finite(probe, IntegralSpec(2.0, 5.0), TOL)
        assert seen["min"] > 0.0

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError):
            quad.integrate_finite(
                lambda x, dlo, dhi: x, IntegralSpec(0.0, math.inf), TOL
            )


def _never_called(x, dlo, dhi):
    raise AssertionError("integrand evaluated despite a bad tol")


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, True, "1e-9"])
@pytest.mark.parametrize(
    "engine",
    [
        lambda tol: quad.integrate_finite(_never_called, IntegralSpec(0.0, 1.0), tol),
        lambda tol: quad.integrate_half_line(_never_called, IntegralSpec(0.0, math.inf), tol),
        lambda tol: quad.integrate_real_line(_never_called, tol),
        lambda tol: quad.integrate_pv(
            _never_called, IntegralSpec(0.0, 2.0, poles=(1.0,)), tol
        ),
        lambda tol: quad.integrate(_never_called, IntegralSpec(0.0, 1.0), tol),
    ],
    ids=["finite", "half_line", "real_line", "pv", "integrate"],
)
def test_rejects_bad_args(engine, tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        engine(tol)


class TestHalfLine:
    def test_arctan(self):
        res = quad.integrate_half_line(
            lambda x, dlo, dhi: 1.0 / (1.0 + x * x), IntegralSpec(0.0, math.inf), TOL
        )
        assert res.converged
        assert res.value == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_euler_reflection_integral(self):
        res = quad.integrate_half_line(
            lambda x, dlo, dhi: 1.0 / (np.sqrt(dlo) * (1.0 + x)),
            IntegralSpec(0.0, math.inf, -0.5),
            TOL,
        )
        assert res.value == pytest.approx(math.pi, rel=1e-11)

    def test_three_halves_decay(self):
        res = quad.integrate_half_line(
            lambda x, dlo, dhi: (1.0 + x) ** -1.5, IntegralSpec(0.0, math.inf), TOL
        )
        assert res.value == pytest.approx(2.0, rel=1e-12)

    def test_downward_direction(self):
        res = quad.integrate_half_line(
            lambda x, dlo, dhi: np.exp(x), IntegralSpec(-math.inf, 0.0), TOL
        )
        assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_divergent_integrand_flagged(self):
        res = quad.integrate_half_line(
            lambda x, dlo, dhi: 1.0 / (1.0 + x), IntegralSpec(0.0, math.inf), TOL
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
            IntegralSpec(0.0, 2.0, poles=(1.0,)),
            TOL,
        )
        assert res.converged
        assert res.value == pytest.approx(0.0, abs=1e-8)

    def test_half_line_pole_odd_exponent(self):
        # PV int_0^inf x^(-1/2)/(x-1) dx = 0
        res = quad.integrate_pv(
            lambda x, dlo, dhi: 1.0 / (np.sqrt(dlo) * (x - 1.0)),
            IntegralSpec(0.0, math.inf, -0.5, poles=(1.0,)),
            TOL,
        )
        assert res.value == pytest.approx(0.0, abs=1e-8)

    def test_half_line_down_pole_odd_exponent(self):
        # mirror image: PV int_-inf^0 (-x)^(-1/2)/(-x-1) dx = 0
        res = quad.integrate_pv(
            lambda x, dlo, dhi: 1.0 / (np.sqrt(dhi) * (-x - 1.0)),
            IntegralSpec(-math.inf, 0.0, 0.0, -0.5, poles=(-1.0,)),
            TOL,
        )
        assert res.value == pytest.approx(0.0, abs=1e-8)

    def test_half_line_pole_quarter_exponent(self):
        # PV int_0^inf x^(-3/4)/(x-1) dx = -pi cot(pi/4) = -pi
        res = quad.integrate_pv(
            lambda x, dlo, dhi: dlo ** -0.75 / (x - 1.0),
            IntegralSpec(0.0, math.inf, -0.75, poles=(1.0,)),
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
            f, IntegralSpec(-math.inf, math.inf, poles=(0.0,)), TOL, folds=(fold,)
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
            IntegralSpec(0.0, math.inf, mu - 1.0, poles=(a, b)),
            TOL,
        )
        assert res.value == pytest.approx(expected, rel=1e-6)

    def test_pv_symmetry_offset_pole(self):
        # odd about the pole at 1.3: 1/(x-s) + (x-s)^3
        s = 1.3
        res = quad.integrate_pv(
            lambda x, dlo, dhi: 1.0 / (x - s) + (x - s) ** 3,
            IntegralSpec(s - 1.0, s + 1.0, poles=(s,)),
            TOL,
        )
        assert res.value == pytest.approx(0.0, abs=1e-7)

    def test_requires_declared_pole(self):
        with pytest.raises(ValueError):
            quad.integrate_pv(
                lambda x, dlo, dhi: x, IntegralSpec(0.0, 1.0), TOL
            )


class TestDriverBehaviour:
    def test_nonconvergence_on_interior_kink(self):
        res = quad.integrate_finite(
            lambda x, dlo, dhi: np.abs(x - 1.0 / math.pi),
            IntegralSpec(0.0, 1.0),
            1e-13,
        )
        assert not res.converged
        assert res.status in ("max_level", "diverging")

    def test_error_estimates_shrink_past_level_3(self):
        res = quad.integrate_finite(
            lambda x, dlo, dhi: 1.0 / np.sqrt(dlo * dhi),
            IntegralSpec(0.0, 1.0, -0.5, -0.5),
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
                IntegralSpec(0.0, 1.0),
                TOL,
            )

    @pytest.mark.parametrize("transform, total", [
        ("tanh_sinh", 49_993), ("exp_sinh", 55_634), ("sinh_sinh", 55_603),
    ])
    def test_level_blocks_bound_evaluations(self, transform, total):
        # one integral that runs to MAX_LEVEL evaluates every block once
        blocks = [quad._block(transform, first, last) for first, last in quad._LEVEL_BLOCKS]
        assert sum(sum(blk.counts) for blk in blocks) == total

    def test_converged_respects_tolerance_contract(self):
        res = quad.integrate_finite(
            lambda x, dlo, dhi: np.exp(-x), IntegralSpec(0.0, 3.0), 1e-9
        )
        assert res.converged
        assert res.error_estimate <= 1e-9 * max(1.0, abs(res.value))


class TestCallCounts:
    """Levels 0..MIN_LEVEL cost one integrand call, each later level one more."""

    CASES = [
        # (engine, integrand, spec or None, level the sequence converges at)
        (quad.integrate_finite, lambda x, dlo, dhi: x, IntegralSpec(0.0, 1.0), 3),
        (quad.integrate_finite, lambda x, dlo, dhi: np.exp(-x), IntegralSpec(0.0, 3.0), 4),
        (quad.integrate_finite, lambda x, dlo, dhi: np.cos(20.0 * x), IntegralSpec(0.0, 1.0), 5),
        (quad.integrate_half_line, lambda x, dlo, dhi: 1.0 / (1.0 + x * x),
         IntegralSpec(0.0, math.inf), 3),
        (quad.integrate_half_line, lambda x, dlo, dhi: np.exp(x), IntegralSpec(-math.inf, 0.0), 5),
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
    def test_fused_block_matches_level_by_level(self, engine, f, spec, level):
        # the engine's own block evaluation, asked for one level per call
        args = (f, TOL) if spec is None else (f, spec, TOL)
        level_sum = engine_level_sum(f, spec)

        def split(first, last):
            return [t for k in range(first, last + 1) for t in level_sum(k, k)]

        assert engine(*args) == reference_drive(split)


# --------------------------------------------------------------------------
# reference evaluation: the scalar level-doubling loop, one integral at a
# time, fed per-level tables concatenated afresh for every call, each level
# (each side where the sides have their own weights) summed alone by the
# engine's primitive, np.add.reduceat over w * f, and edges taken per level.
# The engines must match it bit for bit.
# --------------------------------------------------------------------------

def reference_drive(level_sum, tol=TOL, max_level=quad.MAX_LEVEL):
    """One integral's level loop: ``level_sum(first, last)`` returns a
    (sum, count, edge) triple per level of the block."""
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    def levels():
        yield from level_sum(0, min(quad.MIN_LEVEL, max_level))
        for level in range(quad.MIN_LEVEL + 1, max_level + 1):
            yield from level_sum(level, level)

    value = prev = None
    diff = math.inf
    evals = 0
    history = []
    grew = 0
    status = "max_level"
    edge = math.inf
    h = 1.0
    with np.errstate(all="ignore"):
        for level, (s, n, edge) in enumerate(levels()):
            evals += n
            h = 0.5 ** level
            value = h * s if level == 0 else 0.5 * prev + h * s
            if not math.isfinite(value):
                status = "diverging"
                diff = math.inf
                break
            if prev is not None:
                new_diff = abs(value - prev)
                history.append(new_diff)
                limit = tol * max(1.0, abs(value))
                if level >= quad.MIN_LEVEL and new_diff <= limit:
                    if h * edge > 10.0 * limit:
                        return quad.QuadratureResult(
                            value, max(new_diff, h * edge), evals, "diverging", tuple(history),
                        )
                    return quad.QuadratureResult(value, new_diff, evals, "converged", tuple(history))
                if level >= 4 and new_diff > diff and new_diff > limit:
                    grew += 1
                    if grew >= 2:
                        status = "diverging"
                        diff = new_diff
                        break
                else:
                    grew = 0
                diff = new_diff
            prev = value
    if status == "max_level" and h * edge > 10.0 * tol * max(1.0, abs(value)):
        status = "diverging"
    return quad.QuadratureResult(value, diff, evals, status, tuple(history))


def _ref_call(f, x, dlo, dhi):
    with np.errstate(all="ignore"):
        out = np.asarray(f(x, dlo, dhi), dtype=float)
    bad = ~np.isfinite(out)
    if bad.any():
        raise quad.EvaluationError(f"integrand returned non-finite values near x={x[bad][:3]}")
    return out


def _ref_sum(w, f):
    return float(np.add.reduceat(w * f, [0])[0])


def _ref_level_sum(transform, call, centre_w, scale=1.0):
    build, centre = quad._TRANSFORMS[transform]

    def level_sum(first, last):
        tables = [build(quad._level_t(level)) for level in range(first, last + 1)]
        side_a = [a for (a, _), _ in tables]
        side_b = [b for _, (b, _) in tables]
        extra = [np.array([centre])] if first == 0 else []
        split = sum(a.size for a in side_a)
        fv = call(np.concatenate(side_a + side_b + extra), split)
        out = []
        ia, ib = 0, split
        for (a, wa), (b, wb) in tables:
            fa, fb = fv[ia:ia + a.size], fv[ib:ib + b.size]
            ia += a.size
            ib += b.size
            if wb is wa:
                s = _ref_sum(wa, fa + fb) * scale
                edge = scale * wa[-1] * (abs(fa[-1]) + abs(fb[-1]))
            else:
                s = _ref_sum(wa, fa) + _ref_sum(wb, fb)
                edge = max(wa[-1] * abs(fa[-1]), wb[-1] * abs(fb[-1]))
            out.append([s, wa.size + wb.size, edge])
        if first == 0:
            out[0][0] += centre_w * float(fv[-1])
            out[0][1] += 1
        return out

    return level_sum


def reference_level_sum(f, spec):
    """level_sum(first, last) of f over a pole-free spec (None: the real line)."""
    if spec is None or (math.isinf(spec.lo) and math.isinf(spec.hi)):
        def call(x, _):
            infs = np.full_like(x, math.inf)
            return _ref_call(f, x, infs, infs)

        return _ref_level_sum("sinh_sinh", call, 0.5 * math.pi)
    if math.isfinite(spec.lo) and math.isfinite(spec.hi):
        lo, hi = spec.lo, spec.hi
        L = hi - lo

        def call(nodes, m):
            near = L * nodes
            far = L * (1.0 - nodes)
            return _ref_call(
                f,
                np.concatenate((hi - near[:m], lo + near[m:])),
                np.concatenate((far[:m], near[m:])),
                np.concatenate((near[:m], far[m:])),
            )

        return _ref_level_sum("tanh_sinh", call, (math.pi / 4.0) * L, L)
    up = math.isfinite(spec.lo)
    anchor = spec.lo if up else spec.hi

    def call(d, _):
        infs = np.full_like(d, math.inf)
        return _ref_call(f, anchor + d, d, infs) if up else _ref_call(f, anchor - d, infs, d)

    return _ref_level_sum("exp_sinh", call, 0.5 * math.pi)


def reference_integrate(f, spec, tol=TOL):
    return reference_drive(reference_level_sum(f, spec), tol)


def engine_integrate(f, spec, tol=TOL):
    return quad.integrate_real_line(f, tol) if spec is None else quad.integrate(f, spec, tol)


def engine_level_sum(f, spec):
    """The engine's own one-row block evaluation (call layout, level sums,
    finiteness scan) as a reference-style ``level_sum``."""
    spec = spec or IntegralSpec(-math.inf, math.inf)
    lo = np.array([[spec.lo]])
    hi = np.array([[spec.hi]])
    transform, args = quad._layout(lo, hi)
    rows = np.arange(1)

    def level_sum(first, last):
        blk = quad._block(transform, first, last)
        x, dlo, dhi, scale, centre_w = args(blk, rows)
        with np.errstate(all="ignore"):
            out = np.asarray(f(x, dlo, dhi), dtype=float)
            fv = np.broadcast_to(out, (1, np.shape(x)[-1]))
            sums, edges = quad._level_sums(blk, fv, scale, centre_w)
        found = [None]
        keep = quad._non_finite_rows(found, rows, x, fv, sums)
        if keep is not None and not keep.all():
            raise found[0]
        return [[s, n, e] for s, n, e in zip(sums[0].tolist(), blk.counts, edges[0].tolist())]

    return level_sum


def block_triples(level_sum):
    """Every block `_drive` can ask for, as hex (sum, count, edge) triples."""
    with np.errstate(all="ignore"):
        return [
            (float(s).hex(), n, float(edge).hex())
            for first, last in quad._LEVEL_BLOCKS for s, n, edge in level_sum(first, last)
        ]


def bits(res):
    """A result with every float as its hex string: equal means bit-identical
    (a NaN equals a NaN, -0.0 differs from 0.0)."""
    return (
        float(res.value).hex(), float(res.error_estimate).hex(), res.evaluations,
        res.status, tuple(float(e).hex() for e in res.level_errors),
    )


def outcome(integrate, f, spec):
    try:
        return bits(integrate(f, spec))
    except quad.EvaluationError as exc:
        return ("EvaluationError", str(exc))


class TestReferenceEvaluation:
    @pytest.mark.parametrize("engine, f, spec, level", TestCallCounts.CASES)
    def test_call_count_cases(self, engine, f, spec, level):
        assert bits(engine_integrate(f, spec)) == bits(reference_integrate(f, spec))
        assert block_triples(engine_level_sum(f, spec)) == block_triples(reference_level_sum(f, spec))

    @pytest.mark.parametrize(
        "rec", [r for r in catalog.all_entries() if not r.make_spec(catalog.mid_params(r)).poles],
        ids=lambda r: r.id,
    )
    def test_catalog_entry(self, rec, with_margin):
        """mid_params, then four samples at the 0.01 edge margin; at
        mid_params also every block's (sum, count, edge) triples."""
        edge = with_margin(rec, 0.01)
        points = [catalog.mid_params(rec)] + [catalog.sample_params(edge, 7, i) for i in range(4)]
        for params in points:
            f, spec = rec.make_integrand(params), rec.make_spec(params)
            assert outcome(engine_integrate, f, spec) == outcome(reference_integrate, f, spec)
        f, spec = rec.make_integrand(points[0]), rec.make_spec(points[0])
        assert block_triples(engine_level_sum(f, spec)) == block_triples(reference_level_sum(f, spec))

    @pytest.mark.parametrize("entry_id", ["3.192.3", "3.192.4"])
    def test_catalog_sweep_reaches_max_level(self, entry_id, with_margin):
        # sample 3 at the edge margin uses every level (finite, half-line)
        rec = catalog.entry(entry_id)
        edge = with_margin(rec, 0.01)
        params = catalog.sample_params(edge, 7, 3)
        res = engine_integrate(rec.make_integrand(params), rec.make_spec(params))
        assert len(res.level_errors) == quad.MAX_LEVEL

    def test_results_do_not_depend_on_blas_threads(self, package_env):
        """The max-level rows above, in a child with one OpenBLAS thread and
        in one with the default count (a single thread on a one-core
        machine, where the test cannot tell the two apart).  BLAS splits a
        dot product over its threads, which changes its summation order;
        the level sums must not go through it."""
        script = (
            "import dataclasses, json\n"
            "from betaquad import catalog, quad\n"
            "found = []\n"
            "for entry_id in ('3.192.3', '3.192.4'):\n"
            "    rec = catalog.entry(entry_id)\n"
            "    edge = dataclasses.replace(rec, domain=dataclasses.replace(rec.domain, margin=0.01))\n"
            "    params = catalog.sample_params(edge, 7, 3)\n"
            "    res = quad.integrate(rec.make_integrand(params), rec.make_spec(params))\n"
            "    found.append((res.value.hex(), res.evaluations, res.status,\n"
            "                  [e.hex() for e in res.level_errors]))\n"
            "print(json.dumps(found))\n"
        )
        default = {k: v for k, v in package_env.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        runs = [
            subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                           text=True, check=True).stdout
            for env in (dict(default, OPENBLAS_NUM_THREADS="1"), default)
        ]
        assert all(len(levels) == quad.MAX_LEVEL for *_, levels in json.loads(runs[0]))
        assert runs[0] == runs[1]


# --------------------------------------------------------------------------
# reference principal values and outcomes: integrate_pv and the per-sample
# verify loop as they were before an entry's samples were batched, over the
# reference engines above.  The per-sample engines, the batched core and
# verify_entry must all match them bit for bit.
# --------------------------------------------------------------------------

def _ref_naive_fold(f, s, lo, hi):
    def fold(u):
        uc = np.maximum(u, 1e-7 * max(abs(s), 1.0))
        out = 0.0
        for x in (s + uc, s - uc):
            out = out + _ref_call(f, x, x - lo, hi - x)
        return out

    return fold


def _ref_rebased(f, lo, hi, sub_lo, sub_hi):
    keep_lo, keep_hi = sub_lo == lo, sub_hi == hi

    def g(x, dlo, dhi):
        return f(x, dlo if keep_lo else x - lo, dhi if keep_hi else hi - x)

    return g


def reference_pv(f, spec, tol=TOL, folds=None):
    poles = list(spec.poles)
    lo, hi = spec.lo, spec.hi
    windows = []
    for i, s in enumerate(poles):
        gaps = [g for g, ok in ((s - lo, math.isfinite(lo)), (hi - s, math.isfinite(hi))) if ok]
        gaps += [abs(other - s) for j, other in enumerate(poles) if j != i]
        windows.append(0.5 * min(gaps) if gaps else 1.0)
    piece_tol = tol / (2.0 * len(poles) + 1.0)
    found = []
    for i, (s, h) in enumerate(zip(poles, windows)):
        fold = folds[i] if folds is not None else _ref_naive_fold(f, s, lo, hi)

        def folded(x, dlo, dhi, _fold=fold, _h=h):
            return _fold(np.maximum(dlo, quad._FOLD_CLAMP * _h))

        found.append(reference_integrate(folded, IntegralSpec(0.0, h), piece_tol))
    cuts = [lo] + [c for s, h in zip(poles, windows) for c in (s - h, s + h)] + [hi]
    for k in range(0, len(cuts), 2):
        a, b = cuts[k], cuts[k + 1]
        if b <= a + 1e-14 * max(1.0, abs(a)):
            continue
        sub = IntegralSpec(a, b, spec.alpha_lo if a == lo else 0.0, spec.alpha_hi if b == hi else 0.0)
        found.append(reference_integrate(_ref_rebased(f, lo, hi, a, b), sub, piece_tol))
    total = err = 0.0
    evals = 0
    status = "converged"
    for res in found:
        total += res.value
        err += res.error_estimate
        evals += res.evaluations
        if not res.converged:
            status = res.status
    return quad.QuadratureResult(total, err, evals, status)


def reference_result(f, spec, folds=None):
    return reference_pv(f, spec, folds=folds) if spec.poles else reference_integrate(f, spec)


def batched(res):
    """A batched row's result in the form of `outcome`."""
    if isinstance(res, quad.EvaluationError):
        return ("EvaluationError", str(res))
    return bits(res)


def columns(params):
    """The samples' parameters as (rows x 1) columns, one per name."""
    return {name: np.array([p[name] for p in params])[:, None] for name in params[0]}


def outcome_bits(o):
    floats = (o.numeric, o.closed, o.abs_err, o.rel_err)
    return (o.entry_id, o.sample_index, o.params, *(float(v).hex() for v in floats),
            o.evaluations, o.status)


class TestBatchedReference:
    """All 80 entries, PV included: 20 samples at seed 7 and the default
    margin, then 4 at the 0.01 edge margin."""

    @staticmethod
    def runs(rec, with_margin):
        return [(rec, verify.RunConfig(seed=7, samples_per_entry=20)),
                (with_margin(rec, 0.01), verify.RunConfig(seed=7, samples_per_entry=4))]

    @pytest.mark.parametrize("rec", catalog.all_entries(), ids=lambda r: r.id)
    def test_entry_matches_reference(self, rec, with_margin):
        for r, cfg in self.runs(rec, with_margin):
            params = [catalog.sample_params(r, cfg.seed, i) for i in range(cfg.samples_per_entry)]
            expected, outcomes = [], []
            for index, p in enumerate(params):
                spec = r.make_spec(p)
                folds = r.make_folds(p) if r.make_folds is not None else None
                f = r.make_integrand(p)
                ref = outcome(lambda f, spec: reference_result(f, spec, folds), f, spec)
                # the per-sample engines, with plain float parameters
                alone = outcome(lambda f, spec: quad.integrate(f, spec, TOL, folds=folds), f, spec)
                assert alone == ref
                expected.append(ref)
                res = None if ref[0] == "EvaluationError" else reference_result(f, spec, folds)
                closed = catalog.closed_form_value(r, p)
                o = verify._outcome(r, index, tuple(p), p, closed, res, cfg)
                outcomes.append(outcome_bits(o))
            # the batched core, with (rows x 1) parameter columns and one column spec
            cols = columns(params)

            def take(rows):
                return {name: col[rows] for name, col in cols.items()}

            make_folds = None if r.make_folds is None else (lambda rows: r.make_folds(take(rows)))
            found = quad.integrate_rows(
                lambda rows: r.make_integrand(take(rows)), r.make_spec(cols), len(params), TOL,
                make_folds,
            )
            assert [batched(res) for res in found] == expected
            assert [outcome_bits(o) for o in verify.verify_entry(r, cfg)] == outcomes


class TestBatchedRows:
    """integrate_rows against the one-row engines, on cases the catalog
    does not reach: PV without analytic folds on every domain shape,
    leftover pieces that exist on some rows only, a row whose values are
    non-finite and a pole that no window fits."""

    # per domain shape: a row's spec, and a weight that is integrable at the
    # finite ends and decays at the infinite ones; the poles divide it
    PV_DOMAINS = {
        "finite": (
            lambda mu, poles: IntegralSpec(0.0, 3.0, alpha_lo=mu - 1.0, poles=poles),
            lambda x, dlo, dhi, mu: dlo ** (mu - 1.0),
        ),
        "half_line_up": (
            lambda mu, poles: IntegralSpec(0.0, math.inf, mu - 1.0, poles=poles),
            lambda x, dlo, dhi, mu: dlo ** (mu - 1.0) * np.exp(-x),
        ),
        "half_line_down": (
            lambda mu, poles: IntegralSpec(-math.inf, 0.0, 0.0, mu - 1.0, poles=poles),
            lambda x, dlo, dhi, mu: dhi ** (mu - 1.0) * np.exp(x),
        ),
        "real_line": (
            lambda mu, poles: IntegralSpec(-math.inf, math.inf, poles=poles),
            lambda x, dlo, dhi, mu: np.exp(-x * x),
        ),
    }

    @pytest.mark.parametrize("npoles", [1, 2])
    @pytest.mark.parametrize("shape", list(PV_DOMAINS))
    def test_naive_folds_and_uneven_pieces(self, shape, npoles):
        # with two poles (mirrored on the lower half line), the piece between
        # the windows exists in rows 0 and 2 only, except on the real line
        make_spec, weight = self.PV_DOMAINS[shape]
        sign = -1.0 if shape == "half_line_down" else 1.0
        rows = [dict(mu=mu, **{f"s{i}": sign * s for i, s in enumerate(poles[:npoles])})
                for mu, poles in ((0.4, (0.5, 2.0)), (0.7, (1.0, 1.6)), (1.3, (0.3, 2.5)))]
        specs = [make_spec(p["mu"], [p[f"s{i}"] for i in range(npoles)]) for p in rows]
        cols = columns(rows)
        spec = make_spec(cols["mu"], [cols[f"s{i}"] for i in range(npoles)])

        def f(p):
            def g(x, dlo, dhi):
                out = weight(x, dlo, dhi, p["mu"])
                for i in range(npoles):
                    out = out / (p[f"s{i}"] - x)
                return out

            return g

        found = quad.integrate_rows(lambda r: f({k: v[r] for k, v in cols.items()}), spec, 3, TOL)
        expected = [bits(reference_pv(f(p), spec)) for p, spec in zip(rows, specs)]
        assert [bits(res) for res in found] == expected
        assert [bits(quad.integrate_pv(f(p), spec, TOL)) for p, spec in zip(rows, specs)] == expected

    def test_pole_window_error_fails_alone(self):
        # half the distance from 5e-324 to 0 rounds to 0: no window fits
        s = np.array([[0.5], [5e-324], [0.25]])

        def make_f(r):
            return lambda x, dlo, dhi: 1.0 / (x - s[r])

        specs = [IntegralSpec(0.0, 1.0, poles=(v,)) for v in s[:, 0].tolist()]
        found = quad.integrate_rows(make_f, IntegralSpec(0.0, 1.0, poles=(s,)), 3, TOL)
        assert isinstance(found[1], quad.PoleWindowError)
        assert str(found[1]) == "no symmetric window fits around pole 5e-324"
        for i in (0, 2):
            def alone(x, dlo, dhi, v=s[i, 0].item()):
                return 1.0 / (x - v)

            assert bits(found[i]) == bits(quad.integrate_pv(alone, specs[i], TOL))
        # nor does one whose half-width overflows
        with pytest.raises(quad.PoleWindowError):
            quad.integrate_pv(_never_called, IntegralSpec(-1e308, math.inf, poles=(1e308,)))
        # nor does one whose half-width 7.5e307 is finite but whose cut on
        # the far side of the pole +-1.5e308 overflows, on either half line
        for ends, sign in (((0.0, math.inf), 1.0), ((-math.inf, 0.0), -1.0)):
            t = sign * np.array([[1.0], [1.5e308], [2.0]])

            def tail_f(r, t=t, sign=sign):
                return lambda x, dlo, dhi: np.exp(-1e-308 * (dlo if sign > 0 else dhi)) / (x - t[r])

            specs = [IntegralSpec(*ends, poles=(v,)) for v in t[:, 0].tolist()]
            found = quad.integrate_rows(tail_f, IntegralSpec(*ends, poles=(t,)), 3, TOL)
            assert isinstance(found[1], quad.PoleWindowError)
            assert str(found[1]) == f"no symmetric window fits around pole {sign * 1.5e308!r}"
            with pytest.raises(quad.PoleWindowError):
                quad.integrate_pv(tail_f(slice(1, 2)), specs[1], TOL)
            for i in (0, 2):
                alone = quad.integrate_pv(tail_f(slice(i, i + 1)), specs[i], TOL)
                assert bits(found[i]) == bits(alone)

    def test_non_finite_row_fails_alone(self):
        b = np.array([[0.5], [1.5], [2.5]])

        def make_f(r):
            return lambda x, dlo, dhi: np.where(b[r] == 1.5, np.nan, dlo ** (b[r] - 1.0))

        specs = [IntegralSpec(0.0, 1.0, v - 1.0, 0.0) for v in b[:, 0]]
        found = quad.integrate_rows(make_f, IntegralSpec(0.0, 1.0, b - 1.0, 0.0), 3, TOL)
        assert isinstance(found[1], quad.EvaluationError)
        for i in (0, 2):
            def alone(x, dlo, dhi, v=b[i, 0].item()):
                return dlo ** (v - 1.0)

            assert bits(found[i]) == bits(quad.integrate_finite(alone, specs[i], TOL))

    def test_non_finite_row_in_a_later_block_fails_alone(self):
        # dlo**0.25 + k * |x - 1/pi| on [0, 1]: row 0 converges at level 3,
        # rows 1 and 2 run on, and row 1 returns NaN at one new node of the
        # one-level block 5 (side a's innermost; L = 1, so dhi matches it)
        k = np.array([[0.0], [1.0], [1.0]])
        nan_at = quad._TRANSFORMS["tanh_sinh"][0](quad._level_t(5))[0][0][0]

        def alone(i):
            kv = k[i, 0].item()

            def f(x, dlo, dhi):
                out = dlo ** 0.25 + kv * np.abs(x - 1.0 / math.pi)
                return np.where(dhi == nan_at, np.nan, out) if i == 1 else out

            return f

        def make_f(r):
            def f(x, dlo, dhi):
                out = dlo ** 0.25 + k[r] * np.abs(x - 1.0 / math.pi)
                return np.where((r == 1)[:, None] & (dhi == nan_at), np.nan, out)

            return f

        spec = IntegralSpec(0.0, 1.0)
        found = quad.integrate_rows(make_f, spec, 3, TOL)
        assert isinstance(found[1], quad.EvaluationError)
        with pytest.raises(quad.EvaluationError) as lone:
            quad.integrate_finite(alone(1), spec, TOL)
        assert str(found[1]) == str(lone.value)
        assert [found[i].status for i in (0, 2)] == ["converged", "max_level"]
        for i in (0, 2):
            assert bits(found[i]) == bits(quad.integrate_finite(alone(i), spec, TOL))

    @pytest.mark.parametrize("nfolds", [1, 3])
    def test_fold_count_must_match_poles(self, nfolds):
        # two poles, one or three folds: the batch and the lone call reject
        # it with the same error before any fold is evaluated
        def fold(u):
            raise AssertionError("fold evaluated despite a bad fold count")

        spec = IntegralSpec(0.0, 3.0, poles=(0.5, 2.0))
        folds = (fold,) * nfolds
        with pytest.raises(ValueError, match="^folds must align with spec.poles$"):
            quad.integrate_rows(lambda r: _never_called, spec, 2, TOL, lambda r: folds)
        with pytest.raises(ValueError, match="^folds must align with spec.poles$"):
            quad.integrate_pv(_never_called, spec, TOL, folds=folds)

    def test_non_finite_pv_row_fails_alone(self):
        # PV without folds: row 1 returns NaN, and only that row fails
        c = np.array([[1.0], [2.0], [0.5]])

        def make_f(r):
            return lambda x, dlo, dhi: np.where(c[r] == 2.0, np.nan, c[r] / (x - 1.0))

        spec = IntegralSpec(0.0, 2.0, poles=(1.0,))
        found = quad.integrate_rows(make_f, spec, 3, TOL)
        assert isinstance(found[1], quad.EvaluationError)
        for i in (0, 2):
            def alone(x, dlo, dhi, v=c[i, 0].item()):
                return v / (x - 1.0)

            assert bits(found[i]) == bits(quad.integrate_pv(alone, spec, TOL))

    def test_stop_reasons_keep_their_order(self):
        # s * dlo**p + k * |x - 1/pi| on [0, 1], one row per stop reason:
        # converged; diverging from the edge test at the last level (1/dlo
        # is alive at the outermost node); diverging from a sum that
        # overflows inside the fused block; max_level (an interior kink)
        s = np.array([[1.0], [1.0], [8e307], [0.0]])
        p = np.array([[0.25], [-1.001], [0.25], [0.25]])
        k = np.array([[0.0], [0.0], [0.0], [1.0]])

        def make_f(r):
            return lambda x, dlo, dhi: s[r] * dlo ** p[r] + k[r] * np.abs(x - 1.0 / math.pi)

        def alone(i):
            sv, pv, kv = s[i, 0].item(), p[i, 0].item(), k[i, 0].item()
            return lambda x, dlo, dhi: sv * dlo ** pv + kv * np.abs(x - 1.0 / math.pi)

        spec = IntegralSpec(0.0, 1.0)
        found = quad.integrate_rows(make_f, spec, 4, TOL)
        assert [res.status for res in found] == ["converged", "diverging", "diverging", "max_level"]
        assert len(found[2].level_errors) < quad.MIN_LEVEL
        assert [bits(res) for res in found] == [
            bits(reference_integrate(alone(i), spec)) for i in range(4)
        ]

    def test_spec_columns_must_fit_the_rows(self):
        # a number or a one-row column holds for every row, any other length fails
        hi = np.array([[1.0], [2.0], [3.0]])
        with rejects("a spec column of 3 rows does not fit 2 rows"):
            quad.integrate_rows(lambda r: _never_called, IntegralSpec(0.0, hi), 2)
        with rejects("a spec column of 3 rows does not fit 1 rows"):
            quad.integrate(_never_called, IntegralSpec(-math.inf, math.inf, poles=(hi,)))
        def flat(x, dlo, dhi):
            return np.ones_like(x)

        one = IntegralSpec(0.0, hi[:1])
        found = quad.integrate_rows(lambda r: flat, one, 2, TOL)
        assert [bits(res) for res in found] == [bits(quad.integrate_finite(flat, one, TOL))] * 2
        assert quad.integrate_rows(lambda r: _never_called, one, 0) == []


# engine, spec, transform, reference coordinate of side a / side b, smooth base
_ENGINES = {
    "finite": (IntegralSpec(0.0, 1.0), "tanh_sinh",
               lambda x, dlo, dhi: (dhi, dlo), lambda x: np.ones_like(x)),
    "half_line": (IntegralSpec(0.0, math.inf), "exp_sinh",
                  lambda x, dlo, dhi: (dlo, dlo), lambda x: np.exp(-x)),
    "real_line": (None, "sinh_sinh",
                  lambda x, dlo, dhi: (x, x), lambda x: np.exp(-x * x)),
}


def _level_nodes(transform, level):
    """Reference nodes of side a and side b of one level."""
    (a, _), (b, _) = quad._TRANSFORMS[transform][0](quad._level_t(level))
    return a, b


class TestNonFiniteDetection:
    """A non-finite value anywhere in a block raises, even where the weighted
    level sums could hide it; finite values whose sum overflows do not."""

    @staticmethod
    def marked(engine, marks):
        """The engine's smooth base integrand with values replaced at the
        nodes given as (side, reference node, value)."""
        spec, transform, coords, base = _ENGINES[engine]

        def f(x, dlo, dhi):
            out = base(x)
            for side, node, value in marks:
                out = np.where(coords(x, dlo, dhi)[side] == node, value, out)
            return out

        return f, spec

    @pytest.mark.parametrize("engine", list(_ENGINES))
    def test_nan_at_centre_only(self, engine):
        centre = quad._TRANSFORMS[_ENGINES[engine][1]][1]
        f, spec = self.marked(engine, [(1, centre, math.nan)])
        with pytest.raises(quad.EvaluationError, match="non-finite"):
            engine_integrate(f, spec)
        assert outcome(engine_integrate, f, spec) == outcome(reference_integrate, f, spec)

    @pytest.mark.parametrize("engine", list(_ENGINES))
    def test_opposite_infinities_on_mirrored_nodes(self, engine):
        a, b = _level_nodes(_ENGINES[engine][1], 2)
        f, spec = self.marked(engine, [(0, a[0], math.inf), (1, b[0], -math.inf)])
        with pytest.raises(quad.EvaluationError, match="non-finite"):
            engine_integrate(f, spec)
        assert outcome(engine_integrate, f, spec) == outcome(reference_integrate, f, spec)

    @pytest.mark.parametrize("engine", list(_ENGINES))
    def test_inf_at_outermost_node_of_level_3(self, engine):
        a, _ = _level_nodes(_ENGINES[engine][1], 3)
        f, spec = self.marked(engine, [(0, a[-1], math.inf)])
        with pytest.raises(quad.EvaluationError, match="non-finite"):
            engine_integrate(f, spec)

    @pytest.mark.parametrize("engine", list(_ENGINES))
    def test_overflowing_sum_of_finite_values(self, engine):
        spec, _, _, base = _ENGINES[engine]

        def f(x, dlo, dhi):
            return 8e307 * base(x)

        res = engine_integrate(f, spec)
        assert not math.isfinite(res.value)
        assert res.status != "converged"
        assert bits(res) == bits(reference_integrate(f, spec))


class TestInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_linearity(self, alpha, beta):
        spec = IntegralSpec(0.0, 1.0)

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
            IntegralSpec(0.0, 1.0, a - 1.0, b - 1.0),
            TOL,
        )
        half = quad.integrate_half_line(
            lambda t, dlo, dhi: np.exp((a - 1.0) * np.log(dlo) - (a + b) * np.log1p(t)),
            IntegralSpec(0.0, math.inf, a - 1.0),
            TOL,
        )
        assert abs(finite.value - half.value) <= 2.0 * TOL * max(1.0, abs(finite.value))


class TestOracle:
    def test_matches_de_on_finite_examples(self):
        cases = [
            (lambda x, dlo, dhi: x, IntegralSpec(0.0, 1.0), 0.5),
            (
                lambda x, dlo, dhi: 1.0 / np.sqrt(dlo * dhi),
                IntegralSpec(0.0, 1.0, -0.5, -0.5),
                math.pi,
            ),
            (
                lambda x, dlo, dhi: x * dhi * dhi,
                IntegralSpec(0.0, 1.0),
                1.0 / 12.0,
            ),
        ]
        for f, spec, expected in cases:
            de = quad.integrate_finite(f, spec, TOL).value
            orc = oracle.oracle_integrate(f, spec)
            assert orc == pytest.approx(expected, rel=1e-9, abs=1e-9)
            assert abs(de - orc) <= 1e-9 * max(1.0, abs(expected))

    def test_half_line(self):
        orc = oracle.oracle_integrate(
            lambda x, dlo, dhi: 1.0 / (1.0 + x * x), IntegralSpec(0.0, math.inf)
        )
        assert orc == pytest.approx(math.pi / 2.0, rel=1e-9)

    def test_real_line(self):
        orc = oracle.oracle_integrate(
            lambda x, dlo, dhi: np.exp(-x * x), IntegralSpec(-math.inf, math.inf)
        )
        assert orc == pytest.approx(SQRT_PI, rel=1e-9)

    def test_rejects_principal_values(self):
        with pytest.raises(ValueError):
            oracle.oracle_integrate(
                lambda x, dlo, dhi: 1.0 / (x - 1.0),
                IntegralSpec(0.0, 2.0, poles=(1.0,)),
            )
