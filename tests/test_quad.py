"""Quadrature engine behaviour: spot values, invariants, failure modes."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betaquad import catalog, quad
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

    @pytest.mark.parametrize("lo, hi", [(-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_finite_endpoints_must_be_finite(self, lo, hi):
        with pytest.raises(ValueError):
            IntegralSpec.finite(lo, hi)

    def test_half_line_anchor_must_be_finite(self):
        with pytest.raises(ValueError):
            IntegralSpec.half_line_up(math.inf)
        with pytest.raises(ValueError):
            IntegralSpec.half_line_down(-math.inf)
        with pytest.raises(ValueError):
            IntegralSpec.half_line_up(math.nan)

    def test_nan_exponent_rejected(self):
        with pytest.raises(ValueError):
            IntegralSpec.finite(0.0, 1.0, alpha_lo=math.nan)
        with pytest.raises(ValueError):
            IntegralSpec.half_line_down(0.0, alpha_hi=math.nan)


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


# --------------------------------------------------------------------------
# reference evaluation: per-level tables concatenated afresh for every call,
# one np.dot per level (per side where the sides have their own weights) and
# edges taken per level.  The engines must match it bit for bit.
# --------------------------------------------------------------------------

def _ref_call(f, x, dlo, dhi):
    with np.errstate(all="ignore"):
        out = np.asarray(f(x, dlo, dhi), dtype=float)
    bad = ~np.isfinite(out)
    if bad.any():
        raise quad.EvaluationError(f"integrand returned non-finite values near x={x[bad][:3]}")
    return out


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
                s = float(np.dot(wa, fa + fb)) * scale
                edge = scale * wa[-1] * (abs(fa[-1]) + abs(fb[-1]))
            else:
                s = 0.0
                edge = 0.0
                for f_side, w in ((fa, wa), (fb, wb)):
                    s += float(np.dot(w, f_side))
                    edge = max(edge, w[-1] * abs(f_side[-1]))
            out.append([s, wa.size + wb.size, edge])
        if first == 0:
            out[0][0] += centre_w * float(fv[-1])
            out[0][1] += 1
        return out

    return level_sum


def reference_level_sum(f, spec):
    """level_sum(first, last) of f over a pole-free spec (None: the real line)."""
    if spec is None or spec.kind == "real_line":
        def call(x, _):
            infs = np.full_like(x, math.inf)
            return _ref_call(f, x, infs, infs)

        return _ref_level_sum("sinh_sinh", call, 0.5 * math.pi)
    if spec.kind == "finite":
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
    up = spec.kind == "half_line_up"
    anchor = spec.lo if up else spec.hi

    def call(d, _):
        infs = np.full_like(d, math.inf)
        return _ref_call(f, anchor + d, d, infs) if up else _ref_call(f, anchor - d, infs, d)

    return _ref_level_sum("exp_sinh", call, 0.5 * math.pi)


def reference_integrate(f, spec, tol=TOL):
    return quad._drive(reference_level_sum(f, spec), tol)


def engine_integrate(f, spec, tol=TOL):
    return quad.integrate_real_line(f, tol) if spec is None else quad.integrate(f, spec, tol)


def engine_level_sum(f, spec):
    """The level_sum an engine hands to `_drive`."""
    captured = []
    drive = quad._drive
    quad._drive = lambda level_sum, tol, max_level=quad.MAX_LEVEL: captured.append(level_sum)
    try:
        engine_integrate(f, spec)
    finally:
        quad._drive = drive
    return captured[0]


def block_triples(level_sum):
    """Every block `_drive` can ask for, as hex (sum, count, edge) triples."""
    blocks = [(0, quad.MIN_LEVEL)] + [(k, k) for k in range(quad.MIN_LEVEL + 1, quad.MAX_LEVEL + 1)]
    with np.errstate(all="ignore"):
        return [
            (float(s).hex(), n, float(edge).hex())
            for first, last in blocks for s, n, edge in level_sum(first, last)
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
    def test_catalog_entry(self, rec):
        """mid_params, then four samples at the 0.01 edge margin; at
        mid_params also every block's (sum, count, edge) triples."""
        edge = dataclasses.replace(rec, domain=dataclasses.replace(rec.domain, margin=0.01))
        points = [catalog.mid_params(rec)] + [catalog.sample_params(edge, 7, i) for i in range(4)]
        for params in points:
            f, spec = rec.make_integrand(params), rec.make_spec(params)
            assert outcome(engine_integrate, f, spec) == outcome(reference_integrate, f, spec)
        f, spec = rec.make_integrand(points[0]), rec.make_spec(points[0])
        assert block_triples(engine_level_sum(f, spec)) == block_triples(reference_level_sum(f, spec))

    @pytest.mark.parametrize("entry_id", ["3.192.3", "3.192.4"])
    def test_catalog_sweep_reaches_max_level(self, entry_id):
        # sample 3 at the edge margin uses every level (finite, half-line)
        rec = catalog.entry(entry_id)
        edge = dataclasses.replace(rec, domain=dataclasses.replace(rec.domain, margin=0.01))
        params = catalog.sample_params(edge, 7, 3)
        res = engine_integrate(rec.make_integrand(params), rec.make_spec(params))
        assert len(res.level_errors) == quad.MAX_LEVEL


# engine, spec, transform, reference coordinate of side a / side b, smooth base
_ENGINES = {
    "finite": (IntegralSpec.finite(0.0, 1.0), "tanh_sinh",
               lambda x, dlo, dhi: (dhi, dlo), lambda x: np.ones_like(x)),
    "half_line": (IntegralSpec.half_line_up(0.0), "exp_sinh",
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

    @pytest.mark.parametrize("engine", list(_ENGINES))
    def test_opposite_infinities_on_mirrored_nodes(self, engine):
        a, b = _level_nodes(_ENGINES[engine][1], 2)
        f, spec = self.marked(engine, [(0, a[0], math.inf), (1, b[0], -math.inf)])
        with pytest.raises(quad.EvaluationError, match="non-finite"):
            engine_integrate(f, spec)

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
        assert bits(res) == bits(reference_integrate(f, spec))


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
