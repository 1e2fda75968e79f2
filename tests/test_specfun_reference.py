"""specfun against an independent 40-digit reference (mpmath).

The residual checks in test_specfun compute Gamma on both sides, so they
cannot see an error that specfun makes consistently; these grids compare
every function with mpmath instead.  log_gamma and digamma have zeros
(at 1 and 2, and at 1.4616...), so they are judged with an absolute floor
there: |err| <= tol * max(1, |ref|).
"""

import math
import sys

import numpy as np
import pytest

from betaquad import specfun

mpmath = pytest.importorskip("mpmath")

DIGAMMA_ZERO = 1.4616321449683623
NEAR_ZEROS = [1.0, 2.0, DIGAMMA_ZERO, 0.999, 1.001, 1.999, 2.001, 1.46, 1.47]
# below ~1e-16 the Lanczos series' (x - 1) + 1 rounds to 0
TINY = list(np.geomspace(1e-300, 2.0 ** -10, 200))


@pytest.fixture(autouse=True)
def forty_digits():
    with mpmath.workdps(40):
        yield


def worst(fn, ref, xs, floor):
    """Largest |fn(x) - ref(x)| / max(floor, |ref(x)|) over xs, with its x."""
    out = []
    for x in xs:
        r = ref(x)
        out.append((float(abs(mpmath.mpf(fn(x)) - r) / max(floor, abs(r))), x))
    return max(out)


def test_gamma_relative():
    xs = np.concatenate((
        np.linspace(0.05, 60.0, 600)[1:],
        np.geomspace(0.05, 60.0, 200)[1:],
        # the reflection's sin(pi x) on (-1/2, 0), where 1 + x rounds
        -np.geomspace(1e-300, 0.49, 200),
    ))
    err, x = worst(specfun.gamma, mpmath.gamma, xs, 0.0)
    assert err <= 1e-14, f"gamma rel err {err:.2e} at x={x}"


@pytest.mark.parametrize("x", [-171.4, -171.5, -172.5, -175.25, -177.5, -180.5])
def test_gamma_where_the_reflection_overflows(x):
    # Gamma(1 - x) overflows; Gamma(x) is subnormal or rounds to a zero of the right sign
    v, ref = specfun.gamma(x), mpmath.gamma(x)
    assert abs(mpmath.mpf(v) - ref) <= max(1e-12 * abs(ref), mpmath.mpf(2) ** -1074)
    assert math.copysign(1.0, v) == mpmath.sign(ref)


def test_beta_relative():
    grid = np.linspace(0.05, 40.0, 41)
    pairs = [(a, b) for a in grid for b in grid]
    rng = np.random.default_rng(20070707)
    pairs += [tuple(p) for p in rng.uniform(0.05, 40.0, size=(400, 2))]
    pairs += [(a, b) for a in TINY[::10] for b in (0.05, 0.5, 2.5, 40.0)]
    err, pair = worst(lambda p: specfun.beta(*p), lambda p: mpmath.beta(*p), pairs, 0.0)
    assert err <= 1e-13, f"beta rel err {err:.2e} at (a, b)={pair}"


def test_beta_where_one_argument_is_large():
    # log_gamma(b) - log_gamma(a + b) would cancel; past b = 1e15 log_gamma raises
    pairs = [(a, float(b)) for a in (0.05, 0.5, 1.0, 2.5, 7.3, -0.5, -2.7)
             for b in np.geomspace(1e3, 1e18, 61)]
    for a, b in pairs:
        v, ref = specfun.beta(a, b), mpmath.beta(a, b)
        if not sys.float_info.min <= abs(ref) <= sys.float_info.max:
            continue
        err = float(abs(mpmath.mpf(v) - ref) / abs(ref))
        assert err <= 1e-13, f"beta rel err {err:.2e} at (a, b)={(a, b)}"
        assert math.copysign(1.0, v) == mpmath.sign(ref)


def test_log_gamma_with_floor_at_zeros():
    xs = list(np.linspace(0.05, 60.0, 600)) + NEAR_ZEROS + TINY
    err, x = worst(specfun.log_gamma, mpmath.loggamma, xs, 1.0)
    assert err <= 1e-14, f"log_gamma err {err:.2e} at x={x}"


def test_digamma_with_floor_at_zero():
    xs = list(np.linspace(0.05, 60.0, 600)) + NEAR_ZEROS
    err, x = worst(specfun.digamma, mpmath.digamma, xs, 1.0)
    assert err <= 1e-14, f"digamma err {err:.2e} at x={x}"


@pytest.mark.parametrize("a, b", [(-300.5, 400.0), (-600.5, 1000.0), (-900.5, 1000.0)])
def test_beta_of_a_negative_argument_at_least_half_the_other(a, b):
    # log|Gamma(a)| + log Gamma(b) - log Gamma(a + b) cancelled here to 9.3e-13
    v, ref = specfun.beta(a, b), mpmath.beta(a, b)
    assert float(abs(mpmath.mpf(v) - ref) / abs(ref)) <= 1e-13
    assert math.copysign(1.0, v) == mpmath.sign(ref)


def test_beta_of_a_negative_argument_on_a_grid():
    rng = np.random.default_rng(20070706)
    pairs = [(-float(x), float(y)) for x, y in rng.uniform(0.0, 1000.0, size=(300, 2))]
    pairs += [(-float(x), float(y)) for x, y in rng.uniform(0.0, 3.0, size=(100, 2))]
    checked = 0
    for a, b in pairs:
        ref = mpmath.beta(a, b)
        if not sys.float_info.min <= abs(ref) <= sys.float_info.max:
            continue
        v = specfun.beta(a, b)
        err = float(abs(mpmath.mpf(v) - ref) / abs(ref))
        assert err <= 1e-13, f"beta rel err {err:.2e} at (a, b)={(a, b)}"
        checked += 1
    assert checked >= 300
