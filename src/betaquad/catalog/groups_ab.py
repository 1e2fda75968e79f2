"""Catalog groups A and B: the defining beta integral and its elementary
change-of-variable relatives on finite intervals and [1, inf)."""

from __future__ import annotations

import math

import numpy as np

from .. import specfun as sf
from ..quad import IntegralSpec
from .core import (
    SQRT_PI,
    IdentityRecord,
    Relation,
    domain,
    integer,
    log_unit,
    one_minus_pow,
    power,
    real,
)


def _beta_kernel(a, b):
    def f(x, dlo, dhi):
        return power(dlo, a - 1.0) * power(dhi, b - 1.0)

    return f


# -- group A ----------------------------------------------------------------

GROUP_A = [
    IdentityRecord(
        id="3.191.3",
        group="A",
        citation="GR 3.191.3: int_0^1 x^(a-1)(1-x)^(b-1) dx = B(a,b)",
        domain=domain(real("a", 0.0, 5.0), real("b", 0.0, 5.0)),
        make_integrand=lambda p: _beta_kernel(p["a"], p["b"]),
        make_spec=lambda p: IntegralSpec(0.0, 1.0, p["a"] - 1.0, p["b"] - 1.0),
        closed_form=lambda p: sf.beta(p["a"], p["b"]),
    ),
    IdentityRecord(
        id="3.192.1",
        group="A",
        citation="GR 3.192.1: int_0^1 x^p (1-x)^-p dx = p*pi/sin(p*pi)",
        domain=domain(real("p", 0.0, 1.0)),
        make_integrand=lambda p: _beta_kernel(p["p"] + 1.0, 1.0 - p["p"]),
        make_spec=lambda p: IntegralSpec(0.0, 1.0, p["p"], -p["p"]),
        closed_form=lambda p: p["p"] * math.pi / math.sin(p["p"] * math.pi),
    ),
    IdentityRecord(
        id="3.192.2",
        group="A",
        citation="GR 3.192.2: int_0^1 x^p (1-x)^-(p+1) dx = -pi/sin(p*pi), -1<p<0",
        domain=domain(real("p", -1.0, 0.0)),
        make_integrand=lambda p: _beta_kernel(p["p"] + 1.0, -p["p"]),
        make_spec=lambda p: IntegralSpec(0.0, 1.0, p["p"], -p["p"] - 1.0),
        closed_form=lambda p: -math.pi / math.sin(p["p"] * math.pi),
    ),
    IdentityRecord(
        id="3.192.3",
        group="A",
        citation="GR 3.192.3: int_0^1 (1-x)^p x^-(p+1) dx = -pi/sin(p*pi), -1<p<0",
        domain=domain(real("p", -1.0, 0.0)),
        make_integrand=lambda p: _beta_kernel(-p["p"], p["p"] + 1.0),
        make_spec=lambda p: IntegralSpec(0.0, 1.0, -p["p"] - 1.0, p["p"]),
        closed_form=lambda p: -math.pi / math.sin(p["p"] * math.pi),
    ),
    IdentityRecord(
        id="3.192.4",
        group="A",
        citation="GR 3.192.4: int_1^inf (x-1)^(p-1/2) dx/x = pi/cos(p*pi)",
        domain=domain(real("p", -0.5, 0.5)),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp((p["p"] - 0.5) * np.log(dlo) - np.log(x))
        ),
        make_spec=lambda p: IntegralSpec(1.0, math.inf, p["p"] - 0.5),
        closed_form=lambda p: math.pi / math.cos(p["p"] * math.pi),
    ),
    IdentityRecord(
        id="3.226.1",
        group="A",
        citation="GR 3.226.1: int_0^1 x^n/sqrt(1-x) dx = Gamma(n+1) sqrt(pi)/Gamma(n+3/2)",
        domain=domain(integer("n", 0, 6)),
        make_integrand=lambda p: _beta_kernel(p["n"] + 1.0, 0.5),
        make_spec=lambda p: IntegralSpec(0.0, 1.0, p["n"], -0.5),
        closed_form=lambda p: sf.gamma(p["n"] + 1.0) * SQRT_PI / sf.gamma(p["n"] + 1.5),
    ),
    IdentityRecord(
        id="3.226.2",
        group="A",
        citation="GR 3.226.2: int_0^1 x^(n-1/2)/sqrt(1-x) dx = Gamma(n+1/2) sqrt(pi)/Gamma(n+1)",
        domain=domain(integer("n", 0, 6)),
        make_integrand=lambda p: _beta_kernel(p["n"] + 0.5, 0.5),
        make_spec=lambda p: IntegralSpec(0.0, 1.0, p["n"] - 0.5, -0.5),
        closed_form=lambda p: sf.gamma(p["n"] + 0.5) * SQRT_PI / sf.gamma(p["n"] + 1.0),
    ),
]


# -- group B ----------------------------------------------------------------

def _closed_3193(p):
    n, nu = p["n"], p["nu"]
    denom = 1.0
    for k in range(n + 1):
        denom *= nu + k
    return n ** (nu + n) * math.factorial(n) / denom


def _integrand_3251_3(p):
    mu, pw, nu = p["mu"], p["p"], p["nu"]

    def f(x, dlo, dhi):
        lx = np.log1p(dlo)  # ln x, exact near x = 1
        log_pow_m1 = pw * lx + np.log(-np.expm1(-pw * lx))  # ln(x^p - 1)
        return np.exp((mu - 1.0) * lx + (nu - 1.0) * log_pow_m1)

    return f


GROUP_B = [
    IdentityRecord(
        id="3.191.1",
        group="B",
        citation="GR 3.191.1: int_0^u t^(a-1)(u-t)^(b-1) dt = u^(a+b-1) B(a,b)",
        domain=domain(real("u", 0.0, 3.0), real("a", 0.0, 3.0), real("b", 0.0, 3.0)),
        make_integrand=lambda p: _beta_kernel(p["a"], p["b"]),
        make_spec=lambda p: IntegralSpec(0.0, p["u"], p["a"] - 1.0, p["b"] - 1.0),
        closed_form=lambda p: p["u"] ** (p["a"] + p["b"] - 1.0) * sf.beta(p["a"], p["b"]),
    ),
    IdentityRecord(
        id="3.196.3",
        group="B",
        citation="GR 3.196.3: int_u^v (t-u)^(a-1)(v-t)^(b-1) dt = (v-u)^(a+b-1) B(a,b)",
        domain=domain(
            real("u", -2.0, 2.0),
            real("v", -1.0, 3.0),
            real("a", 0.0, 3.0),
            real("b", 0.0, 3.0),
            rels=(Relation("v - u > 0.3", lambda q: q["v"] - q["u"] > 0.3),),
        ),
        make_integrand=lambda p: _beta_kernel(p["a"], p["b"]),
        make_spec=lambda p: IntegralSpec(p["u"], p["v"], p["a"] - 1.0, p["b"] - 1.0),
        closed_form=lambda p: (p["v"] - p["u"]) ** (p["a"] + p["b"] - 1.0)
        * sf.beta(p["a"], p["b"]),
    ),
    IdentityRecord(
        id="3.193",
        group="B",
        citation="GR 3.193: int_0^n x^(nu-1)(n-x)^n dx = n^(nu+n) n!/(nu(nu+1)...(nu+n))",
        domain=domain(real("nu", 0.0, 3.0), integer("n", 1, 5)),
        make_integrand=lambda p: _beta_kernel(p["nu"], p["n"] + 1.0),
        make_spec=lambda p: IntegralSpec(0.0, p["n"], p["nu"] - 1.0, p["n"]),
        closed_form=_closed_3193,
    ),
    IdentityRecord(
        id="3.249.7",
        group="B",
        citation="GR 3.249.7: int_0^1 (1-x^a)^(b-1) dx = B(1/a, b)/a",
        domain=domain(real("a", 0.0, 4.0), real("b", 0.0, 4.0)),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp(
                (p["b"] - 1.0) * np.log(one_minus_pow(log_unit(x, dlo, dhi), p["a"]))
            )
        ),
        make_spec=lambda p: IntegralSpec(0.0, 1.0, 0.0, p["b"] - 1.0),
        closed_form=lambda p: sf.beta(1.0 / p["a"], p["b"]) / p["a"],
    ),
    IdentityRecord(
        id="3.249.5",
        group="B",
        citation="GR 3.249.5: int_0^1 (1-x^2)^(b-1) dx = B(1/2,b)/2 = 2^(2b-2) B(b,b)",
        domain=domain(real("b", 0.0, 4.0)),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: power(dhi * (1.0 + x), p["b"] - 1.0)
        ),
        make_spec=lambda p: IntegralSpec(0.0, 1.0, 0.0, p["b"] - 1.0),
        closed_form=lambda p: 0.5 * sf.beta(0.5, p["b"]),
    ),
    IdentityRecord(
        id="3.251.1",
        group="B",
        citation="GR 3.251.1: int_0^1 x^(c-1)(1-x^a)^(b-1) dx = B(c/a, b)/a",
        domain=domain(real("a", 0.0, 4.0), real("b", 0.0, 4.0), real("c", 0.0, 4.0)),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp(
                (p["c"] - 1.0) * np.log(dlo)
                + (p["b"] - 1.0) * np.log(one_minus_pow(log_unit(x, dlo, dhi), p["a"]))
            )
        ),
        make_spec=lambda p: IntegralSpec(0.0, 1.0, p["c"] - 1.0, p["b"] - 1.0),
        closed_form=lambda p: sf.beta(p["c"] / p["a"], p["b"]) / p["a"],
    ),
    IdentityRecord(
        id="eq-3.7",
        group="B",
        citation="scaled even form: int_0^c (c^2-t^2)^(b-1) dt = c^(2b-1) B(1/2,b)/2",
        domain=domain(real("b", 0.0, 3.0), real("c", 0.0, 3.0)),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: power(dhi * (p["c"] + x), p["b"] - 1.0)
        ),
        make_spec=lambda p: IntegralSpec(0.0, p["c"], 0.0, p["b"] - 1.0),
        closed_form=lambda p: 0.5 * p["c"] ** (2.0 * p["b"] - 1.0) * sf.beta(0.5, p["b"]),
    ),
    IdentityRecord(
        id="3.249.2",
        group="B",
        citation="GR 3.249.2: int_0^c (c^2-t^2)^(n-1/2) dt = pi c^(2n) C(2n,n)/2^(2n+1)",
        domain=domain(real("c", 0.0, 3.0), integer("n", 0, 5)),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: power(dhi * (p["c"] + x), p["n"] - 0.5)
        ),
        make_spec=lambda p: IntegralSpec(0.0, p["c"], 0.0, p["n"] - 0.5),
        closed_form=lambda p: math.pi
        * p["c"] ** (2 * p["n"])
        * math.comb(2 * p["n"], p["n"])
        / 2.0 ** (2 * p["n"] + 1),
    ),
    IdentityRecord(
        id="eq-3.10",
        group="B",
        citation="reciprocal form: int_1^inf t^-(a+b) (t-1)^(b-1) dt = B(a,b)",
        domain=domain(real("a", 0.0, 3.0), real("b", 0.0, 3.0)),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp(
                (p["b"] - 1.0) * np.log(dlo) - (p["a"] + p["b"]) * np.log1p(dlo)
            )
        ),
        make_spec=lambda p: IntegralSpec(1.0, math.inf, p["b"] - 1.0),
        closed_form=lambda p: sf.beta(p["a"], p["b"]),
    ),
    IdentityRecord(
        id="3.251.3",
        group="B",
        citation="GR 3.251.3: int_1^inf x^(mu-1)(x^p-1)^(nu-1) dx = B(1-nu-mu/p, nu)/p",
        domain=domain(
            real("p", 0.0, 3.0),
            real("nu", 0.0, 1.0),
            real("mu", -1.0, 2.0),
            rels=(
                Relation(
                    "p(1-nu) - mu > 0.2",
                    lambda q: q["p"] * (1.0 - q["nu"]) - q["mu"] > 0.2,
                ),
            ),
        ),
        make_integrand=_integrand_3251_3,
        make_spec=lambda p: IntegralSpec(1.0, math.inf, p["nu"] - 1.0),
        closed_form=lambda p: sf.beta(1.0 - p["nu"] - p["mu"] / p["p"], p["nu"]) / p["p"],
    ),
]

ENTRIES = GROUP_A + GROUP_B
