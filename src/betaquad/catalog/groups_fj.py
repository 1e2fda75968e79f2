"""Catalog groups F through J: exponential-scale forms, logarithmic
kernels, the fake-parameter pair, the log-weighted half-line integrals,
and the hyperbolic odd-symmetry family."""

from __future__ import annotations

import math

import numpy as np

from .. import specfun as sf
from ..quad import IntegralSpec
from .core import (
    IdentityRecord,
    Relation,
    cot,
    domain,
    logcosh,
    neg_log_unit,
    per_row,
    power,
    real,
    softplus,
)


# -- group F: exponential scale ---------------------------------------------

GROUP_F = [
    IdentityRecord(
        id="3.312.1",
        group="F",
        citation="GR 3.312.1: int_0^inf e^(-at)(1-e^(-ct))^(b-1) dt = B(a/c, b)/c",
        domain=domain(real("a", 0.0, 3.0), real("b", 0.0, 3.0), real("c", 0.0, 3.0)),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp(
                -p["a"] * x + (p["b"] - 1.0) * np.log(-np.expm1(-p["c"] * dlo))
            )
        ),
        make_spec=lambda p: IntegralSpec(0.0, math.inf, p["b"] - 1.0),
        closed_form=lambda p: sf.beta(p["a"] / p["c"], p["b"]) / p["c"],
    ),
    IdentityRecord(
        id="3.313.2",
        group="F",
        citation="GR 3.313.2: int_R e^(-act)(1+e^(-ct))^-(a+b) dt = B(a,b)/c",
        domain=domain(real("a", 0.0, 2.0), real("b", 0.0, 2.0), real("c", 0.0, 2.0)),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp(
                -p["a"] * p["c"] * x - (p["a"] + p["b"]) * softplus(-p["c"] * x)
            )
        ),
        make_spec=lambda p: IntegralSpec(-math.inf, math.inf),
        closed_form=lambda p: sf.beta(p["a"], p["b"]) / p["c"],
    ),
    IdentityRecord(
        id="3.314",
        group="F",
        citation="GR 3.314: int_R e^(-mu x)(e^(b/a)+e^(-x/a))^-nu dx = a e^(b(mu-nu/a)) B(a mu, nu-a mu)",
        domain=domain(
            real("a", 0.3, 2.0),
            real("b", -1.0, 1.0),
            real("mu", 0.0, 2.0),
            real("nu", 0.0, 3.0),
            rels=(
                Relation("a*mu > 0.1", lambda q: q["a"] * q["mu"] > 0.1),
                Relation("nu - a*mu > 0.1", lambda q: q["nu"] - q["a"] * q["mu"] > 0.1),
            ),
        ),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp(
                -p["mu"] * x
                - p["nu"] * np.logaddexp(p["b"] / p["a"], -x / p["a"])
            )
        ),
        make_spec=lambda p: IntegralSpec(-math.inf, math.inf),
        closed_form=lambda p: p["a"]
        * math.exp(p["b"] * (p["mu"] - p["nu"] / p["a"]))
        * sf.beta(p["a"] * p["mu"], p["nu"] - p["a"] * p["mu"]),
    ),
    IdentityRecord(
        id="3.311.3",
        group="F",
        citation="GR 3.311.3: int_R e^(-px)/(1+e^(-qx)) dx = (pi/q) cosec(pi p/q)",
        domain=domain(
            real("p", 0.05, 2.0),
            real("q", 0.3, 3.0),
            rels=(Relation("q - p > 0.1", lambda r: r["q"] - r["p"] > 0.1),),
        ),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp(-p["p"] * x - softplus(-p["q"] * x))
        ),
        make_spec=lambda p: IntegralSpec(-math.inf, math.inf),
        closed_form=lambda p: math.pi / (p["q"] * math.sin(math.pi * p["p"] / p["q"])),
    ),
    IdentityRecord(
        id="3.311.9",
        group="F",
        citation="GR 3.311.9: int_R e^(-mu x)/(b+e^(-x)) dx = pi b^(mu-1) cosec(mu pi)",
        domain=domain(real("mu", 0.0, 1.0), real("b", 0.0, 3.0)),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp(
                -p["mu"] * x - np.logaddexp(per_row(math.log, p["b"]), -x)
            )
        ),
        make_spec=lambda p: IntegralSpec(-math.inf, math.inf),
        closed_form=lambda p: math.pi
        * p["b"] ** (p["mu"] - 1.0)
        / math.sin(p["mu"] * math.pi),
    ),
]


# -- group G: logarithmic kernels --------------------------------------------

def _integrand_4273(p):
    u, v, pp, q = p["u"], p["v"], p["p"], p["q"]

    def f(x, dlo, dhi):
        ln_xu = np.log1p(dlo / u)      # ln(x/u), exact near x = u
        ln_vx = -np.log1p(-dhi / v)    # ln(v/x), exact near x = v
        return power(ln_xu, pp - 1.0) * power(ln_vx, q - 1.0) / x

    return f


def _integrand_4275_1(p):
    pp, q = p["p"], p["q"]

    def f(x, dlo, dhi):
        return power(neg_log_unit(x, dlo, dhi), q - 1.0) - power(dlo, pp - 1.0) * power(
            dhi, q - 1.0
        )

    return f


GROUP_G = [
    IdentityRecord(
        id="4.273",
        group="G",
        citation="GR 4.273: int_u^v ln(x/u)^(p-1) ln(v/x)^(q-1) dx/x = B(p,q) ln(v/u)^(p+q-1)",
        domain=domain(
            real("u", 0.2, 3.0),
            real("v", 0.5, 4.0),
            real("p", 0.0, 3.0),
            real("q", 0.0, 3.0),
            rels=(Relation("v - u > 0.3", lambda r: r["v"] - r["u"] > 0.3),),
        ),
        make_integrand=_integrand_4273,
        make_spec=lambda p: IntegralSpec(
            p["u"], p["v"], p["p"] - 1.0, p["q"] - 1.0
        ),
        closed_form=lambda p: sf.beta(p["p"], p["q"])
        * math.log(p["v"] / p["u"]) ** (p["p"] + p["q"] - 1.0),
    ),
    IdentityRecord(
        id="4.275.1",
        group="G",
        citation="GR 4.275.1: int_0^1 [(-ln x)^(q-1) - x^(p-1)(1-x)^(q-1)] dx = Gamma(q) - B(p,q)",
        domain=domain(real("p", 0.0, 3.0), real("q", 0.0, 3.0)),
        make_integrand=_integrand_4275_1,
        make_spec=lambda p: IntegralSpec(0.0, 1.0, np.minimum(p["p"] - 1.0, 0.0), p["q"]),
        closed_form=lambda p: sf.gamma(p["q"]) - sf.beta(p["p"], p["q"]),
    ),
    IdentityRecord(
        id="eq-8.4",
        group="G",
        citation="log-kernel gamma representation: int_0^1 (-ln x)^(q-1) dx = Gamma(q)",
        domain=domain(real("q", 0.0, 4.0)),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: power(neg_log_unit(x, dlo, dhi), p["q"] - 1.0)
        ),
        make_spec=lambda p: IntegralSpec(0.0, 1.0, 0.0, p["q"] - 1.0),
        closed_form=lambda p: sf.gamma(p["q"]),
    ),
]


# -- group H: fake parameters -------------------------------------------------

def _fake_parameter_kernel(pp, scale_inv):
    """x^(-1) [ (1+w)^(p-1) * expm1((1-2p) ln(1+w)) ] with w = scale_inv/x.

    Covers both fake-parameter entries: w = 1/(bx) and w = a/x reduce the
    integrands to the same difference of mirrored beta kernels, evaluated
    in expm1 form so the two halves never cancel in floating point.
    """

    def f(x, dlo, dhi):
        L = np.log1p(scale_inv / x)
        return np.exp((pp - 1.0) * L) * np.expm1((1.0 - 2.0 * pp) * L) / x

    return f


GROUP_H = [
    IdentityRecord(
        id="3.217",
        group="H",
        citation="GR 3.217: int_0^inf [b^p x^(p-1)(1+bx)^-p - (1+bx)^(p-1)/(b^(p-1) x^p)] dx = pi cot(pi p)",
        domain=domain(real("p", 0.0, 1.0), real("b", 0.0, 3.0)),
        make_integrand=lambda p: _fake_parameter_kernel(p["p"], 1.0 / p["b"]),
        make_spec=lambda p: IntegralSpec(
            0.0, math.inf, np.minimum(p["p"] - 1.0, -p["p"])
        ),
        closed_form=lambda p: math.pi * cot(math.pi * p["p"]),
        tolerance_class="combined",
    ),
    IdentityRecord(
        id="3.218",
        group="H",
        citation="GR 3.218: int_0^inf [x^(2p-1)-(a+x)^(2p-1)]/((a+x)^p x^p) dx = pi cot(pi p)",
        domain=domain(real("p", 0.0, 1.0), real("a", 0.0, 3.0)),
        make_integrand=lambda p: _fake_parameter_kernel(p["p"], p["a"]),
        make_spec=lambda p: IntegralSpec(
            0.0, math.inf, np.minimum(p["p"] - 1.0, -p["p"])
        ),
        closed_form=lambda p: math.pi * cot(math.pi * p["p"]),
        tolerance_class="combined",
    ),
]


# -- group I: log-weighted half-line integrals -------------------------------

GROUP_I = [
    IdentityRecord(
        id="eq-10.4",
        group="I",
        citation="log-weighted Euler form: int_0^inf t^(a-1) ln t/(1+t) dt = -pi^2 cos(pi a)/sin^2(pi a)",
        domain=domain(real("a", 0.0, 1.0)),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp((p["a"] - 1.0) * np.log(dlo) - np.log1p(x))
            * np.log(dlo)
        ),
        make_spec=lambda p: IntegralSpec(0.0, math.inf, p["a"] - 1.0),
        closed_form=lambda p: -math.pi ** 2
        * math.cos(math.pi * p["a"])
        / math.sin(math.pi * p["a"]) ** 2,
    ),
    IdentityRecord(
        id="4.251.1",
        group="I",
        citation="GR 4.251.1: int_0^inf x^(a-1) ln x/(x+b) dx = pi b^(a-1)(ln b - pi cot(pi a))/sin(pi a)",
        domain=domain(real("a", 0.0, 1.0), real("b", 0.0, 4.0)),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp(
                (p["a"] - 1.0) * np.log(dlo) - np.log(x + p["b"])
            )
            * np.log(dlo)
        ),
        make_spec=lambda p: IntegralSpec(0.0, math.inf, p["a"] - 1.0),
        closed_form=lambda p: math.pi
        * p["b"] ** (p["a"] - 1.0)
        / math.sin(math.pi * p["a"])
        * (math.log(p["b"]) - math.pi * cot(math.pi * p["a"])),
    ),
]


# -- group J: hyperbolic weights ----------------------------------------------

def _integrand_4321_damped(mu):
    # log-space magnitude: x * L * e^(-mu L) overflows as x*L before the
    # exponential kills it, so assemble exp(ln|x| + ln L - mu L) instead
    def f(x, dlo, dhi):
        L = logcosh(x)
        mag = np.exp(np.log(np.abs(x)) + np.log(L) - mu * L)
        return np.sign(x) * mag

    return f


def _integrand_3457_3(p):
    a, mu = p["a"], p["mu"]
    a2 = a * a

    def f(x, dlo, dhi):
        x = np.asarray(x, dtype=float)
        ld = np.where(
            x >= 0.0,
            x + np.log(a2 + np.exp(-2.0 * np.abs(x))),
            -x + np.log1p(a2 * np.exp(-2.0 * np.abs(x))),
        )
        return x * np.exp(-mu * ld)

    return f


GROUP_J = [
    IdentityRecord(
        id="3.457.3",
        group="J",
        citation="GR 3.457.3: int_R x (a^2 e^x + e^-x)^-mu dx = -B(mu/2, mu/2) ln(a)/(2 a^mu)",
        domain=domain(real("a", 0.3, 3.0), real("mu", 0.5, 4.0)),
        make_integrand=_integrand_3457_3,
        make_spec=lambda p: IntegralSpec(-math.inf, math.inf),
        closed_form=lambda p: -0.5
        * p["a"] ** -p["mu"]
        * sf.beta(0.5 * p["mu"], 0.5 * p["mu"])
        * math.log(p["a"]),
    ),
    IdentityRecord(
        id="eq-11.5",
        group="J",
        citation="odd weight, even sech power: int_R x cosh(x)^-mu dx = 0",
        domain=domain(real("mu", 0.5, 4.0)),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: x * np.exp(-p["mu"] * logcosh(x))
        ),
        make_spec=lambda p: IntegralSpec(-math.inf, math.inf),
        closed_form=lambda p: 0.0,
        zero_atol=1e-9,
    ),
    IdentityRecord(
        id="4.321.1-damped",
        group="J",
        citation="damped variant of GR 4.321.1: int_R x ln(cosh x) cosh(x)^-mu dx = 0",
        domain=domain(real("mu", 0.5, 4.0)),
        make_integrand=lambda p: _integrand_4321_damped(p["mu"]),
        make_spec=lambda p: IntegralSpec(-math.inf, math.inf),
        closed_form=lambda p: 0.0,
        zero_atol=1e-9,
    ),
]

ENTRIES = GROUP_F + GROUP_G + GROUP_H + GROUP_I + GROUP_J
