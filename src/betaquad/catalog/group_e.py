"""Catalog group E: the master parameterized half-line form and its
bulleted specializations, plus the rooted finite-interval family."""

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
    per_row,
    power,
    real,
    softplus,
)


def _ln(v):
    """math.log of a parameter, row by row for a column."""
    return per_row(math.log, v)


def _power_denominator(num_exp, power, log_v, log_u, c):
    """x^(num_exp-1) / (v + u x^c)^power on [0, inf), overflow-proof."""

    def f(x, dlo, dhi):
        lx = np.log(dlo)
        return np.exp((num_exp - 1.0) * lx - power * np.logaddexp(log_v, log_u + c * lx))

    return f


def _closed_3194_7(p):
    m, n, u, v = p["m"], p["n"], p["u"], p["v"]
    return (
        math.factorial(m)
        * math.factorial(n)
        * math.factorial(2 * n - 2 * m - 2)
        / (math.factorial(n - m - 1) * math.factorial(2 * n))
        * 2.0 ** (2 * m + 2)
        * v ** (m - n + 0.5)
        / u ** (m + 1)
    )


def _closed_3251_4(p):
    m, n, u, v = p["m"], p["n"], p["u"], p["v"]
    return (
        math.pi
        * math.factorial(2 * m)
        * math.factorial(2 * n - 2 * m)
        / (
            2.0 ** (2 * n + 1)
            * math.factorial(m)
            * math.factorial(n - m)
            * math.factorial(n)
        )
        / (u ** (m + 0.5) * v ** (n - m + 0.5))
    )


def _root_family(num_exp, q):
    """x^num_exp (1 - x^q)^(-1/q) on (0,1)."""

    def f(x, dlo, dhi):
        lx = log_unit(x, dlo, dhi)
        return np.exp(num_exp * np.log(dlo) - (1.0 / q) * np.log(one_minus_pow(lx, q)))

    return f


GROUP_E = [
    IdentityRecord(
        id="3.241.4",
        group="E",
        citation="GR 3.241.4 master: int_0^inf t^(ac-1)(v+u t^c)^-(a+b) dt = B(a,b)/(c u^a v^b)",
        domain=domain(
            real("a", 0.0, 3.0),
            real("b", 0.0, 3.0),
            real("c", 0.3, 3.0),
            real("u", 0.0, 3.0),
            real("v", 0.0, 3.0),
            rels=(
                Relation("a*c > 0.1", lambda q: q["a"] * q["c"] > 0.1),
                Relation("b*c > 0.1", lambda q: q["b"] * q["c"] > 0.1),
            ),
        ),
        make_integrand=lambda p: _power_denominator(
            p["a"] * p["c"], p["a"] + p["b"], _ln(p["v"]), _ln(p["u"]), p["c"]
        ),
        make_spec=lambda p: IntegralSpec(0.0, math.inf, p["a"] * p["c"] - 1.0),
        closed_form=lambda p: sf.beta(p["a"], p["b"])
        / (p["c"] * p["u"] ** p["a"] * p["v"] ** p["b"]),
    ),
    IdentityRecord(
        id="3.194.6",
        group="E",
        citation="GR 3.194.6: int_0^inf t^(a-1)(1+ut)^-2 dt = (1-a) pi/(u^a sin(pi a))",
        domain=domain(real("a", 0.0, 2.0, exclude=(1.0,)), real("u", 0.0, 3.0)),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp(
                (p["a"] - 1.0) * np.log(dlo) - 2.0 * np.log1p(p["u"] * x)
            )
        ),
        make_spec=lambda p: IntegralSpec(0.0, math.inf, p["a"] - 1.0),
        closed_form=lambda p: (1.0 - p["a"])
        * math.pi
        / (p["u"] ** p["a"] * math.sin(math.pi * p["a"])),
    ),
    IdentityRecord(
        id="3.241.5",
        group="E",
        citation="GR 3.241.5: int_0^inf x^(p-1)(1+x^q)^-2 dx = (q-p) pi/(q^2 sin(pi p/q))",
        domain=domain(
            real("p", 0.1, 5.0),
            real("q", 0.3, 3.0),
            rels=(
                Relation("p < 2q - 0.2", lambda r: r["p"] < 2.0 * r["q"] - 0.2),
                Relation("|p - q| > 0.15", lambda r: abs(r["p"] - r["q"]) > 0.15),
            ),
        ),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp(
                (p["p"] - 1.0) * np.log(dlo) - 2.0 * softplus(p["q"] * np.log(dlo))
            )
        ),
        make_spec=lambda p: IntegralSpec(0.0, math.inf, p["p"] - 1.0),
        closed_form=lambda p: (p["q"] - p["p"])
        * math.pi
        / (p["q"] ** 2 * math.sin(math.pi * p["p"] / p["q"])),
    ),
    IdentityRecord(
        id="3.194.7",
        group="E",
        citation="GR 3.194.7: int_0^inf t^m (v+ut)^-(n+1/2) dt, factorial closed form",
        domain=domain(
            integer("m", 0, 4),
            integer("n", 1, 5),
            real("u", 0.0, 3.0),
            real("v", 0.0, 3.0),
            rels=(Relation("n > m", lambda q: q["n"] > q["m"]),),
        ),
        make_integrand=lambda p: _power_denominator(
            p["m"] + 1.0, p["n"] + 0.5, _ln(p["v"]), _ln(p["u"]), 1.0
        ),
        make_spec=lambda p: IntegralSpec(0.0, math.inf, p["m"]),
        closed_form=_closed_3194_7,
    ),
    IdentityRecord(
        id="3.248.1",
        group="E",
        citation="GR 3.248.1: int_0^inf t^(p-1)/sqrt(1+t^c) dt = B(p/c, 1/2-p/c)/c",
        domain=domain(
            real("p", 0.1, 1.6),
            real("c", 0.5, 4.0),
            rels=(Relation("c/2 - p > 0.15", lambda q: 0.5 * q["c"] - q["p"] > 0.15),),
        ),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp(
                (p["p"] - 1.0) * np.log(dlo) - 0.5 * softplus(p["c"] * np.log(dlo))
            )
        ),
        make_spec=lambda p: IntegralSpec(0.0, math.inf, p["p"] - 1.0),
        closed_form=lambda p: sf.beta(p["p"] / p["c"], 0.5 - p["p"] / p["c"]) / p["c"],
    ),
    IdentityRecord(
        id="3.249.1",
        group="E",
        citation="GR 3.249.1: int_0^inf (v^2+t^2)^-n dt = sqrt(pi) Gamma(n-1/2)/(2 Gamma(n) v^(2n-1))",
        domain=domain(real("n", 0.6, 5.0), real("v", 0.0, 3.0)),
        make_integrand=lambda p: _power_denominator(
            1.0, p["n"], 2.0 * _ln(p["v"]), 0.0, 2.0
        ),
        make_spec=lambda p: IntegralSpec(0.0, math.inf),
        closed_form=lambda p: SQRT_PI
        * sf.gamma(p["n"] - 0.5)
        / (2.0 * sf.gamma(p["n"]) * p["v"] ** (2.0 * p["n"] - 1.0)),
    ),
    IdentityRecord(
        id="3.249.8-general",
        group="E",
        citation="general-u form behind GR 3.249.8: int_0^inf (1+u t^2)^(-n/2) dt",
        domain=domain(real("n", 1.2, 6.0), real("u", 0.0, 3.0)),
        make_integrand=lambda p: _power_denominator(
            1.0, 0.5 * p["n"], 0.0, _ln(p["u"]), 2.0
        ),
        make_spec=lambda p: IntegralSpec(0.0, math.inf),
        closed_form=lambda p: SQRT_PI
        * sf.gamma(0.5 * (p["n"] - 1.0))
        / (2.0 * math.sqrt(p["u"]) * sf.gamma(0.5 * p["n"])),
    ),
    IdentityRecord(
        id="3.251.2",
        group="E",
        citation="GR 3.251.2: int_0^inf t^(mu-1)(1+t^2)^(nu-1) dt = B(mu/2, 1-nu-mu/2)/2",
        domain=domain(
            real("mu", 0.0, 2.0),
            real("nu", -2.0, 1.0),
            rels=(
                Relation(
                    "1 - nu - mu/2 > 0.1",
                    lambda q: 1.0 - q["nu"] - 0.5 * q["mu"] > 0.1,
                ),
            ),
        ),
        make_integrand=lambda p: _power_denominator(
            p["mu"], 1.0 - p["nu"], 0.0, 0.0, 2.0
        ),
        make_spec=lambda p: IntegralSpec(0.0, math.inf, p["mu"] - 1.0),
        closed_form=lambda p: 0.5 * sf.beta(0.5 * p["mu"], 1.0 - p["nu"] - 0.5 * p["mu"]),
    ),
    IdentityRecord(
        id="3.251.4",
        group="E",
        citation="GR 3.251.4: int_0^inf t^(2m)(v+ut^2)^-(n+1) dt, factorial closed form",
        domain=domain(
            integer("m", 0, 4),
            integer("n", 1, 5),
            real("u", 0.0, 3.0),
            real("v", 0.0, 3.0),
            rels=(Relation("n > m", lambda q: q["n"] > q["m"]),),
        ),
        make_integrand=lambda p: _power_denominator(
            2.0 * p["m"] + 1.0, p["n"] + 1.0, _ln(p["v"]), _ln(p["u"]), 2.0
        ),
        make_spec=lambda p: IntegralSpec(0.0, math.inf, 2.0 * p["m"]),
        closed_form=_closed_3251_4,
    ),
    IdentityRecord(
        id="3.251.5",
        group="E",
        citation="GR 3.251.5: int_0^inf t^(2m+1)(v+ut^2)^-(n+1) dt = m!(n-m-1)!/(2 n! u^(m+1) v^(n-m))",
        domain=domain(
            integer("m", 0, 4),
            integer("n", 1, 5),
            real("u", 0.0, 3.0),
            real("v", 0.0, 3.0),
            rels=(Relation("n > m", lambda q: q["n"] > q["m"]),),
        ),
        make_integrand=lambda p: _power_denominator(
            2.0 * p["m"] + 2.0, p["n"] + 1.0, _ln(p["v"]), _ln(p["u"]), 2.0
        ),
        make_spec=lambda p: IntegralSpec(0.0, math.inf, 2.0 * p["m"] + 1.0),
        closed_form=lambda p: math.factorial(p["m"])
        * math.factorial(p["n"] - p["m"] - 1)
        / (
            2.0
            * math.factorial(p["n"])
            * p["u"] ** (p["m"] + 1)
            * p["v"] ** (p["n"] - p["m"])
        ),
    ),
    IdentityRecord(
        id="eq-6.21",
        group="E",
        citation="substituted defining form: int_0^1 t^(aq-1)(1-t^q)^(b-1) dt = B(a,b)/q",
        domain=domain(
            real("a", 0.0, 3.0),
            real("b", 0.0, 3.0),
            real("q", 0.3, 3.0),
            rels=(Relation("a*q > 0.1", lambda r: r["a"] * r["q"] > 0.1),),
        ),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp(
                (p["a"] * p["q"] - 1.0) * np.log(dlo)
                + (p["b"] - 1.0) * np.log(one_minus_pow(log_unit(x, dlo, dhi), p["q"]))
            )
        ),
        make_spec=lambda p: IntegralSpec(
            0.0, 1.0, p["a"] * p["q"] - 1.0, p["b"] - 1.0
        ),
        closed_form=lambda p: sf.beta(p["a"], p["b"]) / p["q"],
    ),
    IdentityRecord(
        id="3.251.8",
        group="E",
        citation="GR 3.251.8: int_0^1 t^(p+q-1)(1-t^q)^(-p/q) dt = p pi cosec(p pi/q)/q^2",
        domain=domain(
            real("p", 0.05, 2.0),
            real("q", 0.3, 3.0),
            rels=(Relation("p < 0.85 q", lambda r: r["p"] < 0.85 * r["q"]),),
        ),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp(
                (p["p"] + p["q"] - 1.0) * np.log(dlo)
                - (p["p"] / p["q"])
                * np.log(one_minus_pow(log_unit(x, dlo, dhi), p["q"]))
            )
        ),
        make_spec=lambda p: IntegralSpec(
            0.0, 1.0, p["p"] + p["q"] - 1.0, -p["p"] / p["q"]
        ),
        closed_form=lambda p: p["p"]
        * math.pi
        / (p["q"] ** 2 * math.sin(math.pi * p["p"] / p["q"])),
    ),
    IdentityRecord(
        id="3.251.9",
        group="E",
        citation="GR 3.251.9: int_0^1 x^(q/p-1)(1-x^q)^(-1/p) dx = (pi/q) cosec(pi/p)",
        domain=domain(
            real("p", 1.2, 5.0),
            real("q", 0.3, 3.0),
            rels=(Relation("q > 0.15 p", lambda r: r["q"] > 0.15 * r["p"]),),
        ),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp(
                (p["q"] / p["p"] - 1.0) * np.log(dlo)
                - (1.0 / p["p"])
                * np.log(one_minus_pow(log_unit(x, dlo, dhi), p["q"]))
            )
        ),
        make_spec=lambda p: IntegralSpec(
            0.0, 1.0, p["q"] / p["p"] - 1.0, -1.0 / p["p"]
        ),
        closed_form=lambda p: math.pi / (p["q"] * math.sin(math.pi / p["p"])),
    ),
    IdentityRecord(
        id="3.251.10",
        group="E",
        citation="GR 3.251.10: int_0^1 x^(p-1)(1-x^q)^(-p/q) dx = (pi/q) cosec(p pi/q)",
        domain=domain(
            real("p", 0.05, 2.0),
            real("q", 0.3, 3.0),
            rels=(Relation("p < 0.85 q", lambda r: r["p"] < 0.85 * r["q"]),),
        ),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp(
                (p["p"] - 1.0) * np.log(dlo)
                - (p["p"] / p["q"])
                * np.log(one_minus_pow(log_unit(x, dlo, dhi), p["q"]))
            )
        ),
        make_spec=lambda p: IntegralSpec(0.0, 1.0, p["p"] - 1.0, -p["p"] / p["q"]),
        closed_form=lambda p: math.pi
        / (p["q"] * math.sin(math.pi * p["p"] / p["q"])),
    ),
    IdentityRecord(
        id="3.251.11",
        group="E",
        citation="GR 3.251.11: int_0^inf t^(r-1)(1+u t^c)^-nu dt = B(r/c, nu-r/c)/(c u^(r/c))",
        domain=domain(
            real("r", 0.05, 4.0),
            real("c", 0.3, 3.0),
            real("u", 0.0, 3.0),
            real("nu", 0.3, 3.0),
            rels=(Relation("c nu - r > 0.2", lambda q: q["c"] * q["nu"] - q["r"] > 0.2),),
        ),
        make_integrand=lambda p: _power_denominator(
            p["r"], p["nu"], 0.0, _ln(p["u"]), p["c"]
        ),
        make_spec=lambda p: IntegralSpec(0.0, math.inf, p["r"] - 1.0),
        closed_form=lambda p: sf.beta(p["r"] / p["c"], p["nu"] - p["r"] / p["c"])
        / (p["c"] * p["u"] ** (p["r"] / p["c"])),
    ),
    IdentityRecord(
        id="eq-6.29",
        group="E",
        citation="root-denominator family: int_0^1 t^(cq-m)(1-t^q)^(-1/q) dt = B(c+(1-m)/q, 1-1/q)/q",
        domain=domain(
            real("q", 1.0, 4.0),
            real("c", 0.0, 3.0),
            integer("m", 0, 4),
            rels=(
                Relation(
                    "c + (1-m)/q > 0.1",
                    lambda r: r["c"] + (1.0 - r["m"]) / r["q"] > 0.1,
                ),
            ),
        ),
        make_integrand=lambda p: _root_family(p["c"] * p["q"] - p["m"], p["q"]),
        make_spec=lambda p: IntegralSpec(
            0.0, 1.0, p["c"] * p["q"] - p["m"], -1.0 / p["q"]
        ),
        closed_form=lambda p: sf.beta(
            p["c"] + (1.0 - p["m"]) / p["q"], 1.0 - 1.0 / p["q"]
        )
        / p["q"],
    ),
    IdentityRecord(
        id="3.248.2",
        group="E",
        citation="GR 3.248.2: int_0^1 t^(2n+1)/sqrt(1-t^2) dt = 2^(2n) n!^2/(2n+1)!",
        domain=domain(integer("n", 0, 6)),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: power(dlo, 2 * p["n"] + 1) / np.sqrt(dhi * (1.0 + x))
        ),
        make_spec=lambda p: IntegralSpec(0.0, 1.0, 2.0 * p["n"] + 1.0, -0.5),
        closed_form=lambda p: 2.0 ** (2 * p["n"])
        * math.factorial(p["n"]) ** 2
        / math.factorial(2 * p["n"] + 1),
    ),
    IdentityRecord(
        id="3.248.3",
        group="E",
        citation="GR 3.248.3: int_0^1 t^(2n)/sqrt(1-t^2) dt = (pi/2^(2n+1)) C(2n,n)",
        domain=domain(integer("n", 0, 6)),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: power(dlo, 2 * p["n"]) / np.sqrt(dhi * (1.0 + x))
        ),
        make_spec=lambda p: IntegralSpec(0.0, 1.0, 2.0 * p["n"], -0.5),
        closed_form=lambda p: math.pi
        / 2.0 ** (2 * p["n"] + 1)
        * math.comb(2 * p["n"], p["n"]),
    ),
    IdentityRecord(
        id="3.267.1",
        group="E",
        citation="GR 3.267.1: int_0^1 t^(3n)(1-t^3)^(-1/3) dt = (2pi/(3 sqrt(3))) Gamma(n+1/3)/(Gamma(1/3) Gamma(n+1))",
        domain=domain(integer("n", 0, 6)),
        make_integrand=lambda p: _root_family(3.0 * p["n"], 3.0),
        make_spec=lambda p: IntegralSpec(0.0, 1.0, 3.0 * p["n"], -1.0 / 3.0),
        closed_form=lambda p: 2.0
        * math.pi
        / (3.0 * math.sqrt(3.0))
        * sf.gamma(p["n"] + 1.0 / 3.0)
        / (sf.gamma(1.0 / 3.0) * sf.gamma(p["n"] + 1.0)),
    ),
    IdentityRecord(
        id="3.267.2",
        group="E",
        citation="GR 3.267.2: int_0^1 t^(3n-1)(1-t^3)^(-1/3) dt = (n-1)! Gamma(2/3)/(3 Gamma(n+2/3))",
        domain=domain(integer("n", 1, 6)),
        make_integrand=lambda p: _root_family(3.0 * p["n"] - 1.0, 3.0),
        make_spec=lambda p: IntegralSpec(0.0, 1.0, 3.0 * p["n"] - 1.0, -1.0 / 3.0),
        closed_form=lambda p: math.factorial(p["n"] - 1)
        * sf.gamma(2.0 / 3.0)
        / (3.0 * sf.gamma(p["n"] + 2.0 / 3.0)),
    ),
    IdentityRecord(
        id="3.267.3",
        group="E",
        citation="GR 3.267.3: int_0^1 t^(3n-2)(1-t^3)^(-1/3) dt = Gamma(n-1/3) Gamma(2/3)/(3 Gamma(n+1/3))",
        domain=domain(integer("n", 1, 6)),
        make_integrand=lambda p: _root_family(3.0 * p["n"] - 2.0, 3.0),
        make_spec=lambda p: IntegralSpec(0.0, 1.0, 3.0 * p["n"] - 2.0, -1.0 / 3.0),
        closed_form=lambda p: sf.gamma(p["n"] - 1.0 / 3.0)
        * sf.gamma(2.0 / 3.0)
        / (3.0 * sf.gamma(p["n"] + 1.0 / 3.0)),
    ),
]

ENTRIES = GROUP_E
