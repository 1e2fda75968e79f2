"""Catalog groups C and D: half-line beta forms, the scaled Cauchy
principal-value family, partial-fraction products, and the direct
half-line evaluations."""

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
    fold_exp_kernel,
    fold_power_shifted,
    fold_product_one_pole,
    fold_product_two_pole,
    per_row,
    power,
    real,
    softplus,
)


def _halfline_beta(a, total):
    """t^(a-1) (1+t)^(-total) on [0, inf)."""

    def f(x, dlo, dhi):
        return np.exp((a - 1.0) * np.log(dlo) - total * np.log1p(x))

    return f


def _integrand_exp_pole(mu, c):
    """e^(-mu t)/(e^(-t)+c) with c < 0, stable and sign-aware away from the
    pole at t0 = -ln(-c)."""
    log_mc = per_row(lambda c: math.log(-c), c)
    t0 = -log_mc

    def f(x, dlo, dhi):
        # e^-x < -c: denominator = c(1 - e^-(x-t0)) < 0
        above = -np.exp(-mu * x - log_mc - np.log(-np.expm1(-(x - t0))))
        # e^-x > -c: denominator = e^-x (1 - e^(x-t0)) > 0
        below = np.exp(-mu * x - log_mc + (x - t0) - np.log(-np.expm1(x - t0)))
        return np.where(x > t0, above, below)

    return f


def _integrand_3313_1(p):
    mu = p["mu"]

    def f(x, dlo, dhi):
        above = np.exp(-mu * x - np.log(-np.expm1(-x)))
        below = -np.exp((1.0 - mu) * x - np.log1p(-np.exp(x)))
        return np.where(x > 0, above, below)

    return f


def _folds_3313_1(p):
    # 1 - e^-t = -(e^-t + c) at c = -1, so the kernel fold flips sign
    base = fold_exp_kernel(p["mu"], -1.0)
    return ((lambda u: -base(u)),)


def _integrand_3224(p):
    # full log form: a ratio with an (x+a)(x+c) denominator overflows near
    # x ~ 1e154 and silently zeroes a tail that still matters when 1-mu is
    # small
    mu, a, b, c = p["mu"], p["a"], p["b"], p["c"]

    def f(x, dlo, dhi):
        return np.exp(
            (mu - 1.0) * np.log(dlo) + np.log(x + b) - np.log(x + a) - np.log(x + c)
        )

    return f


def _closed_3224(p):
    mu, a, b, c = p["mu"], p["a"], p["b"], p["c"]
    return (
        math.pi
        / math.sin(mu * math.pi)
        * ((a - b) / (a - c) * a ** (mu - 1.0) + (c - b) / (c - a) * c ** (mu - 1.0))
    )


GROUP_C = [
    IdentityRecord(
        id="eq-4.1",
        group="C",
        citation="beta half-line form: int_0^inf t^(a-1)(1+t)^-(a+b) dt = B(a,b)",
        domain=domain(real("a", 0.0, 3.0), real("b", 0.0, 3.0)),
        make_integrand=lambda p: _halfline_beta(p["a"], p["a"] + p["b"]),
        make_spec=lambda p: IntegralSpec(0.0, math.inf, p["a"] - 1.0),
        closed_form=lambda p: sf.beta(p["a"], p["b"]),
    ),
    IdentityRecord(
        id="3.194.3",
        group="C",
        citation="GR 3.194.3: int_0^inf x^(a-1)(1+cx)^-(a+b) dx = c^-a B(a,b)",
        domain=domain(real("a", 0.0, 3.0), real("b", 0.0, 3.0), real("c", 0.0, 4.0)),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp(
                (p["a"] - 1.0) * np.log(dlo) - (p["a"] + p["b"]) * np.log1p(p["c"] * x)
            )
        ),
        make_spec=lambda p: IntegralSpec(0.0, math.inf, p["a"] - 1.0),
        closed_form=lambda p: p["c"] ** -p["a"] * sf.beta(p["a"], p["b"]),
    ),
    IdentityRecord(
        id="eq-4.3",
        group="C",
        citation="Euler form: int_0^inf t^(a-1)/(1+t) dt = pi/sin(pi a)",
        domain=domain(real("a", 0.0, 1.0)),
        make_integrand=lambda p: _halfline_beta(p["a"], 1.0),
        make_spec=lambda p: IntegralSpec(0.0, math.inf, p["a"] - 1.0),
        closed_form=lambda p: math.pi / math.sin(math.pi * p["a"]),
    ),
    IdentityRecord(
        id="3.222.2",
        group="C",
        citation="GR 3.222.2: int_0^inf x^(a-1)/(x+c) dx = pi c^(a-1)/sin(pi a), c>0",
        domain=domain(real("a", 0.0, 1.0), real("c", 0.1, 3.0)),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: power(dlo, p["a"] - 1.0) / (x + p["c"])
        ),
        make_spec=lambda p: IntegralSpec(0.0, math.inf, p["a"] - 1.0),
        closed_form=lambda p: math.pi * p["c"] ** (p["a"] - 1.0) / math.sin(math.pi * p["a"]),
    ),
    IdentityRecord(
        id="eq-4.10",
        group="C",
        citation="PV form: int_0^inf x^(a-1)/(x+c) dx = -pi cot(pi a)(-c)^(a-1), c<0",
        domain=domain(real("a", 0.0, 1.0), real("c", -3.0, -0.2)),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: power(dlo, p["a"] - 1.0) / (x + p["c"])
        ),
        make_spec=lambda p: IntegralSpec(
            0.0, math.inf, p["a"] - 1.0, poles=(-p["c"],)
        ),
        make_folds=lambda p: (fold_power_shifted(p["a"], -p["c"]),),
        closed_form=lambda p: -math.pi
        * cot(math.pi * p["a"])
        * (-p["c"]) ** (p["a"] - 1.0),
        tolerance_class="principal_value",
    ),
    IdentityRecord(
        id="eq-4.11",
        group="C",
        citation="exponential PV form: int_R e^(-mu t)/(e^(-t)+c) dt = -pi cot(mu pi)(-c)^(mu-1), c<0",
        domain=domain(real("mu", 0.0, 1.0), real("c", -3.0, -0.2)),
        make_integrand=lambda p: _integrand_exp_pole(p["mu"], p["c"]),
        make_spec=lambda p: IntegralSpec(-math.inf, math.inf, poles=(per_row(lambda c: -math.log(-c), p["c"]),)),
        make_folds=lambda p: (fold_exp_kernel(p["mu"], p["c"]),),
        closed_form=lambda p: -math.pi
        * cot(p["mu"] * math.pi)
        * (-p["c"]) ** (p["mu"] - 1.0),
        tolerance_class="principal_value",
    ),
    IdentityRecord(
        id="3.313.1",
        group="C",
        citation="GR 3.313.1: int_R e^(-mu t)/(1-e^(-t)) dt = pi cot(mu pi)",
        domain=domain(real("mu", 0.0, 1.0)),
        make_integrand=_integrand_3313_1,
        make_spec=lambda p: IntegralSpec(-math.inf, math.inf, poles=(0.0,)),
        make_folds=_folds_3313_1,
        closed_form=lambda p: math.pi * cot(p["mu"] * math.pi),
        tolerance_class="principal_value",
    ),
    IdentityRecord(
        id="3.223.1",
        group="C",
        citation="GR 3.223.1: int_0^inf x^(mu-1)/((x+a)(x+b)) dx = pi (a^(mu-1)-b^(mu-1)) cosec(mu pi)/(b-a)",
        domain=domain(
            real("mu", 0.0, 2.0, exclude=(1.0,)),
            real("a", 0.0, 2.4),
            real("b", 0.6, 3.0),
            rels=(Relation("|a - b| > 0.2", lambda q: abs(q["a"] - q["b"]) > 0.2),),
        ),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp(
                (p["mu"] - 1.0) * np.log(dlo)
                - np.log(x + p["a"])
                - np.log(x + p["b"])
            )
        ),
        make_spec=lambda p: IntegralSpec(0.0, math.inf, p["mu"] - 1.0),
        closed_form=lambda p: math.pi
        / (p["b"] - p["a"])
        * (p["a"] ** (p["mu"] - 1.0) - p["b"] ** (p["mu"] - 1.0))
        / math.sin(math.pi * p["mu"]),
    ),
    IdentityRecord(
        id="3.223.2",
        group="C",
        citation="GR 3.223.2: PV int_0^inf x^(mu-1)/((b+x)(a-x)) dx = pi(b^(mu-1) cosec + a^(mu-1) cot)(mu pi)/(a+b)",
        domain=domain(
            real("mu", 0.0, 2.0, exclude=(1.0,)),
            real("a", 0.0, 3.0),
            real("b", 0.0, 3.0),
        ),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: power(dlo, p["mu"] - 1.0) / ((p["b"] + x) * (p["a"] - x))
        ),
        make_spec=lambda p: IntegralSpec(
            0.0, math.inf, p["mu"] - 1.0, poles=(p["a"],)
        ),
        make_folds=lambda p: (fold_product_one_pole(p["mu"], p["a"], p["b"]),),
        closed_form=lambda p: math.pi
        / (p["a"] + p["b"])
        * (
            p["b"] ** (p["mu"] - 1.0) / math.sin(p["mu"] * math.pi)
            + p["a"] ** (p["mu"] - 1.0) * cot(p["mu"] * math.pi)
        ),
        tolerance_class="principal_value",
    ),
    IdentityRecord(
        id="3.223.3",
        group="C",
        citation="GR 3.223.3: PV int_0^inf x^(mu-1)/((a-x)(b-x)) dx = pi cot(mu pi)(a^(mu-1)-b^(mu-1))/(b-a)",
        domain=domain(
            real("mu", 0.0, 2.0, exclude=(1.0,)),
            real("a", 0.0, 2.4),
            real("b", 0.6, 3.0),
            rels=(Relation("|a - b| > 0.25", lambda q: abs(q["a"] - q["b"]) > 0.25),),
        ),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: power(dlo, p["mu"] - 1.0) / ((p["a"] - x) * (p["b"] - x))
        ),
        make_spec=lambda p: IntegralSpec(
            0.0, math.inf, p["mu"] - 1.0, poles=(p["a"], p["b"])
        ),
        make_folds=lambda p: tuple(
            fold_product_two_pole(p["mu"], s, o)
            for s, o in (
                (per_row(min, p["a"], p["b"]), per_row(max, p["a"], p["b"])),
                (per_row(max, p["a"], p["b"]), per_row(min, p["a"], p["b"])),
            )
        ),
        closed_form=lambda p: math.pi
        * cot(p["mu"] * math.pi)
        * (p["a"] ** (p["mu"] - 1.0) - p["b"] ** (p["mu"] - 1.0))
        / (p["b"] - p["a"]),
        tolerance_class="principal_value",
    ),
    IdentityRecord(
        id="3.224",
        group="C",
        citation="GR 3.224: int_0^inf (x+b)x^(mu-1)/((x+a)(x+c)) dx, partial fractions of 3.222.2",
        domain=domain(
            real("mu", 0.0, 1.0),
            real("a", 0.0, 2.4),
            real("b", 0.0, 3.0),
            real("c", 0.6, 3.0),
            rels=(Relation("|a - c| > 0.2", lambda q: abs(q["a"] - q["c"]) > 0.2),),
        ),
        make_integrand=_integrand_3224,
        make_spec=lambda p: IntegralSpec(0.0, math.inf, p["mu"] - 1.0),
        closed_form=_closed_3224,
    ),
    IdentityRecord(
        id="3.216.1",
        group="C",
        citation="GR 3.216.1: int_0^1 (t^(a-1)+t^(b-1))(1+t)^-(a+b) dt = B(a,b)",
        domain=domain(real("a", 0.0, 3.0), real("b", 0.0, 3.0)),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: (power(dlo, p["a"] - 1.0) + power(dlo, p["b"] - 1.0))
            * power(1.0 + x, -(p["a"] + p["b"]))
        ),
        make_spec=lambda p: IntegralSpec(0.0, 1.0, np.minimum(p["a"], p["b"]) - 1.0, 0.0),
        closed_form=lambda p: sf.beta(p["a"], p["b"]),
    ),
    IdentityRecord(
        id="3.216.2",
        group="C",
        citation="GR 3.216.2: int_1^inf (s^(a-1)+s^(b-1))(1+s)^-(a+b) ds = B(a,b)",
        domain=domain(real("a", 0.0, 3.0), real("b", 0.0, 3.0)),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: (
                np.exp((p["a"] - 1.0) * np.log(x) - (p["a"] + p["b"]) * np.log1p(x))
                + np.exp((p["b"] - 1.0) * np.log(x) - (p["a"] + p["b"]) * np.log1p(x))
            )
        ),
        make_spec=lambda p: IntegralSpec(1.0, math.inf),
        closed_form=lambda p: sf.beta(p["a"], p["b"]),
    ),
    IdentityRecord(
        id="3.194.4",
        group="C",
        citation="GR 3.194.4: int_0^inf t^(a-1)(1+ut)^-(p+1) dt = u^-a B(a, p+1-a)",
        domain=domain(
            real("a", 0.0, 3.0),
            real("p", 0.0, 3.0),
            real("u", 0.0, 3.0),
            rels=(Relation("p + 1 - a > 0.2", lambda q: q["p"] + 1.0 - q["a"] > 0.2),),
        ),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp(
                (p["a"] - 1.0) * np.log(dlo) - (p["p"] + 1.0) * np.log1p(p["u"] * x)
            )
        ),
        make_spec=lambda p: IntegralSpec(0.0, math.inf, p["a"] - 1.0),
        closed_form=lambda p: p["u"] ** -p["a"] * sf.beta(p["a"], p["p"] + 1.0 - p["a"]),
    ),
    IdentityRecord(
        id="3.196.2",
        group="C",
        citation="GR 3.196.2: int_u^inf (t-u)^(a-1)(t+v)^-(a+b) dt = (u+v)^-b B(a,b)",
        domain=domain(
            real("a", 0.0, 3.0), real("b", 0.0, 3.0), real("u", 0.1, 2.0), real("v", 0.1, 2.0)
        ),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp(
                (p["a"] - 1.0) * np.log(dlo) - (p["a"] + p["b"]) * np.log(x + p["v"])
            )
        ),
        make_spec=lambda p: IntegralSpec(p["u"], math.inf, p["a"] - 1.0),
        closed_form=lambda p: (p["u"] + p["v"]) ** -p["b"] * sf.beta(p["a"], p["b"]),
    ),
    IdentityRecord(
        id="3.191.2",
        group="C",
        citation="GR 3.191.2: int_u^inf (t-u)^(a-1) t^-c dt = u^(a-c) B(a, c-a)",
        domain=domain(
            real("a", 0.0, 3.0),
            real("c", 0.0, 4.0),
            real("u", 0.0, 3.0),
            rels=(Relation("c - a > 0.2", lambda q: q["c"] - q["a"] > 0.2),),
        ),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp((p["a"] - 1.0) * np.log(dlo) - p["c"] * np.log(x))
        ),
        make_spec=lambda p: IntegralSpec(p["u"], math.inf, p["a"] - 1.0),
        closed_form=lambda p: p["u"] ** (p["a"] - p["c"]) * sf.beta(p["a"], p["c"] - p["a"]),
    ),
    IdentityRecord(
        id="eq-4.19",
        group="C",
        citation="power form: int_0^inf x^(ac-1)(1+x^c)^-(a+b) dx = B(a,b)/c",
        domain=domain(
            real("a", 0.0, 2.0),
            real("b", 0.0, 2.0),
            real("c", 0.3, 3.0),
            rels=(
                Relation("a*c > 0.1", lambda q: q["a"] * q["c"] > 0.1),
                Relation("b*c > 0.1", lambda q: q["b"] * q["c"] > 0.1),
            ),
        ),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp(
                (p["a"] * p["c"] - 1.0) * np.log(dlo)
                - (p["a"] + p["b"]) * softplus(p["c"] * np.log(dlo))
            )
        ),
        make_spec=lambda p: IntegralSpec(0.0, math.inf, p["a"] * p["c"] - 1.0),
        closed_form=lambda p: sf.beta(p["a"], p["b"]) / p["c"],
    ),
    IdentityRecord(
        id="3.251.6",
        group="C",
        citation="GR 3.251.6: int_0^inf x^(mu+1)(1+x^2)^-2 dx = mu pi/(4 sin(mu pi/2))",
        domain=domain(real("mu", -2.0, 2.0, exclude=(0.0,))),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp(
                (p["mu"] + 1.0) * np.log(dlo) - 2.0 * softplus(2.0 * np.log(dlo))
            )
        ),
        make_spec=lambda p: IntegralSpec(0.0, math.inf, p["mu"] + 1.0),
        closed_form=lambda p: p["mu"] * math.pi / (4.0 * math.sin(p["mu"] * math.pi / 2.0)),
    ),
    IdentityRecord(
        id="3.241.2",
        group="C",
        citation="GR 3.241.2: int_0^inf x^(p-1)/(1+x^c) dx = (pi/c) cosec(pi p/c)",
        domain=domain(
            real("p", 0.1, 3.0),
            real("c", 0.5, 4.0),
            rels=(Relation("c - p > 0.25", lambda q: q["c"] - q["p"] > 0.25),),
        ),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp(
                (p["p"] - 1.0) * np.log(dlo) - softplus(p["c"] * np.log(dlo))
            )
        ),
        make_spec=lambda p: IntegralSpec(0.0, math.inf, p["p"] - 1.0),
        closed_form=lambda p: math.pi / p["c"] / math.sin(math.pi * p["p"] / p["c"]),
    ),
    IdentityRecord(
        id="3.196.4",
        group="C",
        citation="GR 3.196.4: int_1^inf dx/((a-bx)(x-1)^nu) = -(pi/b) cosec(nu pi)(b/(b-a))^nu",
        domain=domain(
            real("nu", 0.0, 1.0),
            real("a", 0.0, 2.4),
            real("b", 0.6, 3.0),
            rels=(Relation("b - a > 0.2", lambda q: q["b"] - q["a"] > 0.2),),
        ),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: power(dlo, -p["nu"]) / (p["a"] - p["b"] * x)
        ),
        make_spec=lambda p: IntegralSpec(1.0, math.inf, -p["nu"]),
        closed_form=lambda p: -math.pi
        / p["b"]
        / math.sin(p["nu"] * math.pi)
        * (p["b"] / (p["b"] - p["a"])) ** p["nu"],
    ),
    IdentityRecord(
        id="3.196.5",
        group="C",
        citation="GR 3.196.5: int_-inf^1 dx/((a-bx)(1-x)^nu) = (pi/b) cosec(nu pi)(b/(a-b))^nu",
        domain=domain(
            real("nu", 0.0, 1.0),
            real("a", 0.6, 3.0),
            real("b", 0.0, 2.4),
            rels=(Relation("a - b > 0.2", lambda q: q["a"] - q["b"] > 0.2),),
        ),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: power(dhi, -p["nu"]) / (p["a"] - p["b"] * x)
        ),
        make_spec=lambda p: IntegralSpec(-math.inf, 1.0, 0.0, -p["nu"]),
        closed_form=lambda p: math.pi
        / p["b"]
        / math.sin(p["nu"] * math.pi)
        * (p["b"] / (p["a"] - p["b"])) ** p["nu"],
    ),
]


GROUP_D = [
    IdentityRecord(
        id="3.221.1",
        group="D",
        citation="GR 3.221.1: int_a^inf (x-a)^(p-1)/(x-b) dx = pi (a-b)^(p-1) cosec(pi p), a>b",
        domain=domain(
            real("p", 0.0, 1.0),
            real("a", -1.0, 2.0),
            real("b", -2.0, 1.5),
            rels=(Relation("a - b > 0.25", lambda q: q["a"] - q["b"] > 0.25),),
        ),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: power(dlo, p["p"] - 1.0) / (x - p["b"])
        ),
        make_spec=lambda p: IntegralSpec(p["a"], math.inf, p["p"] - 1.0),
        closed_form=lambda p: math.pi
        * (p["a"] - p["b"]) ** (p["p"] - 1.0)
        / math.sin(math.pi * p["p"]),
    ),
    IdentityRecord(
        id="3.221.2",
        group="D",
        citation="GR 3.221.2: int_-inf^a (a-x)^(p-1)/(x-b) dx = -pi (b-a)^(p-1) cosec(pi p), b>a",
        domain=domain(
            real("p", 0.0, 1.0),
            real("a", -1.0, 1.5),
            real("b", -0.5, 2.5),
            rels=(Relation("b - a > 0.25", lambda q: q["b"] - q["a"] > 0.25),),
        ),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: power(dhi, p["p"] - 1.0) / (x - p["b"])
        ),
        make_spec=lambda p: IntegralSpec(-math.inf, p["a"], 0.0, p["p"] - 1.0),
        closed_form=lambda p: -math.pi
        * (p["b"] - p["a"]) ** (p["p"] - 1.0)
        / math.sin(math.pi * p["p"]),
    ),
    IdentityRecord(
        id="eq-5.3",
        group="D",
        citation="direct form: int_0^inf x^a (1+x)^-b dx = B(a+1, b-a-1)",
        domain=domain(
            real("a", -0.5, 2.0),
            real("b", 0.7, 4.0),
            rels=(Relation("b - a > 1.2", lambda q: q["b"] - q["a"] > 1.2),),
        ),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp(p["a"] * np.log(dlo) - p["b"] * np.log1p(x))
        ),
        make_spec=lambda p: IntegralSpec(0.0, math.inf, p["a"]),
        closed_form=lambda p: sf.beta(p["a"] + 1.0, p["b"] - p["a"] - 1.0),
    ),
    IdentityRecord(
        id="3.225.1",
        group="D",
        citation="GR 3.225.1: int_1^inf (t-1)^(p-1) t^-2 dt = pi (1-p)/sin(p pi)",
        domain=domain(real("p", 0.0, 2.0, exclude=(1.0,))),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp((p["p"] - 1.0) * np.log(dlo) - 2.0 * np.log(x))
        ),
        make_spec=lambda p: IntegralSpec(1.0, math.inf, p["p"] - 1.0),
        closed_form=lambda p: math.pi * (1.0 - p["p"]) / math.sin(p["p"] * math.pi),
    ),
    IdentityRecord(
        id="3.225.2",
        group="D",
        citation="GR 3.225.2: int_1^inf (t-1)^(1-p) t^-3 dt = pi p(1-p)/(2 sin(p pi))",
        domain=domain(real("p", 0.0, 2.0, exclude=(1.0,))),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp((1.0 - p["p"]) * np.log(dlo) - 3.0 * np.log(x))
        ),
        make_spec=lambda p: IntegralSpec(1.0, math.inf, 1.0 - p["p"]),
        closed_form=lambda p: math.pi
        * p["p"]
        * (1.0 - p["p"])
        / (2.0 * math.sin(p["p"] * math.pi)),
    ),
    IdentityRecord(
        id="3.225.3",
        group="D",
        citation="GR 3.225.3: int_0^inf x^p (1+x)^-3 dx = p(1-p) pi/(2 sin(p pi))",
        domain=domain(real("p", 0.0, 2.0, exclude=(1.0,))),
        make_integrand=lambda p: (
            lambda x, dlo, dhi: np.exp(p["p"] * np.log(dlo) - 3.0 * np.log1p(x))
        ),
        make_spec=lambda p: IntegralSpec(0.0, math.inf, p["p"]),
        closed_form=lambda p: p["p"]
        * (1.0 - p["p"])
        * math.pi
        / (2.0 * math.sin(p["p"] * math.pi)),
    ),
]

ENTRIES = GROUP_C + GROUP_D
