"""Catalog record types and numerics helpers shared by the entry tables.

An entry's domain is written ``domain(real(...), integer(...),
rels=(Relation(text, holds), ...))``, at the default 5% margin, and its
spec ``IntegralSpec(lo, hi, alpha_lo, alpha_hi, poles)``, with
``math.inf`` for an infinite end.

The numerics helpers exist so entry integrands stay exact near the places
that matter: ``one_minus_pow`` keeps ``1 - x**q`` alive next to x = 1,
``softplus``/``logaddexp`` keep exponential and power denominators from
overflowing, and the ``fold_*`` builders produce analytically folded
window integrands f(s+u) + f(s-u) for the principal-value entries (the
naive pairing loses too many digits against the PV tolerances).

Spec, integrand and fold factories must take their parameters either as
plain numbers (one sample) or as (rows x 1) columns (all samples of an
entry in one batch: one IntegralSpec of columns), and must give each row
bit for bit what its lone sample gets.  ``verify`` only ever passes
columns: there is no per-sample fallback, so a factory that rejects
columns makes every sample of its entry a sample_error.
Two helpers keep that true: ``per_row`` computes values that depend on
the parameters alone with the ``math`` functions, row by row, and
``power`` raises to a parameter exponent.  Elementwise numpy arithmetic
and ufuncs over (rows x nodes) arrays already agree with the 1-D case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..quad import IntegralSpec

RTOL_CLASSES = {
    "standard": 1e-8,
    "principal_value": 1e-6,
    "combined": 1e-7,
}


@dataclass(frozen=True)
class Param:
    name: str
    kind: str  # "real" | "integer"
    lo: float
    hi: float
    exclude: tuple[float, ...] = ()


@dataclass(frozen=True)
class Relation:
    """A strict constraint between parameters, e.g. 'b - a > 0.2'."""

    text: str
    holds: Callable[[dict], bool]


@dataclass(frozen=True)
class ParamDomain:
    params: tuple[Param, ...]
    relations: tuple[Relation, ...] = ()
    margin: float = 0.05
    # the draw plan, worked out once: per parameter (name, integer, a,
    # b - a, shrink, exclude), where [a, b] is the range a draw spans, the
    # margin-shrunk one for a real parameter
    plan: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        plan = []
        for p in self.params:
            if not p.lo < p.hi:
                raise ValueError(f"empty range for parameter {p.name!r}")
            shrink = self.margin * (p.hi - p.lo)
            integer = p.kind == "integer"
            if integer:
                a, b = int(p.lo), int(p.hi)
            else:
                a, b = p.lo + shrink, p.hi - shrink
                if not a < b:
                    raise ValueError(f"range of {p.name!r} empty after margin shrink")
            plan.append((p.name, integer, a, b - a, shrink, p.exclude))
        object.__setattr__(self, "plan", tuple(plan))


@dataclass(frozen=True)
class IdentityRecord:
    """One catalog identity: integrand, domain, closed form, tolerances."""

    id: str
    group: str  # A..J
    citation: str
    domain: ParamDomain
    make_integrand: Callable[[dict], Callable]
    make_spec: Callable[[dict], IntegralSpec]
    closed_form: Callable[[dict], float]
    tolerance_class: str = "standard"
    # analytic window folds for PV entries, ordered by ascending pole
    make_folds: Callable[[dict], tuple] | None = None
    # zero-valued identities compare on absolute error at this floor
    zero_atol: float | None = field(default=None)

    def __post_init__(self):
        if self.tolerance_class not in RTOL_CLASSES:
            raise ValueError(f"unknown tolerance class {self.tolerance_class!r}")

    @property
    def rtol(self) -> float:
        return RTOL_CLASSES[self.tolerance_class]


def real(name, lo, hi, exclude=()):
    return Param(name, "real", float(lo), float(hi), tuple(exclude))


def integer(name, lo, hi):
    return Param(name, "integer", float(lo), float(hi))


def domain(*params, rels=()):
    return ParamDomain(tuple(params), tuple(rels))


# --------------------------------------------------------------------------
# stable kernels
# --------------------------------------------------------------------------

SQRT_PI = math.sqrt(math.pi)

# numpy evaluates x ** e for a float e of -1, 0.5 or 2 with these ufuncs,
# which can differ from pow in the last bit
_POWER_SHORTCUTS = ((-1.0, np.reciprocal), (0.5, np.sqrt), (2.0, np.square))


def power(x, e):
    """x ** e for a parameter exponent: a number or a (rows x 1) column.

    A column runs ``pow`` on every row, so the rows whose exponent numpy
    would shortcut are recomputed by that shortcut: each row then equals
    its own ``x ** float(e)`` bit for bit.
    """
    out = x ** e
    if np.ndim(e):
        for special, op in _POWER_SHORTCUTS:
            rows = (e == special).ravel()
            if rows.any():
                out[rows] = op(np.broadcast_to(x, out.shape)[rows])
    return out


def per_row(fn, *args):
    """fn of plain numbers: applied directly to numbers, and row by row to
    (rows x 1) columns, whose results are stacked into a column.

    numpy's log and exp differ from ``math``'s in the last bit on some
    inputs, so values that depend on parameters alone go through here.
    """
    if not any(np.ndim(a) for a in args):
        return fn(*args)
    rows = zip(*(np.ravel(a).tolist() for a in np.broadcast_arrays(*args)))
    return np.array([fn(*row) for row in rows])[:, None]


def cot(t):
    """cot(t) for a scalar t."""
    return math.cos(t) / math.sin(t)


def softplus(y):
    """log(1 + e^y) without overflow on either side."""
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    pos = y > 0
    out[pos] = y[pos] + np.log1p(np.exp(-y[pos]))
    out[~pos] = np.log1p(np.exp(y[~pos]))
    return out


def logcosh(x):
    """log cosh(x), exact for large |x|."""
    ax = np.abs(x)
    return ax - math.log(2.0) + np.log1p(np.exp(-2.0 * ax))


def log_unit(x, dlo, dhi):
    """ln(x) on (0,1), exact at both ends.

    Below the midpoint ln(dlo) is exact; above it ln(x) = log1p(-dhi) is.
    Reconstructing ln(x) from the far distance alone loses all precision
    once x drops under machine epsilon (1-dhi rounds to zero), which is
    enough to corrupt subleading endpoint behaviour of products like
    x**(c-1) (1-x**a)**(b-1).
    """
    return np.where(x < 0.5, np.log(dlo), np.log1p(-dhi))


def neg_log_unit(x, dlo, dhi):
    """-ln(x) on (0,1), taking the stable branch near each endpoint."""
    return -log_unit(x, dlo, dhi)


def one_minus_pow(lx, q):
    """1 - x**q from a stable ln(x), exact both where x**q -> 1 and -> 0."""
    return -np.expm1(q * lx)


# --------------------------------------------------------------------------
# analytic principal-value folds: u -> f(s+u) + f(s-u)
# --------------------------------------------------------------------------

def fold_power_shifted(a, s):
    """Fold of x^(a-1)/(x - s) about its pole (the x+c form with c = -s)."""

    def fold(u):
        delta = np.log1p(2.0 * u / (s - u))
        return power(s - u, a - 1.0) * np.expm1((a - 1.0) * delta) / u

    return fold


def fold_product_one_pole(mu, a, b):
    """Fold of x^(mu-1)/((b+x)(a-x)) about the pole at a."""
    B = a + b

    def fold(u):
        qp = (mu - 1.0) * np.log(a + u) - np.log(B + u)
        dq = (mu - 1.0) * np.log1p(-2.0 * u / (a + u)) - np.log1p(-2.0 * u / (B + u))
        return np.exp(qp) * np.expm1(dq) / u

    return fold


def fold_product_two_pole(mu, s, other):
    """Fold of x^(mu-1)/((a-x)(b-x)) about the pole s; `other` is the
    second root."""
    E = s - other
    sg = per_row(lambda e: 1.0 if e > 0 else -1.0, E)
    aE = abs(E)

    def fold(u):
        qp = (mu - 1.0) * np.log(s + u) - np.log(aE + sg * u)
        dq = (mu - 1.0) * np.log1p(-2.0 * u / (s + u)) - np.log1p(
            -2.0 * sg * u / (aE + sg * u)
        )
        return -(sg / u) * np.exp(qp) * np.expm1(dq)

    return fold


def fold_exp_kernel(mu, c):
    """Fold of e^(-mu t)/(e^(-t) + c), c < 0, about t = -ln(-c).

    The folded sum reduces to
        (-c)^(mu-1) * 4 sinh(u/2) sinh((mu-1/2)u) / (expm1(u) (-expm1(-u))),
    which vanishes identically at mu = 1/2 and never cancels.
    """
    pref = per_row(lambda c, mu: (-c) ** (mu - 1.0), c, mu)

    def fold(u):
        num = 4.0 * np.sinh(0.5 * u) * np.sinh((mu - 0.5) * u)
        den = np.expm1(u) * (-np.expm1(-u))
        return pref * num / den

    return fold
