"""Independent oracle: adaptive 7/15 Gauss-Kronrod.

``oracle_integrate`` removes declared endpoint singularities with an
explicit power-law substitution and maps infinite tails onto (0, 1), then
bisects adaptively.  It deliberately shares no machinery with the
double-exponential engines in ``betaquad.quad`` beyond the domain
description, and is used to cross-validate them; the package does not
import it.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .quad import EvaluationError, IntegralSpec

__all__ = ["oracle_integrate"]

# Kronrod abscissae (positive half) and weights; Gauss-7 weights sit on the
# odd-indexed Kronrod nodes.  Standard published constants.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
    0.586087235467691, 0.405845151377397, 0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
    0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469,
])

_GK_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))  # 15 ascending nodes
_GK_WK = np.concatenate((_WGK[:-1], _WGK[::-1]))
_GK_WG_FULL = np.zeros(15)
_GK_WG_FULL[1:15:2] = np.concatenate((_WG[:-1], _WG[::-1]))

_ORACLE_LIMIT = 4000


def _gk15(g, a, b):
    half = 0.5 * (b - a)
    x = a + half * (_GK_NODES + 1.0)
    with np.errstate(all="ignore"):
        fx = np.asarray(g(x), dtype=float)
    if not np.isfinite(fx).all():
        raise EvaluationError(f"oracle integrand non-finite inside ({a}, {b})")
    k = half * float(np.dot(_GK_WK, fx))
    gauss = half * float(np.dot(_GK_WG_FULL, fx))
    return k, abs(k - gauss)


def _adaptive_gk(g, a, b, tol):
    value, err = _gk15(g, a, b)
    heap = [(-err, 0, a, b, value, err)]
    counter = 1
    total = value
    total_err = err
    while total_err > tol * max(1.0, abs(total)) and len(heap) < _ORACLE_LIMIT:
        neg_err, _, ia, ib, iv, ie = heapq.heappop(heap)
        mid = 0.5 * (ia + ib)
        if mid <= ia or mid >= ib:  # interval exhausted at double precision
            heapq.heappush(heap, (0.0, counter, ia, ib, iv, ie))
            counter += 1
            continue
        lv, le = _gk15(g, ia, mid)
        rv, re = _gk15(g, mid, ib)
        total += lv + rv - iv
        total_err += le + re - ie
        heapq.heappush(heap, (-le, counter, ia, mid, lv, le))
        heapq.heappush(heap, (-re, counter + 1, mid, ib, rv, re))
        counter += 2
    return total, total_err


def oracle_integrate(f, spec: IntegralSpec, tol: float = 1e-10) -> float:
    """Adaptive Gauss-Kronrod estimate of the same integral.

    Only used to cross-check the double-exponential engines; principal
    values are out of scope here.
    """
    if spec.poles:
        raise ValueError("oracle_integrate does not handle principal values")

    if math.isfinite(spec.lo) and math.isfinite(spec.hi):
        lo, hi, mid = spec.lo, spec.hi, 0.5 * (spec.lo + spec.hi)
        span = hi - lo

        def g_left(y):
            p = 1.0 / (1.0 + spec.alpha_lo) if spec.alpha_lo < 0.0 else 1.0
            with np.errstate(all="ignore"):
                d = y ** p
            return f(lo + d, d, span - d) * p * y ** (p - 1.0)

        def g_right(y):
            q = 1.0 / (1.0 + spec.alpha_hi) if spec.alpha_hi < 0.0 else 1.0
            with np.errstate(all="ignore"):
                d = y ** q
            return f(hi - d, span - d, d) * q * y ** (q - 1.0)

        p = 1.0 / (1.0 + spec.alpha_lo) if spec.alpha_lo < 0.0 else 1.0
        q = 1.0 / (1.0 + spec.alpha_hi) if spec.alpha_hi < 0.0 else 1.0
        v1, _ = _adaptive_gk(g_left, 0.0, (mid - lo) ** (1.0 / p), 0.5 * tol)
        v2, _ = _adaptive_gk(g_right, 0.0, (hi - mid) ** (1.0 / q), 0.5 * tol)
        return v1 + v2

    if math.isfinite(spec.lo) or math.isfinite(spec.hi):
        up = math.isfinite(spec.lo)
        anchor = spec.lo if up else spec.hi
        alpha = spec.alpha_lo if up else spec.alpha_hi
        p = 1.0 / (1.0 + alpha) if alpha < 0.0 else 1.0
        inf = math.inf

        def f_at(d):
            if up:
                return f(anchor + d, d, np.full_like(d, inf))
            return f(anchor - d, np.full_like(d, inf), d)

        def g_near(y):
            with np.errstate(all="ignore"):
                d = y ** p
            return f_at(d) * p * y ** (p - 1.0)

        v1, _ = _adaptive_gk(g_near, 0.0, 1.0, 0.5 * tol)
        v2, _ = _adaptive_gk(_tail_transform(f_at), 0.0, 1.0, 0.5 * tol)
        return v1 + v2

    # real line: two half-lines split at the origin
    inf = math.inf

    def f_pos(d):
        return f(d, np.full_like(d, inf), np.full_like(d, inf))

    def f_neg(d):
        return f(-d, np.full_like(d, inf), np.full_like(d, inf))

    quarter = 0.25 * tol
    v = 0.0
    v += _adaptive_gk(lambda x: f_pos(x), 0.0, 1.0, quarter)[0]
    v += _adaptive_gk(_tail_transform(f_pos), 0.0, 1.0, quarter)[0]
    v += _adaptive_gk(lambda x: f_neg(x), 0.0, 1.0, quarter)[0]
    v += _adaptive_gk(_tail_transform(f_neg), 0.0, 1.0, quarter)[0]
    return v


def _tail_transform(f_at):
    """Map int_1^inf f(x) dx onto (0,1) for the oracle, preconditioned.

    The plain x = 1/s image of an algebraic tail x^-(1+delta) is
    s^(delta-1), and for small delta adaptive bisection both converges far
    too slowly and eventually underflows s*s.  Probing the decay exponent
    at two points and substituting s = tau^m with m ~ 1/delta flattens the
    transformed integrand; exponential tails probe to m = 1 and keep the
    plain map.
    """
    m = 1.0
    with np.errstate(all="ignore"):
        probe = np.abs(f_at(np.array([1e6, 1e8])))
    if np.isfinite(probe).all() and (probe > 0.0).all():
        slope = math.log(probe[1] / probe[0]) / math.log(100.0)
        delta = -slope - 1.0
        if 0.0 < delta < 1.0:
            m = min(1.0 / delta, 40.0)

    def g_tail(tau):
        with np.errstate(all="ignore"):
            d = tau ** -m
        ok = np.isfinite(d) & (d < 1e300)
        out = np.zeros_like(tau)
        if ok.any():
            dd = d[ok]
            # m * f(x) * d / tau  ==  f(1/s)/s^2 * ds/dtau at s = tau^m
            out[ok] = m * f_at(dd) * dd / tau[ok]
        return out

    return g_tail
