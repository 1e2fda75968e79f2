"""Double-exponential quadrature engines and a Gauss-Kronrod cross-check.

Engines
-------
integrate_finite     tanh-sinh on [lo, hi]; handles integrable endpoint
                     singularities (exponents > -1 on each side).
integrate_half_line  exp-sinh on [lo, inf) or (-inf, hi].
integrate_real_line  sinh-sinh on (-inf, inf); needs exponential decay.
integrate_pv         Cauchy principal value with 1 or 2 interior simple
                     poles: each pole gets a symmetric window integrated
                     as the folded sum f(s+u) + f(s-u); leftover pieces go
                     to the engines above.
oracle_integrate     adaptive 7/15 Gauss-Kronrod after an explicit
                     power-law substitution removing declared endpoint
                     singularities.  Deliberately shares no machinery with
                     the DE engines; used to cross-validate them.

Integrand contract
------------------
An integrand is a vectorized callable ``f(x, dlo, dhi) -> ndarray`` where
``dlo = x - lo`` and ``dhi = hi - x`` are exact distances to the domain
endpoints (``inf`` where an endpoint is infinite).  Abscissae are
generated in distance-from-endpoint form, so near-singular factors such as
``(1-x)**(b-1)`` must be written as ``dhi**(b-1)``: that is what keeps
exponents close to -1 from losing every significant digit.  Evaluation is
never requested with a zero distance.

An integrand must be elementwise.  Each engine makes one call for levels
0..MIN_LEVEL and one per later level, so a single array mixes nodes from
several levels, from both sides of the domain and the centre node.  No
reduction over ``x``, and nothing that depends on an element's position
or on the array's length, is allowed.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "IntegralSpec",
    "QuadratureResult",
    "QuadratureError",
    "EvaluationError",
    "PoleWindowError",
    "integrate_finite",
    "integrate_half_line",
    "integrate_real_line",
    "integrate_pv",
    "integrate",
    "oracle_integrate",
]

MAX_LEVEL = 12
MIN_LEVEL = 3
MAX_EVALUATIONS = 1_000_000
DEFAULT_TOL = 1e-10
# accept a stalled-but-small error estimate down at this relative level
ACCEPTED_TOL = 1e-8

_T_RANGE = 7.5          # node generation range in the DE parameter t
_TINY = 1e-305          # drop nodes once weights/distances underflow here
_HUGE = 1e305
_FOLD_CLAMP = 1e-100    # PV fold arguments are clamped away from 0


class QuadratureError(Exception):
    """Base class for engine failures."""


class EvaluationError(QuadratureError):
    """An integrand returned a non-finite value away from its singularities."""


class PoleWindowError(QuadratureError):
    """No symmetric window fits around a declared principal-value pole."""


@dataclass(frozen=True)
class IntegralSpec:
    """Domain, endpoint singularity exponents and interior pole locations.

    ``alpha_lo``/``alpha_hi`` describe power-law behaviour of the integrand
    near the corresponding finite endpoint; both must exceed -1 for the
    integral to exist.  Poles listed in ``poles`` are simple and trigger
    principal-value treatment.
    """

    kind: str  # "finite" | "half_line_up" | "half_line_down" | "real_line"
    lo: float | None = None
    hi: float | None = None
    alpha_lo: float = 0.0
    alpha_hi: float = 0.0
    poles: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("finite", "half_line_up", "half_line_down", "real_line"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.alpha_lo <= -1.0 or self.alpha_hi <= -1.0:
            raise ValueError("endpoint exponents must exceed -1 for integrability")
        if self.kind == "finite":
            if self.lo is None or self.hi is None or not self.lo < self.hi:
                raise ValueError("finite domain requires lo < hi")
        elif self.kind == "half_line_up" and self.lo is None:
            raise ValueError("half_line_up requires a finite lower endpoint")
        elif self.kind == "half_line_down" and self.hi is None:
            raise ValueError("half_line_down requires a finite upper endpoint")
        lo = self.lo if self.lo is not None else -math.inf
        hi = self.hi if self.hi is not None else math.inf
        if len(set(self.poles)) != len(self.poles):
            raise ValueError("interior poles must be pairwise distinct")
        for s in self.poles:
            if not lo < s < hi:
                raise ValueError(f"pole {s!r} is not strictly inside ({lo}, {hi})")
        object.__setattr__(self, "poles", tuple(sorted(self.poles)))

    # convenience constructors -------------------------------------------
    @classmethod
    def finite(cls, lo, hi, alpha_lo=0.0, alpha_hi=0.0, poles=()):
        return cls("finite", lo, hi, alpha_lo, alpha_hi, tuple(poles))

    @classmethod
    def half_line_up(cls, lo, alpha_lo=0.0, poles=()):
        return cls("half_line_up", lo, None, alpha_lo, 0.0, tuple(poles))

    @classmethod
    def half_line_down(cls, hi, alpha_hi=0.0, poles=()):
        return cls("half_line_down", None, hi, 0.0, alpha_hi, tuple(poles))

    @classmethod
    def real_line(cls, poles=()):
        return cls("real_line", None, None, 0.0, 0.0, tuple(poles))


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    status: str  # converged | max_level | diverging | max_evals
    level_errors: tuple[float, ...] = field(default=(), repr=False)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


# --------------------------------------------------------------------------
# node tables: one cache keyed by transform and level range
# --------------------------------------------------------------------------

def _level_t(level):
    """DE parameters t > 0 that are new at this level (all of them at 0)."""
    h = 0.5 ** level
    step = 1 if level == 0 else 2
    return np.arange(1, int(_T_RANGE / h) + 1, step) * h


def _ts_level(t):
    """tanh-sinh reference nodes, shared by both sides of the interval.

    phi is the interval fraction to the *near* endpoint, computed from
    exp(-2u) so it stays exact down to underflow; x'(t) = L *
    pi*cosh(t)*phi*(1-phi).
    """
    u = 0.5 * math.pi * np.sinh(t)
    e = np.exp(-2.0 * u)
    phi = e / (1.0 + e)
    wref = math.pi * np.cosh(t) * phi * (1.0 - phi)
    keep = (phi > _TINY) & (wref > _TINY)
    side = (phi[keep], wref[keep])
    return side, side


def _es_level(t):
    """exp-sinh distances d = exp((pi/2) sinh t) and weights w = d', for +t and -t."""
    sides = []
    with np.errstate(over="ignore", under="ignore"):
        for sign in (1.0, -1.0):
            st = sign * t
            d = np.exp(0.5 * math.pi * np.sinh(st))
            w = 0.5 * math.pi * np.cosh(st) * d
            keep = (d > _TINY) & (d < _HUGE) & (w > _TINY) & (w < _HUGE)
            sides.append((d[keep], w[keep]))
    return tuple(sides)


def _ss_level(t):
    """sinh-sinh abscissae +x and -x with their shared weights."""
    u = 0.5 * math.pi * np.sinh(t)
    with np.errstate(over="ignore"):
        x = np.sinh(u)
        w = 0.5 * math.pi * np.cosh(t) * np.cosh(u)
    keep = (x < _HUGE) & (w < _HUGE)
    x, w = x[keep], w[keep]
    return (x, w), (-x, w)


# transform: (per-level builder, reference node of the level-0 centre t = 0)
_TRANSFORMS = {
    "tanh_sinh": (_ts_level, 0.5),
    "exp_sinh": (_es_level, 1.0),
    "sinh_sinh": (_ss_level, 0.0),
}


@dataclass(frozen=True)
class _Block:
    """Reference nodes of levels first..last, laid out for one integrand call.

    ``nodes`` holds side a of every level, then side b of every level from
    index ``split`` on, then, when ``centre`` is set (the block starts at
    level 0), the t = 0 node last.  ``levels`` has one (slice_a, w_a,
    slice_b, w_b) per level.
    """

    nodes: np.ndarray
    split: int
    levels: tuple
    centre: bool


_BLOCKS: dict[tuple[str, int, int], _Block] = {}


def _block(transform, first, last):
    key = (transform, first, last)
    blk = _BLOCKS.get(key)
    if blk is None:
        build, centre = _TRANSFORMS[transform]
        tables = [build(_level_t(level)) for level in range(first, last + 1)]
        split = sum(a.size for (a, _), _ in tables)
        levels = []
        ia, ib = 0, split
        for (a, wa), (b, wb) in tables:
            levels.append((slice(ia, ia + a.size), wa, slice(ib, ib + b.size), wb))
            ia += a.size
            ib += b.size
        nodes = [a for (a, _), _ in tables] + [b for _, (b, _) in tables]
        if first == 0:
            nodes.append(np.array([centre]))
        nodes = np.concatenate(nodes)
        nodes.setflags(write=False)  # engines may pass it to integrands as is
        blk = _Block(nodes, split, tuple(levels), first == 0)
        _BLOCKS[key] = blk
    return blk


def _call(f, x, dlo, dhi):
    with np.errstate(all="ignore"):
        out = np.asarray(f(x, dlo, dhi), dtype=float)
    bad = ~np.isfinite(out)
    if bad.any():
        where = np.asarray(x)[bad][:3]
        raise EvaluationError(f"integrand returned non-finite values near x={where}")
    return out


def _level_sums(blk, fv, centre_w, scale=1.0):
    """Per-level (sum, evaluations, edge) triples from one fused evaluation.

    Sides that share one weight table (tanh-sinh, sinh-sinh) sum as
    scale * w . (f_a + f_b); exp-sinh sides have their own weights and sum
    one dot product each.  The centre node, when present, joins level 0
    with weight ``centre_w``.
    """
    out = []
    for a, wa, b, wb in blk.levels:
        fa, fb = fv[a], fv[b]
        if wb is wa:
            s = float(np.dot(wa, fa + fb)) * scale
            edge = scale * wa[-1] * (abs(fa[-1]) + abs(fb[-1])) if wa.size else 0.0
        else:
            s = 0.0
            edge = 0.0
            for f_side, w in ((fa, wa), (fb, wb)):
                s += float(np.dot(w, f_side))
                if w.size:
                    edge = max(edge, w[-1] * abs(f_side[-1]))
        out.append([s, wa.size + wb.size, edge])
    if blk.centre:
        out[0][0] += centre_w * float(fv[-1])
        out[0][1] += 1
    return out


def _drive(level_sum, tol, max_level=MAX_LEVEL):
    """Shared level-doubling driver.

    ``level_sum(first, last)`` evaluates levels first..last in a single
    integrand call and returns, per level, (sum over that level's new nodes
    of w*f, evaluation count, magnitude of the outermost node
    contribution).  Levels 0..MIN_LEVEL are always all needed, so they come
    as one block; each later level is its own block, so a sequence that
    converges at level k never evaluates level k+1.  The trapezoid value at
    step h halves into the next level, so I_k = I_{k-1}/2 + h_k * S_k.

    A level sequence only counts as converged when the outermost kept node
    contributes negligibly: the node tables stop where weights or
    distances leave double-precision range, and an integrand that is still
    alive out there (a divergent tail or a non-integrable endpoint) would
    otherwise "converge" to a truncation artifact.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    def levels():
        yield from level_sum(0, min(MIN_LEVEL, max_level))
        for level in range(MIN_LEVEL + 1, max_level + 1):
            yield from level_sum(level, level)

    value = prev = None
    diff = math.inf
    evals = 0
    history = []
    grew = 0
    status = "max_level"
    edge = math.inf
    h = 1.0
    for level, (s, n, edge) in enumerate(levels()):
        evals += n
        h = 0.5 ** level
        value = h * s if level == 0 else 0.5 * prev + h * s
        if prev is not None:
            new_diff = abs(value - prev)
            history.append(new_diff)
            limit = tol * max(1.0, abs(value))
            if level >= MIN_LEVEL and new_diff <= limit:
                if h * edge > 10.0 * limit:
                    return QuadratureResult(
                        value, max(new_diff, h * edge), evals, "diverging", tuple(history),
                    )
                return QuadratureResult(value, new_diff, evals, "converged", tuple(history))
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
        if evals > MAX_EVALUATIONS:
            status = "max_evals"
            break
    if status == "max_level" and h * edge > 10.0 * tol * max(1.0, abs(value)):
        status = "diverging"
    return QuadratureResult(value, diff, evals, status, tuple(history))


# --------------------------------------------------------------------------
# public engines
# --------------------------------------------------------------------------

def integrate_finite(f, spec: IntegralSpec, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """tanh-sinh on a finite interval with optional endpoint singularities."""
    if spec.kind != "finite":
        raise ValueError("integrate_finite requires a finite-domain spec")
    if spec.poles:
        raise ValueError("interior poles require integrate_pv")
    lo, hi = spec.lo, spec.hi
    L = hi - lo

    def level_sum(first, last):
        # side a crowds the upper end, side b (and the midpoint) the lower
        blk = _block("tanh_sinh", first, last)
        near = L * blk.nodes
        far = L * (1.0 - blk.nodes)
        m = blk.split
        fv = _call(
            f,
            np.concatenate((hi - near[:m], lo + near[m:])),
            np.concatenate((far[:m], near[m:])),
            np.concatenate((near[:m], far[m:])),
        )
        return _level_sums(blk, fv, (math.pi / 4.0) * L, L)

    return _drive(level_sum, tol)


def integrate_half_line(f, spec: IntegralSpec, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """exp-sinh on [lo, inf) or (-inf, hi]."""
    if spec.kind not in ("half_line_up", "half_line_down"):
        raise ValueError("integrate_half_line requires a half-line spec")
    if spec.poles:
        raise ValueError("interior poles require integrate_pv")
    up = spec.kind == "half_line_up"
    anchor = spec.lo if up else spec.hi

    def level_sum(first, last):
        blk = _block("exp_sinh", first, last)
        d = blk.nodes
        infs = np.full_like(d, math.inf)
        fv = _call(f, anchor + d, d, infs) if up else _call(f, anchor - d, infs, d)
        return _level_sums(blk, fv, 0.5 * math.pi)

    return _drive(level_sum, tol)


def integrate_real_line(f, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """sinh-sinh over the whole real line (exponentially decaying integrands)."""

    def level_sum(first, last):
        blk = _block("sinh_sinh", first, last)
        infs = np.full_like(blk.nodes, math.inf)
        return _level_sums(blk, _call(f, blk.nodes, infs, infs), 0.5 * math.pi)

    return _drive(level_sum, tol)


def _distances(x, lo, hi):
    """Distances x - lo and hi - x to the domain endpoints; an infinite
    endpoint gives inf without special handling."""
    return x - lo, hi - x


def _naive_fold(f, s, lo, hi):
    """Paired evaluation u -> f(s+u) + f(s-u) for integrands without an
    analytic fold.  Reconstructing the pole offset from s+u costs ~eps*s/u
    of cancellation noise, so evaluation is clamped at a modest depth; the
    catalog supplies exact folds where the principal-value tolerances are
    tight."""

    def fold(u):
        uc = np.maximum(u, 1e-7 * max(abs(s), 1.0))
        out = 0.0
        for x in (s + uc, s - uc):
            out = out + _call(f, x, *_distances(x, lo, hi))
        return out

    return fold


def _rebased(f, lo, hi, sub_lo, sub_hi):
    """Wrap f so sub-interval integration still reports distances measured
    from the original domain endpoints.  Where a sub-endpoint coincides
    with an original endpoint the engine-supplied exact distance is kept;
    elsewhere the integrand is smooth and a direct difference is fine."""
    keep_lo = sub_lo == lo
    keep_hi = sub_hi == hi

    def g(x, dlo, dhi):
        far_lo, far_hi = _distances(x, lo, hi)
        return f(x, dlo if keep_lo else far_lo, dhi if keep_hi else far_hi)

    return g


def integrate_pv(f, spec: IntegralSpec, tol: float = DEFAULT_TOL, folds=None) -> QuadratureResult:
    """Cauchy principal value across 1 or 2 interior simple poles.

    Around each pole s a symmetric window (s-h, s+h) is integrated as
    int_0^h [f(s+u) + f(s-u)] du, where h is half the distance to the
    nearest other singularity or finite endpoint (1.0 against an infinite
    endpoint).  ``folds``, when given, maps each pole (in ascending order)
    to an exact folded integrand u -> f(s+u)+f(s-u); exact folds avoid the
    cancellation floor of the default pairing.  Remaining sub-intervals are
    delegated to the plain engines; estimates and evaluation counts add up.
    """
    if not spec.poles:
        raise ValueError("integrate_pv requires at least one declared pole")
    if len(spec.poles) > 2:
        raise ValueError("at most two interior poles are supported")
    poles = list(spec.poles)
    if folds is not None and len(folds) != len(poles):
        raise ValueError("folds must align with spec.poles")

    lo = spec.lo if spec.lo is not None else -math.inf
    hi = spec.hi if spec.hi is not None else math.inf

    windows = []
    for i, s in enumerate(poles):
        gaps = []
        if math.isfinite(lo):
            gaps.append(s - lo)
        if math.isfinite(hi):
            gaps.append(hi - s)
        for j, other in enumerate(poles):
            if j != i:
                gaps.append(abs(other - s))
        h = 0.5 * min(gaps) if gaps else 1.0
        if not h > 0.0:
            raise PoleWindowError(f"no symmetric window fits around pole {s!r}")
        windows.append(h)

    piece_tol = tol / (2.0 * len(poles) + 1.0)
    total = 0.0
    err = 0.0
    evals = 0
    status = "converged"

    def absorb(res):
        nonlocal total, err, evals, status
        total += res.value
        err += res.error_estimate
        evals += res.evaluations
        if not res.converged:
            status = res.status

    # pole windows, integrated in the offset variable u on (0, h)
    for i, (s, h) in enumerate(zip(poles, windows)):
        fold = folds[i] if folds is not None else _naive_fold(f, s, lo, hi)

        def folded(x, dlo, dhi, _fold=fold, _h=h):
            return _fold(np.maximum(dlo, _FOLD_CLAMP * _h))

        absorb(integrate_finite(folded, IntegralSpec.finite(0.0, h), piece_tol))

    # leftover sub-intervals between [lo, hi] minus the windows
    cuts = [lo]
    for s, h in zip(poles, windows):
        cuts.extend((s - h, s + h))
    cuts.append(hi)
    for k in range(0, len(cuts), 2):
        a, b = cuts[k], cuts[k + 1]
        if b <= a + 1e-14 * max(1.0, abs(a)):
            continue
        # every piece touches a window, so at most one of its ends is infinite
        kind = "half_line_down" if math.isinf(a) else "half_line_up" if math.isinf(b) else "finite"
        sub = IntegralSpec(
            kind,
            a if math.isfinite(a) else None,
            b if math.isfinite(b) else None,
            spec.alpha_lo if a == lo else 0.0,
            spec.alpha_hi if b == hi else 0.0,
        )
        absorb(integrate(_rebased(f, lo, hi, a, b), sub, piece_tol))

    return QuadratureResult(total, err, evals, status)


def integrate(f, spec: IntegralSpec, tol: float = DEFAULT_TOL, folds=None) -> QuadratureResult:
    """Dispatch to the engine matching the spec."""
    if spec.poles:
        return integrate_pv(f, spec, tol, folds=folds)
    if spec.kind == "finite":
        return integrate_finite(f, spec, tol)
    if spec.kind in ("half_line_up", "half_line_down"):
        return integrate_half_line(f, spec, tol)
    return integrate_real_line(f, tol)


# --------------------------------------------------------------------------
# independent oracle: adaptive Gauss-Kronrod 7/15
# --------------------------------------------------------------------------

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

    if spec.kind == "finite":
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

    if spec.kind in ("half_line_up", "half_line_down"):
        up = spec.kind == "half_line_up"
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
