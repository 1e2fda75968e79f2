"""Double-exponential quadrature engines.

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
integrate_rows       many integrals of one integrand family at once, one
                     row each.  It is the core the engines above run on,
                     as its one-row case: the node table of a level is the
                     same for every row, so one integrand call evaluates a
                     level block for all rows still open.

An IntegralSpec, one for all rows of an ``integrate_rows`` call, is
validated when built.  Its ends alone say the domain's shape: -inf as
``lo`` or +inf as ``hi`` makes a half-line, both the real line.
``integrate_rows`` broadcasts its ends to (rows x 1) columns and its poles
to a (rows x poles) array; the driver reads nothing else.

``betaquad.oracle`` holds an independent Gauss-Kronrod integrator that
cross-validates these engines in the test suite.

Integrand contract
------------------
An integrand is a vectorized callable ``f(x, dlo, dhi) -> ndarray`` where
``dlo = x - lo`` and ``dhi = hi - x`` are exact distances to the domain
endpoints (``inf`` where an endpoint is infinite).  Abscissae are
generated in distance-from-endpoint form, so near-singular factors such as
``(1-x)**(b-1)`` must be written as ``dhi**(b-1)``: that is what keeps
exponents close to -1 from losing every significant digit.  Evaluation is
never requested with a zero distance.

An integrand must be elementwise, and it must broadcast.  Each engine
makes one call for levels 0..MIN_LEVEL and one per later level, so a
single array mixes nodes from several levels, from both sides of the
domain and the centre node.  The arguments are (rows x nodes) arrays, or
one row of nodes shared by all rows; under ``integrate_rows`` the
integrand's parameters are (rows x 1) columns, and its result must
broadcast to (rows x nodes).  No reduction over ``x``, and nothing that
depends on an element's position or on the arrays' shapes, is allowed.
The arguments may be read-only arrays shared between calls, and an
integrand must not modify them.
"""

from __future__ import annotations

import math
import numbers
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
    "integrate_rows",
]

MAX_LEVEL = 12
MIN_LEVEL = 3
DEFAULT_TOL = 1e-10

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


def _is_column(value):
    return isinstance(value, np.ndarray) and value.shape[1:] == (1,) and value.dtype.kind in "iuf"


def _real(value):
    """A spec field as a float or a float column, NaN if it is no real or column of reals."""
    if type(value) is float or _is_column(value):
        return value if type(value) is float else value.astype(float, copy=False)
    if not isinstance(value, numbers.Real) or isinstance(value, bool):  # not 0 or 1 here
        return math.nan
    try:
        return float(value)
    except OverflowError:  # an integer too large for a float
        return math.inf if value > 0 else -math.inf


def _infinite(end):
    """Whether a spec end is infinite: the spec stores such an end as a float."""
    return type(end) is float and math.isinf(end)


def _span(value):
    return (value, value) if type(value) is float else (value.min(), value.max())


@dataclass(frozen=True, slots=True)
class IntegralSpec:
    """Domain, endpoint singularity exponents and interior pole locations.

    The ends alone say the domain's shape: ``lo`` may be ``-math.inf`` and
    ``hi`` ``math.inf``, for a half-line or the real line, so
    ``IntegralSpec(0.0, math.inf, a - 1.0)`` is [0, inf) with exponent
    a - 1 at 0 and ``IntegralSpec(-math.inf, 1.0, 0.0, b)`` is (-inf, 1]
    with exponent b at 1.  An infinite end is stored as that float and
    takes a zero exponent; between finite ends, lo < hi and the width
    ``hi - lo`` must be finite.  ``alpha_lo``/``alpha_hi`` describe
    power-law behaviour of the integrand near the corresponding finite
    endpoint; both must be finite and exceed -1 for
    the integral to exist.  They are declarative: the engines do not read
    them, ``catalog.endpoint_slope_audit`` checks them against the
    integrand.  Poles, any iterable but a string, are simple, sorted in
    each row, and trigger principal-value treatment.  A bool or non-real
    field fails its check with that check's ValueError.  Each field may be
    a (rows x 1) column, all of one length but for one-row columns, and each
    row is checked, and named in a pole message, as its own spec would be:
    ends, exponents and width by their float extremes (NaN if any row is).
    An end is finite in every row or infinite in all, so the rows share
    their infinite sides.
    """

    lo: float | np.ndarray
    hi: float | np.ndarray
    alpha_lo: float | np.ndarray = 0.0
    alpha_hi: float | np.ndarray = 0.0
    poles: tuple = ()

    def __post_init__(self):
        if isinstance(self.poles, str) or not np.iterable(self.poles):
            raise ValueError("poles must be an iterable of interior poles")
        poles = tuple(self.poles)
        # NaN stands for no real number and fails every check
        lo, hi, alpha_lo, alpha_hi, *at = map(_real, (self.lo, self.hi, self.alpha_lo, self.alpha_hi, *poles))
        rows = {len(v) for v in (lo, hi, alpha_lo, alpha_hi, *at) if type(v) is not float}
        if 0 in rows or len(rows - {1}) > 1:
            raise ValueError("spec columns must have at least one row" if 0 in rows
                             else "spec columns must share one length")
        sides = [(_span(lo), _span(alpha_lo)), (_span(hi), _span(alpha_hi))]
        if not all(alpha_low > -1.0 for _, (alpha_low, _) in sides):
            raise ValueError("endpoint exponents must exceed -1 for integrability")
        if not all(alpha_high < math.inf for _, (_, alpha_high) in sides):
            raise ValueError("endpoint exponents must be finite")
        finite = True
        for attr, ((low, high), alpha), infinity in zip(("lo", "hi"), sides, (-math.inf, math.inf)):
            if low == high == infinity:
                if alpha != (0.0, 0.0):
                    raise ValueError(f"an infinite {attr} takes no exponent")
                object.__setattr__(self, attr, infinity)
                finite = False
            elif not -math.inf < low <= high < math.inf:
                raise ValueError(f"{attr} must be finite in every row or {infinity} in every row")
        with np.errstate(over="ignore"):
            low, high = _span(hi - lo)  # 0 or less unless lo < hi, inf with an infinite end
        if not low > 0.0:
            raise ValueError("finite domain requires lo < hi")
        if finite and not high < math.inf:
            raise ValueError("finite domain width hi - lo overflows")
        if poles:
            s = np.empty((max(rows, default=1), len(at)))  # (rows x poles)
            for k, p in enumerate(at):
                s[:, k:k + 1] = p
            ordered = np.sort(s, axis=1)  # NaN sorts last and equals nothing
            if (ordered[:, 1:] == ordered[:, :-1]).any():
                raise ValueError("interior poles must be pairwise distinct")
            outside = ~((lo < s) & (s < hi))
            if outside.any():  # name the first failing row's values
                r, k = np.unravel_index(outside.argmax(), outside.shape)
                v, lo, hi = (f[min(r, len(f) - 1), 0].item() if _is_column(f) else f
                             for f in (poles[k], self.lo, self.hi))
                raise ValueError(f"pole {v!r} is not strictly inside ({lo}, {hi})")
            poles = tuple(ordered.T[..., None]) if any(map(_is_column, poles)) else tuple(sorted(poles))
        object.__setattr__(self, "poles", poles)


@dataclass(frozen=True, slots=True)
class QuadratureResult:
    """One integral: its last level's ``value``, the integrand values it
    used (``evaluations``) and why its level loop stopped (``status``).

    Each level tests, in this order, with limit = tol * max(1, |value|):
    a non-finite value (an overflowing sum) is ``diverging`` with an inf
    ``error_estimate``; from MIN_LEVEL on, a level difference within the
    limit is ``converged``, or ``diverging`` with the larger of the two
    as estimate if the outermost kept nodes still add h * |w*f| > 10x
    the limit (the integrand is alive where the node table stops); from
    level 4 on, a difference that grew past the limit at two levels in a
    row is ``diverging``; at MAX_LEVEL, ``max_level``, or ``diverging`` if
    the outermost nodes fail the same 10x test.  Otherwise the estimate
    is the last level difference (inf at level 0).  ``level_errors``
    holds each level's difference to the one before: k of them when the
    loop stops at level k, k - 1 (none at 0) for a non-finite value.  A
    non-finite integrand value raises EvaluationError instead.  Running to
    MAX_LEVEL takes 49,993 evaluations (tanh-sinh), 55,634 (exp-sinh) or
    55,603 (sinh-sinh).  A principal value sums its pieces, takes the
    status of the last one that did not converge and has no
    ``level_errors``.
    """

    value: float
    error_estimate: float
    evaluations: int
    status: str  # converged | max_level | diverging
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
    """Levels first..last of one transform, laid out for one integrand call.

    The call array holds side a of every level, then side b of every level
    from index ``split`` on, then, when ``centre`` is set (the block starts
    at level 0), the t = 0 node last.  Everything a call needs is built
    once here, and each transform keeps only the arrays its engine uses:

    - tanh-sinh: ``unit``, whose rows are the distances to the lower and to
      the upper end in units of the interval length;
    - exp-sinh and sinh-sinh: ``nodes`` (distances from the anchor, or the
      abscissae) and ``inf``, the distance to an infinite end, a
      zero-stride view that takes no memory.

    These arrays are read-only, since the engines pass them to integrands
    as they are.  ``shared`` says that both sides of a level use one weight
    table; ``weights`` then holds side a's weights, which side b reuses,
    and ``starts`` the index where each level begins in it.  Otherwise
    ``weights`` covers the whole call array but the centre, and ``starts``
    holds side a's level starts, then side b's.  Per level, ``counts``
    holds the evaluation count (level 0 counts the centre).  Column k of
    ``ends`` holds the call-array indices of the outermost node of each
    side of level k, and the same column of ``end_w`` their weights.
    """

    split: int
    centre: bool
    shared: bool
    counts: tuple[int, ...]
    weights: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    end_w: np.ndarray
    nodes: np.ndarray | None = None
    unit: np.ndarray | None = None
    inf: np.ndarray | None = None


# (first, last) level of each block the driver evaluates in one call
_LEVEL_BLOCKS = ((0, MIN_LEVEL),) + tuple((k, k) for k in range(MIN_LEVEL + 1, MAX_LEVEL + 1))
_BLOCKS: dict[tuple[str, int, int], _Block] = {}


def _block(transform, first, last):
    key = (transform, first, last)
    blk = _BLOCKS.get(key)
    if blk is not None:
        return blk
    build, centre_node = _TRANSFORMS[transform]
    tables = [build(_level_t(level)) for level in range(first, last + 1)]
    split = sum(a.size for (a, _), _ in tables)
    centre = first == 0
    shared = all(wb is wa for (_, wa), (_, wb) in tables)
    counts, starts, ends, end_w = [], [], [], []
    ia, ib = 0, split
    # every level keeps its innermost t, so no side of a level is empty,
    # and no two level starts coincide
    for (a, wa), (b, wb) in tables:
        starts.append((ia, ib))
        ia += a.size
        ib += b.size
        counts.append(a.size + b.size)
        ends.append((ia - 1, ib - 1))
        end_w.append((wa[-1], wb[-1]))
    if centre:
        counts[0] += 1
    nodes = np.concatenate(
        [a for (a, _), _ in tables] + [b for _, (b, _) in tables]
        + ([np.array([centre_node])] if centre else [])
    )
    if transform == "tanh_sinh":
        far = 1.0 - nodes
        arrays = {"unit": np.stack((
            np.concatenate((far[:split], nodes[split:])),
            np.concatenate((nodes[:split], far[split:])),
        ))}
    else:
        arrays = {"nodes": nodes, "inf": np.broadcast_to(math.inf, nodes.shape)}
    # side a's level starts and weights, then side b's unless shared
    weights = [wa for (_, wa), _ in tables]
    starts = np.array(starts).T
    if shared:
        starts = starts[:1]
    else:
        weights += [wb for _, (_, wb) in tables]
    arrays["weights"] = np.concatenate(weights)
    arrays["starts"] = starts.ravel()
    arrays["ends"] = np.array(ends).T.copy()
    arrays["end_w"] = np.array(end_w).T.copy()
    for a in arrays.values():
        a.setflags(write=False)
    blk = _BLOCKS[key] = _Block(split, centre, shared, tuple(counts), **arrays)
    return blk


def _level_sums(blk, fv, scale, centre_w):
    """Per-row, per-level sums of w*f over each level's new nodes, and the
    magnitude of each level's outermost node contribution.

    ``fv`` holds one row of integrand values per integral.  The values are
    multiplied by the block's weight row and each level summed by one
    ``np.add.reduceat`` over its contiguous segment: the order of a sum
    depends only on its level's length, so a row sums alike whatever rows
    share its call, and no BLAS kernel or thread count is involved.  Sides
    that share one weight table (tanh-sinh, sinh-sinh) sum as scale *
    (w * (f_a + f_b)); exp-sinh sums each side's segment and adds the two.
    The centre node joins level 0 with weight ``centre_w``.  ``scale`` and
    ``centre_w`` are per-row columns or plain floats.
    """
    ends = np.abs(fv[:, blk.ends])
    n = blk.weights.size
    if blk.shared:
        g = fv[:, :n] + fv[:, n:2 * n]
        g *= blk.weights
        sums = np.add.reduceat(g, blk.starts, axis=1)
        sums *= scale
        edges = scale * blk.end_w[0] * (ends[:, 0] + ends[:, 1])
    else:
        part = np.add.reduceat(fv[:, :n] * blk.weights, blk.starts, axis=1)
        levels = len(blk.counts)
        sums = part[:, :levels] + part[:, levels:]
        edges = np.maximum(blk.end_w[0] * ends[:, 0], blk.end_w[1] * ends[:, 1])
    if blk.centre:
        sums[:, :1] += centre_w * fv[:, -1:]
    return sums, edges


def _non_finite_rows(results, rows, x, fv, sums):
    """Record an EvaluationError for each row whose integrand values are
    not all finite, and return the mask of the rows to keep (None when
    every row is kept).

    Every weight is positive and finite, so a non-finite value always makes
    its level sum non-finite: the elementwise scan for the error message
    runs only on such rows.  Finite values whose sum overflows pass.
    """
    finite = np.isfinite(sums)
    if finite.all():
        return None
    keep = finite.all(axis=1)
    x = np.broadcast_to(x, fv.shape)
    for j in np.flatnonzero(~keep).tolist():
        bad = ~np.isfinite(fv[j])
        if bad.any():
            where = x[j][bad][:3]
            results[rows[j]] = EvaluationError(f"integrand returned non-finite values near x={where}")
        else:
            keep[j] = True
    return keep


def _verdict(level, tol, value, diff, tail, met, spiral):
    """(status, error estimate, level_errors depth) of one row that stops
    at ``level``, in QuadratureResult's order.  ``tail`` is h * edge; a
    row that is not blown, met or spiralling stops at the last level."""
    if not math.isfinite(value):
        return "diverging", math.inf, max(level - 1, 0)
    # a value is only trusted where the truncated tails are negligible
    wild = tail > 10.0 * (tol * max(1.0, abs(value)))
    if met:
        if wild:
            return "diverging", max(diff, tail), level
        return "converged", diff, level
    if spiral:
        return "diverging", diff, level
    return ("diverging" if wild else "max_level"), diff, level


def _drive(make_f, lo, hi, tol):
    """Level-doubling driver for pole-free rows that share one node table;
    ``lo`` and ``hi`` are the rows' ends as (rows x 1) columns, +-inf on an
    infinite end, and ``_layout`` picks the transform from them.

    ``make_f(rows)`` gives the integrand of the open rows, whose
    parameters are (rows x 1) columns.  Levels 0..MIN_LEVEL are always all
    needed, so they come as one call; each later level is one call over
    the rows still open, so a row that converges at level k never
    evaluates level k+1.  The trapezoid value at step h halves into the
    next level, so I_k = I_{k-1}/2 + h_k * S_k, row by row.  Vectorised
    masks decide which rows stop at a level and ``_verdict`` why (see
    QuadratureResult), with the same arithmetic for each row as for a
    lone integral.  A row that stops, or whose integrand returned a
    non-finite value, leaves the open arrays at the end of its level block.

    Returns one QuadratureResult per row, or the EvaluationError of a row
    whose integrand returned a non-finite value.
    """
    transform, args = _layout(lo, hi)
    nrows = lo.shape[0]
    results = [None] * nrows
    # per open row, aligned with ``rows``: the level differences so far,
    # the last value (none before level 0), and whether the difference grew
    # at the last level; level 0's difference is inf, and no row is met or
    # spiralling before it is tested
    rows = np.arange(nrows)
    history = np.empty((nrows, MAX_LEVEL))
    prev = np.zeros(nrows)
    diff = np.full(nrows, math.inf)
    rising = np.zeros(nrows, dtype=bool)
    met = spiral = np.zeros(nrows, dtype=bool)
    evals = 0
    # every integrand call runs inside this loop, so one errstate covers them all
    with np.errstate(all="ignore"):
        for first, last in _LEVEL_BLOCKS:
            if not rows.size:
                break
            blk = _block(transform, first, last)
            x, dlo, dhi, scale, centre_w = args(blk, rows)
            fv = np.asarray(make_f(rows)(x, dlo, dhi), dtype=float)
            shape = (rows.size, np.shape(x)[-1])
            if fv.shape != shape:
                fv = np.broadcast_to(fv, shape)
            sums, edges = _level_sums(blk, fv, scale, centre_w)
            # the block's rows still open, or None while every row is
            keep = _non_finite_rows(results, rows, x, fv, sums)
            for k, n in enumerate(blk.counts):
                level = first + k
                evals += n
                h = 0.5 ** level
                value = h * sums[:, k]
                if level:
                    value += 0.5 * prev
                    diff = np.abs(value - prev)
                    history[:, level - 1] = diff
                stop = ~np.isfinite(value)
                if level >= MIN_LEVEL:
                    limit = tol * np.maximum(1.0, np.abs(value))
                    met = diff <= limit
                    stop |= met
                    if level >= 4:
                        # two levels in a row whose difference grew past the limit
                        up = (diff > history[:, level - 2]) & (diff > limit)
                        spiral = up & rising
                        rising = up
                        stop |= spiral
                if level == MAX_LEVEL:
                    stop[:] = True
                prev = value
                if keep is not None:
                    stop &= keep
                if stop.any():
                    done = np.flatnonzero(stop)
                    for r, v, d, tail, m, s, hist in zip(
                        rows[done].tolist(), value[done].tolist(), diff[done].tolist(),
                        (h * edges[done, k]).tolist(),
                        met[done].tolist(),
                        spiral[done].tolist(),
                        history[done, :level].tolist(),
                    ):
                        status, estimate, depth = _verdict(level, tol, v, d, tail, m, s)
                        results[r] = QuadratureResult(v, estimate, evals, status, tuple(hist[:depth]))
                    keep = ~stop if keep is None else keep & ~stop
            if keep is not None:
                rows, history, prev, rising = (a[keep] for a in (rows, history, prev, rising))
    return results


def _layout(lo, hi):
    """(transform, args) for pole-free rows with (rows x 1) end columns
    ``lo`` and ``hi``, which share their infinite sides: the first row's
    infinite ends pick sinh-sinh (both), tanh-sinh (neither) or exp-sinh
    anchored at the finite end.  ``args(blk, rows)`` gives the call arrays
    x, dlo, dhi of the open rows and each row's sum scale and centre weight."""
    down, up = math.isinf(lo[0, 0]), math.isinf(hi[0, 0])
    if down and up:
        return "sinh_sinh", lambda blk, rows: (blk.nodes, blk.inf, blk.inf, 1.0, 0.5 * math.pi)
    if not (down or up):
        width = hi - lo

        def finite_args(blk, rows):
            # side a crowds the upper end, side b (and the midpoint) the lower
            L = width[rows]
            dlo = L * blk.unit[0]
            dhi = L * blk.unit[1]
            x = lo[rows] + dlo
            np.subtract(hi[rows], dhi[:, :blk.split], out=x[:, :blk.split])
            return x, dlo, dhi, L, (math.pi / 4.0) * L

        return "tanh_sinh", finite_args
    anchor = lo if up else hi

    def half_line_args(blk, rows):
        d = blk.nodes
        if up:
            return anchor[rows] + d, d, blk.inf, 1.0, 0.5 * math.pi
        return anchor[rows] - d, blk.inf, d, 1.0, 0.5 * math.pi

    return "exp_sinh", half_line_args


def _one(results):
    """The result of a one-row run, raising the error that row hit."""
    (res,) = results
    if isinstance(res, Exception):
        raise res
    return res


# --------------------------------------------------------------------------
# public engines
# --------------------------------------------------------------------------

def integrate_rows(make_f, spec, nrows, tol: float = DEFAULT_TOL, make_folds=None) -> list:
    """Integrate ``nrows`` rows of one integrand family at once.

    ``spec`` holds for all rows: a number or one-row column for every row,
    a column of ``nrows`` for each row (another length raises ValueError);
    the driver reads only its ends and poles.  ``make_f(rows)`` returns the
    integrand of the rows indexed by the integer array ``rows``, with each
    parameter a (len(rows) x 1) column; ``make_folds(rows)``, when given,
    returns their PV window folds the same way, one per pole (any other
    count raises ValueError).  Each call evaluates one level block for every
    open row, and every row gets exactly the result it gets alone.

    Returns one QuadratureResult per row, or the QuadratureError that row
    raised.  An exception raised by an integrand itself propagates.
    """
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if len(spec.poles) > 2:
        raise ValueError("at most two interior poles are supported")
    ends = np.empty((nrows, 2 + len(spec.poles)))  # lo, hi, then the poles
    for k, value in enumerate((spec.lo, spec.hi, *spec.poles)):
        if isinstance(value, np.ndarray) and len(value) not in (1, nrows):
            raise ValueError(f"a spec column of {len(value)} rows does not fit {nrows} rows")
        ends[:, k:k + 1] = value
    if not nrows:
        return []
    lo, hi = ends[:, :1], ends[:, 1:2]
    if spec.poles:
        return _pv_rows(make_f, lo, hi, ends[:, 2:], tol, make_folds)
    return _drive(make_f, lo, hi, tol)


def integrate_finite(f, spec: IntegralSpec, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """tanh-sinh on a finite interval with optional endpoint singularities."""
    if _infinite(spec.lo) or _infinite(spec.hi):
        raise ValueError("integrate_finite requires a finite-domain spec")
    if spec.poles:
        raise ValueError("interior poles require integrate_pv")
    return _one(integrate_rows(lambda rows: f, spec, 1, tol))


def integrate_half_line(f, spec: IntegralSpec, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """exp-sinh on [lo, inf) or (-inf, hi]."""
    if _infinite(spec.lo) == _infinite(spec.hi):
        raise ValueError("integrate_half_line requires a half-line spec")
    if spec.poles:
        raise ValueError("interior poles require integrate_pv")
    return _one(integrate_rows(lambda rows: f, spec, 1, tol))


def integrate_real_line(f, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """sinh-sinh over the whole real line (exponentially decaying integrands)."""
    return _one(integrate_rows(lambda rows: f, IntegralSpec(-math.inf, math.inf), 1, tol))


def _naive_fold(f, s, lo, hi):
    """Paired evaluation u -> f(s+u) + f(s-u) for integrands without an
    analytic fold.  Reconstructing the pole offset from s+u costs ~eps*s/u
    of cancellation noise, so evaluation is clamped at a modest depth; the
    catalog supplies exact folds where the principal-value tolerances are
    tight.  A non-finite value on either side makes the fold non-finite,
    so ``_drive`` fails that row alone, naming the offset u.  ``s``, ``lo``
    and ``hi`` are per-row columns."""
    floor = 1e-7 * np.maximum(np.abs(s), 1.0)

    def fold(u):
        uc = np.maximum(u, floor)
        up, down = s + uc, s - uc
        return f(up, up - lo, hi - up) + f(down, down - lo, hi - down)

    return fold


def _rebased(f, lo, hi, keep_lo, keep_hi):
    """Wrap f so sub-interval integration still reports distances measured
    from the original domain endpoints.  Where a sub-endpoint coincides
    with an original endpoint (``keep_lo``/``keep_hi``) the engine-supplied
    exact distance is kept; elsewhere the integrand is smooth and a direct
    difference is fine."""

    def g(x, dlo, dhi):
        return f(x, dlo if keep_lo else x - lo, dhi if keep_hi else hi - x)

    return g


def integrate_pv(f, spec: IntegralSpec, tol: float = DEFAULT_TOL, folds=None) -> QuadratureResult:
    """Cauchy principal value across 1 or 2 interior simple poles.

    Around each pole s a symmetric window (s-h, s+h) is integrated as
    int_0^h [f(s+u) + f(s-u)] du, where h is half the distance to the
    nearest other singularity or finite endpoint (1.0 against an infinite
    endpoint).  ``folds``, when given, maps each pole (in ascending order)
    to an exact folded integrand u -> f(s+u)+f(s-u), one per pole; exact
    folds avoid the cancellation floor of the default pairing.  Remaining
    sub-intervals go to the plain engines; estimates and evaluation counts
    add up.  A pole around which no window fits (h rounds to 0, or h or a
    cut s - h, s + h overflows) raises PoleWindowError.
    """
    if not spec.poles:
        raise ValueError("integrate_pv requires at least one declared pole")
    make_folds = None if folds is None else (lambda rows: folds)
    return _one(integrate_rows(lambda rows: f, spec, 1, tol, make_folds))


def _pv_rows(make_f, lo, hi, pole, tol, make_folds):
    """``integrate_pv`` for many rows with the same pole count, from the
    rows' end columns and (rows x poles) ``pole`` array.  Each piece is one
    batch, from its own end columns, over the rows where it is not empty:
    first each pole's window, integrated in the offset u, then each
    leftover piece of [lo, hi]."""
    nrows, npoles = pole.shape
    # window half-widths: half the distance to the nearest other pole or
    # finite end, 1.0 where there is neither.  Piece j of what is left
    # runs from a[:, j] to b[:, j], between the cuts lo, s - h, s + h, ...,
    # hi.  A cut that overflows leaves no window; -inf + inf is NaN, so a
    # piece with an infinite end is not empty.
    with np.errstate(over="ignore", invalid="ignore"):
        if npoles == 1 and math.isinf(lo[0, 0]) and math.isinf(hi[0, 0]):
            half = np.ones_like(pole)
        else:
            gap = np.minimum(pole - lo, hi - pole)
            if npoles == 2:
                gap = np.minimum(gap, pole[:, 1:] - pole[:, :1])
            half = 0.5 * gap
        a = np.concatenate((lo, pole + half), axis=1)
        b = np.concatenate((pole - half, hi), axis=1)
        filled = ~(b <= a + 1e-14 * np.maximum(1.0, np.abs(a)))
    results = [None] * nrows
    fits = (half > 0.0) & np.isfinite(b[:, :-1]) & np.isfinite(a[:, 1:])
    alive = fits.all(axis=1)
    for r in (~alive).nonzero()[0].tolist():
        s = pole[r, fits[r].argmin()].item()  # the first pole no window fits
        results[r] = PoleWindowError(f"no symmetric window fits around pole {s!r}")
    pieces = [[] for _ in range(nrows)]
    piece_tol = tol / (2.0 * npoles + 1.0)

    def absorb(members, piece_lo, piece_hi, make_piece):
        """Integrate one piece, from its end columns, over the rows of ``members`` still alive."""
        ids = (members & alive).nonzero()[0]
        if not ids.size:
            return
        if ids.size < nrows:
            piece_lo, piece_hi = piece_lo[ids], piece_hi[ids]
        found = _drive(lambda rows: make_piece(ids[rows]), piece_lo, piece_hi, piece_tol)
        for r, res in zip(ids.tolist(), found):
            if isinstance(res, Exception):
                results[r] = res
                alive[r] = False
            else:
                pieces[r].append(res)

    # pole windows, integrated in the offset variable u on (0, h)
    zero = np.zeros((nrows, 1))
    for i in range(npoles):
        def window(rows, i=i):
            if make_folds is not None:
                folds = make_folds(rows)
                if len(folds) != npoles:
                    raise ValueError("folds must align with spec.poles")
                fold = folds[i]
            else:
                fold = _naive_fold(make_f(rows), pole[rows, i:i + 1], lo[rows], hi[rows])
            clamp = _FOLD_CLAMP * half[rows, i:i + 1]
            return lambda x, dlo, dhi: fold(np.maximum(dlo, clamp))

        absorb(alive, zero, half[:, i:i + 1], window)

    # leftover pieces: only the first touches lo and only the last hi, so
    # j alone says which distances the engine measures exactly
    for j in range(npoles + 1):
        def leftover(rows, kl=j == 0, kh=j == npoles):
            return _rebased(make_f(rows), lo[rows], hi[rows], kl, kh)

        absorb(filled[:, j], a[:, j:j + 1], b[:, j:j + 1], leftover)

    for r, found in enumerate(pieces):
        if results[r] is None:
            total = err = 0.0
            evals = 0
            status = "converged"
            for res in found:
                total += res.value
                err += res.error_estimate
                evals += res.evaluations
                if not res.converged:
                    status = res.status
            results[r] = QuadratureResult(total, err, evals, status)
    return results


def integrate(f, spec: IntegralSpec, tol: float = DEFAULT_TOL, folds=None) -> QuadratureResult:
    """One integral, as the one row of ``integrate_rows`` unless a principal value."""
    if spec.poles:
        return integrate_pv(f, spec, tol, folds=folds)
    return _one(integrate_rows(lambda rows: f, spec, 1, tol))
