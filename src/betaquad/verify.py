"""Verification harness: sample parameters, integrate, compare, report.

An outcome passes when |numeric - closed| <= atol + rtol*|closed| with the
entry's tolerance class (standard 1e-8, principal_value 1e-6, combined
1e-7).  Zero-valued identities carry their own absolute floor and are
judged on absolute error alone.  Engines are asked for 1e-10; a run that
stalls above that but still certifies 1e-8 relative is accepted rather
than flagged as non-convergent.

Reports serialize as JSON lines (one outcome per line, then one summary
object).  Timing fields are canonicalized to 0.0 in the JSON form so that
reruns with identical flags are byte-identical regardless of wall clock.
Entries run one after another in one thread; ``RunConfig.parallelism`` is
validated but has no effect.

One entry loop yields a record per entry (a ``VerificationReport`` with
``entries=1``, the entry's measured wall time), and every summary is their
sum: ``verify_all`` keeps the outcomes, while ``write_report``, the streamed
form of a report and the only text one, writes each entry's lines as its
record arrives and keeps only the sum.  Outcomes carry no timing.
"""

from __future__ import annotations

import math
import numbers
import random
import time
from dataclasses import dataclass

import numpy as np

from . import catalog, quad, specfun as sf

__all__ = [
    "RunConfig",
    "VerificationOutcome",
    "VerificationReport",
    "ConsistencyCheck",
    "ConsistencyReport",
    "verify_entry",
    "verify_all",
    "cross_check_consistency",
    "write_report",
    "report_to_jsonl",
]

ENGINE_REQUEST_TOL = quad.DEFAULT_TOL   # 1e-10 requested from the engines
ENGINE_ACCEPT_TOL = 1e-8               # a stalled run's estimate still accepted, relative
REL_ERR_FLOOR = 1e-300


@dataclass(frozen=True)
class RunConfig:
    seed: int = 7
    samples_per_entry: int = 20
    rtol_override: float | None = None
    atol: float = 1e-12
    entry_filter: tuple[str, ...] | None = None
    parallelism: int = 1  # validated, no effect: entries run serially

    def __post_init__(self):
        for name in ("seed", "samples_per_entry", "parallelism"):
            value = getattr(self, name)
            # a float or bool seed would hash to a stream of its own
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
            # one owner of the value: a numpy integer is stored as the int
            # the samplers and random.Random take
            object.__setattr__(self, name, int(value))
        if self.samples_per_entry < 1:
            raise ValueError("samples_per_entry must be >= 1")
        for tol in (self.atol,) if self.rtol_override is None else (self.atol, self.rtol_override):
            # a bool would count as 0 or 1; NaN fails the bounds
            if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0.0 < tol < math.inf:
                raise ValueError("tolerances must be positive and finite")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.entry_filter is not None:
            ids = self.entry_filter
            if not isinstance(ids, tuple) or not ids or not all(isinstance(i, str) for i in ids):
                raise ValueError("entry_filter must be a non-empty tuple of entry ids")
            for eid in ids:
                catalog.entry(eid)  # an unknown id raises UnknownEntryError


@dataclass(frozen=True, slots=True)
class VerificationOutcome:
    """One sampled comparison.  Stored fields: entry_id, sample_index,
    param_names, param_values, numeric, closed, evaluations, status.
    param_names is the entry's parameter names in draw order, one tuple
    shared by all of the entry's outcomes; param_values holds the sample's
    values in that order, () when sampling raised.  Derived when read:
    params, the name -> value dict; abs_err and rel_err from numeric and
    closed (NaN for a sample_error)."""

    entry_id: str
    sample_index: int
    param_names: tuple[str, ...]
    param_values: tuple
    numeric: float
    closed: float
    evaluations: int
    status: str  # pass | fail | quad_nonconverged | sample_error

    @property
    def params(self) -> dict:
        return dict(zip(self.param_names, self.param_values))

    @property
    def abs_err(self) -> float:
        return abs(self.numeric - self.closed)

    @property
    def rel_err(self) -> float:
        return self.abs_err / max(abs(self.closed), REL_ERR_FLOOR)


@dataclass
class VerificationReport:
    """A run's record, or one entry's.  Fields: outcomes, in (entry_id,
    sample_index) order, [] where a writer keeps none; entries, the number
    verified; passes and failures, the outcomes whose status is "pass" and
    the rest, so a record counts ``passes + failures`` outcomes;
    worst_rel_err, the largest finite rel_err, 0.0 if none; wall_ms, the
    measured wall time.  An entry's record has ``entries=1`` and the time
    of its samples; a run's record is the sum of its entries' records."""

    outcomes: list[VerificationOutcome]
    entries: int
    passes: int
    failures: int
    worst_rel_err: float
    wall_ms: float

    @property
    def verdict(self) -> str:
        return "pass" if self.failures == 0 else "fail"


@dataclass(frozen=True)
class ConsistencyCheck:
    name: str
    passed: bool
    worst: float
    detail: str


@dataclass
class ConsistencyReport:
    checks: list[ConsistencyCheck]

    @property
    def verdict(self) -> str:
        return "pass" if all(c.passed for c in self.checks) else "fail"


def verify_entry(rec, cfg: RunConfig) -> list[VerificationOutcome]:
    """Run cfg.samples_per_entry deterministic comparisons for one entry."""
    return _verify_rows(rec, cfg)


# what a sample may raise on its way to a number; it becomes a sample_error
_SAMPLE_ERRORS = (catalog.DomainTooTightError, ValueError, OverflowError, quad.QuadratureError)


def _verify_rows(rec, cfg):
    """All samples of one entry.  Parameters and closed forms are drawn per
    sample; the integrals of all drawn samples then run as one batch, on
    one spec.  A row whose batch result is an error, and every row of a
    batch that raised as a whole (its spec included), is a sample_error: a
    batched row is bit-identical to its lone sample, so integrating it
    again alone would give the same error."""
    names = tuple(name for name, *_ in rec.domain.plan)  # the sample_params key order
    drawn = []
    for index in range(cfg.samples_per_entry):
        params = {}
        try:
            params = catalog.sample_params(rec, cfg.seed, index)
            closed = catalog.closed_form_value(rec, params)  # finite, or it raises
        except _SAMPLE_ERRORS:
            closed = math.nan
        drawn.append((index, params, closed))
    results = [None] * len(drawn)
    batch = [row for row in drawn if not math.isnan(row[2])]
    try:
        found = _batch(rec, [row[1] for row in batch]) if batch else []
    except _SAMPLE_ERRORS:
        found = []  # every row of the batch stays a sample_error
    for (index, *_), result in zip(batch, found):
        if isinstance(result, quad.QuadratureResult):
            results[index] = result
    return [
        _outcome(rec, index, names, params, closed, result, cfg)
        for (index, params, closed), result in zip(drawn, results)
    ]


def _batch(rec, params):
    """``quad.integrate_rows`` over samples of one entry: each row's result,
    or the QuadratureError it raised.  The spec, integrand and fold
    factories get the parameters as (rows x 1) columns."""
    columns = {name: np.array([p[name] for p in params])[:, None] for name in params[0]}

    def take(rows):
        return {name: col[rows] for name, col in columns.items()}

    make_folds = None if rec.make_folds is None else (lambda rows: rec.make_folds(take(rows)))
    return quad.integrate_rows(
        lambda rows: rec.make_integrand(take(rows)), rec.make_spec(columns), len(params),
        ENGINE_REQUEST_TOL, make_folds,
    )


def _outcome(rec, index, names, params, closed, result, cfg):
    if result is None:
        return VerificationOutcome(
            rec.id, index, names, tuple(params.values()), math.nan, math.nan, 0, "sample_error"
        )
    numeric = result.value
    rtol = cfg.rtol_override if cfg.rtol_override is not None else rec.rtol
    atol = max(cfg.atol, rec.zero_atol or 0.0)
    abs_err = abs(numeric - closed)
    certified = result.converged or (
        result.error_estimate <= ENGINE_ACCEPT_TOL * max(1.0, abs(numeric))
    )
    if not certified or not math.isfinite(numeric):
        status = "quad_nonconverged"
    elif abs_err <= atol + rtol * abs(closed):
        status = "pass"
    else:
        status = "fail"
    return VerificationOutcome(
        rec.id, index, names, tuple(params.values()), numeric, closed, result.evaluations, status
    )


def _entry_reports(cfg):
    """One record per selected entry, in sorted-id order: its outcomes in
    sample-index order, tallied once, and the wall time of its samples."""
    for rec in sorted(catalog.all_entries(), key=lambda r: r.id):
        if cfg.entry_filter is not None and rec.id not in cfg.entry_filter:
            continue
        start = time.perf_counter()
        outcomes = _verify_rows(rec, cfg)
        ms = 1e3 * (time.perf_counter() - start)
        passes = sum(o.status == "pass" for o in outcomes)
        worst = max((e for e in (o.rel_err for o in outcomes) if math.isfinite(e)), default=0.0)
        yield VerificationReport(outcomes, 1, passes, len(outcomes) - passes, worst, ms)


def _add(total, part):
    """Add the record ``part`` to ``total``, all but its outcomes."""
    total.entries += part.entries
    total.passes += part.passes
    total.failures += part.failures
    total.worst_rel_err = max(total.worst_rel_err, part.worst_rel_err)
    total.wall_ms += part.wall_ms


def verify_all(cfg: RunConfig) -> VerificationReport:
    """Verify the (filtered) roster; deterministic for a fixed config.

    The report is the sum of the entries' records and holds every outcome
    of the run; ``write_report`` streams the same outcomes instead.
    """
    report = VerificationReport([], 0, 0, 0, 0.0, 0.0)
    for part in _entry_reports(cfg):
        _add(report, part)
        report.outcomes += part.outcomes
    return report


# --------------------------------------------------------------------------
# non-quadrature consistency suites
# --------------------------------------------------------------------------

def cross_check_consistency(cfg: RunConfig) -> ConsistencyReport:
    """Identity suites that bypass the main quadrature comparison loop:
    reflection/duplication residual grids, beta against a ratio of
    ``math.gamma``, the duplication chain behind 3.249.5, and
    fake-parameter invariance.

    One rule decides every check (``_check``): it passes when its largest
    residual is within its bound, and ``worst`` is that residual.  A NaN
    residual fails the check, with a NaN ``worst``.  A sample error fails
    the check, with a NaN ``worst`` and the error's text in its detail;
    the suite still returns every check, so a report still ends in its
    summary line."""
    fake = f"{cfg.samples_per_entry} p-samples, two {{}}-draws each vs pi cot(pi p)"
    checks = [
        _check("reflection-grid", "1000 points of (0,1), rel vs pi/sin", _reflection_grid()),
        _check("duplication-grid", "500 points of (0,20], rel vs Gamma(a+1/2)", _duplication_grid()),
        _check("beta-vs-math-gamma", "1000 random pairs, rel vs math.gamma ratio", _beta_gamma(cfg)),
        _check(
            "duplication-chain-3.249.5",
            "50 sampled b: closed == 2^(2b-2) B(b,b) == B(1/2,b)/2",
            _duplication_chain(cfg),
        ),
        _check("fake-parameter-3.217", fake.format("b"), _fake_parameter(cfg, "3.217", "b")),
        _check("fake-parameter-3.218", fake.format("a"), _fake_parameter(cfg, "3.218", "a")),
    ]
    return ConsistencyReport(checks)


def _check(name, detail, residuals):
    """The check ``name`` of (residual, bound) pairs drawn from the iterable
    ``residuals``: passed when every residual is within its bound, worst the
    largest residual (NaN if any is NaN, which no bound admits).  A sample
    error raised while drawing them fails the check with a NaN worst."""
    try:
        pairs = list(residuals)
    except _SAMPLE_ERRORS as exc:
        return ConsistencyCheck(name, False, math.nan, f"{detail}: {type(exc).__name__}: {exc}")
    values, bounds = np.array(pairs, dtype=float).T
    return ConsistencyCheck(name, bool(np.all(values <= bounds)), float(np.max(values)), detail)


def _reflection_grid():
    for i in range(1, 1001):
        a = i / 1001.0
        scale = abs(math.pi / math.sin(math.pi * a))
        yield abs(sf.reflection_residual(a)) / scale, 1e-12


def _duplication_grid():
    for i in range(1, 501):
        a = 20.0 * i / 501.0
        yield abs(sf.duplication_residual(a)) / sf.gamma(a + 0.5), 1e-12


def _beta_gamma(cfg):
    rng = random.Random(cfg.seed ^ 0xBE7A)
    for a, b in [(rng.uniform(0.05, 6.0), rng.uniform(0.05, 6.0)) for _ in range(1000)]:
        ref = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
        yield abs(sf.beta(a, b) - ref) / ref, 1e-13


def _duplication_chain(cfg):
    # closed(3.249.5) = 2^(2b-2) B(b,b) = B(1/2,b)/2, via Legendre duplication
    rec = catalog.entry("3.249.5")
    for index in range(50):
        params = catalog.sample_params(rec, cfg.seed, index)
        b = params["b"]
        direct = catalog.closed_form_value(rec, params)
        doubled = 2.0 ** (2.0 * b - 2.0) * sf.beta(b, b)
        halved = 0.5 * sf.beta(0.5, b)
        scale = max(abs(direct), REL_ERR_FLOOR)
        yield abs(direct - doubled) / scale, 1e-12
        yield abs(direct - halved) / scale, 1e-12


def _fake_parameter(cfg, entry_id, fake_name):
    """Per p-sample: the two draws' difference (bound 2e-7) and the first
    draw's relative error against the closed form (bound 1e-7).  A draw
    that did not converge certifies neither: their bound is -inf."""
    rec = catalog.entry(entry_id)
    draws, alts = [], []
    for index in range(cfg.samples_per_entry):
        params = catalog.sample_params(rec, cfg.seed, index)
        alt = catalog.sample_params(rec, cfg.seed, index + 10_000)
        offset = 1
        while abs(alt[fake_name] - params[fake_name]) < 0.05:
            alt = catalog.sample_params(rec, cfg.seed, index + 10_000 + offset)
            offset += 1
        alt = dict(alt)
        alt["p"] = params["p"]
        draws.append(params)
        alts.append(alt)
    found = [_batch(rec, ps) for ps in (draws, alts)]
    for params, r1, r2 in zip(draws, *found):
        for res in (r1, r2):
            if isinstance(res, Exception):
                raise res
        closed = catalog.closed_form_value(rec, params)
        rel = abs(r1.value - closed) / max(abs(closed), REL_ERR_FLOOR)
        certified = r1.converged and r2.converged
        yield abs(r1.value - r2.value), 2e-7 if certified else -math.inf
        yield rel, 1e-7 if certified else -math.inf


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def write_report(cfg: RunConfig, fh, fmt: str = "json") -> str:
    """Write the report of ``verify_all(cfg)`` to ``fh``, entry by entry,
    keeping only the sum of the entries' records; returns the verdict.
    Fmt "json" writes what ``report_to_jsonl`` returns; fmt "text" writes a
    fixed-width table of one row per entry, with the entry's measured wall
    time, and the summary.  The consistency suite runs only on the
    unfiltered roster."""
    if fmt not in ("json", "text"):
        raise ValueError(f"unknown report format {fmt!r}")
    if fmt == "text":
        fh.write(_TEXT_HEADER)
    total = VerificationReport([], 0, 0, 0, 0.0, 0.0)
    for part in _entry_reports(cfg):
        fh.writelines(_json_lines(part.outcomes) if fmt == "json" else (_text_row(part),))
        _add(total, part)
    consistency = cross_check_consistency(cfg) if cfg.entry_filter is None else None
    fh.writelines(_summary_lines(fmt, total, consistency))
    return _verdict(total, consistency)


def _verdict(report, consistency):
    failed = report.failures or (consistency is not None and consistency.verdict == "fail")
    return "fail" if failed else "pass"


def report_to_jsonl(report: VerificationReport, consistency: ConsistencyReport | None = None) -> str:
    """JSON lines: one outcome per line, then one summary object, as one
    string; ``write_report`` streams the same characters to a file.  Timing
    fields are zeroed so identical configurations yield byte-identical
    reports.
    """
    return "".join([*_json_lines(report.outcomes), *_summary_lines("json", report, consistency)])


_TEXT_HEADER = (
    f"{'entry':<16} {'class':<16} {'samples':>7} {'passed':>7} {'worst_rel':>12} {'ms':>9}  status\n"
)


def _json_lines(outcomes):
    """One JSON object per outcome, timing zeroed."""
    import json

    for o in outcomes:
        yield json.dumps(
            {
                "entry_id": o.entry_id,
                "sample_index": o.sample_index,
                "params": o.params,
                "numeric": o.numeric,
                "closed": o.closed,
                "abs_err": o.abs_err,
                "rel_err": o.rel_err,
                "evaluations": o.evaluations,
                "status": o.status,
                "elapsed": 0.0,
            }
        ) + "\n"


def _text_row(entry):
    """The text table's row of one entry's record, whose ms column is the
    entry's measured wall time."""
    outcomes = entry.outcomes
    # the last outcome that did not pass names the entry's status
    status = next((o.status for o in reversed(outcomes) if o.status != "pass"), "ok")
    status = "FAIL" if status == "fail" else status
    eid = outcomes[0].entry_id
    return (
        f"{eid:<16} {catalog.entry(eid).tolerance_class:<16} {len(outcomes):>7d} {entry.passes:>7d} "
        f"{entry.worst_rel_err:>12.3e} {entry.wall_ms:>9.1f}  {status}\n"
    )


def _summary_lines(fmt, report, consistency):
    """The lines after the last outcome: the JSON summary object (wall_ms
    zeroed), or the text form's consistency checks and summary line, both
    from the record ``report``, which counts ``passes + failures``
    outcomes."""
    verdict = _verdict(report, consistency)
    outcomes = report.passes + report.failures
    if fmt == "json":
        import json

        yield json.dumps({
            "entries": report.entries,
            "outcomes": outcomes,
            "passes": report.passes,
            "failures": report.failures,
            "worst_rel_err": report.worst_rel_err,
            "wall_ms": 0.0,
            "verdict": verdict,
        }) + "\n"
        return
    if consistency is not None:
        yield "\nconsistency checks:\n"
        for c in consistency.checks:
            mark = "pass" if c.passed else "FAIL"
            yield f"  {c.name:<28} {mark}  worst={c.worst:.3e}  ({c.detail})\n"
    yield (
        f"\nsummary: entries={report.entries} outcomes={outcomes} "
        f"passes={report.passes} failures={report.failures} "
        f"worst_rel_err={report.worst_rel_err:.3e} wall_ms={report.wall_ms:.1f} "
        f"verdict={verdict}\n"
    )
