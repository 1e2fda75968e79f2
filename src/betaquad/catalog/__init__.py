"""The identity catalog: every entry as a machine-checkable record.

Public operations:

- ``all_entries()`` / ``entry(id)``: the immutable roster.
- ``sample_table(rec, seed, indices)``: deterministic parameter draws from
  the entry's validity domain (margin-shrunk ranges, carved exclusions,
  rejection on relations), as one column per parameter: a counter-based
  SplitMix64 stream keyed by (seed, entry), whose counter is the sample
  index, so each row depends on its index alone.
- ``sample_params(rec, seed, index)``: one row of that table, as a dict of
  Python numbers.
- ``mid_params(rec)``: a fixed mid-domain parameter point.
- ``closed_form_value(rec, params)``: the tabulated right-hand side.
- ``endpoint_slope_audit(rec, params)``: log-log slope check of the
  integrand against the declared endpoint exponents.
- ``catalog_manifest()`` / ``write_catalog_json(path)``: the stable JSON
  description (integrands and closed forms are code, not data).
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    IdentityRecord,
    Param,
    ParamDomain,
    Relation,
    RTOL_CLASSES,
)
from . import group_e, groups_ab, groups_cd, groups_fj

__all__ = [
    "IdentityRecord",
    "Param",
    "ParamDomain",
    "Relation",
    "RTOL_CLASSES",
    "EXPECTED_ENTRY_COUNT",
    "UnknownEntryError",
    "DomainTooTightError",
    "all_entries",
    "entry",
    "sample_table",
    "sample_params",
    "mid_params",
    "closed_form_value",
    "endpoint_slope_audit",
    "catalog_manifest",
    "write_catalog_json",
]

EXPECTED_ENTRY_COUNT = 80

_ROSTER: tuple[IdentityRecord, ...] = tuple(
    groups_ab.ENTRIES + groups_cd.ENTRIES + group_e.ENTRIES + groups_fj.ENTRIES
)

_BY_ID = {rec.id: rec for rec in _ROSTER}
if len(_BY_ID) != len(_ROSTER):
    raise RuntimeError("catalog ids are not unique")
if len(_ROSTER) != EXPECTED_ENTRY_COUNT:
    raise RuntimeError(
        f"catalog entry count drifted: {len(_ROSTER)} != {EXPECTED_ENTRY_COUNT}"
    )


class UnknownEntryError(KeyError):
    def __init__(self, entry_id, suggestions):
        self.entry_id = entry_id
        self.suggestions = tuple(suggestions)
        hint = f"; close matches: {', '.join(suggestions)}" if suggestions else ""
        super().__init__(f"unknown catalog entry {entry_id!r}{hint}")


class DomainTooTightError(RuntimeError):
    def __init__(self, entry_id):
        super().__init__(
            f"could not satisfy the parameter relations of {entry_id!r} "
            "within 1000 rejection attempts"
        )


def all_entries() -> tuple[IdentityRecord, ...]:
    """The full immutable roster, in group order A..J."""
    return _ROSTER


def entry(entry_id: str) -> IdentityRecord:
    if not isinstance(entry_id, str):  # neither looked up nor matched
        raise UnknownEntryError(entry_id, ())
    if entry_id in _BY_ID:
        return _BY_ID[entry_id]
    import difflib  # only an unknown id needs it
    raise UnknownEntryError(entry_id, difflib.get_close_matches(entry_id, _BY_ID, n=3, cutoff=0.5))


def _resolve_sha256():
    """The interpreter's builtin sha256 constructor: ``_sha256`` on Python
    3.10-3.11, ``_sha2`` on 3.12+.  ``hashlib``, which loads OpenSSL's
    libcrypto, is only the fallback for builds that ship neither."""
    try:
        from _sha256 import sha256
    except ImportError:
        try:
            from _sha2 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


_sha256 = _resolve_sha256()


def _entry_key(entry_id: str, seed: int) -> int:
    """The key of the (seed, entry) stream: the first 8 bytes, big-endian, of
    the builtin sha256 (the same digest as ``hashlib.sha256``) of
    ``f"{seed}:{entry_id}"``."""
    return int.from_bytes(_sha256(f"{seed}:{entry_id}".encode()).digest()[:8], "big")


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the n-th output of the
# generator seeded with k is the finaliser of k + n * _GOLDEN, mod 2**64.
# All of its arithmetic runs on uint64 arrays, which wrap without a warning,
# and takes only uint64 operands (numpy < 2 can promote uint64 mixed with a
# Python int or an int64 to float64).  Each ufunc loop a process first uses
# pages in 64-128 kB of numpy's code, so sample_table keeps to loops verify
# already runs where it can: counter fields are joined with + (their bits do
# not overlap), integer words are bounded in float64, relations see integer
# parameters as float64 (exact below 2**53; an int64 comparison alone pages
# in 128 kB), and each row's first accepted attempt is found with where and
# min.
_U64 = np.uint64
_GOLDEN, _MIX1, _MIX2 = _U64(0x9E3779B97F4A7C15), _U64(0xBF58476D1CE4E5B9), _U64(0x94D049BB133111EB)
_ONE, _S8, _S11, _S20, _S27, _S30, _S31 = (_U64(k) for k in (1, 8, 11, 20, 27, 30, 31))
_TOP = _U64(2**64 - 1)
_MAX_ATTEMPTS = 1000  # < 2**12: an attempt fills bits 8..19 of the counter


def _words(key, counters):
    """SplitMix64's outputs for ``counters`` (a uint64 array), one word each."""
    z = key + (counters + _ONE) * _GOLDEN
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def sample_table(rec: IdentityRecord, seed: int, indices):
    """The parameters of samples ``indices`` of (entry, seed), drawn at once.

    Returns ``(columns, failed)``: a dict of one numpy array per parameter,
    in plan order (int64 for an integer parameter, float64 for a real one),
    and a bool array of the rows that found no draw in 1000 attempts (their
    column values are meaningless).

    Parameter ``slot`` of row ``index`` at ``attempt`` reads the word of
    counter ``index * 2**20 + attempt * 2**8 + slot`` (so index < 2**44)
    from the entry's SplitMix64 stream, which is keyed by ``_entry_key``: a
    counter-based stream (Salmon et al., SC'11), so a row depends on its
    index alone and n samples are a prefix of m > n.  A real parameter is
    ``a + w * ((word >> 11) * 2**-53)``; an integer one is ``a + word % m``
    over its m values, with words >= 2**64 - 2**64 % m rejected, so it has
    no modulo bias.  A row whose words are rejected, that falls inside a
    carved exclusion or that breaks a relation is drawn again, alone, at
    attempt + 1.  Relations are tested on columns: the rows still open,
    each at 1, 2, 4, ... attempts per round, so 1000 attempts take ten.
    """
    dom = rec.domain
    key = _U64(_entry_key(rec.id, seed))
    rows = np.asarray(indices, dtype=np.int64)
    if rows.size and rows.min() < 0:
        raise ValueError("sample indices must be >= 0")
    rows = rows.astype(np.uint64) << _S20
    columns = {name: np.empty(len(rows), dtype=np.uint64 if integer else float)
               for name, integer, *_ in dom.plan}
    pending = np.arange(len(rows))
    attempt, block = 0, 1
    while pending.size and attempt < _MAX_ATTEMPTS:
        # the next ``block`` attempts of every open row at once, row-major;
        # each row takes its first accepted one
        block = min(block, _MAX_ATTEMPTS - attempt)
        tries = _U64(attempt << 8) + (np.arange(block, dtype=np.uint64) << _S8)
        base = (rows[pending][:, None] + tries).ravel()
        ok = np.ones(base.size, dtype=bool)
        # drawn: what the table stores (an integer parameter as its uint64
        # offset word % m); draw: what relations test, all float64
        drawn, draw = {}, {}
        for slot, (name, integer, a, w, shrink, exclude) in enumerate(dom.plan):
            word = _words(key, base + _U64(slot))
            if integer:
                unused = 2**64 % (w + 1)  # the words past the last whole run of m
                if unused:
                    # word < 2**64 - unused; the float of 2**64 - 1 - word
                    # compares exactly with the small ``unused``
                    ok &= (_TOP - word).astype(float) >= unused
                drawn[name] = word % _U64(w + 1)
                draw[name] = drawn[name].astype(float) + a
            else:
                v = a + w * ((word >> _S11).astype(float) * 2.0**-53)
                for ex in exclude:
                    ok &= ~(np.abs(v - ex) < shrink)
                drawn[name] = draw[name] = v
        for relation in dom.relations:
            ok &= relation.holds(draw)
        ok = ok.reshape(pending.size, block)
        done = ok.any(axis=1)
        first = np.where(ok, np.arange(block), block).min(axis=1)
        taken = np.flatnonzero(done) * block + first[done]
        for name, v in drawn.items():
            columns[name][pending[done]] = v[taken]
        pending = pending[~done]
        attempt, block = attempt + block, 2 * block
    for name, integer, a, *_ in dom.plan:
        if integer:
            columns[name] = columns[name].astype(np.int64) + a
    failed = np.zeros(len(rows), dtype=bool)
    failed[pending] = True
    return columns, failed


def sample_params(rec: IdentityRecord, seed: int, index: int) -> dict:
    """Deterministic parameter assignment for (entry, seed, index): row
    ``index`` of ``sample_table``, as Python ints and floats."""
    columns, failed = sample_table(rec, seed, (index,))
    if failed[0]:
        raise DomainTooTightError(rec.id)
    return {name: col.tolist()[0] for name, col in columns.items()}


def mid_params(rec: IdentityRecord) -> dict:
    """A fixed mid-domain parameter point (falls back to the first sampled
    point when the midpoints violate a relation or a carved exclusion)."""
    dom = rec.domain
    params = {}
    ok = True
    for prm, (name, integer, _, _, shrink, exclude) in zip(dom.params, dom.plan):
        if integer:
            params[name] = int((prm.lo + prm.hi) // 2)
        else:
            mid = 0.5 * (prm.lo + prm.hi)
            if any(abs(mid - ex) < shrink for ex in exclude):
                ok = False
            params[name] = mid
    if ok and all(r.holds(params) for r in dom.relations):
        return params
    return sample_params(rec, seed=0, index=0)


def closed_form_value(rec: IdentityRecord, params: dict) -> float:
    value = float(rec.closed_form(params))
    if not math.isfinite(value):
        raise ValueError(
            f"closed form of {rec.id!r} is non-finite at {params!r}; roster bug"
        )
    return value


# --------------------------------------------------------------------------
# endpoint exponent audit
# --------------------------------------------------------------------------

# Two probe ladders per endpoint: deep distances defeat logarithmic slope
# corrections, shallow distances survive floating-point cancellation in
# combined integrands and large positive exponents.  A ladder is accepted
# when its least-squares slope matches the declared exponent.
_DEEP_FRACTIONS = (1e-24, 1e-30, 1e-36)
_SHALLOW_FRACTIONS = (1e-5, 10.0 ** -6.5, 1e-8)


def _fit_slope(ds, fs):
    mask = np.isfinite(fs) & (fs != 0.0)
    if mask.sum() < 3:
        return None
    lx = np.log(ds[mask])
    ly = np.log(np.abs(fs[mask]))
    lx = lx - lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))


def _probe_slope(f, spec, side):
    lo, hi = spec.lo, spec.hi
    width = hi - lo  # inf on a half-line: the far end is infinitely far
    scale = width if math.isfinite(width) else 1.0
    slopes = []
    for fractions in (_DEEP_FRACTIONS, _SHALLOW_FRACTIONS):
        d = np.array(fractions) * scale
        if side == "lo":
            x, dlo, dhi = lo + d, d, width - d
        else:
            x, dlo, dhi = hi - d, width - d, d
        with np.errstate(all="ignore"):
            fs = np.asarray(f(x, dlo, dhi), dtype=float)
        slope = _fit_slope(d, fs)
        if slope is not None:
            slopes.append(slope)
    return slopes


def endpoint_slope_audit(rec: IdentityRecord, params: dict, tol: float = 0.05):
    """Compare measured log-log endpoint slopes against declared exponents.

    Returns a list of (side, declared, measured, ok) tuples covering each
    finite endpoint of the entry's domain.
    """
    spec = rec.make_spec(params)
    f = rec.make_integrand(params)
    results = []
    for side, end, declared in (("lo", spec.lo, spec.alpha_lo), ("hi", spec.hi, spec.alpha_hi)):
        if not math.isfinite(end):
            continue
        slopes = _probe_slope(f, spec, side)
        if not slopes:
            results.append((side, declared, math.nan, False))
            continue
        measured = min(slopes, key=lambda s: abs(s - declared))
        results.append((side, declared, measured, abs(measured - declared) <= tol))
    return results


# --------------------------------------------------------------------------
# stable JSON description
# --------------------------------------------------------------------------

def catalog_manifest() -> list[dict]:
    """The serializable catalog description, sorted by entry id."""
    out = []
    for rec in sorted(_ROSTER, key=lambda r: r.id):
        out.append(
            {
                "id": rec.id,
                "group": rec.group,
                "citation": rec.citation,
                "params": [
                    {"name": p.name, "kind": p.kind, "lo": p.lo, "hi": p.hi}
                    for p in rec.domain.params
                ],
                "relations": [r.text for r in rec.domain.relations],
                "tolerance_class": rec.tolerance_class,
            }
        )
    return out


def write_catalog_json(path) -> None:
    import json  # only this writer needs it

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(catalog_manifest(), fh, indent=2)
        fh.write("\n")
