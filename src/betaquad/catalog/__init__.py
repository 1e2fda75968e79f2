"""The identity catalog: every entry as a machine-checkable record.

Public operations:

- ``all_entries()`` / ``entry(id)``: the immutable roster.
- ``sample_params(rec, seed, index)``: deterministic parameter draws from
  the entry's validity domain (margin-shrunk ranges, carved exclusions,
  rejection on relations).
- ``mid_params(rec)``: a fixed mid-domain parameter point.
- ``closed_form_value(rec, params)``: the tabulated right-hand side.
- ``endpoint_slope_audit(rec, params)``: log-log slope check of the
  integrand against the declared endpoint exponents.
- ``catalog_manifest()`` / ``write_catalog_json(path)``: the stable JSON
  description (integrands and closed forms are code, not data).
"""

from __future__ import annotations

import math
import random
import _random

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


def _stream(entry_id: str, seed: int, index: int) -> random.Random:
    """Per-sample RNG derived by hashing (seed, entry id, sample index) with
    the builtin sha256 (the same digest as ``hashlib.sha256``).

    It is the stream of ``random.Random(n)``, seeded once through the C
    seed rather than the Python wrapper (which only forwards an int)."""
    digest = _sha256(f"{seed}:{entry_id}:{index}".encode()).digest()
    rng = random.Random.__new__(random.Random)
    _random.Random.seed(rng, int.from_bytes(digest[:8], "big"))
    return rng


def _draw(rng, plan):
    """One draw of every parameter.  With the plan's w = b - a, ``a + w *
    random()`` is the arithmetic of ``uniform(a, b)``."""
    params = {}
    ok = True
    for name, integer, a, w, shrink, exclude in plan:
        if integer:
            params[name] = rng.randint(a, a + w)
        else:
            v = a + w * rng.random()
            if exclude and any(abs(v - ex) < shrink for ex in exclude):
                ok = False
            params[name] = v
    return params, ok


def sample_params(rec: IdentityRecord, seed: int, index: int) -> dict:
    """Deterministic parameter assignment for (entry, seed, index)."""
    rng = _stream(rec.id, seed, index)
    dom = rec.domain
    for _ in range(1000):
        params, ok = _draw(rng, dom.plan)
        if ok and all(r.holds(params) for r in dom.relations):
            return params
    raise DomainTooTightError(rec.id)


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
