"""Pinned seed-7 behaviour: the parameter stream, what every outcome did
(status and evaluation count), and the bytes of the default and the
``--samples 200`` reports; the bytes ``betaquad export`` writes; and a
value-change guard: every default outcome passes on 17 seeds, and the edge
margins' non-passes have pinned counts by status.

A change that moves one of these values re-pins it in the same commit and
records old -> new in CHANGES.md.  The stream and the behaviour fingerprint
hold on any machine.  The report bytes also depend on the last bits of the
floating-point results, so they are pinned together with the environment
that produced them, and the byte test is skipped elsewhere.
"""

import collections
import hashlib
import io
import platform

import numpy as np
import pytest

from betaquad import catalog, cli, verify

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath


def sha256(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_parameter_stream(with_margin):
    """Every draw of 20 samples per entry at seed 7, at the default margin
    and then at the 0.01 edge margin."""
    rows = []
    for margin in (None, 0.01):
        for rec in sorted(catalog.all_entries(), key=lambda r: r.id):
            if margin is not None:
                rec = with_margin(rec, margin)
            rows += [(rec.id, i, list(catalog.sample_params(rec, 7, i).items())) for i in range(20)]
    assert sha256(rows) == "435d2f78d61f497c44be753b903a6c27bbed9eff71ffc5d43f87d84c5ed18798"


@pytest.mark.parametrize("samples, expected", [
    (20, "5bc5f8361afc53d55e0ec526fd102eb18fbcdd314462b51149e0e66fe54b6699"),
    (200, "386a80f38fd53f7c75a4a7fe62d3912ec823d25d99fe1267984c1b569c64c36d"),
])
def test_behaviour_fingerprint(samples, expected):
    """The status and evaluation count of every outcome: a stop level that
    moves in any row changes it."""
    report = verify.verify_all(verify.RunConfig(seed=7, samples_per_entry=samples))
    assert sha256([(o.entry_id, o.sample_index, o.status, o.evaluations)
                   for o in report.outcomes]) == expected


def environment():
    """What the report's last bits depend on: numpy and the SIMD targets it
    dispatches to on this CPU (integrand ufuncs), and the C library behind
    ``math``.  Level sums are numpy reductions, so no BLAS is involved."""
    features = _umath.__cpu_features__
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "libc": platform.libc_ver(),
        "cpu_baseline": tuple(_umath.__cpu_baseline__),
        "cpu_dispatch": tuple(sorted(f for f in _umath.__cpu_dispatch__ if features.get(f))),
    }


REPORT_ENVIRONMENT = {
    "numpy": "2.4.6",
    "machine": "x86_64",
    "libc": ("glibc", "2.36"),
    "cpu_baseline": ("X86_V2",),
    "cpu_dispatch": ("AVX512_ICL", "AVX512_SPR", "X86_V3", "X86_V4"),
}
REPORT_SHA256 = "378620930a3fc32ee39cb60ce60835234765a263b1740db5d03ce747987252cb"


def skip_outside_report_environment(what):
    env = environment()
    differs = {k: env[k] for k in REPORT_ENVIRONMENT if env[k] != REPORT_ENVIRONMENT[k]}
    if differs:
        pytest.skip(f"{what} pinned for {REPORT_ENVIRONMENT}; here {differs}")


def test_default_report_bytes():
    """sha256 of the report ``betaquad verify --seed 7`` writes."""
    skip_outside_report_environment("report bytes are")
    cfg = verify.RunConfig(seed=7)
    payload = verify.report_to_jsonl(verify.verify_all(cfg), verify.cross_check_consistency(cfg))
    assert hashlib.sha256(payload.encode()).hexdigest() == REPORT_SHA256


def test_samples_200_report_bytes():
    """sha256 of the report ``betaquad verify --seed 7 --samples 200`` writes."""
    skip_outside_report_environment("report bytes are")
    buf = io.StringIO()
    verify.write_report(verify.RunConfig(seed=7, samples_per_entry=200), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
        "5e3badb0566c6a1a3ca2a9b5974c5f313ba072fa9daa84c061a3f19e638c801c"
    )


def test_edge_behaviour_fingerprint(with_margin):
    """The status and evaluation count of every seed-7 outcome at the 0.01
    edge margin, 20 samples per entry.  Edge rows stop next to the
    tolerance limits, so the pin holds only where it was recorded."""
    skip_outside_report_environment("edge stop levels are")
    cfg = verify.RunConfig(seed=7)
    outcomes = [o for rec in sorted(catalog.all_entries(), key=lambda r: r.id)
                for o in verify.verify_entry(with_margin(rec, 0.01), cfg)]
    assert len(outcomes) == 1600
    assert sha256([(o.entry_id, o.sample_index, o.status, o.evaluations)
                   for o in outcomes]) == "af14a3bb0fa43eb755a9e83dabf9a2342885ad639a4b2a7efa0b4e9e37765225"


def test_catalog_export_bytes(tmp_path):
    """sha256 of the ``catalog.json`` that ``betaquad export`` writes: every
    entry's citation, parameter ranges, relation texts and tolerance class."""
    out = tmp_path / "catalog.json"
    assert cli.run(["export", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "4ff19562705b9087730cce57293fd99250c4871b0e49bf64ceea915203f5e87c"
    )


def test_every_default_outcome_passes_on_many_seeds():
    """At the default margin every outcome passes, on seeds 1-16 and 100007.
    No worst error is pinned: it belongs to one parameter stream."""
    for seed in [*range(1, 17), 100007]:
        failing = [(o.entry_id, o.sample_index, o.status)
                   for o in verify.verify_all(verify.RunConfig(seed=seed)).outcomes
                   if o.status != "pass"]
        assert failing == [], seed


@pytest.mark.parametrize("margin, seed, fail, nonconverged", [
    (0.01, 7, 6, 5),
    (0.01, 11, 9, 6),
    (0.002, 7, 11, 10),
    (0.002, 11, 8, 17),
])
def test_edge_counts_by_status(with_margin, margin, seed, fail, nonconverged):
    """The non-passes of 20 samples per entry at an edge margin, by status.
    A change that lowers a count re-pins it; raising one is a regression.
    Edge rows stop next to the tolerance limits, so the counts hold only
    where they were recorded."""
    skip_outside_report_environment("edge stop levels are")
    cfg = verify.RunConfig(seed=seed)
    counts = collections.Counter(o.status for rec in catalog.all_entries()
                                 for o in verify.verify_entry(with_margin(rec, margin), cfg))
    assert counts == {"pass": 1600 - fail - nonconverged, "fail": fail, "quad_nonconverged": nonconverged}
