"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import math
import time

from betaquad import catalog, quad, specfun as sf, verify
from betaquad.catalog import RTOL_CLASSES
from betaquad.cli import run
from betaquad.oracle import oracle_integrate

SQRT_PI = math.sqrt(math.pi)


def _announce(number, title, passed):
    print(f"ACCEPTANCE {number} [{title}]: {'PASS' if passed else 'FAIL'}")
    assert passed, f"acceptance criterion {number} failed: {title}"


def test_criterion_1_full_roster(tmp_path):
    """verify --samples 20 --seed 7 passes the whole roster inside 2 minutes."""
    report_path = tmp_path / "report.jsonl"
    started = time.perf_counter()
    code = run(["verify", "--samples", "20", "--seed", "7",
                "--report", str(report_path)])
    elapsed = time.perf_counter() - started

    lines = report_path.read_text().strip().split("\n")
    outcomes = [json.loads(line) for line in lines[:-1]]
    summary = json.loads(lines[-1])

    ok = code == 0
    ok &= summary["verdict"] == "pass"
    ok &= len(outcomes) >= 1200
    ok &= elapsed < 120.0
    # per-class relative tolerance, nonzero closed forms only
    for record in outcomes:
        rec = catalog.entry(record["entry_id"])
        if abs(record["closed"]) > 1e-6:
            ok &= record["rel_err"] <= RTOL_CLASSES[rec.tolerance_class]
        ok &= record["status"] == "pass"
    _announce(1, f"full roster, {len(outcomes)} outcomes in {elapsed:.1f}s", ok)


def test_criterion_2_spot_values():
    """Tabulated spot values reproduce to 1e-10 relative."""
    cases = [
        ("3.248.3", {"n": 2}, 3.0 * math.pi / 16.0),
        ("3.248.2", {"n": 0}, 1.0),
        ("eq-4.3", {"a": 0.5}, math.pi),
        ("3.194.7", {"m": 0, "n": 1, "u": 1.0, "v": 1.0}, 2.0),
        ("3.192.1", {"p": 0.5}, math.pi / 2.0),
    ]
    ok = True
    for entry_id, params, expected in cases:
        value = catalog.closed_form_value(catalog.entry(entry_id), params)
        ok &= abs(value - expected) <= 1e-10 * abs(expected)
    _announce(2, "five closed-form spot values at 1e-10", ok)


def test_criterion_3_specfun_grids():
    """Reflection/duplication residual grids and exact special values."""
    ok = True
    for i in range(1, 1001):
        a = i / 1001.0
        ok &= abs(sf.reflection_residual(a)) <= 1e-12 * abs(
            math.pi / math.sin(math.pi * a)
        )
    for i in range(1, 501):
        a = 20.0 * i / 501.0
        ok &= abs(sf.duplication_residual(a)) <= 1e-12 * sf.gamma(a + 0.5)
    for n in range(1, 16):
        ok &= abs(sf.gamma(float(n)) - math.factorial(n - 1)) <= 1e-13 * math.factorial(
            n - 1
        )
        half = SQRT_PI * math.factorial(2 * n) / (4.0 ** n * math.factorial(n))
        ok &= abs(sf.gamma(n + 0.5) - half) <= 1e-13 * half
    _announce(3, "specfun identity grids", ok)


def test_criterion_4_principal_value_suite():
    """The three demanded PV checks at their stated tolerances."""
    ok = True

    rec = catalog.entry("eq-4.10")
    params = {"a": 0.25, "c": -1.0}
    res = quad.integrate(
        rec.make_integrand(params), rec.make_spec(params), 1e-10,
        folds=rec.make_folds(params),
    )
    ok &= abs(res.value - (-math.pi)) <= 1e-6 * math.pi

    rec = catalog.entry("3.313.1")
    params = {"mu": 0.5}
    res = quad.integrate(
        rec.make_integrand(params), rec.make_spec(params), 1e-10,
        folds=rec.make_folds(params),
    )
    ok &= abs(res.value) <= 1e-8

    cfg = verify.RunConfig(seed=7, samples_per_entry=20)
    outcomes = verify.verify_entry(catalog.entry("3.223.3"), cfg)
    ok &= len(outcomes) == 20
    ok &= all(o.status == "pass" and o.rel_err <= 1e-6 for o in outcomes)
    _announce(4, "principal-value suite", ok)


def test_criterion_5_fake_parameter_invariance():
    """3.217/3.218: scaling independence and pi*cot(pi p) agreement."""
    cfg = verify.RunConfig(seed=7, samples_per_entry=20)
    report = verify.cross_check_consistency(cfg)
    by_name = {c.name: c for c in report.checks}
    ok = True
    for entry_id in ("3.217", "3.218"):
        check = by_name[f"fake-parameter-{entry_id}"]
        ok &= check.passed
    _announce(5, "fake-parameter invariance, 20 p-samples each", ok)


def test_criterion_6_oracle_equivalence():
    """Tanh-sinh agrees with the Gauss-Kronrod oracle on every non-PV entry."""
    ok = True
    checked = 0
    for rec in catalog.all_entries():
        params = catalog.mid_params(rec)
        spec = rec.make_spec(params)
        if spec.poles:
            continue
        f = rec.make_integrand(params)
        de = quad.integrate(f, spec, 1e-10)
        oracle = oracle_integrate(f, spec, 1e-10)
        checked += 1
        ok &= abs(de.value - oracle) <= 1e-8 * max(1.0, abs(de.value))
    ok &= checked >= 70
    _announce(6, f"oracle equivalence on {checked} non-PV entries", ok)


def test_criterion_7_determinism(tmp_path):
    """Byte-identical JSON reports across reruns and --jobs settings."""
    base = ["verify", "--samples", "3", "--seed", "7"]
    paths = [tmp_path / name for name in ("r1.jsonl", "r2.jsonl", "r4.jsonl")]
    assert run(base + ["--jobs", "1", "--report", str(paths[0])]) == 0
    assert run(base + ["--jobs", "1", "--report", str(paths[1])]) == 0
    assert run(base + ["--jobs", "4", "--report", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    ok = blobs[0] == blobs[1] == blobs[2]
    _announce(7, "byte-identical reports across runs and --jobs", ok)
