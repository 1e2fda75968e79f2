"""Verification harness: outcome semantics, determinism, serialization."""

import dataclasses
import gc
import io
import itertools
import json
import math
import pickle
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest

from betaquad import catalog, quad, verify
from betaquad.catalog import core
from betaquad.quad import IntegralSpec

OUTCOME_FIELDS = [
    "entry_id", "sample_index", "params", "numeric", "closed",
    "abs_err", "rel_err", "evaluations", "status", "elapsed",
]
SUMMARY_FIELDS = [
    "entries", "outcomes", "passes", "failures", "worst_rel_err", "wall_ms", "verdict",
]


class TestVerifyEntry:
    def test_twenty_samples_all_pass(self):
        cfg = verify.RunConfig(seed=42, samples_per_entry=20)
        outcomes = verify.verify_entry(catalog.entry("3.191.3"), cfg)
        assert len(outcomes) == 20
        assert all(o.status == "pass" for o in outcomes)
        assert [o.sample_index for o in outcomes] == list(range(20))

    def test_outcome_invariants(self):
        # the derived errors read as the streamed report writes them
        cfg = verify.RunConfig(seed=7, samples_per_entry=5, entry_filter=("eq-4.3",))
        buffer = io.StringIO()
        verify.write_report(cfg, buffer)
        records = [json.loads(line) for line in buffer.getvalue().splitlines()[:-1]]
        outcomes = verify.verify_entry(catalog.entry("eq-4.3"), cfg)
        assert len(records) == len(outcomes) == 5
        for o, record in zip(outcomes, records):
            assert (o.abs_err, o.rel_err) == (record["abs_err"], record["rel_err"])
            assert o.evaluations > 0

    def test_zero_closed_uses_absolute_rule(self):
        cfg = verify.RunConfig(seed=7, samples_per_entry=5)
        for o in verify.verify_entry(catalog.entry("eq-11.5"), cfg):
            assert o.closed == 0.0
            assert o.status == "pass"
            assert o.abs_err <= 1e-9

    def test_pv_entry_passes_at_pv_tolerance(self):
        cfg = verify.RunConfig(seed=7, samples_per_entry=10)
        for o in verify.verify_entry(catalog.entry("3.313.1"), cfg):
            assert o.status == "pass"

    def test_wrong_closed_form_yields_fail_status(self):
        base = catalog.entry("eq-4.3")
        broken = core.IdentityRecord(
            id="broken",
            group="C",
            citation="deliberately wrong closed form",
            domain=base.domain,
            make_integrand=base.make_integrand,
            make_spec=base.make_spec,
            closed_form=lambda p: 1.0 + math.pi / math.sin(math.pi * p["a"]),
        )
        cfg = verify.RunConfig(seed=7, samples_per_entry=3)
        outcomes = verify.verify_entry(broken, cfg)
        assert all(o.status == "fail" for o in outcomes)

    def test_nonconvergent_flagged_distinctly(self):
        broken = core.IdentityRecord(
            id="kinked",
            group="A",
            citation="interior kink defeats the finite engine",
            domain=core.domain(core.real("a", 0.5, 1.5)),
            make_integrand=lambda p: (
                lambda x, dlo, dhi: np.abs(x - 1.0 / math.pi) ** 0.31
            ),
            make_spec=lambda p: IntegralSpec(0.0, 1.0),
            closed_form=lambda p: 1.0,
        )
        cfg = verify.RunConfig(seed=7, samples_per_entry=2)
        outcomes = verify.verify_entry(broken, cfg)
        assert all(o.status == "quad_nonconverged" for o in outcomes)


    def test_samples_share_each_integrand_call(self):
        # one call for levels 0..MIN_LEVEL and one per deeper level, over
        # every sample still open: not one set of calls per sample
        rec = catalog.entry("3.191.3")
        cfg = verify.RunConfig(seed=7, samples_per_entry=20)
        calls = nodes = 0

        def make_integrand(p):
            f = rec.make_integrand(p)

            def counted(x, dlo, dhi):
                nonlocal calls, nodes
                calls += 1
                nodes += np.broadcast(x, dlo, dhi).size
                return f(x, dlo, dhi)

            return counted

        outcomes = verify.verify_entry(dataclasses.replace(rec, make_integrand=make_integrand), cfg)
        alone = []
        for index in range(cfg.samples_per_entry):
            params = catalog.sample_params(rec, cfg.seed, index)
            alone.append(quad.integrate(rec.make_integrand(params), rec.make_spec(params), 1e-10))
        deepest = max(len(res.level_errors) for res in alone)
        assert deepest > quad.MIN_LEVEL
        assert calls == 1 + deepest - quad.MIN_LEVEL
        assert [o.evaluations for o in outcomes] == [res.evaluations for res in alone]
        assert nodes == sum(res.evaluations for res in alone)

    def test_factory_rejecting_columns_makes_sample_errors(self):
        # factories must take (rows x 1) columns: there is no per-sample
        # path, so one that rejects them makes each sample a sample_error
        rec = catalog.entry("eq-4.3")
        cfg = verify.RunConfig(seed=7, samples_per_entry=4)

        def make_integrand(p):
            if np.ndim(p["a"]):
                raise ValueError("no columns here")
            return rec.make_integrand(p)

        scalar_only = dataclasses.replace(rec, make_integrand=make_integrand)
        outcomes = verify.verify_entry(scalar_only, cfg)
        assert [o.status for o in outcomes] == ["sample_error"] * 4
        assert [o.params for o in outcomes] == [catalog.sample_params(rec, 7, i) for i in range(4)]
        assert all(o.evaluations == 0 and math.isnan(o.numeric) for o in outcomes)

    def test_one_spec_per_entry_batch(self, monkeypatch):
        # the spec is built once per entry, from the parameter columns: the
        # count does not grow with the samples
        built = []
        check = IntegralSpec.__post_init__

        def counted(spec):
            built.append(np.ndim(spec.alpha_lo) + np.ndim(spec.lo) + np.ndim(spec.hi) > 0)
            check(spec)

        monkeypatch.setattr(IntegralSpec, "__post_init__", counted)
        ids = ("3.191.3", "3.217", "3.223.3", "eq-4.11")
        for samples in (1, 7):
            built.clear()
            cfg = verify.RunConfig(seed=7, samples_per_entry=samples, entry_filter=ids)
            report = verify.verify_all(cfg)
            assert report.passes == len(ids) * samples
            assert len(built) == len(ids)
        # the fake-parameter checks: one spec for each of their two batches
        built.clear()
        cfg = verify.RunConfig(samples_per_entry=5)
        verify._check("fake", "", verify._fake_parameter(cfg, "3.217", "b"))
        assert built == [True, True]

    def test_spec_error_makes_the_batch_sample_errors(self):
        # a spec row that fails its checks fails the entry's whole batch,
        # as a factory that rejects columns does
        rec = catalog.entry("3.191.3")
        a0 = catalog.sample_params(rec, 7, 0)["a"]

        def make_spec(p):  # sample 0's lower exponent is a - 6 < -1
            return IntegralSpec(0.0, 1.0, p["a"] - 1.0 - 5.0 * (p["a"] == a0), p["b"] - 1.0)

        params = [catalog.sample_params(rec, 7, i) for i in range(3)]
        with pytest.raises(ValueError, match="must exceed -1"):
            make_spec(params[0])
        for p in params[1:]:
            make_spec(p)  # the other samples pass alone
        bad = dataclasses.replace(rec, make_spec=make_spec)
        outcomes = verify.verify_entry(bad, verify.RunConfig(seed=7, samples_per_entry=3))
        assert [o.status for o in outcomes] == ["sample_error"] * 3
        assert all(o.evaluations == 0 and math.isnan(o.numeric) for o in outcomes)

    def test_non_finite_row_is_a_sample_error_alone(self):
        # sample 1 returns NaN: only its outcome is a sample_error
        rec = catalog.entry("3.191.3")
        cfg = verify.RunConfig(seed=7, samples_per_entry=3)
        bad_a = catalog.sample_params(rec, cfg.seed, 1)["a"]

        def make_integrand(p):
            f = rec.make_integrand(p)
            return lambda x, dlo, dhi: np.where(p["a"] == bad_a, np.nan, f(x, dlo, dhi))

        outcomes = verify.verify_entry(dataclasses.replace(rec, make_integrand=make_integrand), cfg)
        assert [o.status for o in outcomes] == ["pass", "sample_error", "pass"]

    @pytest.mark.parametrize("nfolds", [1, 3])
    def test_wrong_fold_count_makes_sample_errors(self, nfolds):
        # 3.223.3 has two poles; a fold factory returning another count is
        # a sample error for each sample, not an exception out of the run
        rec = catalog.entry("3.223.3")
        cfg = verify.RunConfig(seed=7, samples_per_entry=3)

        def make_folds(p):
            folds = rec.make_folds(p)
            return (folds * 2)[:nfolds]

        outcomes = verify.verify_entry(dataclasses.replace(rec, make_folds=make_folds), cfg)
        assert [o.status for o in outcomes] == ["sample_error"] * 3


STORED_FIELDS = (
    "entry_id", "sample_index", "param_names", "param_values", "numeric", "closed",
    "evaluations", "status",
)


class TestOutcomeLayout:
    """An outcome is slotted: it is held once per sample, without an instance
    dict, and stores only what was measured."""

    @pytest.fixture(scope="class")
    def outcome(self):
        cfg = verify.RunConfig(seed=7, samples_per_entry=1)
        return verify.verify_entry(catalog.entry("3.191.3"), cfg)[0]

    def test_slots_are_the_fields(self, outcome):
        assert not hasattr(outcome, "__dict__")
        names = tuple(f.name for f in dataclasses.fields(outcome))
        assert verify.VerificationOutcome.__slots__ == names == STORED_FIELDS
        with pytest.raises(dataclasses.FrozenInstanceError):
            outcome.status = "fail"
        with pytest.raises(TypeError):
            vars(outcome)

    def test_replace_eq_and_pickle(self, outcome):
        assert dataclasses.replace(outcome) == outcome
        assert dataclasses.replace(outcome, status="fail") != outcome
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone == outcome and type(clone) is verify.VerificationOutcome
        assert dataclasses.asdict(clone) == dataclasses.asdict(outcome)
        # every stored field is hashable, so the frozen dataclass hashes
        assert hash(clone) == hash(outcome)
        assert repr(outcome).startswith(
            "VerificationOutcome(entry_id='3.191.3', sample_index=0, param_names=('a', 'b'), "
            "param_values=("
        )

    def test_errors_are_derived(self, outcome):
        assert tuple(dataclasses.asdict(outcome)) == STORED_FIELDS
        exact = dataclasses.replace(outcome, numeric=outcome.closed)
        assert (exact.abs_err, exact.rel_err) == (0.0, 0.0)
        # a sample_error reads NaN for both, in the outcome and in its JSON line
        rec = catalog.entry("3.191.3")
        unsampled = dataclasses.replace(rec, closed_form=lambda p: math.nan)
        errors = verify.verify_entry(unsampled, verify.RunConfig(seed=7, samples_per_entry=2))
        assert [o.status for o in errors] == ["sample_error"] * 2
        report = verify.VerificationReport(errors, 1, 0, 2, 0.0, 0.0)
        records = [json.loads(line) for line in verify.report_to_jsonl(report).splitlines()[:-1]]
        for o, record in zip(errors, records, strict=True):
            for name in ("abs_err", "rel_err"):
                assert math.isnan(getattr(o, name)) and math.isnan(record[name])

    def test_params_read_from_shared_names(self):
        # all outcomes of an entry share one names tuple, in sample_params
        # key order; a sample whose sampling raised stores no values
        cfg = verify.RunConfig(seed=7, samples_per_entry=3)
        grouped = itertools.groupby(verify.verify_all(cfg).outcomes, key=lambda o: o.entry_id)
        records = sorted(catalog.all_entries(), key=lambda r: r.id)
        never = core.Relation("never", lambda p: False)
        assert len(records) == 80
        for rec, (eid, rows) in zip(records, grouped, strict=True):
            rows = list(rows)
            names = rows[0].param_names
            assert eid == rec.id and all(o.param_names is names for o in rows)
            for o in rows:
                params = catalog.sample_params(rec, 7, o.sample_index)
                assert names == tuple(params)
                assert list(o.params.items()) == list(params.items())
            tight = dataclasses.replace(rec, domain=dataclasses.replace(rec.domain, relations=(never,)))
            with pytest.raises(catalog.DomainTooTightError):
                catalog.sample_params(tight, 7, 0)
            (o,) = verify.verify_entry(tight, verify.RunConfig(seed=7, samples_per_entry=1))
            assert o.status == "sample_error" and o.param_names == names
            assert o.param_values == () and o.params == {}

    def test_holds_only_measured_values(self):
        # per held outcome: the record, its values tuple, one float per
        # value, the numeric and closed floats and the list's pointer, with
        # 16 B to spare; a dict or a names tuple of its own exceeds it
        cfg = verify.RunConfig(seed=7, samples_per_entry=20)
        verify.verify_all(cfg)  # node tables and lazy imports are built once
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = verify.verify_all(cfg)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        bound = sum(
            sys.getsizeof(o) + sys.getsizeof(o.param_values)
            + sys.getsizeof(0.0) * (2 + len(o.param_values)) + 8
            for o in report.outcomes
        )
        assert held <= bound + 16 * len(report.outcomes)


class TestVerifyAll:
    def test_filtered_run(self):
        cfg = verify.RunConfig(
            seed=7, samples_per_entry=5, entry_filter=("3.217", "3.218")
        )
        report = verify.verify_all(cfg)
        assert report.entries == 2
        assert len(report.outcomes) == 10
        assert report.verdict == "pass"

    def test_totals_consistent(self):
        cfg = verify.RunConfig(
            seed=3, samples_per_entry=4, entry_filter=("3.191.3", "eq-4.3", "3.313.1")
        )
        report = verify.verify_all(cfg)
        assert report.passes + report.failures == len(report.outcomes) == 12

    def test_outcomes_sorted_canonically(self):
        cfg = verify.RunConfig(
            seed=3, samples_per_entry=3, entry_filter=("eq-4.3", "3.191.3"),
            parallelism=4,
        )
        report = verify.verify_all(cfg)
        keys = [(o.entry_id, o.sample_index) for o in report.outcomes]
        assert keys == sorted(keys)

    def test_rerun_byte_identical(self):
        cfg = verify.RunConfig(seed=1, samples_per_entry=2, entry_filter=("3.226.1",))
        first = verify.report_to_jsonl(verify.verify_all(cfg))
        second = verify.report_to_jsonl(verify.verify_all(cfg))
        assert first == second

    def test_cold_import_loads_no_thread_pool(self, package_env):
        # runs are serial, so a run asking for threads loads no thread pool;
        # sampling hashes with the builtin sha256, so nothing loads OpenSSL;
        # difflib loads only to suggest ids, the oracle only when imported,
        # and json only to write a JSON report
        never = ["_hashlib", "hashlib", "concurrent.futures", "difflib", "betaquad.oracle"]
        code = (
            "import io, sys, betaquad.cli\n"
            f"print([m for m in {never + ['json']!r} if m in sys.modules])\n"
            "from betaquad import verify\n"
            "verify.write_report(verify.RunConfig(samples_per_entry=2, parallelism=4,"
            " entry_filter=('3.191.3', '3.217')), io.StringIO())\n"
            f"print([m for m in {never!r} if m in sys.modules])\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=package_env, capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.splitlines() == ["[]", "[]"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            verify.RunConfig(samples_per_entry=0)
        with pytest.raises(ValueError):
            verify.RunConfig(atol=-1.0)
        with pytest.raises(ValueError):
            verify.RunConfig(rtol_override=0.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                verify.RunConfig(atol=bad)
            with pytest.raises(ValueError):
                verify.RunConfig(rtol_override=bad)
        # a bool would judge at 1.0; a string or None is no tolerance at all
        for bad in ("1e-9", True, None):
            with pytest.raises(ValueError, match="tolerances must be positive and finite"):
                verify.RunConfig(atol=bad)
        for bad in ("1e-7", True):
            with pytest.raises(ValueError, match="tolerances must be positive and finite"):
                verify.RunConfig(rtol_override=bad)
        assert verify.RunConfig(atol=np.float64(1e-9)).atol == 1e-9
        with pytest.raises(ValueError):
            verify.RunConfig(parallelism=0)
        # a bare string is not a tuple of ids, an empty filter verifies nothing,
        # an id is a string, and a one-shot iterable would be used up here
        for bad in ("3.217", (), (3.217,), ("3.217", None), 3.217, ["3.217"],
                    iter(("3.217",))):
            with pytest.raises(ValueError, match="entry_filter must be a non-empty tuple"):
                verify.RunConfig(entry_filter=bad)
        with pytest.raises(catalog.UnknownEntryError, match="'nope'"):
            verify.RunConfig(entry_filter=("3.217", "nope"))
        for bad in (7.0, True, "7", None):
            with pytest.raises(ValueError, match="seed must be an integer"):
                verify.RunConfig(seed=bad)
            with pytest.raises(ValueError, match="samples_per_entry must be an integer"):
                verify.RunConfig(samples_per_entry=bad)
        for bad in (1.5, 2.0, True, "2", None):
            with pytest.raises(ValueError, match="parallelism must be an integer"):
                verify.RunConfig(parallelism=bad)
        assert verify.RunConfig(parallelism=np.int64(2)).parallelism == 2
        # numpy integers draw the same stream as the int of the same value
        cfg = verify.RunConfig(seed=np.int64(7), samples_per_entry=np.int32(2),
                               entry_filter=("3.191.3",))
        assert [o.params for o in verify.verify_all(cfg).outcomes] == [
            o.params for o in verify.verify_all(verify.RunConfig(
                seed=7, samples_per_entry=2, entry_filter=("3.191.3",))).outcomes
        ]

    def test_numpy_integers_write_the_int_report(self):
        """A numpy-integer config is stored as ints, so the unfiltered report,
        consistency suite included, is the one the plain ints write."""
        cfg = verify.RunConfig(seed=np.int64(7), samples_per_entry=np.int32(2),
                               parallelism=np.int64(2))
        assert all(type(getattr(cfg, name)) is int
                   for name in ("seed", "samples_per_entry", "parallelism"))
        buf, ref = io.StringIO(), io.StringIO()
        assert verify.write_report(cfg, buf) == "pass"
        verify.write_report(verify.RunConfig(seed=7, samples_per_entry=2), ref)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 161 and json.loads(lines[-1])["verdict"] == "pass"
        assert buf.getvalue() == ref.getvalue()


class TestCorrectnessLedger:
    # The seed-7 round at a 1% sampling margin has known non-pass outcomes.
    # A change that mends one removes its row here and records that in
    # CHANGES.md; adding a row is a correctness regression, not a way to
    # make this test pass.
    LEDGER = {
        ("3.192.1", 5, "fail"),
        ("3.192.2", 19, "fail"),
        ("3.192.4", 3, "fail"),
        ("eq-4.3", 13, "fail"),
        ("3.194.6", 4, "fail"),
        ("eq-10.4", 11, "fail"),
        ("3.192.3", 3, "quad_nonconverged"),
        ("3.196.5", 5, "quad_nonconverged"),
        ("eq-10.4", 6, "quad_nonconverged"),
        ("eq-10.4", 7, "quad_nonconverged"),
        ("4.251.1", 5, "quad_nonconverged"),
    }

    def test_margin_one_percent_nonpasses(self, with_margin):
        cfg = verify.RunConfig(seed=7, samples_per_entry=20)
        found = set()
        for rec in catalog.all_entries():
            rec = with_margin(rec, 0.01)
            found |= {
                (o.entry_id, o.sample_index, o.status)
                for o in verify.verify_entry(rec, cfg) if o.status != "pass"
            }
        assert found - self.LEDGER == set(), "new non-pass outcomes"
        assert self.LEDGER - found == set(), "ledger rows that now pass"


class TestCrossChecks:
    def test_all_pass(self):
        cfg = verify.RunConfig(seed=7, samples_per_entry=20)
        report = verify.cross_check_consistency(cfg)
        names = {c.name for c in report.checks}
        assert {
            "reflection-grid",
            "duplication-grid",
            "beta-vs-math-gamma",
            "duplication-chain-3.249.5",
            "fake-parameter-3.217",
            "fake-parameter-3.218",
        } <= names
        for check in report.checks:
            assert check.passed, (check.name, check.worst)
        assert report.verdict == "pass"

    def test_beta_check_fails_on_a_slightly_wrong_beta(self, monkeypatch):
        cfg = verify.RunConfig(seed=7)

        def beta_check():
            return verify._check("beta-vs-math-gamma", "", verify._beta_gamma(cfg))

        assert beta_check().passed
        beta = verify.sf.beta
        monkeypatch.setattr(verify.sf, "beta", lambda a, b: beta(a, b) * (1.0 + 1e-12))
        check = beta_check()
        assert not check.passed
        assert check.worst == pytest.approx(1e-12, rel=0.05)

    @pytest.mark.parametrize("name", [
        "reflection-grid", "duplication-grid", "beta-vs-math-gamma", "duplication-chain-3.249.5",
    ])
    def test_a_nan_residual_fails_its_check(self, monkeypatch, name):
        # one NaN residual fails the check that meets it, and only that one
        beta = verify.sf.beta
        if name == "reflection-grid":
            monkeypatch.setattr(verify.sf, "reflection_residual", lambda a: math.nan)
        elif name == "duplication-grid":
            monkeypatch.setattr(verify.sf, "duplication_residual", lambda a: math.nan)
        elif name == "beta-vs-math-gamma":
            # one NaN among the 1000 pairs
            calls = itertools.count()
            monkeypatch.setattr(
                verify.sf, "beta", lambda a, b: math.nan if next(calls) == 500 else beta(a, b)
            )
        else:
            # only the doubled form 2^(2b-2) B(b,b); B(1/2,b)/2 stays finite
            monkeypatch.setattr(verify.sf, "beta", lambda a, b: math.nan if a == b else beta(a, b))
        report = verify.cross_check_consistency(verify.RunConfig(seed=7))
        checks = {c.name: c for c in report.checks}
        assert not checks[name].passed and math.isnan(checks[name].worst)
        assert all(c.passed for c in checks.values() if c.name != name)

    def test_fake_parameter_fails_on_a_draw_that_did_not_converge(self, monkeypatch):
        # its residuals stay within bound, and worst is unchanged
        cfg = verify.RunConfig(seed=7, samples_per_entry=5)

        def fake_check():
            return verify._check("fake", "", verify._fake_parameter(cfg, "3.217", "b"))

        sound = fake_check()
        assert sound.passed
        batch = verify._batch

        def one_stalled(rec, params):
            found = batch(rec, params)
            found[2] = dataclasses.replace(found[2], status="max_level")
            return found

        monkeypatch.setattr(verify, "_batch", one_stalled)
        check = fake_check()
        assert not check.passed
        assert check.worst == sound.worst

    def test_fake_parameter_tolerances(self):
        cfg = verify.RunConfig(seed=7, samples_per_entry=20)
        report = verify.cross_check_consistency(cfg)
        for check in report.checks:
            if check.name.startswith("fake-parameter"):
                assert check.worst <= 1e-7

    def test_fake_parameter_explicit_pair(self):
        # p = 0.3 at two scale values; both integrals equal pi*cot(0.3 pi)
        rec = catalog.entry("3.217")
        expected = math.pi / math.tan(0.3 * math.pi)
        values = []
        for b in (0.7, 2.3):
            params = {"p": 0.3, "b": b}
            res = verify.quad.integrate(
                rec.make_integrand(params), rec.make_spec(params), 1e-10
            )
            assert res.converged
            values.append(res.value)
        assert abs(values[0] - values[1]) <= 2e-7
        for v in values:
            assert abs(v - expected) <= 1e-7 * abs(expected)


class TestSerialization:
    def test_jsonl_schema(self):
        cfg = verify.RunConfig(seed=7, samples_per_entry=2, entry_filter=("3.191.3",))
        report = verify.verify_all(cfg)
        lines = verify.report_to_jsonl(report).strip().split("\n")
        assert len(lines) == 3  # 2 outcomes + summary
        for line in lines[:-1]:
            record = json.loads(line)
            assert list(record) == OUTCOME_FIELDS
        summary = json.loads(lines[-1])
        assert list(summary) == SUMMARY_FIELDS
        assert summary["verdict"] == "pass"
        assert summary["outcomes"] == 2

    def test_jsonl_timing_canonicalized(self):
        cfg = verify.RunConfig(seed=7, samples_per_entry=1, entry_filter=("eq-4.3",))
        report = verify.verify_all(cfg)
        lines = verify.report_to_jsonl(report).strip().split("\n")
        assert json.loads(lines[0])["elapsed"] == 0.0
        assert json.loads(lines[-1])["wall_ms"] == 0.0

    def test_text_format_has_table_and_summary(self):
        cfg = verify.RunConfig(seed=7, samples_per_entry=2, entry_filter=("3.191.3",))
        buf = io.StringIO()
        assert verify.write_report(cfg, buf, "text") == "pass"
        text = buf.getvalue()
        assert "entry" in text.splitlines()[0]
        assert "3.191.3" in text
        assert "verdict=pass" in text

    def test_text_format_times_each_entry(self, monkeypatch):
        # a clock that advances 0.25 s per reading: each entry is read twice
        clock = itertools.count(0.0, 0.25)
        monkeypatch.setattr(verify, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
        cfg = verify.RunConfig(seed=7, samples_per_entry=2, entry_filter=("3.191.3", "eq-4.3"))
        buf = io.StringIO()
        verify.write_report(cfg, buf, "text")
        rows = buf.getvalue().splitlines()[1:3]
        assert [row.split()[5] for row in rows] == ["250.0", "250.0"]
        assert " wall_ms=500.0 " in buf.getvalue().splitlines()[-1]

    def test_text_rows_and_summary_match_verify_all(self, monkeypatch):
        # passes, fails forced by a tolerance few samples meet, and a
        # sample_error from a closed form that raises for one sample of 3.217
        bad = catalog.sample_params(catalog.entry("3.217"), 7, 1)
        closed_form_value = catalog.closed_form_value

        def closed(rec, params):
            if rec.id == "3.217" and params == bad:
                raise ValueError("closed form unavailable")
            return closed_form_value(rec, params)

        monkeypatch.setattr(catalog, "closed_form_value", closed)
        cfg = verify.RunConfig(seed=7, samples_per_entry=4, rtol_override=1e-16, atol=1e-16,
                               entry_filter=("3.248.3", "3.217", "3.191.3"))
        report = verify.verify_all(cfg)
        assert {o.status for o in report.outcomes} == {"pass", "fail", "sample_error"}
        buf = io.StringIO()
        assert verify.write_report(cfg, buf, "text") == "fail"
        lines = buf.getvalue().splitlines()
        # rows in sorted-id order, then a blank line and the summary
        assert len(lines) == 1 + 3 + 2
        for row, eid in zip(lines[1:4], ["3.191.3", "3.217", "3.248.3"]):
            mine = [o for o in report.outcomes if o.entry_id == eid]
            passes = sum(o.status == "pass" for o in mine)
            worst = max((o.rel_err for o in mine if math.isfinite(o.rel_err)), default=0.0)
            cells = row.split()
            assert cells[0] == eid and cells[2:5] == [str(len(mine)), str(passes), f"{worst:.3e}"]
        passes = sum(o.status == "pass" for o in report.outcomes)
        worst = max(o.rel_err for o in report.outcomes if math.isfinite(o.rel_err))
        assert (report.entries, report.passes, report.failures, report.worst_rel_err) == (
            3, passes, len(report.outcomes) - passes, worst
        )
        assert lines[-1].startswith(
            f"summary: entries=3 outcomes={len(report.outcomes)} passes={passes} "
            f"failures={report.failures} worst_rel_err={worst:.3e} wall_ms="
        )

    def test_consistency_failure_flips_verdict(self, monkeypatch):
        cfg = verify.RunConfig(seed=7, samples_per_entry=1, entry_filter=("3.191.3",))
        report = verify.verify_all(cfg)
        fake = verify.ConsistencyReport(
            [verify.ConsistencyCheck("synthetic", False, 1.0, "forced")]
        )
        summary = json.loads(verify.report_to_jsonl(report, fake).strip().split("\n")[-1])
        assert summary["verdict"] == "fail"
        monkeypatch.setattr(verify, "cross_check_consistency", lambda cfg: fake)
        buf = io.StringIO()
        assert verify.write_report(verify.RunConfig(seed=7, samples_per_entry=1), buf, "text") == "fail"
        assert buf.getvalue().endswith("verdict=fail\n")


@pytest.fixture(scope="module")
def default_run():
    """The seed-7 default run and its consistency report."""
    cfg = verify.RunConfig(seed=7)
    return verify.verify_all(cfg), verify.cross_check_consistency(cfg)


class _DropLines:
    """A text sink that reads each line and keeps none."""

    def writelines(self, lines):
        for _ in lines:
            pass


class TestStreamedReport:
    @pytest.mark.parametrize("failing", [False, True])
    def test_write_report_streams_the_string_form(self, failing):
        # a filtered run writes no consistency checks
        tol = {"rtol_override": 1e-16, "atol": 1e-16} if failing else {}
        cfg = verify.RunConfig(
            seed=7, samples_per_entry=3, entry_filter=("3.216.1", "eq-4.3"), **tol,
        )
        buffer = io.StringIO()
        assert verify.write_report(cfg, buffer) == ("fail" if failing else "pass")
        assert buffer.getvalue() == verify.report_to_jsonl(verify.verify_all(cfg))

    def test_write_report_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="unknown report format 'xml'"):
            verify.write_report(verify.RunConfig(entry_filter=("3.191.3",)), io.StringIO(), "xml")

    def test_streaming_holds_no_report_text(self, default_run):
        # the string form holds all of the text at once; the stream holds
        # one entry's outcomes and lines next to the quadrature's arrays
        # (the default_run fixture has built the node tables already)
        size = len(verify.report_to_jsonl(*default_run))
        tracemalloc.start()
        try:
            verify.write_report(verify.RunConfig(seed=7), _DropLines())
            streamed = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            verify.report_to_jsonl(*default_run)
            joined = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert streamed < size
        assert joined > size
