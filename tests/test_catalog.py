"""Catalog roster integrity, sampling determinism, closed-form spot values,
and the endpoint-exponent audit."""

import dataclasses
import hashlib
import importlib.util
import itertools
import json
import math
import sys

import numpy as np
import pytest

from betaquad import catalog, quad, specfun as sf, verify
from betaquad.catalog import core


class TestRoster:
    def test_count_is_frozen(self):
        entries = catalog.all_entries()
        assert len(entries) == catalog.EXPECTED_ENTRY_COUNT == 80
        assert len(entries) >= 60

    def test_ids_unique(self):
        ids = [rec.id for rec in catalog.all_entries()]
        assert len(ids) == len(set(ids))

    def test_known_ids_present(self):
        ids = {rec.id for rec in catalog.all_entries()}
        assert "3.192.1" in ids
        assert "3.457.3" in ids
        assert "3.241.4" in ids
        assert "4.321.1-damped" in ids

    def test_groups_cover_a_through_j(self):
        assert {rec.group for rec in catalog.all_entries()} == set("ABCDEFGHIJ")

    def test_entry_lookup(self):
        assert catalog.entry("3.248.3").group == "E"
        assert catalog.entry("3.313.1").tolerance_class == "principal_value"
        assert catalog.entry("3.217").tolerance_class == "combined"
        assert catalog.entry("3.191.3").tolerance_class == "standard"

    def test_unknown_id_with_suggestions(self):
        with pytest.raises(catalog.UnknownEntryError):
            catalog.entry("bogus")
        try:
            catalog.entry("3.248.9")
        except catalog.UnknownEntryError as exc:
            assert exc.suggestions  # near matches offered
        else:
            pytest.fail("expected UnknownEntryError")
        with pytest.raises(catalog.UnknownEntryError) as err:
            catalog.entry("3.2l7")
        assert err.value.suggestions == ("3.217", "3.267.3", "3.267.2")

    @pytest.mark.parametrize("entry_id", [3.217, None, ["3.217"]], ids=["float", "none", "list"])
    def test_non_string_id_is_unknown(self, entry_id):
        with pytest.raises(catalog.UnknownEntryError) as err:
            catalog.entry(entry_id)
        assert err.value.entry_id == entry_id
        assert err.value.suggestions == ()

    def test_margin_default(self):
        for rec in catalog.all_entries():
            assert rec.domain.margin == 0.05

    def test_column_spec_rows_match_lone_specs(self, with_margin):
        # verify builds one spec per entry from parameter columns: each row
        # holds its lone sample's spec bit for bit, poles in ascending order
        def row(value, r):
            return float(np.broadcast_to(np.asarray(value, dtype=float), (20, 1))[r, 0]).hex()

        for rec in catalog.all_entries():
            for margin in (0.05, 0.01, 0.002):
                edge = with_margin(rec, margin)
                for seed in (7, 11):
                    params = [catalog.sample_params(edge, seed, index) for index in range(20)]
                    spec = rec.make_spec({n: np.array([p[n] for p in params])[:, None] for n in params[0]})
                    for r, p in enumerate(params):
                        lone = rec.make_spec(p)
                        fields = ("lo", "hi", "alpha_lo", "alpha_hi")
                        assert [row(getattr(spec, f), r) for f in fields] == [
                            float(getattr(lone, f)).hex() for f in fields
                        ], (rec.id, seed, margin, r)
                        assert [row(s, r) for s in spec.poles] == [float(s).hex() for s in lone.poles]

    def test_pv_entries_carry_folds(self):
        for rec in catalog.all_entries():
            params = catalog.mid_params(rec)
            spec = rec.make_spec(params)
            if spec.poles:
                assert rec.tolerance_class == "principal_value"
                folds = rec.make_folds(params)
                assert len(folds) == len(spec.poles)


class TestSampling:
    def test_deterministic(self):
        rec = catalog.entry("3.241.4")
        a = catalog.sample_params(rec, seed=42, index=3)
        b = catalog.sample_params(rec, seed=42, index=3)
        assert a == b
        c = catalog.sample_params(rec, seed=42, index=4)
        assert a != c

    def test_ranges_and_margin(self):
        rec = catalog.entry("3.192.2")
        for i in range(50):
            p = catalog.sample_params(rec, seed=1, index=i)["p"]
            assert -0.95 <= p <= -0.05

    def test_integer_ordering_relation(self):
        rec = catalog.entry("3.251.5")
        for i in range(50):
            params = catalog.sample_params(rec, seed=5, index=i)
            assert isinstance(params["m"], int) and isinstance(params["n"], int)
            assert 0 <= params["m"] <= 4
            assert 1 <= params["n"] <= 5
            assert params["n"] > params["m"]

    def test_all_relations_hold_everywhere(self):
        for rec in catalog.all_entries():
            for i in range(10):
                params = catalog.sample_params(rec, seed=9, index=i)
                for relation in rec.domain.relations:
                    assert relation.holds(params), (rec.id, relation.text, params)

    def test_exclusions_carved(self):
        rec = catalog.entry("3.251.6")  # mu range carves 0
        for i in range(100):
            mu = catalog.sample_params(rec, seed=2, index=i)["mu"]
            assert abs(mu) >= 0.05 * 4.0

    def test_stream_digest_is_hashlib_sha256(self):
        # each (seed, entry) stream is keyed by the first 8 bytes of the
        # sha256 of "seed:id", as hashlib computes it
        for rec, seed in itertools.product(catalog.all_entries(), (0, 7, -3, 2**31 - 1, 10**30)):
            message = f"{seed}:{rec.id}".encode()
            digest = hashlib.sha256(message).digest()
            assert catalog._sha256(message).digest() == digest
            assert catalog._entry_key(rec.id, seed) == int.from_bytes(digest[:8], "big")

    def test_words_are_splitmix64(self):
        # the word of counter n is output n + 1 of SplitMix64 seeded with the key
        def splitmix64(state, count):
            mask = 2**64 - 1
            for _ in range(count):
                state = (state + 0x9E3779B97F4A7C15) & mask
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
                yield z ^ (z >> 31)

        key = catalog._entry_key("3.191.3", 7)
        words = catalog._words(np.uint64(key), np.arange(300, dtype=np.uint64))
        assert words.dtype == np.uint64
        assert words.tolist() == list(splitmix64(key, 300))

    @staticmethod
    def tables(with_margin):
        for rec, seed, margin in itertools.product(catalog.all_entries(), (7, 11), (0.05, 0.01)):
            yield with_margin(rec, margin), seed

    def test_fewer_samples_are_a_prefix(self, with_margin):
        for rec, seed in self.tables(with_margin):
            short, short_failed = catalog.sample_table(rec, seed, range(20))
            long, long_failed = catalog.sample_table(rec, seed, range(200))
            assert not long_failed.any(), rec.id
            assert list(short) == list(long) == [name for name, *_ in rec.domain.plan]
            for name in short:
                assert short[name].dtype == long[name].dtype
                assert short[name].tobytes() == long[name][:20].tobytes(), (rec.id, seed, name)

    def test_sample_params_is_a_row_of_the_table(self, with_margin):
        for rec, seed in self.tables(with_margin):
            columns, _ = catalog.sample_table(rec, seed, range(20))
            for index in range(20):
                params = catalog.sample_params(rec, seed, index)
                row = {name: col.tolist()[index] for name, col in columns.items()}
                assert list(params.items()) == list(row.items()), (rec.id, seed, index)
                assert all(type(v) is (int if integer else float)
                           for v, (_, integer, *_) in zip(params.values(), rec.domain.plan))

    def test_integer_draws_are_uniform(self):
        # 7000 draws of integer("n", 0, 6): every value, and a chi-square
        # statistic (6 degrees of freedom) below its 0.999 quantile, 22.46
        rec = catalog.entry("3.226.1")
        assert rec.domain.params == (core.integer("n", 0, 6),)
        columns, failed = catalog.sample_table(rec, 7, range(7000))
        assert not failed.any()
        counts = np.bincount(columns["n"], minlength=7)
        assert counts.size == 7 and (counts > 0).all()
        assert ((counts - 1000.0) ** 2 / 1000.0).sum() < 22.46

    def test_integer_words_past_the_last_whole_run_are_redrawn(self, monkeypatch):
        # 2**64 = 7 q + 2: words >= 2**64 - 2 would favour 0 and 1
        rec = catalog.entry("3.226.1")
        limit = 2**64 - 2**64 % 7
        words = catalog._words
        key = np.uint64(catalog._entry_key(rec.id, 7))
        plain, _ = catalog.sample_table(rec, 7, range(6))
        redraw = int(words(key, np.array([(4 << 20) | (1 << 8)], dtype=np.uint64))[0]) % 7
        for word, row4 in ((limit - 1, 6), (limit, redraw), (2**64 - 1, redraw)):
            def patched(key, counters, word=word):
                out = words(key, counters)
                out[counters == np.uint64(4 << 20)] = np.uint64(word)  # row 4, attempt 0
                return out

            monkeypatch.setattr(catalog, "_words", patched)
            columns, failed = catalog.sample_table(rec, 7, range(6))
            assert not failed.any()
            assert columns["n"].tolist() == [*plain["n"].tolist()[:4], row4, plain["n"].tolist()[5]]

    @staticmethod
    def attempts(rec, seed, index):
        """Every value the single real parameter of ``rec`` takes in row
        ``index`` over the 1000 attempts: a + w * ((word >> 11) * 2**-53)."""
        (name, integer, a, w, shrink, exclude), = rec.domain.plan
        counters = (np.uint64(index) << np.uint64(20)) | (np.arange(1000, dtype=np.uint64) << np.uint64(8))
        words = catalog._words(np.uint64(catalog._entry_key(rec.id, seed)), counters)
        return a + w * ((words >> np.uint64(11)).astype(float) * 2.0**-53)

    def test_a_rejected_row_leaves_the_others(self):
        rec = catalog.entry("3.192.1")
        plain, _ = catalog.sample_table(rec, 7, range(20))
        first = plain["p"][5]
        assert self.attempts(rec, 7, 5)[0] == first
        not_first = core.Relation("p != row 5's first draw", lambda q: q["p"] != first)
        fussy = dataclasses.replace(rec, domain=dataclasses.replace(rec.domain, relations=(not_first,)))
        columns, failed = catalog.sample_table(fussy, 7, range(20))
        assert not failed.any()
        others = np.arange(20) != 5
        assert columns["p"][others].tobytes() == plain["p"][others].tobytes()
        assert columns["p"][5] == self.attempts(rec, 7, 5)[1] != first

    def test_one_impossible_row_fails_alone(self):
        # a relation that rejects every value row 2 can draw: that row alone
        # has no draw, and verify makes it alone a sample_error
        rec = catalog.entry("3.192.1")
        impossible = self.attempts(rec, 7, 2)
        relation = core.Relation("not row 2", lambda q: ~np.isin(q["p"], impossible))
        tight = dataclasses.replace(rec, domain=dataclasses.replace(rec.domain, relations=(relation,)))
        columns, failed = catalog.sample_table(tight, 7, range(4))
        assert failed.tolist() == [False, False, True, False]
        with pytest.raises(catalog.DomainTooTightError):
            catalog.sample_params(tight, 7, 2)
        outcomes = verify.verify_entry(tight, verify.RunConfig(seed=7, samples_per_entry=4))
        assert [o.status for o in outcomes] == ["pass", "pass", "sample_error", "pass"]
        assert outcomes[2].param_values == () and math.isnan(outcomes[2].numeric)
        assert [o.params for o in outcomes[:2]] == [catalog.sample_params(rec, 7, i) for i in range(2)]

    def test_negative_index_is_refused(self):
        with pytest.raises(ValueError, match="indices"):
            catalog.sample_table(catalog.entry("3.192.1"), 7, [0, -1])

    def test_sha256_falls_back_to_hashlib(self, monkeypatch):
        builtin = any(importlib.util.find_spec(name) for name in ("_sha256", "_sha2"))
        assert (catalog._resolve_sha256() is not hashlib.sha256) == builtin
        monkeypatch.setitem(sys.modules, "_sha256", None)
        monkeypatch.setitem(sys.modules, "_sha2", None)
        assert catalog._resolve_sha256() is hashlib.sha256

    def test_mid_params_valid(self):
        for rec in catalog.all_entries():
            params = catalog.mid_params(rec)
            for relation in rec.domain.relations:
                assert relation.holds(params), (rec.id, relation.text)
            assert math.isfinite(catalog.closed_form_value(rec, params))


class TestClosedForms:
    def test_spot_values(self):
        cases = [
            ("3.248.3", {"n": 2}, 3.0 * math.pi / 16.0),
            ("3.248.2", {"n": 0}, 1.0),
            ("eq-4.3", {"a": 0.5}, math.pi),
            ("3.194.7", {"m": 0, "n": 1, "u": 1.0, "v": 1.0}, 2.0),
            ("3.251.5", {"m": 1, "n": 3, "u": 1.0, "v": 1.0}, 1.0 / 12.0),
            ("3.192.1", {"p": 0.5}, math.pi / 2.0),
        ]
        for entry_id, params, expected in cases:
            value = catalog.closed_form_value(catalog.entry(entry_id), params)
            assert value == pytest.approx(expected, rel=1e-12), entry_id

    def test_finite_on_sampled_domain(self):
        for rec in catalog.all_entries():
            for i in range(5):
                params = catalog.sample_params(rec, seed=3, index=i)
                assert math.isfinite(catalog.closed_form_value(rec, params)), rec.id

    def test_symmetric_restatements_equal_beta(self):
        for entry_id in ("3.216.1", "3.216.2"):
            rec = catalog.entry(entry_id)
            for i in range(10):
                params = catalog.sample_params(rec, seed=4, index=i)
                assert catalog.closed_form_value(rec, params) == sf.beta(
                    params["a"], params["b"]
                )

    def test_duplication_chain_3_249_5(self):
        rec = catalog.entry("3.249.5")
        for i in range(20):
            params = catalog.sample_params(rec, seed=6, index=i)
            b = params["b"]
            direct = catalog.closed_form_value(rec, params)
            assert direct == pytest.approx(2.0 ** (2.0 * b - 2.0) * sf.beta(b, b), rel=1e-12)
            assert direct == pytest.approx(0.5 * sf.beta(0.5, b), rel=1e-12)

    def test_zero_valued_entries_flagged(self):
        for entry_id in ("eq-11.5", "4.321.1-damped"):
            rec = catalog.entry(entry_id)
            assert rec.zero_atol == 1e-9
            assert catalog.closed_form_value(rec, catalog.mid_params(rec)) == 0.0

    def test_slow_tail_regression_3_224(self):
        # mu near 1 leaves a x^(mu-2) tail that still holds ~1e-7 of mass
        # out at x ~ 1e154; a ratio-form integrand whose denominator
        # overflows there silently dropped it.  Reference value computed
        # at 50 digits (head quadrature plus analytic tail series).
        params = {
            "mu": 0.9489803724764138,
            "a": 1.4246783088894026,
            "b": 1.2171294174681835,
            "c": 2.407711212306684,
        }
        rec = catalog.entry("3.224")
        res = quad.integrate(rec.make_integrand(params), rec.make_spec(params), 1e-10)
        assert res.converged
        assert res.value == pytest.approx(18.713691695520605, rel=1e-12)
        assert catalog.closed_form_value(rec, params) == pytest.approx(
            18.713691695520605, rel=1e-13
        )


class TestDomainCorners:
    def test_every_admissible_corner_verifies(self):
        """Extreme corners of each margin-shrunk validity box: random
        sampling almost never lands exactly where exponents and decay
        rates are worst, so the corners get checked exhaustively."""
        for rec in catalog.all_entries():
            dom = rec.domain
            axes = []
            for prm in dom.params:
                if prm.kind == "integer":
                    axes.append([int(prm.lo), int(prm.hi)])
                else:
                    shrink = dom.margin * (prm.hi - prm.lo)
                    axes.append([prm.lo + shrink, prm.hi - shrink])
            for combo in itertools.product(*axes):
                params = {prm.name: v for prm, v in zip(dom.params, combo)}
                carved = any(
                    prm.kind == "real"
                    and any(
                        abs(params[prm.name] - ex) < dom.margin * (prm.hi - prm.lo)
                        for ex in prm.exclude
                    )
                    for prm in dom.params
                )
                if carved or not all(r.holds(params) for r in dom.relations):
                    continue
                closed = catalog.closed_form_value(rec, params)
                folds = rec.make_folds(params) if rec.make_folds else None
                res = quad.integrate(
                    rec.make_integrand(params), rec.make_spec(params), 1e-10,
                    folds=folds,
                )
                atol = max(1e-12, rec.zero_atol or 0.0)
                assert abs(res.value - closed) <= atol + rec.rtol * abs(closed), (
                    rec.id, params, res.value, closed,
                )
                assert res.converged or res.error_estimate <= 1e-8 * max(
                    1.0, abs(res.value)
                ), (rec.id, params, res.status)


class TestIntegrandsReadOnly:
    """Engines may pass read-only arrays shared between calls, so no
    integrand or fold may write into its arguments."""

    @staticmethod
    def frozen(f):
        def g(*args):
            copies = [np.array(a, dtype=float) for a in args]
            for a in copies:
                a.setflags(write=False)
            return f(*copies)

        return g

    @pytest.mark.parametrize("rec", catalog.all_entries(), ids=lambda r: r.id)
    def test_integrand_and_folds_leave_arguments_alone(self, rec):
        params = catalog.mid_params(rec)
        folds = rec.make_folds(params) if rec.make_folds is not None else None
        res = quad.integrate(
            self.frozen(rec.make_integrand(params)),
            rec.make_spec(params),
            1e-10,
            folds=None if folds is None else tuple(self.frozen(fold) for fold in folds),
        )
        assert math.isfinite(res.value)


def block_tables():
    """Every node table the engines hand to integrands: tanh-sinh unit
    distances and exp-sinh/sinh-sinh nodes, for every level block."""
    for transform in quad._TRANSFORMS:
        for first, last in quad._LEVEL_BLOCKS:
            blk = quad._block(transform, first, last)
            yield from (blk.unit if blk.unit is not None else [blk.nodes])


class TestParameterColumns:
    EXPONENTS = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 1.7)

    @staticmethod
    def same(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_power_matches_scalar_power_on_every_block_table(self):
        floats = np.array(self.EXPONENTS)[:, None]
        ints = np.array([[-1], [0], [1], [2], [3]])
        with np.errstate(all="ignore"):
            for x in block_tables():
                for column, cast in ((floats, float), (ints, int)):
                    rows = np.repeat(x[None, :], len(column), axis=0)
                    for got in (core.power(x, column), core.power(rows, column)):
                        for row, e in zip(got, column[:, 0]):
                            assert self.same(row, x ** cast(e)), (cast(e), x.size)
                for e in self.EXPONENTS:
                    assert self.same(core.power(x, e), x ** e)

    def test_per_row_uses_math_on_each_row(self):
        # np.log of these differs from math.log in the last bit on some builds
        logs = [1.986382769874722, 0.8362414700448829, 0.9786934287626932]
        got = core.per_row(math.log, np.array(logs)[:, None])
        assert got[:, 0].tolist() == [math.log(v) for v in logs]
        assert core.per_row(math.log, 2.0) == math.log(2.0)
        v = np.array([[0.3], [1.7], [2.9]])
        got = core.per_row(lambda c, mu: (-c) ** (mu - 1.0), -v, 0.25)
        assert got.shape == (3, 1)
        assert got[:, 0].tolist() == [c ** (0.25 - 1.0) for c in (0.3, 1.7, 2.9)]


class TestEndpointAudit:
    def test_declared_exponents_match_measured(self):
        for rec in catalog.all_entries():
            for i in range(3):
                params = catalog.sample_params(rec, seed=11, index=i)
                results = catalog.endpoint_slope_audit(rec, params)
                spec = rec.make_spec(params)
                # the ends the audit probes: the finite ones
                assert [r[0] for r in results] == [e for e in ("lo", "hi") if math.isfinite(getattr(spec, e))]
                for side, declared, measured, ok in results:
                    assert ok, (rec.id, side, declared, measured, params)

    def test_audit_detects_wrong_declaration(self):
        # same integrand, deliberately shifted exponent declaration
        rec = catalog.entry("3.191.3")
        params = {"a": 0.4, "b": 0.7}
        wrong = core.IdentityRecord(
            id="wrong",
            group="A",
            citation="audit mutation probe",
            domain=rec.domain,
            make_integrand=rec.make_integrand,
            make_spec=lambda p: quad.IntegralSpec(
                0.0, 1.0, p["a"] - 0.5, p["b"] - 1.0
            ),
            closed_form=rec.closed_form,
        )
        results = catalog.endpoint_slope_audit(wrong, params)
        lo_result = [r for r in results if r[0] == "lo"][0]
        assert not lo_result[3]


class TestManifest:
    def test_schema_and_order(self):
        manifest = catalog.catalog_manifest()
        assert len(manifest) == catalog.EXPECTED_ENTRY_COUNT
        assert [m["id"] for m in manifest] == sorted(m["id"] for m in manifest)
        for m in manifest:
            assert set(m) == {
                "id", "group", "citation", "params", "relations", "tolerance_class",
            }
            for prm in m["params"]:
                assert set(prm) == {"name", "kind", "lo", "hi"}
                assert prm["kind"] in ("real", "integer")
            assert m["tolerance_class"] in core.RTOL_CLASSES

    def test_roundtrips_through_json(self, tmp_path):
        path = tmp_path / "catalog.json"
        catalog.write_catalog_json(path)
        loaded = json.loads(path.read_text())
        assert loaded == catalog.catalog_manifest()

    def test_relation_texts_are_strings(self):
        for m in catalog.catalog_manifest():
            assert all(isinstance(r, str) and r for r in m["relations"])
