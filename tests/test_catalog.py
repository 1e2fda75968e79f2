"""Catalog roster integrity, sampling determinism, closed-form spot values,
and the endpoint-exponent audit."""

import itertools
import json
import math

import numpy as np
import pytest

from betaquad import catalog, quad, specfun as sf
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

    def test_margin_default(self):
        for rec in catalog.all_entries():
            assert rec.domain.margin == 0.05

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


class TestEndpointAudit:
    def test_declared_exponents_match_measured(self):
        for rec in catalog.all_entries():
            for i in range(3):
                params = catalog.sample_params(rec, seed=11, index=i)
                for side, declared, measured, ok in catalog.endpoint_slope_audit(
                    rec, params
                ):
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
            make_spec=lambda p: rec.make_spec(p).__class__.finite(
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
