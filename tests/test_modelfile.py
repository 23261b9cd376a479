"""Model-file parsing, validation, certificate fragments."""

import json

import numpy as np
import pytest

from pwa_hier.errors import ModelError, ParseError, UncertifiedRelationError
from pwa_hier.modelfile import (
    builtin_model_path,
    build_pipeline,
    certificate_to_jsonable,
    load_model,
    load_pipeline,
    resolve_model_path,
)
from pwa_hier.simulator import run_scenario

I2 = np.eye(2)


@pytest.fixture(scope="module")
def case1_doc():
    return json.loads(builtin_model_path("case1").read_text())


class TestLoad:
    def test_case1_paper_matrices(self):
        cfg = load_model(builtin_model_path("case1"))
        assert cfg.system.n_modes == 3
        np.testing.assert_allclose(cfg.system.modes[1].B, 2 * cfg.system.modes[0].B)
        np.testing.assert_allclose(cfg.system.modes[2].B, 0.5 * cfg.system.modes[0].B)
        np.testing.assert_allclose(
            cfg.system.partition.cells[0].E[:2, :2], [[-1, 1], [-1, -1]]
        )
        np.testing.assert_allclose(
            cfg.system.partition.cells[2].E[:2, :2], [[1, -1], [1, 1]]
        )
        np.testing.assert_allclose(cfg.K[0], -np.hstack([52 * I2, 52.3 * I2, 13 * I2]))
        assert cfg.kappa == 8.0
        assert cfg.disturbance.sup_norm() == pytest.approx(0.15)

    def test_case2_paper_matrices(self):
        cfg = load_model(builtin_model_path("case2"))
        assert cfg.system.n_modes == 5
        np.testing.assert_allclose(cfg.system.modes[2].A[:2, 2:], 2 * I2)
        np.testing.assert_allclose(cfg.system.partition.cells[1].f, [-1.5, 0.5])
        assert cfg.declared_pairing == (0, 0, 1, 2, 2)
        assert cfg.kappa == 12.0
        np.testing.assert_allclose(cfg.abstraction.modes[1].F, 2 * I2)
        np.testing.assert_allclose(cfg.abstraction.modes[2].L, -2.5 * I2)

    def test_resolve_accepts_builtin_names_and_paths(self, tmp_path):
        assert resolve_model_path("case1") == builtin_model_path("case1")
        p = tmp_path / "local.model"
        p.write_text(builtin_model_path("case1").read_text())
        assert resolve_model_path(str(p)) == p
        with pytest.raises(ModelError):
            resolve_model_path("no-such-model")


class TestValidation:
    def test_parse_error_reports_position(self, tmp_path):
        p = tmp_path / "broken.model"
        p.write_text('{\n  "name": "x",\n  "oops"\n}')
        with pytest.raises(ParseError, match=r"line \d+ column \d+"):
            load_model(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.model"
        p.write_text("")
        with pytest.raises(ParseError):
            load_model(p)

    def test_missing_key(self, tmp_path, case1_doc):
        doc = json.loads(json.dumps(case1_doc))
        del doc["gains"]
        p = tmp_path / "nogains.model"
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match="gains"):
            load_model(p)

    def test_mode_cell_count_mismatch(self, tmp_path, case1_doc):
        doc = json.loads(json.dumps(case1_doc))
        doc["system"]["partition"] = doc["system"]["partition"][:2]
        p = tmp_path / "bad.model"
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match="partition"):
            load_model(p)

    def test_disturbance_above_declared_bound(self, tmp_path, case1_doc):
        doc = json.loads(json.dumps(case1_doc))
        doc["scenario"]["disturbance"]["amplitude"] = 0.2
        p = tmp_path / "bad.model"
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match="supremum"):
            load_model(p)

    @pytest.mark.parametrize("node, key", [
        ({"kind": "constant", "offset": 0.1, "amplitude": 0.05}, "amplitude"),
        ({"kind": "zero", "offset": 0.1}, "offset"),
    ], ids=["constant-amplitude", "zero-offset"])
    def test_disturbance_term_kind_does_not_take(self, tmp_path, case1_doc, node, key):
        doc = json.loads(json.dumps(case1_doc))
        doc["scenario"]["disturbance"] = node
        p = tmp_path / "bad.model"
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match=f"takes no '{key}'"):
            load_model(p)

    def test_inconsistent_supplied_relation(self, tmp_path, case1_doc):
        doc = json.loads(json.dumps(case1_doc))
        doc["relation"]["P"][0][0][0] = 2.0  # H != C P now
        p = tmp_path / "bad.model"
        p.write_text(json.dumps(doc))
        with pytest.raises(UncertifiedRelationError):
            build_pipeline(load_model(p))

    def test_supplied_linear_relation_not_solved(self, monkeypatch):
        """A supplied relation replaces the solve for a linear abstraction;
        its residual is still checked."""
        import pwa_hier.modelfile as modelfile

        def no_solve(*args):
            raise AssertionError("relation solved although the file supplies it")

        monkeypatch.setattr(modelfile, "solve_system_relation", no_solve)
        pipe = load_pipeline(builtin_model_path("case1"))
        assert all(r <= 1e-12 for r in pipe.relation.residuals)

    @pytest.mark.parametrize("value, message", [
        ([1], "certificate.lambda: expected a number, not a list"),
        ("abc", "certificate.lambda: expected a number"),
        (None, "certificate.kappa: must be a finite number"),
    ])
    def test_scalar_messages(self, tmp_path, case1_doc, value, message):
        """A scalar field reads as a scalar error, not as a vector one."""
        doc = json.loads(json.dumps(case1_doc))
        key = "kappa" if value is None else "lambda"
        doc["certificate"][key] = value
        p = tmp_path / "bad.model"
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match=message) as info:
            load_model(p)
        assert "vector" not in str(info.value) and "flat list" not in str(info.value)

    @pytest.mark.parametrize("key, value", [("lambda", 5.0)])
    def test_certificate_keys_need_M(self, tmp_path, case1_doc, key, value):
        """A key read only with a supplied M is rejected without one, by
        name, instead of being ignored in favour of synthesis."""
        doc = json.loads(json.dumps(case1_doc))
        doc["certificate"][key] = value
        p = tmp_path / "bad.model"
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match=f"certificate: {key} given without a supplied M"):
            load_model(p)

    @pytest.mark.parametrize("with_M", [False, True], ids=["without-M", "with-M"])
    @pytest.mark.parametrize("key", ["U", "W", "T", "Jbar"])
    def test_relaxation_weights_are_refused(self, tmp_path, case1_doc, key, with_M):
        """Cell relaxation weights and continuity factorizations are refused
        by their path, not ignored: ignoring them would drop a relaxation or
        a factorization the file supplies.  ``T`` and ``Jbar`` are the
        identity factorization, which has the shapes case1's M would need."""
        doc = json.loads(json.dumps(case1_doc))
        if with_M:
            pipe = load_pipeline(builtin_model_path("case1"))
            doc["certificate"].update(certificate_to_jsonable(pipe.certificate,
                                                              pipe.scenario.reports))
        rows = len(doc["system"]["partition"][0]["f"])
        eye8 = np.eye(8).tolist()
        doc["certificate"][key] = {"T": eye8, "Jbar": [eye8] * 3}.get(
            key, [[[0.0] * rows] * rows] * 3)
        p = tmp_path / "bad.model"
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match=f"^certificate.{key}: "):
            load_model(p)

    def test_declared_pairing_mismatch(self, tmp_path):
        doc = json.loads(builtin_model_path("case2").read_text())
        doc["pairing"] = [1, 1, 1, 3, 3]
        p = tmp_path / "bad.model"
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match="pairing"):
            build_pipeline(load_model(p))


class TestCertificateFragments:
    def test_round_trip_exact(self, tmp_path):
        """A saved fragment, which carries no affine-cell constant, pasted
        into the model's certificate block comes back bit for bit, and so
        do the run's V, b and delta on case2's affine cells."""
        pipe = load_pipeline(builtin_model_path("case2"))
        frag = json.loads(json.dumps(
            certificate_to_jsonable(pipe.certificate, pipe.scenario.reports)))
        assert all(frag["feasible"])
        assert sorted(frag) == ["M", "feasible", "kappa", "lambda"]
        doc = json.loads(builtin_model_path("case2").read_text())
        doc["certificate"].update((key, frag[key]) for key in ("lambda", "M"))
        p = tmp_path / "withcert.model"
        p.write_text(json.dumps(doc))
        rebuilt = build_pipeline(load_model(p))
        assert rebuilt.certificate.kappa == pipe.certificate.kappa
        assert rebuilt.certificate.lam == pipe.certificate.lam
        for a, b in zip(rebuilt.certificate.entries, pipe.certificate.entries, strict=True):
            np.testing.assert_array_equal(a.M, b.M)
        want, got = run_scenario(pipe.scenario), run_scenario(rebuilt.scenario)
        for column in ("V", "b", "delta"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes()

    def test_supplied_certificate_used(self, tmp_path):
        pipe = load_pipeline(builtin_model_path("case1"))
        doc = json.loads(builtin_model_path("case1").read_text())
        doc["certificate"]["lambda"] = pipe.certificate.lam
        doc["certificate"]["M"] = [
            [[float(v) for v in row] for row in e.M]
            for e in pipe.certificate.entries
        ]
        p = tmp_path / "withcert.model"
        p.write_text(json.dumps(doc))
        pipe2 = build_pipeline(load_model(p))
        assert pipe2.certificate.lam == pipe.certificate.lam
        np.testing.assert_array_equal(
            pipe2.certificate.entries[0].M, pipe.certificate.entries[0].M
        )
