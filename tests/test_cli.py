"""CLI contract: exit codes, artifacts, determinism, report consistency."""

import functools
import json

import numpy as np
import pytest

from pwa_hier import export_trajectory, run_scenario
from pwa_hier.cli import main
from pwa_hier.modelfile import (
    build_pipeline,
    builtin_model_path,
    certificate_to_jsonable,
    load_model,
)


def _read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


@functools.lru_cache(maxsize=None)
def _saved_certificate(name):
    """The certificate fragment ``check NAME --save-certificate`` writes."""
    pipe = build_pipeline(load_model(builtin_model_path(name)))
    return json.dumps(certificate_to_jsonable(pipe.certificate, pipe.joint))


def _break_model(doc, how):
    """Apply one named defect to a model document, in place.  Defects named
    ``cert-*`` edit the model's own saved certificate, supplied in the file."""
    if how.startswith("cert-"):
        cert = json.loads(_saved_certificate(doc["name"]))
        doc["certificate"].update(cert)
        modes = len(cert["M"])
        rows = len(doc["system"]["partition"][0]["f"])
        if how == "cert-lambda-text":
            doc["certificate"]["lambda"] = "abc"
        elif how == "cert-lambda-list":
            doc["certificate"]["lambda"] = [1]
        elif how == "cert-m-text":
            doc["certificate"]["m"] = ["x"] + [1.0] * (modes - 1)
        elif how == "cert-m-short":
            doc["certificate"]["m"] = [1.0]
        elif how == "cert-U-short":
            doc["certificate"]["U"] = [[[0.0] * rows] * rows]
        elif how == "cert-jbar-short":
            # case1's modes share one M, so T = M factors through J = I
            eye = np.eye(len(cert["M"][0])).tolist()
            doc["certificate"].update(T=cert["M"][0], Jbar=[eye])
        else:
            raise AssertionError(f"unknown defect {how!r}")
    elif how == "relation-shape":
        doc["relation"]["P"][0] = [row[:1] for row in doc["relation"]["P"][0]]
    elif how == "x1-0-nan":
        doc["scenario"]["x1_0"][0] = float("nan")
    elif how == "waypoint-inf":
        doc["scenario"]["u2bar"][1]["value"][0] = float("inf")
    elif how == "lambda-grid-text":
        doc["certificate"]["lambda_grid"] = ["a"]
    elif how == "zero-disturbance":
        doc["scenario"]["disturbance"] = {"kind": "zero"}
    elif how == "waypoint-t-nan":
        doc["scenario"]["u2bar"][1]["t"] = float("nan")
    elif how == "offset-nan":
        doc["scenario"]["disturbance"]["offset"] = float("nan")
    elif how == "pairing-on-linear":
        doc["pairing"] = [9] * len(doc["system"]["modes"])
    elif how == "pwa-pairing-fraction":
        doc["pairing"][0] += 0.7
    else:
        raise AssertionError(f"unknown defect {how!r}")


class TestCheck:
    def test_case1_exit_zero(self, capsys):
        assert main(["check", "case1"]) == 0
        out = capsys.readouterr().out
        assert "certified = True" in out

    def test_inconsistent_relation_exits_one(self, tmp_path, capsys):
        doc = json.loads(builtin_model_path("case1").read_text())
        doc["relation"]["P"][0][0][0] = 2.0
        p = tmp_path / "bad.model"
        p.write_text(json.dumps(doc))
        assert main(["check", str(p)]) == 1
        err = capsys.readouterr().err
        assert "residual" in err

    def test_empty_file_exits_one(self, tmp_path, capsys):
        p = tmp_path / "empty.model"
        p.write_text("")
        assert main(["check", str(p)]) == 1
        assert "error" in capsys.readouterr().err

    def test_save_certificate(self, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        assert main(["check", "case2", "--save-certificate", str(cert_path)]) == 0
        frag = json.loads(cert_path.read_text())
        assert frag["kappa"] == 12.0
        assert len(frag["M"]) == 5

    def test_destabilizing_gain_exits_one(self, tmp_path, capsys):
        doc = json.loads(builtin_model_path("case1").read_text())
        doc["gains"]["K"] = [[[0.0] * 6, [0.0] * 6]] * 3  # open loop is unstable
        p = tmp_path / "bad.model"
        p.write_text(json.dumps(doc))
        assert main(["check", str(p)]) == 1
        assert "eigenvalue" in capsys.readouterr().err


class TestRun:
    def test_case1_pass_and_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "case1", "--out", str(out), "--plot-data"]) == 0
        stdout = capsys.readouterr().out
        assert "bound chain: PASS" in stdout
        for name in ("trajectory.csv", "bounds.csv", "report.json"):
            assert (out / name).exists()
        for name in ("err.dat", "sim_fn.dat", "bound.dat",
                     "path_concrete.dat", "path_abstraction.dat"):
            assert (out / "plot" / name).exists()

    def test_report_recomputable_from_csvs(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "case2", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        bounds = _read_csv(out / "bounds.csv")
        assert report["max_err"] == pytest.approx(float(np.max(bounds["err"])), abs=0)
        assert report["max_delta"] == pytest.approx(float(np.max(bounds["delta"])), abs=0)
        kappa = report["kappa"]
        assert report["max_V"] == pytest.approx(
            float(np.max(bounds["kV"])) / kappa, rel=1e-12
        )
        chain = np.all(bounds["err"] <= bounds["kV"] + 1e-6) and np.all(
            bounds["kV"] <= bounds["delta"] + 1e-6
        )
        assert bool(chain) == (report["verdict"] == "PASS")

    def test_determinism_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "case1", "--out", str(a), "--t-end", "2.0"]) == 0
        assert main(["run", "case1", "--out", str(b), "--t-end", "2.0"]) == 0
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
        assert (a / "bounds.csv").read_bytes() == (b / "bounds.csv").read_bytes()

    @pytest.mark.parametrize("argv", [
        ["run", "case1", "--t-end", "0.0"],
        ["run", "case1", "--t-end", "0.5", "--step", "0.7"],
        ["run", "case1", "--step", "0"],
        ["run", "case1", "--step", "nan"],
        ["sweep", "case1", "--param", "step", "--values", "0.001,abc"],
        ["sweep", "case1", "--param", "kappa", "--values", "-1"],
        ["sweep", "case1", "--param", "disturbance-amplitude", "--values", "1"],
        ["check", "relation-shape"],
        ["check", "x1-0-nan"],
        ["check", "waypoint-inf"],
        ["check", "lambda-grid-text"],
        ["sweep", "zero-disturbance", "--param", "disturbance-amplitude",
         "--values", "0.1"],
        ["run", "waypoint-t-nan"],
        ["check", "offset-nan"],
        ["check", "cert-lambda-text"],
        ["check", "cert-lambda-list"],
        ["check", "cert-m-text"],
        ["check", "cert-m-short"],
        ["check", "cert-U-short"],
        ["check", "cert-jbar-short"],
        ["check", "pairing-on-linear"],
        ["check", "pwa-pairing-fraction"],
    ], ids=["t-end-zero", "no-step-in-horizon", "step-zero", "step-nan",
            "values-not-numbers", "kappa-negative", "disturbance-above-bound",
            "relation-shape", "x1-0-nan", "waypoint-inf", "lambda-grid-text",
            "zero-disturbance-scaled", "waypoint-t-nan", "offset-nan",
            "cert-lambda-text", "cert-lambda-list", "cert-m-text", "cert-m-short",
            "cert-U-short", "cert-jbar-short", "pairing-on-linear",
            "pwa-pairing-fraction"])
    def test_zero_horizon_exits_one(self, argv, tmp_path, capsys, caplog):
        """Bad input of every kind exits 1 with one error line, no traceback.
        A model name other than case1 names an edit of case1's model file
        (of case2's, the PWA model, when it starts with ``pwa-``)."""
        if argv[0] == "run":
            argv = argv + ["--out", str(tmp_path / "out")]
        if argv[1] != "case1":
            base = "case2" if argv[1].startswith("pwa-") else "case1"
            doc = json.loads(builtin_model_path(base).read_text())
            _break_model(doc, argv[1])
            argv = [argv[0], str(tmp_path / "bad.model")] + argv[2:]
            (tmp_path / "bad.model").write_text(json.dumps(doc))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and not caplog.records
        assert "Traceback" not in err

    def test_one_pass_writer_consistency(self, tmp_path, capsys):
        """Shared columns are formatted the same in every artifact, and the
        trajectory file equals a standalone export of the same run."""
        out = tmp_path / "out"
        assert main(["run", "case1", "--out", str(out), "--plot-data"]) == 0
        rows = [line.split(",") for line in
                (out / "bounds.csv").read_text().splitlines()[1:]]
        for name, col in (("err.dat", 1), ("sim_fn.dat", 2), ("bound.dat", 3)):
            want = "".join(f"{r[0]} {r[col]}\n" for r in rows)
            assert (out / "plot" / name).read_text() == want
        traj = run_scenario(build_pipeline(load_model(builtin_model_path("case1"))).scenario)
        export_trajectory(traj, tmp_path / "alone.csv")
        assert (out / "trajectory.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()

    def test_seed_recorded(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "case1", "--out", str(out), "--t-end", "1.0",
                     "--seed", "7"]) == 0
        assert json.loads((out / "report.json").read_text())["seed"] == 7


class TestSweep:
    def test_disturbance_amplitude_all_pass(self, capsys):
        assert main(["sweep", "case1", "--param", "disturbance-amplitude",
                     "--values", "0,0.05,0.1,0.15"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4

    def test_single_kappa_matches_run(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["run", "case1", "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        capsys.readouterr()
        assert main(["sweep", "case1", "--param", "kappa", "--values", "8"]) == 0
        line = [l for l in capsys.readouterr().out.splitlines() if "PASS" in l][0]
        # table prints six significant digits
        assert float(line.split()[1]) == pytest.approx(report["max_err"], rel=1e-5)

    def test_step_refinement_consistency(self, tmp_path, capsys):
        """Terminal states under h and h/2 agree to integrator accuracy."""
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "case1", "--out", str(a), "--step", "0.001"]) == 0
        assert main(["run", "case1", "--out", str(b), "--step", "0.0005"]) == 0
        ta = _read_csv(a / "trajectory.csv")
        tb = _read_csv(b / "trajectory.csv")
        cols = [f"x1_{k}" for k in range(6)]
        xa = np.array([ta[c][-1] for c in cols])
        xb = np.array([tb[c][-1] for c in cols])
        assert np.linalg.norm(xa - xb) < 1e-8

    def test_step_sweep_matches_run(self, tmp_path, capsys):
        """Each swept step width rebuilds the step maps: the table's max
        ||e|| equals that of ``run --step`` at the same width."""
        steps = ("0.001", "0.0005")
        assert main(["sweep", "case1", "--param", "step", "--values", ",".join(steps)]) == 0
        lines = [l.split() for l in capsys.readouterr().out.splitlines()[1:]]
        assert [l[-1] for l in lines] == ["PASS", "PASS"]
        for step, line in zip(steps, lines):
            out = tmp_path / step
            assert main(["run", "case1", "--out", str(out), "--step", step]) == 0
            report = json.loads((out / "report.json").read_text())
            assert line[1] == f"{report['max_err']:.6g}"

    def test_unknown_parameter_exits_one(self, capsys):
        # argparse rejects unknown choices before our handler sees them
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "case1", "--param", "gravity", "--values", "1"])
        assert exc.value.code == 2
