"""CLI contract: exit codes, artifacts, determinism, report consistency."""

import functools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pwa_hier
from pwa_hier import export_run, run_scenario, simulator
from pwa_hier.cli import _sweep_scenario, build_parser, main
from pwa_hier.polytope import MEMBERSHIP_SLACK
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
    return json.dumps(certificate_to_jsonable(pipe.certificate, pipe.scenario.reports))


def _count_calls(monkeypatch, *names):
    """Count the calls of each of the ``certificate`` functions ``names``,
    wrapped in every module namespace that holds them."""
    from pwa_hier import certificate

    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(certificate, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    return calls


#: ``_edit`` deletes the entry given this value.
_DROP = object()


def _edit(doc, path, value):
    """Set the entry at ``path`` (keys and list indices) of ``doc`` to
    ``value``, or delete it when ``value`` is ``_DROP``."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value


def _entry_paths(node, path=()):
    """Path of every entry under ``node``, descending into the first item
    of each list only."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node[:1]) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _entry_paths(value, path + (key,))


def _break_model(doc, how):
    """Apply one named defect to a model document, in place, and return it
    (or, for ``top-level-list``, the list that holds it).  Defects named
    ``cert-*`` edit the model's own saved certificate, supplied in the file."""
    if how == "top-level-list":
        return [doc]
    if how.startswith("cert-"):
        cert = json.loads(_saved_certificate(doc["name"]))
        doc["certificate"].update(cert)
        modes = len(cert["M"])
        rows = len(doc["system"]["partition"][0]["f"])
        if how == "cert-lambda-text":
            doc["certificate"]["lambda"] = "abc"
        elif how == "cert-lambda-list":
            doc["certificate"]["lambda"] = [1]
        elif how == "cert-lambda-zero":
            doc["certificate"]["lambda"] = 0.0
        elif how == "cert-M-without-lambda":
            del doc["certificate"]["lambda"]
        elif how == "cert-lambda-tiny":
            # positive and finite, but every gain slope 2 ||sqrt(M) X|| / lambda overflows
            doc["certificate"]["lambda"] = 1e-310
        elif how == "cert-m-text":
            doc["certificate"]["m"] = ["x"] + [1.0] * (modes - 1)
        elif how == "cert-m-short":
            doc["certificate"]["m"] = [1.0]
        elif how == "cert-U":
            # zero weights of the right shape, refused all the same
            doc["certificate"]["U"] = [[[0.0] * rows] * rows] * modes
        elif how == "cert-M-asymmetric":
            doc["certificate"]["M"][0][0][1] += 1e-3
        elif how == "cert-jbar-short":
            # one continuity matrix for every mode and no T: refused by its key
            doc["certificate"]["Jbar"] = [np.eye(len(cert["M"][0])).tolist()]
        elif how == "cert-T-Jbar-shape":
            eye = np.eye(len(cert["M"][0])).tolist()
            doc["certificate"].update(T=np.eye(3).tolist(), Jbar=[eye] * modes)
        elif how == "cert-T-only":
            # case1's modes share one M, so T = M would factor it through J = I
            doc["certificate"]["T"] = cert["M"][0]
        elif how == "cert-lambda-without-M":
            doc["certificate"] = {"kappa": cert["kappa"], "lambda": 5.0}
        elif how == "cert-T-without-M":
            # shapes that could not even factor M, and no M to factor
            doc["certificate"] = {"kappa": cert["kappa"], "T": np.eye(3).tolist(),
                                  "Jbar": [np.eye(3, len(cert["M"][0])).tolist()] * modes}
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
    elif how == "lambda-grid-nonpositive":
        doc["certificate"]["lambda_grid"] = [0.0, -1.0]
    elif how == "lambda-grid-empty":
        doc["certificate"]["lambda_grid"] = []
    elif how == "lambda-grid-tiny":
        # synthesis accepts the rate, but every gain slope overflows
        doc["certificate"]["lambda_grid"] = [1e-310]
    elif how == "zero-disturbance":
        doc["scenario"]["disturbance"] = {"kind": "zero"}
    elif how == "waypoint-t-nan":
        doc["scenario"]["u2bar"][1]["t"] = float("nan")
    elif how == "offset-nan":
        doc["scenario"]["disturbance"]["offset"] = float("nan")
    elif how == "constant-with-amplitude":
        doc["scenario"]["disturbance"] = {"kind": "constant", "offset": 0.1, "amplitude": 0.05}
    elif how == "pairing-on-linear":
        doc["pairing"] = [9] * len(doc["system"]["modes"])
    elif how == "pwa-pairing-fraction":
        doc["pairing"][0] += 0.7
    elif how == "waypoint-ragged":
        doc["scenario"]["u2bar"][1]["value"].append(1.0)
    elif how == "waypoint-wrong-dim":
        for waypoint in doc["scenario"]["u2bar"]:
            waypoint["value"].append(1.0)
    elif how == "R-shape":
        doc["gains"]["R"] = doc["gains"]["K"]  # p x n, where R needs p x q
    elif how == "t-end-huge":
        doc["scenario"]["t_end"] = 1e308  # t_end / step overflows a double
    elif how == "step-tiny":
        doc["scenario"]["step"] = 1e-310
    elif how == "kappa-huge-integer":
        doc["certificate"]["kappa"] = 10 ** 400  # an integer literal no double holds
    elif how == "pwa-H-row-dropped":
        del doc["abstraction"]["modes"][0]["H"][0]  # one output fewer than the other modes
    elif how == "pwa-more-modes-than-plant":
        doc["abstraction"]["modes"] *= 2
    else:
        raise AssertionError(f"unknown defect {how!r}")
    return doc


class TestCheck:
    def test_case1_exit_zero(self, capsys):
        assert main(["check", "case1"]) == 0
        out = capsys.readouterr().out
        assert "certified = True" in out

    def test_directory_does_not_hide_a_builtin(self, tmp_path, monkeypatch, capsys):
        """After ``run case1 --out case1``, ``check case1`` in that directory
        still reads the builtin case1."""
        assert main(["check", "case1"]) == 0
        want = capsys.readouterr().out
        monkeypatch.chdir(tmp_path)
        (tmp_path / "case1").mkdir()
        assert main(["check", "case1"]) == 0
        assert capsys.readouterr() == (want, "")

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

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
                             ids=["not-utf8", "nested-too-deep"])
    def test_unreadable_model_exits_one(self, content, tmp_path):
        """A model file that is not UTF-8 text, or that nests deeper than the
        JSON reader recurses, ends in one error line naming the file, not a
        traceback.  Run in a fresh interpreter, whose uncaught exception
        would exit 1 too."""
        p = tmp_path / "bad.model"
        p.write_bytes(content)
        env = dict(os.environ, PYTHONPATH=str(Path(pwa_hier.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "pwa_hier.cli", "check", str(p)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith(f"error: {p}: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("how, key", [("cert-jbar-short", "Jbar"), ("cert-T-only", "T"),
                                          ("cert-T-Jbar-shape", "T"), ("cert-T-without-M", "T")])
    def test_continuity_factorization_is_refused(self, how, key, tmp_path, capsys):
        """A supplied ``T`` or ``Jbar`` is refused by its path, with or
        without ``M`` and whatever its shape: no certificate reads it."""
        doc = _break_model(json.loads(builtin_model_path("case1").read_text()), how)
        p = tmp_path / "bad.model"
        p.write_text(json.dumps(doc))
        assert main(["check", str(p)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"error: certificate.{key}: continuity factorizations are not "
                              "supported (remove the key)")

    def test_save_certificate(self, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        assert main(["check", "case2", "--save-certificate", str(cert_path)]) == 0
        frag = json.loads(cert_path.read_text())
        assert frag["kappa"] == 12.0
        assert len(frag["M"]) == 5

    def test_save_certificate_reuses_the_verdict(self, tmp_path, capsys, monkeypatch):
        """The saved ``feasible`` list is the scenario's verdict: saving the
        certificate verifies nothing more than ``check`` does (synthesis
        and the scenario build, one ``verify_all`` each)."""
        calls = _count_calls(monkeypatch, "verify_all")
        assert main(["check", "case2", "--save-certificate", str(tmp_path / "c.json")]) == 0
        assert calls == {"verify_all": 2}
        assert json.loads((tmp_path / "c.json").read_text())["feasible"] == [True] * 5

    def test_save_certificate_onto_directory_exits_two(self, tmp_path, capsys):
        """A directory in the certificate's place is an I/O error: it and
        its contents stay as they were, and no temp file is left."""
        target = tmp_path / "cert"
        target.mkdir()
        (target / "keep.txt").write_text("mine\n")
        assert main(["check", "case1", "--save-certificate", str(target)]) == 2
        assert "i/o error" in capsys.readouterr().err
        assert target.is_dir()
        assert [p.name for p in target.iterdir()] == ["keep.txt"]
        assert (target / "keep.txt").read_text() == "mine\n"
        assert not list(tmp_path.rglob("*.tmp"))

    def test_save_certificate_to_empty_path_exits_two(self, tmp_path, monkeypatch, capsys):
        """An empty path is a path no file can take, not a missing option:
        an I/O error, exit 2, with nothing left in the working directory."""
        monkeypatch.chdir(tmp_path)
        assert main(["check", "case1", "--save-certificate", ""]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("i/o error: ") and len(err.splitlines()) == 1
        assert "certificate written" not in out
        assert not list(tmp_path.iterdir())

    def test_overflowing_data_ends_synthesis_in_one_line(self, tmp_path, capsys):
        """An output map entry of 1e308 makes every rate's scaling matrix
        overflow: each rate is skipped and synthesis fails, exit 2, with no
        RuntimeWarning on the way."""
        doc = json.loads(builtin_model_path("case1").read_text())
        doc["system"]["modes"][0]["C"][0][2] = 1e308
        p = tmp_path / "huge.model"
        p.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["check", str(p)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: no decay rate")

    @pytest.mark.parametrize("base, path, code, line", [
        ("case1", ("system", "modes", 0, "C", 0, 0), 1,
         "mode 0: relation residual is not finite"),
        ("case1", ("relation", "Q", 1, 0, 0), 1, "mode 1: relation residual is not finite"),
        ("case2", ("relation", "P", 2, 2, 0), 1, "pair (2, 1): relation residual is not finite"),
        ("case1", ("relation", "P", 2, 4, 0), 1, "mode 2: relation residual is not finite"),
        ("case2", ("abstraction", "modes", 0, "H", 0, 0), 1,
         "pairing: solved (3, 3, 2, 3, 3) does not match the declared (1, 1, 2, 3, 3)"),
        ("case1", ("system", "modes", 0, "B", 0, 0), 1,
         "closed loop of mode 0 has non-finite entries"),
        ("case2", ("abstraction", "modes", 0, "G", 0, 0), 1,
         "abstraction.modes[0]: transformed abstraction has non-finite entries"),
        ("case1", ("system", "modes", 0, "A", 2, 3), 2,
         "no decay rate in the grid produced a feasible certificate"),
    ], ids=["residual-C", "residual-Q", "residual-nan-pair", "default-R", "pairing-norm",
            "closed-loop", "transformed-abstraction", "decay-operator"])
    def test_extreme_model_number_is_refused_without_warning(self, base, path, code, line,
                                                             tmp_path, capsys):
        """One model number set to 1e308 overflows one evaluation site
        (relation residual, default feedthrough, pairing norm, closed loop,
        transformed abstraction, decay operator): the overflow raises no
        RuntimeWarning, and the finiteness and tolerance checks refuse the
        model in one error line.  A NaN residual is not certified."""
        doc = json.loads(builtin_model_path(base).read_text())
        _edit(doc, path, 1e308)
        p = tmp_path / "extreme.model"
        p.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["check", str(p)]) == code
        assert capsys.readouterr().err.splitlines() == [f"error: {line}"]

    @pytest.mark.parametrize("base, path, modes", [
        ("case1", ("M", 0, 6, 6), [1]),
        ("case2", ("M", 0, 0, 0), [1]),
        ("case2", ("M", 0, 3, 3), [1]),
        ("case2", ("M", 3, 0, 0), [4]),
        ("case2", ("lambda",), [1, 2, 3, 4, 5]),
    ], ids=["decay-sum", "decay-sum-case2", "decay-product", "decay-weight-and-slope",
            "symmetrization"])
    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_extreme_certificate_number_is_uncertified_without_warning(
            self, base, path, modes, action, tmp_path, capsys):
        """One number of a supplied certificate set to 1e308 overflows one
        site of the condition matrices (and, for a block the gain slopes
        read, the slope): the overflowing modes get NaN margins, and the
        check prints ``certified = False`` and exits 1 with no error line.
        With RuntimeWarnings as errors nothing warns; with them ignored, no
        eigenvalue call fails on the overflowed matrices."""
        doc = json.loads(builtin_model_path(base).read_text())
        cert = json.loads(_saved_certificate(base))
        _edit(cert, path, 1e308)
        doc["certificate"].update(cert)
        p = tmp_path / "extreme.model"
        p.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            assert main(["check", str(p)]) == 1
        out, err = capsys.readouterr()
        assert err == "" and "certified = False" in out
        nan_modes = [int(line.split()[1][:-1]) for line in out.splitlines()
                     if line.startswith("  mode ") and "nan" in line]
        assert nan_modes == modes
        assert "margins = (nan, nan, nan)" in out

    @pytest.mark.parametrize("scale", [5e-10, 5e-11, 0.0, -1.0])
    def test_supplied_m_not_positive_definite_is_uncertified(self, scale, tmp_path, capsys):
        """A supplied ``M`` that is not positive definite loads; margin 2 is
        the decision: ``check`` prints ``certified = False`` with the mode's
        smallest eigenvalue as its second margin and exits 1, with nothing
        on stderr and no RuntimeWarning."""
        doc = json.loads(builtin_model_path("case2").read_text())
        cert = json.loads(_saved_certificate("case2"))
        cert["M"][0] = (scale * np.eye(len(cert["M"][0]))).tolist()
        doc["certificate"].update(cert)
        p = tmp_path / "indefinite.model"
        p.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["check", str(p)]) == 1
        out, err = capsys.readouterr()
        assert err == "" and "certified = False" in out
        mode1 = next(line for line in out.splitlines() if line.startswith("  mode 1:"))
        assert mode1.split(", ")[1] == f"{scale:.3e}"

    @pytest.mark.parametrize("how", ["m_scalar", "m"])
    def test_tiny_homogeneous_entry_certifies(self, how, tmp_path, capsys):
        """A homogeneous entry of 1e-12 is positive and finite, so valid; it
        enters V and b only, so case2 certifies at its usual rate whether
        synthesis attaches it (``m_scalar``) or it is supplied beside the
        saved ``M`` (``m``)."""
        doc = json.loads(builtin_model_path("case2").read_text())
        if how == "m_scalar":
            doc["certificate"]["m_scalar"] = 1e-12
        else:
            cert = json.loads(_saved_certificate("case2"))
            cert["m"] = [1e-12] * len(cert["M"])
            doc["certificate"].update(cert)
        p = tmp_path / "tiny-m.model"
        p.write_text(json.dumps(doc))
        assert main(["check", str(p)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert "certificate: lambda = 2.30103, kappa = 12, certified = True" in out

    @pytest.mark.parametrize("base, path, value, line", [
        ("case2", ("abstraction", "modes", 1, "F"), "x",
         "abstraction.modes[1].F: not a numeric matrix"),
        ("case2", ("abstraction", "concrete_cells", 1, "f"), [[1]],
         "abstraction.concrete_cells[1].f: expected a flat list of numbers"),
        ("case1", ("system", "modes", 1, "B"), [1],
         "system.modes[1].B: expected a matrix (list of rows)"),
        ("case1", ("system", "partition", 1, "E"), [1],
         "system.partition[1].E: expected a matrix (list of rows)"),
        ("case1", ("gains", "K", 1), [1], "gains.K[1]: expected a matrix (list of rows)"),
        ("case1", ("relation", "P", 1), [1], "relation.P[1]: expected a matrix (list of rows)"),
        ("case1", ("scenario", "u2bar", 1, "value"), "x",
         "scenario.u2bar[1].value: not a numeric vector"),
        ("case1", ("scenario", "u2bar", 1, "t"), "x", "scenario.u2bar[1].t: expected a number"),
        ("case1", ("scenario", "disturbance", "offset"), "x",
         "scenario.disturbance.offset: expected a number"),
        ("case1", ("gains", "K", 1), [[0.0]], "gains.K[1]: shape (1, 1), expected (2, 6)"),
        ("case1", ("gains", "R"), [[[0.0]]], "gains.R[0]: shape (1, 1), expected (2, 2)"),
        ("case1", ("scenario", "x1_0"), [0.0], "scenario.x1_0: shape (1,), expected (6,)"),
        ("case1", ("scenario", "x2_0"), [0.0], "scenario.x2_0: shape (1,), expected (2,)"),
        ("case1", ("scenario", "u2bar", 1, "value"), [0.0],
         "scenario.u2bar[1].value: shape (1,), expected (2,)"),
        ("case2", ("certificate", "kappa"), -1.0,
         "certificate.kappa: kappa must be positive and finite, got -1.0"),
        ("case2+cert", ("certificate", "lambda"), 0.0,
         "certificate.lambda: lambda must be positive and finite, got 0.0"),
        ("case2+cert", ("certificate", "M", 0, 0, 1), 1e-3,
         "certificate.M[0]: M: relative asymmetry"),
        ("case2+cert", ("certificate", "M", 0), [[1.0]],
         "certificate.M[0]: shape (1, 1), expected (6, 6)"),
        ("case2", ("certificate", "m_scalar"), -1.0,
         "certificate.m_scalar: m_scalar must be positive and finite, got -1.0"),
        ("case2+cert", ("certificate", "m", 0), -1.0,
         "certificate.m[0]: m[0] must be positive and finite, got -1.0"),
        ("case2+cert", ("certificate", "lambda_grid"), [5.0, 0.1],
         "certificate.lambda_grid: ignored with a supplied M (remove the key)"),
        ("case2+cert", ("certificate", "m_scalar"), 7.0,
         "certificate.m_scalar: ignored with a supplied m (remove the key)"),
        ("case2", ("scenario", "t_end"), 0.0,
         "scenario.t_end: t_end must be positive and finite, got 0.0"),
        ("case2", ("scenario", "step"), 0.0,
         "scenario.step: step must be positive and finite, got 0.0"),
        ("case2", ("scenario", "u2bar", 1, "t"), -5.0,
         "scenario.u2bar: waypoint times must strictly increase"),
        ("case2", ("scenario", "disturbance", "offset"), 5.0,
         "scenario.disturbance: supremum 5.05 exceeds the declared mode bound 0.15"),
        ("case1", ("system", "modes", 1, "A", 1), [0.0],
         "system.modes[1].A: not a numeric matrix ("),
        ("case1", [("system", "modes", 2, "B", 0, 0), ("system", "modes", 0, "C")],
         [np.nan, "x"],
         "system.modes[0].C: not a numeric matrix ("),
        ("case1", ("system", "partition", 1, "E"), "x",
         "system.partition[1].E: not a numeric matrix ("),
        ("case2", ("gains", "K", 3, 0, 0), np.nan, "gains.K[3]: entries must be finite numbers"),
        ("case1", ("scenario", "u2bar", 1, "value", 0), np.nan,
         "scenario.u2bar[1].value: entries must be finite numbers"),
        ("case1", ("certificate", "m_scalar"), 7.0,
         "certificate.m_scalar: unused, every cell is conic (remove the key)"),
        ("case1+cert", ("certificate", "m"), [5.0, 5.0, 5.0],
         "certificate.m: unused, every cell is conic (remove the key)"),
        ("case2", ("scenario", "step"), True, "scenario.step: expected a number, not true"),
        ("case2", ("certificate", "kappa"), False,
         "certificate.kappa: expected a number, not false"),
        ("case1", ("system", "modes", 0, "c_bound"), True,
         "system.modes[0].c_bound: expected a number, not true"),
        ("case2", ("pairing",), [True, True, 2, 3, 3], "pairing[0]: expected a number, not true"),
        ("case1", ("certificate", "lambda_grid"), [True],
         "certificate.lambda_grid[0]: expected a number, not true"),
    ], ids=["pwa-F-text", "pwa-cell-f-matrix", "B-list", "E-list", "K-list", "P-list",
            "waypoint-value-text", "waypoint-t-text", "offset-text", "K-shape", "R-shape",
            "x1-0-shape", "x2-0-shape", "waypoint-value-shape", "kappa-negative",
            "cert-lambda-zero", "cert-M-asymmetric", "cert-M-shape", "m-scalar-negative",
            "cert-m-negative", "grid-with-M", "m-scalar-with-m", "t-end-zero", "step-zero",
            "waypoint-t-decreasing", "disturbance-over-bound", "A-ragged",
            "B-nan-after-bad-C", "E-text", "K-nan", "waypoint-value-nan",
            "m-scalar-all-conic", "m-all-conic", "step-true", "kappa-false", "c-bound-true",
            "pairing-true", "grid-true"])
    def test_loader_error_names_the_json_path(self, base, path, value, line, tmp_path, capsys):
        """A bad entry is named by its full JSON path, in one error line; of
        two bad entries, the one read first in document order.  A base
        ending in ``+cert`` supplies the model's saved certificate; a list
        of paths takes one value each."""
        name, cert, _ = base.partition("+cert")
        doc = json.loads(builtin_model_path(name).read_text())
        if cert:
            doc["certificate"].update(json.loads(_saved_certificate(name)))
        for at, v in zip(path, value) if isinstance(path, list) else [(path, value)]:
            _edit(doc, at, v)
        p = tmp_path / "bad.model"
        p.write_text(json.dumps(doc))
        assert main(["check", str(p)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {line}")

    def test_structural_mutants_end_in_one_error_line(self, tmp_path, capsys):
        """Every entry of both shipped models (the first item of each list),
        dropped, set to ``"x"`` or set to ``[]``: ``check`` raises nothing,
        exits 0, 1 or 2 and prints no error line or exactly one.  Each
        mutant gets a fresh file name: rewriting one path can force a
        writeback on some filesystems, a new name does not."""
        bad, count = [], 0
        for base in ("case1", "case2"):
            text = builtin_model_path(base).read_text()
            for path in _entry_paths(json.loads(text)):
                for value in (_DROP, "x", []):
                    doc = json.loads(text)
                    _edit(doc, path, value)
                    count += 1
                    p = tmp_path / f"m{count}.model"
                    p.write_text(json.dumps(doc))
                    try:
                        code = main(["check", str(p)])
                    except Exception as exc:
                        code = repr(exc)
                    err = capsys.readouterr().err.splitlines()
                    if code not in (0, 1, 2) or len(err) > 1 or not all(
                            line.startswith("error: ") for line in err):
                        bad.append((base, path, value, code, err))
        assert bad == []

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

    @pytest.mark.parametrize("which, events, tightness",
                             [("case1", 2, 71.99952), ("case2", 4, 190.84662)])
    def test_report_lists_crossings_and_tightness(self, which, events, tightness,
                                                  tmp_path, capsys):
        """report.json lists the run's crossing events (brackets within
        ``CROSSING_BRACKET``, inside and outside margins, 1-based labels)
        and the tightness max delta / max ||e||."""
        out = tmp_path / "out"
        assert main(["run", which, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["crossings"]) == events
        for ev in report["crossings"]:
            assert set(ev) == {"t_inside", "t_outside", "width", "margin_inside",
                               "margin_outside", "old_label", "new_label"}
            assert 0.0 < ev["width"] == ev["t_outside"] - ev["t_inside"]
            assert ev["width"] <= simulator.CROSSING_BRACKET
            assert ev["margin_inside"] >= -MEMBERSHIP_SLACK > ev["margin_outside"]
            assert ev["old_label"] != ev["new_label"]
            assert min(ev["old_label"] + ev["new_label"]) >= 1
        assert report["tightness"] == report["max_delta"] / report["max_err"]
        assert report["tightness"] == pytest.approx(tightness, rel=1e-6)

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
        # 1.2e16 samples: numpy refuses the allocation at once
        ["run", "case1", "--step", "1e-15"],
        ["sweep", "case1", "--param", "step", "--values", "0.001,abc"],
        ["sweep", "case1", "--param", "kappa", "--values", "-1"],
        ["sweep", "case1", "--param", "kappa", "--values", "inf"],
        ["sweep", "case1", "--param", "disturbance-amplitude", "--values", "1"],
        ["sweep", "case1", "--param", "disturbance-amplitude", "--values", "-0.1"],
        ["sweep", "case1", "--param", "disturbance-amplitude", "--values", "0.05,nan"],
        ["check", "relation-shape"],
        ["check", "x1-0-nan"],
        ["check", "waypoint-inf"],
        ["check", "lambda-grid-text"],
        ["check", "lambda-grid-nonpositive"],
        ["check", "lambda-grid-empty"],
        ["check", "lambda-grid-tiny"],
        ["sweep", "zero-disturbance", "--param", "disturbance-amplitude",
         "--values", "0.1"],
        ["run", "waypoint-t-nan"],
        ["check", "offset-nan"],
        ["run", "constant-with-amplitude"],
        ["check", "cert-lambda-text"],
        ["check", "cert-lambda-list"],
        ["check", "cert-lambda-tiny"],
        ["check", "cert-m-text"],
        ["check", "cert-m-short"],
        ["check", "cert-U"],
        ["check", "cert-jbar-short"],
        ["check", "cert-M-asymmetric"],
        ["check", "cert-T-Jbar-shape"],
        ["check", "cert-T-only"],
        ["check", "cert-lambda-without-M"],
        ["check", "cert-T-without-M"],
        ["check", "pairing-on-linear"],
        ["check", "pwa-pairing-fraction"],
        ["run", "waypoint-ragged"],
        ["run", "waypoint-wrong-dim"],
        ["check", "R-shape"],
        ["check", "t-end-huge"],
        ["run", "step-tiny"],
        ["check", "kappa-huge-integer"],
        ["check", "pwa-H-row-dropped"],
        ["check", "cert-M-without-lambda"],
        ["check", "cert-lambda-zero"],
        ["check", "top-level-list"],
        ["check", "pwa-more-modes-than-plant"],
        ["sweep", "case1", "--param", "step", "--values", ""],
        ["sweep", "case1", "--param", "step", "--values", ","],
    ], ids=["t-end-zero", "no-step-in-horizon", "step-zero", "step-nan", "step-unallocatable",
            "values-not-numbers", "kappa-negative", "kappa-inf", "disturbance-above-bound",
            "disturbance-amplitude-negative", "disturbance-amplitude-nan",
            "relation-shape", "x1-0-nan", "waypoint-inf", "lambda-grid-text",
            "lambda-grid-nonpositive", "lambda-grid-empty", "lambda-grid-tiny",
            "zero-disturbance-scaled", "waypoint-t-nan", "offset-nan", "constant-with-amplitude",
            "cert-lambda-text", "cert-lambda-list", "cert-lambda-tiny", "cert-m-text",
            "cert-m-short", "cert-U", "cert-jbar-short", "cert-M-asymmetric",
            "cert-T-Jbar-shape", "cert-T-only", "cert-lambda-without-M",
            "cert-T-without-M", "pairing-on-linear",
            "pwa-pairing-fraction", "waypoint-ragged", "waypoint-wrong-dim", "R-shape",
            "t-end-huge", "step-tiny", "kappa-huge-integer", "pwa-H-row-dropped",
            "cert-M-without-lambda", "cert-lambda-zero", "top-level-list",
            "pwa-more-modes-than-plant", "values-empty", "values-comma"])
    def test_zero_horizon_exits_one(self, argv, tmp_path, capsys, caplog):
        """Bad input of every kind exits 1 with one error line, no traceback,
        and no RuntimeWarning on the way.  A model name other than case1
        names an edit of case1's model file (of case2's, the PWA model, when
        it starts with ``pwa-``)."""
        if argv[0] == "run":
            argv = argv + ["--out", str(tmp_path / "out")]
        if argv[1] != "case1":
            base = "case2" if argv[1].startswith("pwa-") else "case1"
            doc = json.loads(builtin_model_path(base).read_text())
            doc = _break_model(doc, argv[1])
            argv = [argv[0], str(tmp_path / "bad.model")] + argv[2:]
            (tmp_path / "bad.model").write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
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
        alone = tmp_path / "alone"
        export_run(traj, alone)
        assert (out / "trajectory.csv").read_bytes() == (alone / "trajectory.csv").read_bytes()

    @pytest.mark.parametrize("exchange", [True, False], ids=["exchange", "replace"])
    def test_rerun_replaces_each_file_old_or_new(self, exchange, tmp_path, monkeypatch,
                                                 capsys):
        """A rerun into one ``--out`` replaces every artifact whole: a handle
        opened before it keeps the first run's bytes, each path then reads
        what a fresh run writes, and no temp file is left.  Without the
        exchange (``replace``) every file goes through ``os.replace``."""
        if not exchange:
            monkeypatch.setattr(simulator, "_renameat2", lambda: None)
        replaced = []
        real_replace = simulator.os.replace
        monkeypatch.setattr(simulator.os, "replace",
                            lambda src, dst: (replaced.append(dst), real_replace(src, dst)))
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        argv = ["run", "case1", "--plot-data", "--t-end"]
        assert main(argv + ["1.0", "--out", str(out)]) == 0
        first = (out / "trajectory.csv").read_bytes()
        with open(out / "trajectory.csv", "rb") as old:
            replaced.clear()
            assert main(argv + ["2.0", "--out", str(out)]) == 0
            assert old.read() == first
        if not exchange:
            assert len(replaced) == 8
        elif simulator._renameat2() is not None:
            assert replaced == []
        assert main(argv + ["2.0", "--out", str(fresh)]) == 0
        names = sorted(p.relative_to(fresh) for p in fresh.rglob("*") if p.is_file())
        assert sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) == names
        assert len(names) == 8
        for name in names:
            want = (fresh / name).read_bytes()
            if name.name == "report.json":
                want = want.replace(str(fresh).encode(), str(out).encode())
            assert (out / name).read_bytes() == want, name
        assert (out / "trajectory.csv").read_bytes() != first

    def test_overflowed_bound_fails_and_reports_null(self, tmp_path, capsys):
        """A kappa so small that V overflows ends in FAIL (exit 2), and
        report.json holds null for the infinite levels: JSON has no
        Infinity."""
        doc = json.loads(builtin_model_path("case1").read_text())
        doc["certificate"]["kappa"] = 1e-310
        (tmp_path / "tiny.model").write_text(json.dumps(doc))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", str(tmp_path / "tiny.model"), "--out", str(out),
                         "--t-end", "0.5"]) == 2
        assert "bound chain: FAIL" in capsys.readouterr().out
        text = (out / "report.json").read_text()
        assert "Infinity" not in text and "NaN" not in text
        report = json.loads(text)
        assert report["max_V"] is None and report["max_delta"] is None
        assert report["max_err"] > 0.0 and report["verdict"] == "FAIL"

    @pytest.mark.parametrize("argv", [["run", "--t-end", "0.5"],
                                      ["sweep", "--param", "step", "--values", "0.001"]],
                             ids=["run", "sweep"])
    def test_uncertified_refused_before_simulating(self, argv, tmp_path, capsys):
        """A certificate that fails on a mode the run would never enter is
        still refused before simulating: exit 1, the failing margins printed
        under ``certified = False``, no table and no artifact."""
        doc = json.loads(builtin_model_path("case2").read_text())
        cert = json.loads(_saved_certificate("case2"))
        cert["M"][-1] = (1e-6 * np.eye(len(cert["M"][-1]))).tolist()  # fails domination
        doc["certificate"].update(cert)
        model = tmp_path / "bad.model"
        model.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = [argv[0], str(model)] + argv[1:]
        if argv[0] == "run":
            argv += ["--out", str(out)]
        assert main(argv) == 1
        stdout = capsys.readouterr().out
        assert "certified = False" in stdout and "mode 5: margins = (-1.000e+00" in stdout
        assert "verdict" not in stdout and "wrote" not in stdout
        assert not (out / "trajectory.csv").exists()

    def test_parser_reuse_keeps_calls_apart(self, tmp_path, capsys):
        """The parser is built once per process, and a flag given to one call
        does not carry over to the next."""
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "case1", "--out", str(a), "--plot-data", "--t-end", "0.5"]) == 0
        assert main(["run", "case1", "--out", str(b), "--t-end", "0.5"]) == 0
        assert (a / "plot").is_dir() and not (b / "plot").exists()
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("argv, scenarios", [
        (["sweep", "case1", "--param", "step", "--values", "0.001,0.002,0.004"], 4),
        (["sweep", "case1", "--param", "kappa", "--values", "4,8,12"], 4),
        (["run", "case1", "--t-end", "1"], 2),
        (["run", "case1"], 1),
    ], ids=["sweep-step", "sweep-kappa", "run-t-end", "run"])
    def test_each_scenario_checks_its_certificate_once(self, argv, scenarios, tmp_path,
                                                       capsys, monkeypatch):
        """Synthesis verifies once, and each scenario built (the model's and
        one per variant) verifies its certificate and computes its gain
        slopes once."""
        if argv[0] == "run":
            argv = argv + ["--out", str(tmp_path / "out")]
        calls = _count_calls(monkeypatch, "verify_all", "gain_slopes_all")
        assert main(argv) == 0
        assert calls == {"verify_all": 1 + scenarios, "gain_slopes_all": scenarios}

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

    def test_kappa_variant_check_equals_a_fresh_one(self):
        """A kappa value's scenario checks its new certificate when it is
        built; since kappa enters neither, its margins and gain slopes equal
        those of the shipped scenario."""
        pipe = build_pipeline(load_model(builtin_model_path("case1")))
        variant = _sweep_scenario(pipe, "kappa", 4.0)
        assert variant.certificate.kappa == 4.0
        assert variant.reports == pipe.scenario.reports
        np.testing.assert_array_equal(variant.slopes, pipe.scenario.slopes)

    @pytest.mark.parametrize("kappa", ["1e-310", "1e308"], ids=["V-overflows",
                                                              "delta-overflows"])
    def test_overflowing_kappa_fails(self, kappa, capsys):
        """A kappa whose V or delta overflows certifies nothing: FAIL and
        exit 2, with no RuntimeWarning on the way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["sweep", "case2", "--param", "kappa", "--values", kappa]) == 2
        assert capsys.readouterr().out.splitlines()[-1].endswith("FAIL")

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

    @pytest.mark.parametrize("values", ["-0.1", "nan", "0.05,-0.1"])
    def test_bad_amplitude_rejected_before_the_table(self, values, capsys):
        """Amplitude values are sup-norm targets: a negative one (which would
        flip the waveform) or NaN is named as such, before any row runs."""
        assert main(["sweep", "case1", "--param", "disturbance-amplitude",
                     "--values", values]) == 1
        captured = capsys.readouterr()
        assert "sup-norm target" in captured.err and captured.out == ""

    def test_unallocatable_step_rejected_before_the_table(self, capsys):
        """A step whose run would exceed physical memory is refused before
        any row runs, with its sample count in a few digits."""
        assert main(["sweep", "case1", "--param", "step", "--values", "0.001,1e-300"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "more than can be allocated" in captured.err
        assert not re.search(r"\d{21}", captured.err)

    def test_unknown_parameter_exits_one(self, capsys):
        # argparse rejects unknown choices before our handler sees them
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "case1", "--param", "gravity", "--values", "1"])
        assert exc.value.code == 2
