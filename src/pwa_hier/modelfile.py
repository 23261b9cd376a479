"""Model files: one JSON document declaring a system, its abstraction,
gains, certificate options, and a scenario.

The loader validates the schema, builds the typed objects, solves (or
validates supplied) relations, synthesizes (or verifies supplied)
certificates, and returns a ready-to-run pipeline.  Serialization uses
shortest-exact float encoding, so a load/save round-trip preserves every
matrix entry bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .certificate import (
    Certificate,
    ModeCertificate,
    synthesize_certificate,
    verify_all,
)
from .errors import ModelError, ParseError, PwaHierError
from .polytope import ContinuityMatrix, Partition, Polyhedron
from .relation import (
    Interface,
    JointSystem,
    RelationMaps,
    assemble_joint,
    build_interface,
    relation_residual,
    solve_relation_pairing,
    solve_system_relation,
)
from .simulator import Scenario, reference_schedule
from .systems import (
    AbstractionMode,
    DisturbanceSignal,
    LinearAbstraction,
    PwaAbstraction,
    PwaMode,
    PwaSystem,
    check_disturbance_bound,
    needs_pairing,
    paired_modes,
)


def builtin_model_path(name: str) -> Path:
    """Path of a model shipped with the package (``case1``, ``case2``)."""
    return Path(str(resources.files("pwa_hier") / "models" / f"{name}.model"))


def resolve_model_path(spec: str) -> Path:
    """Accept either a filesystem path or a builtin model name."""
    p = Path(spec)
    if p.exists():
        return p
    builtin = builtin_model_path(spec)
    if builtin.exists():
        return builtin
    raise ModelError(f"model file {spec!r} not found (and no builtin of that name)")


@dataclass
class ModelConfig:
    """Validated raw content of a model file."""

    name: str
    description: str
    system: PwaSystem
    abstraction: Union[LinearAbstraction, PwaAbstraction]
    K: list
    R: Optional[list]
    relation_P: Optional[list]
    relation_Q: Optional[list]
    declared_pairing: Optional[tuple[int, ...]]
    kappa: float
    lambda_grid: Optional[np.ndarray]
    m_scalar: float
    cert_lambda: Optional[float]
    cert_M: Optional[list]
    cert_m: Optional[np.ndarray]
    cert_U: Optional[list]
    cert_W: Optional[list]
    cert_T: Optional[np.ndarray]
    cert_jbar: Optional[list]
    x1_0: np.ndarray
    x2_0: np.ndarray
    t_end: float
    step: float
    disturbance: DisturbanceSignal
    waypoints: list
    reconstructed: bool
    raw: dict = field(repr=False, default_factory=dict)


@dataclass
class Pipeline:
    """Everything derived from a model file, ready to check or run."""

    config: ModelConfig
    relation: RelationMaps
    pairing: Optional[tuple[int, ...]]
    interface: Interface
    joint: JointSystem
    certificate: Certificate
    scenario: Scenario


def _matrix(node, what: str) -> np.ndarray:
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"{what}: not a numeric matrix ({exc})") from exc
    if arr.ndim != 2:
        raise ModelError(f"{what}: expected a matrix (list of rows)")
    if not np.all(np.isfinite(arr)):
        raise ModelError(f"{what}: entries must be finite numbers")
    return arr


def _vector(node, what: str) -> np.ndarray:
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"{what}: not a numeric vector ({exc})") from exc
    if arr.ndim != 1:
        raise ModelError(f"{what}: expected a flat list of numbers")
    if not np.all(np.isfinite(arr)):
        raise ModelError(f"{what}: entries must be finite numbers")
    return arr


def _scalar(node, what: str) -> float:
    return float(_vector([node], what)[0])


def _require(node: dict, key: str, what: str):
    if key not in node:
        raise ModelError(f"{what}: missing required key {key!r}")
    return node[key]


def _cell(node, what: str) -> Polyhedron:
    E = _matrix(_require(node, "E", what), f"{what}.E")
    f = _vector(_require(node, "f", what), f"{what}.f")
    return Polyhedron(E, f)


def _disturbance(node: dict, dim: int) -> DisturbanceSignal:
    kind = _require(node, "kind", "scenario.disturbance")
    if kind == "zero":
        return DisturbanceSignal.zero(dim)
    if kind == "constant":
        return DisturbanceSignal.constant(
            _scalar(_require(node, "offset", "disturbance"), "disturbance.offset"), dim)
    if kind == "sinusoid":
        return DisturbanceSignal.sinusoid(
            _scalar(_require(node, "offset", "disturbance"), "disturbance.offset"),
            _scalar(_require(node, "amplitude", "disturbance"), "disturbance.amplitude"),
            dim,
        )
    raise ModelError(f"scenario.disturbance: unknown kind {kind!r}")


def load_model(path) -> ModelConfig:
    """Parse and schema-validate one model file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    try:
        return _build_config(doc)
    except PwaHierError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ModelError(f"{path}: {exc}") from exc


def _build_config(doc: dict) -> ModelConfig:
    sys_node = _require(doc, "system", "model")
    mode_nodes = _require(sys_node, "modes", "system")
    part_nodes = _require(sys_node, "partition", "system")
    if len(mode_nodes) != len(part_nodes):
        raise ModelError(
            f"system: {len(mode_nodes)} modes but {len(part_nodes)} partition cells"
        )
    modes = tuple(
        PwaMode(
            _matrix(_require(mn, "A", f"mode {i}"), f"mode {i}.A"),
            _matrix(_require(mn, "B", f"mode {i}"), f"mode {i}.B"),
            _matrix(_require(mn, "C", f"mode {i}"), f"mode {i}.C"),
            _scalar(mn.get("c_bound", 0.0), f"mode {i}.c_bound"),
        )
        for i, mn in enumerate(mode_nodes)
    )
    partition = Partition(tuple(
        _cell(pn, f"partition cell {i}") for i, pn in enumerate(part_nodes)
    ))
    system = PwaSystem(modes, partition)

    abs_node = _require(doc, "abstraction", "model")
    kind = _require(abs_node, "kind", "abstraction")
    if kind == "linear":
        abstraction = LinearAbstraction(
            _matrix(_require(abs_node, "F", "abstraction"), "abstraction.F"),
            _matrix(_require(abs_node, "G", "abstraction"), "abstraction.G"),
            _matrix(_require(abs_node, "H", "abstraction"), "abstraction.H"),
            _matrix(_require(abs_node, "L", "abstraction"), "abstraction.L"),
        )
    elif kind == "pwa":
        amodes = tuple(
            AbstractionMode(
                _matrix(_require(an, "F", f"abstraction mode {j}"), "F"),
                _matrix(_require(an, "G", f"abstraction mode {j}"), "G"),
                _matrix(_require(an, "H", f"abstraction mode {j}"), "H"),
                _matrix(_require(an, "L", f"abstraction mode {j}"), "L"),
            )
            for j, an in enumerate(_require(abs_node, "modes", "abstraction"))
        )
        cells = tuple(
            _cell(cn, f"abstraction cell {j}")
            for j, cn in enumerate(_require(abs_node, "concrete_cells", "abstraction"))
        )
        for j, cell in enumerate(cells):
            if cell.dim != system.n:
                raise ModelError(
                    f"abstraction cell {j}: dimension {cell.dim} != state dimension {system.n}"
                )
        if len(amodes) > system.n_modes:
            raise ModelError(
                f"abstraction: {len(amodes)} modes exceed the plant's {system.n_modes}"
            )
        abstraction = PwaAbstraction(amodes, cells)
    else:
        raise ModelError(f"abstraction: unknown kind {kind!r}")

    gains = _require(doc, "gains", "model")
    K = [_matrix(k, f"gains.K[{i}]") for i, k in enumerate(_require(gains, "K", "gains"))]
    if len(K) != system.n_modes:
        raise ModelError(f"gains.K: need {system.n_modes} entries, got {len(K)}")
    R = None
    if gains.get("R") is not None:
        R = [_matrix(r, f"gains.R[{i}]") for i, r in enumerate(gains["R"])]
        if len(R) != system.n_modes:
            raise ModelError(f"gains.R: need {system.n_modes} entries, got {len(R)}")

    relation_P = relation_Q = None
    if "relation" in doc:
        rel_node = doc["relation"]
        relation_P = [_matrix(p, f"relation.P[{i}]")
                      for i, p in enumerate(_require(rel_node, "P", "relation"))]
        relation_Q = [_matrix(q, f"relation.Q[{i}]")
                      for i, q in enumerate(_require(rel_node, "Q", "relation"))]
        if len(relation_P) != system.n_modes or len(relation_Q) != system.n_modes:
            raise ModelError("relation: need one P and one Q per mode")
        want_P, want_Q = (system.n, abstraction.m), (system.p, abstraction.m)
        for i, (P, Q) in enumerate(zip(relation_P, relation_Q)):
            if P.shape != want_P or Q.shape != want_Q:
                raise ModelError(
                    f"relation: P[{i}] and Q[{i}] have shapes {P.shape} and "
                    f"{Q.shape}, expected {want_P} and {want_Q}"
                )

    declared_pairing = None
    if "pairing" in doc:
        if not needs_pairing(abstraction):
            raise ModelError("pairing: only a PWA abstraction is paired")
        entries = _vector(doc["pairing"], "pairing")
        if len(entries) != system.n_modes or not np.all(entries == np.round(entries)):
            raise ModelError("pairing: need one whole number per concrete mode")
        declared_pairing = tuple(int(j) - 1 for j in entries)

    cert_node = _require(doc, "certificate", "model")
    kappa = _scalar(_require(cert_node, "kappa", "certificate"), "certificate.kappa")
    lambda_grid = cert_node.get("lambda_grid")
    if lambda_grid is not None:
        lambda_grid = _vector(lambda_grid, "certificate.lambda_grid")
    m_scalar = _scalar(cert_node.get("m_scalar", 1.0), "certificate.m_scalar")
    cert_lambda = cert_node.get("lambda")
    if cert_lambda is not None:
        cert_lambda = _scalar(cert_lambda, "certificate.lambda")
    cert_m = cert_node.get("m")
    if cert_m is not None:
        cert_m = _vector(cert_m, "certificate.m")
    cert_M, cert_U, cert_W, cert_jbar = (
        None if cert_node.get(key) is None else
        [_matrix(X, f"certificate.{key}[{i}]") for i, X in enumerate(cert_node[key])]
        for key in ("M", "U", "W", "Jbar")
    )
    if cert_M is not None:
        if cert_lambda is None:
            raise ModelError("certificate: supplied M requires an explicit lambda")
        for key, entries in (("M", cert_M), ("m", cert_m), ("U", cert_U),
                             ("W", cert_W), ("Jbar", cert_jbar)):
            if entries is not None and len(entries) != system.n_modes:
                raise ModelError(f"certificate.{key}: need one entry per mode "
                                 f"({system.n_modes}), got {len(entries)}")
    cert_T = cert_node.get("T")
    if cert_T is not None:
        cert_T = _matrix(cert_T, "certificate.T")

    scen = _require(doc, "scenario", "model")
    x1_0 = _vector(_require(scen, "x1_0", "scenario"), "scenario.x1_0")
    x2_0 = _vector(_require(scen, "x2_0", "scenario"), "scenario.x2_0")
    t_end = _scalar(_require(scen, "t_end", "scenario"), "scenario.t_end")
    step = _scalar(_require(scen, "step", "scenario"), "scenario.step")
    disturbance = _disturbance(_require(scen, "disturbance", "scenario"), system.n)
    check_disturbance_bound(system, disturbance)
    waypoints = [
        (_scalar(_require(wn, "t", "u2bar waypoint"), "u2bar waypoint t"),
         _vector(_require(wn, "value", "u2bar waypoint"), "u2bar value"))
        for wn in _require(scen, "u2bar", "scenario")
    ]

    return ModelConfig(
        name=str(doc.get("name", Path("model").stem)),
        description=str(doc.get("description", "")),
        system=system,
        abstraction=abstraction,
        K=K,
        R=R,
        relation_P=relation_P,
        relation_Q=relation_Q,
        declared_pairing=declared_pairing,
        kappa=kappa,
        lambda_grid=lambda_grid,
        m_scalar=m_scalar,
        cert_lambda=cert_lambda,
        cert_M=cert_M,
        cert_m=cert_m,
        cert_U=cert_U,
        cert_W=cert_W,
        cert_T=cert_T,
        cert_jbar=cert_jbar,
        x1_0=x1_0,
        x2_0=x2_0,
        t_end=t_end,
        step=step,
        disturbance=disturbance,
        waypoints=waypoints,
        reconstructed=bool(scen.get("reconstructed", False)),
        raw=doc,
    )


def _supplied_relation(config: ModelConfig, pairing) -> RelationMaps:
    """Residual-check relation maps supplied by the file."""
    paired = paired_modes(config.abstraction, pairing, config.system.n_modes)
    residuals = tuple(
        relation_residual(mode.A, mode.B, mode.C, pm.mode.F, pm.mode.H, P, Q)
        for mode, pm, P, Q in zip(config.system.modes, paired,
                                  config.relation_P, config.relation_Q)
    )
    return RelationMaps(tuple(config.relation_P), tuple(config.relation_Q),
                        residuals, pairing=pairing)


def build_pipeline(config: ModelConfig) -> Pipeline:
    """Solve relations, build the interface and joint system, obtain a
    certificate (synthesized unless the file supplies one), and assemble
    the scenario."""
    pairing = None
    if needs_pairing(config.abstraction):
        # the pairing comes from the solve even when the file supplies P/Q
        pairing, relation = solve_relation_pairing(
            config.system.modes, config.abstraction.modes
        )
        if config.declared_pairing is not None and pairing != config.declared_pairing:
            raise ModelError(
                f"pairing: solved {tuple(j + 1 for j in pairing)} does not match "
                f"the declared {tuple(j + 1 for j in config.declared_pairing)}"
            )
    if config.relation_P is not None:
        relation = _supplied_relation(config, pairing)
    elif pairing is None:
        relation = solve_system_relation(config.system, config.abstraction)

    interface = build_interface(
        config.system, config.abstraction, relation, config.K,
        R=config.R, pairing=pairing,
    )
    joint = assemble_joint(config.system, config.abstraction, relation, interface, pairing)

    if config.cert_M is not None:
        m = config.cert_m if config.cert_m is not None else [config.m_scalar] * len(joint)
        entries = tuple(
            ModeCertificate(
                config.cert_M[idx],
                m_scalar=float(m[idx]) if jm.kind == "affine" else None,
                U=config.cert_U[idx] if config.cert_U is not None else None,
                W=config.cert_W[idx] if config.cert_W is not None else None,
            )
            for idx, jm in enumerate(joint.modes)
        )
        jbars = None
        if config.cert_jbar is not None:
            jbars = tuple(ContinuityMatrix(J) for J in config.cert_jbar)
        certificate = Certificate(config.kappa, config.cert_lambda, entries,
                                  T=config.cert_T, jbars=jbars)
    else:
        certificate = synthesize_certificate(
            joint, kappa=config.kappa, lambda_grid=config.lambda_grid,
            m_scalar=config.m_scalar,
        )

    scenario = Scenario(
        config.system, config.abstraction, relation, interface, certificate,
        reference_schedule(config.waypoints), config.disturbance,
        x1_0=config.x1_0, x2_0=config.x2_0, t_end=config.t_end, h=config.step,
        pairing=pairing, joint=joint,
    )
    return Pipeline(
        config=config, relation=relation, pairing=pairing, interface=interface,
        joint=joint, certificate=certificate, scenario=scenario,
    )


def load_pipeline(path) -> Pipeline:
    return build_pipeline(load_model(path))


# -- serialization -----------------------------------------------------------

def _mat_list(M: np.ndarray) -> list:
    return [[float(v) for v in row] for row in np.asarray(M)]


def model_to_jsonable(config: ModelConfig) -> dict:
    """Rebuild the document from the typed objects (shortest-exact floats)."""
    doc: dict = {
        "name": config.name,
        "description": config.description,
        "system": {
            "modes": [
                {"A": _mat_list(m.A), "B": _mat_list(m.B), "C": _mat_list(m.C),
                 "c_bound": m.c_bound}
                for m in config.system.modes
            ],
            "partition": [
                {"E": _mat_list(c.E), "f": [float(v) for v in c.f]}
                for c in config.system.partition.cells
            ],
        },
        "gains": {"K": [_mat_list(k) for k in config.K]},
        "certificate": {"kappa": config.kappa},
        "scenario": {
            "reconstructed": config.reconstructed,
            "x1_0": [float(v) for v in config.x1_0],
            "x2_0": [float(v) for v in config.x2_0],
            "t_end": config.t_end,
            "step": config.step,
            "disturbance": {
                "kind": config.disturbance.kind,
                "offset": config.disturbance.offset,
                "amplitude": config.disturbance.amplitude,
            },
            "u2bar": [
                {"t": t, "value": [float(v) for v in val]}
                for t, val in config.waypoints
            ],
        },
    }
    if needs_pairing(config.abstraction):
        doc["abstraction"] = {
            "kind": "pwa",
            "modes": [
                {"F": _mat_list(a.F), "G": _mat_list(a.G),
                 "H": _mat_list(a.H), "L": _mat_list(a.L)}
                for a in config.abstraction.modes
            ],
            "concrete_cells": [
                {"E": _mat_list(c.E), "f": [float(v) for v in c.f]}
                for c in config.abstraction.concrete_cells
            ],
        }
    else:
        a = config.abstraction
        doc["abstraction"] = {
            "kind": "linear", "F": _mat_list(a.F), "G": _mat_list(a.G),
            "H": _mat_list(a.H), "L": _mat_list(a.L),
        }
    if config.R is not None:
        doc["gains"]["R"] = [_mat_list(r) for r in config.R]
    if config.relation_P is not None:
        doc["relation"] = {
            "P": [_mat_list(p) for p in config.relation_P],
            "Q": [_mat_list(q) for q in config.relation_Q],
        }
    if config.declared_pairing is not None:
        doc["pairing"] = [j + 1 for j in config.declared_pairing]
    cert = doc["certificate"]
    if config.lambda_grid is not None:
        cert["lambda_grid"] = [float(v) for v in config.lambda_grid]
    if config.m_scalar != 1.0:
        cert["m_scalar"] = config.m_scalar
    if config.cert_lambda is not None:
        cert["lambda"] = config.cert_lambda
    if config.cert_M is not None:
        cert["M"] = [_mat_list(M) for M in config.cert_M]
    if config.cert_m is not None:
        cert["m"] = [float(v) for v in config.cert_m]
    if config.cert_U is not None:
        cert["U"] = [_mat_list(U) for U in config.cert_U]
    if config.cert_W is not None:
        cert["W"] = [_mat_list(W) for W in config.cert_W]
    if config.cert_T is not None:
        cert["T"] = _mat_list(config.cert_T)
    if config.cert_jbar is not None:
        cert["Jbar"] = [_mat_list(J) for J in config.cert_jbar]
    return doc


def save_model(config: ModelConfig, path) -> None:
    Path(path).write_text(
        json.dumps(model_to_jsonable(config), indent=2) + "\n", encoding="utf-8"
    )


def certificate_to_jsonable(cert: Certificate, joint: JointSystem) -> dict:
    """Certificate as a document fragment reusable in a model file."""
    doc = {
        "kappa": cert.kappa,
        "lambda": cert.lam,
        "M": [_mat_list(e.M) for e in cert.entries],
    }
    if any(e.m_scalar is not None for e in cert.entries):
        doc["m"] = [float(e.m_scalar if e.m_scalar is not None else 1.0)
                    for e in cert.entries]
    doc["feasible"] = [bool(r.feasible) for r in verify_all(cert, joint)]
    return doc


def certificate_from_jsonable(doc: dict, joint: JointSystem) -> Certificate:
    entries = []
    for idx, jm in enumerate(joint.modes):
        msc = None
        if jm.kind == "affine":
            msc = float(doc["m"][idx]) if "m" in doc else 1.0
        entries.append(ModeCertificate(_matrix(doc["M"][idx], "M"), m_scalar=msc))
    return Certificate(float(doc["kappa"]), float(doc["lambda"]), tuple(entries))
