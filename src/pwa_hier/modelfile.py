"""Model files: one JSON document declaring a system, its abstraction,
gains, certificate options, and a scenario.

The loader validates the schema, builds the typed objects, solves (or
validates supplied) relations, synthesizes (or verifies supplied)
certificates, and returns a ready-to-run pipeline.  Numbers are read as
IEEE doubles; the one writer, the certificate fragment, uses shortest-exact
float encoding, so a fragment read back preserves every entry bit for bit.
Keys the schema does not name (``description``, ``reconstructed``) are
annotations and are ignored.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .certificate import (
    Certificate,
    LmiReport,
    ModeCertificate,
    synthesize_certificate,
)
from .errors import ModelError, ParseError, PwaHierError
from .polytope import Partition, Polyhedron
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
    DISTURBANCE_TERMS,
    ZERO,
    AbstractionMode,
    DisturbanceSignal,
    LinearAbstraction,
    PwaAbstraction,
    PwaMode,
    PwaSystem,
    check_disturbance_bound,
    needs_pairing,
    paired_modes,
    stack_blocks,
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


@dataclass
class Pipeline:
    """Everything derived from a model file, ready to check or run."""

    config: ModelConfig
    relation: RelationMaps
    interface: Interface
    joint: JointSystem
    certificate: Certificate
    scenario: Scenario

    @property
    def pairing(self) -> Optional[tuple[int, ...]]:
        """The relation's pairing (None for a linear abstraction)."""
        return self.relation.pairing


#: How a model-file entry of rank 0, 1 or 2 that does not parse as numbers,
#: or has another rank, is reported.
_RANK_ERRORS = (("expected a number", "expected a number, not a list"),
                ("not a numeric vector", "expected a flat list of numbers"),
                ("not a numeric matrix", "expected a matrix (list of rows)"))


def _array(node, what: str, ndim: int):
    """``node`` as a finite float array of rank ``ndim``, a float for rank 0."""
    unparsed, misshapen = _RANK_ERRORS[ndim]
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"{what}: {unparsed} ({exc})") from exc
    if arr.ndim != ndim:
        raise ModelError(f"{what}: {misshapen}")
    if not np.all(np.isfinite(arr)):
        raise ModelError(f"{what}: " + ("entries must be finite numbers" if ndim
                                        else "must be a finite number"))
    return arr if ndim else float(arr)


_scalar, _vector, _matrix = (functools.partial(_array, ndim=k) for k in range(3))


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
    if not isinstance(kind, str) or kind not in DISTURBANCE_TERMS:
        raise ModelError(f"scenario.disturbance: unknown kind {kind!r}")
    takes = DISTURBANCE_TERMS[kind]
    for key in ("offset", "amplitude"):
        if key in node and key not in takes:
            raise ModelError(f"scenario.disturbance: a {kind} disturbance takes no {key!r}")
    terms = {key: _scalar(_require(node, key, "disturbance"), f"disturbance.{key}")
             for key in takes}
    return DisturbanceSignal(kind, np.zeros(dim) if kind == ZERO else np.ones(dim), **terms)


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
        if not np.any(lambda_grid > 0.0):
            raise ModelError("certificate.lambda_grid: needs a positive decay rate")
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
    stray = [key for key in ("lambda", "m", "U", "W", "T", "Jbar")
             if cert_node.get(key) is not None and cert_M is None]
    if stray:
        raise ModelError(f"certificate: {', '.join(stray)} given without a supplied M")
    if cert_M is not None:
        if cert_lambda is None:
            raise ModelError("certificate: supplied M requires an explicit lambda")
        for key, entries in (("M", cert_M), ("m", cert_m), ("U", cert_U),
                             ("W", cert_W), ("Jbar", cert_jbar)):
            if entries is not None and len(entries) != system.n_modes:
                raise ModelError(f"certificate.{key}: need one entry per mode "
                                 f"({system.n_modes}), got {len(entries)}")
    cert_T = cert_node.get("T")
    if (cert_T is None) != (cert_jbar is None):
        missing = "T" if cert_T is None else "Jbar"
        raise ModelError(f"certificate: T and Jbar come together, {missing} is missing")
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
    )


def _supplied_relation(config: ModelConfig, solved: Optional[RelationMaps]) -> RelationMaps:
    """Residual-check relation maps supplied by the file, paired as the
    ``solved`` relation is (None for a linear abstraction)."""
    pairing = None if solved is None else solved.pairing
    paired = paired_modes(config.abstraction, pairing, config.system.n_modes)
    P, Q = np.array(config.relation_P), np.array(config.relation_Q)
    residuals = relation_residual(*stack_blocks(config.system.modes, "ABC"),
                                  *stack_blocks([pm.mode for pm in paired], "FH"), P, Q)
    return RelationMaps(P, Q, tuple(residuals.tolist()), pairing=pairing)


def build_pipeline(config: ModelConfig) -> Pipeline:
    """Solve relations, build the interface and joint system, obtain a
    certificate (synthesized unless the file supplies one), assemble the
    scenario, and refuse a lambda at which its gain slopes overflow."""
    relation = None
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
        relation = _supplied_relation(config, relation)
    elif relation is None:
        relation = solve_system_relation(config.system, config.abstraction)

    interface = build_interface(config.system, config.abstraction, relation, config.K,
                                R=config.R)
    joint = assemble_joint(config.system, config.abstraction, relation, interface)

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
        certificate = Certificate(config.kappa, config.cert_lambda, entries,
                                  T=config.cert_T, jbars=config.cert_jbar)
    else:
        certificate = synthesize_certificate(
            joint, kappa=config.kappa, lambda_grid=config.lambda_grid,
            m_scalar=config.m_scalar,
        )

    scenario = Scenario(
        config.system, config.abstraction, relation, interface, certificate,
        reference_schedule(config.waypoints), config.disturbance,
        x1_0=config.x1_0, x2_0=config.x2_0, t_end=config.t_end, h=config.step,
        joint=joint,
    )
    if not np.all(np.isfinite(scenario.slopes)):
        key = "certificate.lambda" if config.cert_M is not None else "certificate.lambda_grid"
        raise ModelError(f"{key}: {certificate.lam!r} makes a gain slope overflow")
    return Pipeline(
        config=config, relation=relation, interface=interface,
        joint=joint, certificate=certificate, scenario=scenario,
    )


def load_pipeline(path) -> Pipeline:
    return build_pipeline(load_model(path))


# -- serialization -----------------------------------------------------------

def _mat_list(M: np.ndarray) -> list:
    return [[float(v) for v in row] for row in np.asarray(M)]


def certificate_to_jsonable(cert: Certificate, reports: Sequence[LmiReport]) -> dict:
    """Certificate as a document fragment reusable in a model file, with the
    per-mode verdicts of ``reports`` (the scenario's check) as ``feasible``."""
    doc = {
        "kappa": cert.kappa,
        "lambda": cert.lam,
        "M": [_mat_list(e.M) for e in cert.entries],
    }
    if any(e.m_scalar is not None for e in cert.entries):
        doc["m"] = [float(e.m_scalar if e.m_scalar is not None else 1.0)
                    for e in cert.entries]
    doc["feasible"] = [bool(r.feasible) for r in reports]
    return doc
