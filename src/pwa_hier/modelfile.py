"""Model files: one JSON document declaring a system, its abstraction,
gains, certificate options, and a scenario.

The loader reads every value through one reader that carries the value's
JSON path (such as ``system.modes[1].B``), so each error it raises while
reading the document starts with that path.  It builds the typed objects,
solves (or validates supplied) relations, synthesizes (or verifies
supplied) certificates, and returns a ready-to-run pipeline.  Numbers are
read as IEEE doubles; the one writer, the certificate fragment, uses
shortest-exact float encoding, so a fragment read back preserves every
entry bit for bit.  Keys the schema does not name (``description``,
``reconstructed``) are annotations and are ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from operator import attrgetter
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .certificate import (
    DEFAULT_M_SCALAR,
    Certificate,
    LmiReport,
    ModeCertificate,
    synthesize_certificate,
)
from .errors import ModelError, ParseError, PwaHierError
from .linalg import as_positive
from .polytope import AFFINE, CONIC, Partition, Polyhedron
from .relation import (
    JointSystem,
    RelationMaps,
    build_interface,
    relation_residual,
    solve_relation_pairing,
    solve_system_relation,
)
from .simulator import ReferenceSchedule, Scenario, reference_schedule
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
    paired_modes,
    stack_blocks,
)


def builtin_model_path(name: str) -> Path:
    """Path of a model shipped with the package (``case1``, ``case2``)."""
    return Path(str(resources.files("pwa_hier") / "models" / f"{name}.model"))


def resolve_model_path(spec: str) -> Path:
    """Accept either a model file's path (a pipe too) or a builtin model
    name; a directory (a run's ``--out`` named ``case1``) does not hide the
    builtin of its name."""
    p = Path(spec)
    if p.exists() and not p.is_dir():
        return p
    builtin = builtin_model_path(spec)
    if builtin.exists():
        return builtin
    raise ModelError(f"model file {spec!r} not found (and no builtin of that name)")


@dataclass
class ModelConfig:
    """Validated raw content of a model file.  A supplied certificate is
    ``cert_lambda``, ``cert_M`` and ``cert_m``: the loader refuses the keys
    no certificate reads (``U``, ``W``, ``T``, ``Jbar``) by their path."""

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
    m_scalar: Optional[float]  # None where the file gives none (DEFAULT_M_SCALAR)
    cert_lambda: Optional[float]
    cert_M: Optional[list]
    cert_m: Optional[list]
    x1_0: np.ndarray
    x2_0: np.ndarray
    t_end: float
    step: float
    disturbance: DisturbanceSignal
    schedule: ReferenceSchedule


@dataclass
class Pipeline:
    """Everything derived from a model file, ready to check or run: the
    config and the scenario.  The joint system and certificate are
    read-only views of the scenario's; the relation and pairing (None for a
    linear abstraction) of its joint system's."""

    config: ModelConfig
    scenario: Scenario

    joint = property(attrgetter("scenario.joint"))
    certificate = property(attrgetter("scenario.certificate"))
    relation = property(attrgetter("scenario.joint.relation"))
    pairing = property(attrgetter("scenario.joint.relation.pairing"))


#: How a model-file entry of rank 0, 1 or 2 that does not parse as numbers,
#: or has another rank, is reported.
_RANK_ERRORS = (("expected a number", "expected a number, not a list"),
                ("not a numeric vector", "expected a flat list of numbers"),
                ("not a numeric matrix", "expected a matrix (list of rows)"))


@dataclass(slots=True)
class _Entry:
    """One value of the model document and its JSON path (such as
    ``system.modes[1].B``), which every error about the value starts with."""

    value: object
    path: str = ""

    def error(self, message: str) -> ModelError:
        return ModelError(f"{self.path}: {message}")

    def _child(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def _fields(self) -> dict:
        if not isinstance(self.value, dict):
            raise self.error("expected an object")
        return self.value

    def __contains__(self, key: str) -> bool:
        return key in self._fields()

    def __getitem__(self, key: str) -> "_Entry":
        """The required entry ``key``."""
        fields = self._fields()
        if key not in fields:
            raise ModelError(f"{self._child(key)}: missing required key")
        return _Entry(fields[key], self._child(key))

    def get(self, key: str, default=None) -> Optional["_Entry"]:
        """The entry ``key``, or ``default`` where it is missing; None where
        the entry is missing or null and there is no default."""
        value = self._fields().get(key, default)
        return None if value is None and default is None else _Entry(value, self._child(key))

    def items(self) -> list["_Entry"]:
        """The entries of this list, each named by its index."""
        if not isinstance(self.value, list):
            raise self.error("expected a list")
        return [_Entry(v, f"{self.path}[{i}]") for i, v in enumerate(self.value)]

    def array(self, ndim: int, shape: Optional[tuple] = None):
        """The value as a finite float array of rank ``ndim`` (and of
        ``shape``, if given), a float for rank 0; a JSON boolean, alone or
        in a vector (matrices are not walked), is not a number."""
        if ndim < 2:
            for item in self.items() if ndim and isinstance(self.value, list) else [self]:
                if isinstance(item.value, bool):
                    raise item.error(f"expected a number, not {json.dumps(item.value)}")
        unparsed, misshapen = _RANK_ERRORS[ndim]
        nonfinite = "entries must be finite numbers" if ndim else "must be a finite number"
        try:
            arr = np.asarray(self.value, dtype=float)
        except OverflowError as exc:  # an integer literal beyond the double range
            raise self.error(nonfinite) from exc
        except (TypeError, ValueError) as exc:
            raise self.error(f"{unparsed} ({exc})") from exc
        if arr.ndim != ndim:
            raise self.error(misshapen)
        if not np.isfinite(arr).all():
            raise self.error(nonfinite)
        if shape is not None and arr.shape != shape:
            raise self.error(f"shape {arr.shape}, expected {shape}")
        return arr if ndim else float(arr)

    def matrices(self, letters: str) -> tuple:
        """The required matrix entries named by each letter (``"ABC"``)."""
        return tuple(self[X].array(2) for X in letters)

    def per_mode(self, count: int, shape: Optional[tuple] = None, read=None) -> list:
        """A list of ``count`` entries, one per mode, each read by ``read``
        (by default as a matrix, of ``shape`` if given)."""
        entries = [item.array(2, shape) if read is None else read(item)
                   for item in self.items()]
        if len(entries) != count:
            raise self.error(f"need {count} entries, got {len(entries)}")
        return entries

    def build(self, cls, *args):
        """``cls(*args)``, with the path put before an error it raises."""
        try:
            return cls(*args)
        except PwaHierError as exc:
            raise type(exc)(f"{self.path}: {exc}") from exc

    def positive(self) -> float:
        """The value as a positive finite number, by the rule of the
        constructor that takes it (``as_positive``), named by its key."""
        return self.build(as_positive, self.array(0), self.path.rsplit(".", 1)[-1],
                          ModelError)


def _cell(node: _Entry, dim: Optional[int] = None) -> Polyhedron:
    """The cell ``{x : E x >= f}`` of ``node``, of dimension ``dim`` if given."""
    cell = node.build(Polyhedron, node["E"].array(2), node["f"].array(1))
    if dim is not None and cell.dim != dim:
        raise node.error(f"dimension {cell.dim} != state dimension {dim}")
    return cell


def _disturbance(node: _Entry, dim: int) -> DisturbanceSignal:
    kind = node["kind"]
    if not isinstance(kind.value, str) or kind.value not in DISTURBANCE_TERMS:
        raise kind.error(f"unknown kind {kind.value!r}")
    takes = DISTURBANCE_TERMS[kind.value]
    for key in ("offset", "amplitude"):
        if key in node and key not in takes:
            raise node[key].error(f"a {kind.value} disturbance takes no {key!r}")
    terms = {key: node[key].array(0) for key in takes}
    mask = np.zeros(dim) if kind.value == ZERO else np.ones(dim)
    return DisturbanceSignal(kind.value, mask, **terms)


def load_model(path) -> ModelConfig:
    """Parse and schema-validate one model file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: nested deeper than the JSON reader recurses") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    return _build_config(_Entry(doc))


def _build_config(doc: _Entry) -> ModelConfig:
    sys_node = doc["system"]
    part_node = sys_node["partition"]
    mode_nodes = sys_node["modes"].items()
    cell_nodes = part_node.items()
    if len(mode_nodes) != len(cell_nodes):
        raise sys_node.error(f"{len(mode_nodes)} modes but {len(cell_nodes)} partition cells")
    modes = tuple(mn.build(PwaMode, *mn.matrices("ABC"), mn.get("c_bound", 0.0).array(0))
                  for mn in mode_nodes)
    partition = part_node.build(Partition, tuple(_cell(cn) for cn in cell_nodes))
    system = sys_node.build(PwaSystem, modes, partition)
    n_modes = system.n_modes

    abs_node = doc["abstraction"]
    kind = abs_node["kind"]
    if kind.value == "linear":
        abstraction = abs_node.build(LinearAbstraction, *abs_node.matrices("FGHL"))
    elif kind.value == "pwa":
        mode_list = abs_node["modes"]
        abs_modes = tuple(an.build(AbstractionMode, *an.matrices("FGHL"))
                          for an in mode_list.items())
        cells = tuple(_cell(cn, system.n) for cn in abs_node["concrete_cells"].items())
        if len(abs_modes) > n_modes:
            raise mode_list.error(f"{len(abs_modes)} modes exceed the plant's {n_modes}")
        abstraction = abs_node.build(PwaAbstraction, abs_modes, cells)
    else:
        raise kind.error(f"unknown kind {kind.value!r}")

    gains = doc["gains"]
    K = gains["K"].per_mode(n_modes, shape=(system.p, system.n))
    R = gains.get("R")
    R = None if R is None else R.per_mode(n_modes, shape=(system.p, abstraction.q))

    relation_P = relation_Q = None
    if "relation" in doc:
        rel = doc["relation"]
        relation_P = rel["P"].per_mode(n_modes, shape=(system.n, abstraction.m))
        relation_Q = rel["Q"].per_mode(n_modes, shape=(system.p, abstraction.m))

    declared_pairing = None
    if "pairing" in doc:
        pairing = doc["pairing"]
        if not isinstance(abstraction, PwaAbstraction):
            raise pairing.error("only a PWA abstraction is paired")
        entries = pairing.array(1)
        if len(entries) != n_modes or not (entries == np.round(entries)).all():
            raise pairing.error("need one whole number per concrete mode")
        declared_pairing = tuple(int(j) - 1 for j in entries)

    cert = doc["certificate"]
    kappa = cert["kappa"].positive()
    grid = cert.get("lambda_grid")
    lambda_grid = None if grid is None else grid.array(1)
    if lambda_grid is not None and not np.any(lambda_grid > 0.0):
        raise grid.error("needs a positive decay rate")
    m_scalar = cert["m_scalar"].positive() if "m_scalar" in cert else None
    for key in ("U", "W", "T", "Jbar"):  # dropping one would change what is checked
        if key in cert:
            what = "cell relaxation weights" if key in ("U", "W") else "continuity factorizations"
            raise cert[key].error(f"{what} are not supported (remove the key)")
    given = {key: cert.get(key) for key in ("M", "lambda", "m")}
    cert_lambda = None if given["lambda"] is None else given["lambda"].positive()
    # lambda and m belong to a supplied M
    stray = [key for key, node in given.items() if node is not None and key != "M"]
    if given["M"] is None and stray:
        raise cert.error(f"{', '.join(stray)} given without a supplied M")
    if given["M"] is not None and cert_lambda is None:
        raise cert.error("supplied M requires an explicit lambda")
    for key, owner in (("lambda_grid", "M"), ("m_scalar", "m")):  # unread beside their owner
        if given[owner] is not None and cert.get(key) is not None:
            raise cert[key].error(f"ignored with a supplied {owner} (remove the key)")
    d = system.n + abstraction.m
    cert_M = None if given["M"] is None else given["M"].per_mode(n_modes, shape=(d, d))
    cert_m = None if given["m"] is None else given["m"].per_mode(n_modes, read=_Entry.positive)
    if cert_M is not None:  # each M's own rules, where its path is known
        for node, M in zip(given["M"].items(), cert_M):
            node.build(ModeCertificate, M)

    scen = doc["scenario"]
    x1_0 = scen["x1_0"].array(1, shape=(system.n,))
    x2_0 = scen["x2_0"].array(1, shape=(abstraction.m,))
    t_end, step = (scen[key].positive() for key in ("t_end", "step"))
    disturbance = _disturbance(scen["disturbance"], system.n)
    scen["disturbance"].build(check_disturbance_bound, system, disturbance)
    schedule = scen["u2bar"].build(reference_schedule, [
        (wn["t"].array(0), wn["value"].array(1, shape=(abstraction.q,)))
        for wn in scen["u2bar"].items()])

    return ModelConfig(
        name=str(doc.get("name", "model").value), system=system, abstraction=abstraction,
        K=K, R=R, relation_P=relation_P, relation_Q=relation_Q,
        declared_pairing=declared_pairing, kappa=kappa, lambda_grid=lambda_grid,
        m_scalar=m_scalar, cert_lambda=cert_lambda, cert_M=cert_M, cert_m=cert_m,
        x1_0=x1_0, x2_0=x2_0, t_end=t_end, step=step, disturbance=disturbance,
        schedule=schedule,
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
    certificate (synthesized unless the file supplies its lambda, M and m),
    assemble the scenario, and refuse a lambda at which the gain slopes of a
    certificate that verifies overflow (one that does not is left to the
    check).  A homogeneous entry (``m_scalar``, ``m``) given where every
    joint cell is conic is refused, as no certificate would read it."""
    relation = None
    if isinstance(config.abstraction, PwaAbstraction):
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
    joint = JointSystem(config.system, config.abstraction, relation, interface)
    if all(jm.kind == CONIC for jm in joint.modes):
        for key, given in (("m_scalar", config.m_scalar), ("m", config.cert_m)):
            if given is not None:
                raise ModelError(f"certificate.{key}: unused, every cell is conic "
                                 "(remove the key)")

    if config.cert_M is not None:
        m = config.cert_m
        if m is None:
            m = [DEFAULT_M_SCALAR if config.m_scalar is None else config.m_scalar] * len(joint)
        entries = [ModeCertificate(M, m_scalar=float(mi) if jm.kind == AFFINE else None)
                   for M, mi, jm in zip(config.cert_M, m, joint.modes)]
        certificate = Certificate(config.kappa, config.cert_lambda, entries)
    else:
        certificate = synthesize_certificate(
            joint, kappa=config.kappa, lambda_grid=config.lambda_grid,
            m_scalar=config.m_scalar,
        )

    scenario = Scenario(joint, certificate, config.schedule, config.disturbance,
                        x1_0=config.x1_0, x2_0=config.x2_0, t_end=config.t_end,
                        h=config.step)
    if all(r.feasible for r in scenario.reports) and not np.isfinite(scenario.slopes).all():
        key = "certificate.lambda" if config.cert_M is not None else "certificate.lambda_grid"
        raise ModelError(f"{key}: {certificate.lam!r} makes a gain slope overflow")
    return Pipeline(config, scenario)


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
