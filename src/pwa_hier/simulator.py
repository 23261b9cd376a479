"""Closed-loop hybrid simulation with mode switching and bound bookkeeping.

The concrete plant and the transformed abstraction are integrated together
with classical RK4, the active mode frozen within a step: one precomputed
affine map per visited mode, applied in blocks with one vectorized
membership test per block; only the first step that leaves the mode is
split, by bisecting the crossing.  Every sample records the tracking error,
the simulation-function value, the running invariant-level threshold, and
the certified output-error level.
"""

from __future__ import annotations

import math
import os
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional, Sequence, TextIO, Union

import numpy as np

from .certificate import Certificate, gain_slopes, sim_fn_values, verify_lmi
from .errors import (
    DimensionMismatchError,
    EmptyScheduleError,
    EmptyTrajectoryError,
    NoCellError,
    NonFiniteStateError,
    NonMonotoneTimesError,
    PwaHierError,
    UncertifiedModeError,
)
from .linalg import as_vector
from .polytope import MEMBERSHIP_SLACK, Partition, locate_mode
from .relation import Interface, JointSystem, RelationMaps, assemble_joint
from .systems import (
    DisturbanceSignal,
    LinearAbstraction,
    PwaAbstraction,
    PwaSystem,
    check_disturbance_bound,
)

#: Crossing times are localized to a bracket narrower than this (seconds).
CROSSING_BRACKET = 1e-10

#: Bisection iterations per crossing.
BISECTION_CAP = 40

#: Mode switches tolerated within one output step before giving up.
_SWITCH_CAP = 64

#: Output steps propagated between two vectorized membership tests.
_BLOCK = 32

#: Rows formatted at a time by the artifact writer.
_WRITE_BLOCK = 1024

#: Slack of the PASS verdict on the per-sample bound chain.
CHAIN_TOL = 1e-6


def step_rk4(f: Callable[[np.ndarray, float], np.ndarray], x, t: float, h: float) -> np.ndarray:
    """One classical four-stage Runge-Kutta step of width ``h``."""
    if not h > 0.0:
        raise ValueError(f"step width must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    k1 = f(x, t)
    k2 = f(x + 0.5 * h * k1, t + 0.5 * h)
    k3 = f(x + 0.5 * h * k2, t + 0.5 * h)
    k4 = f(x + h * k3, t + h)
    out = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise NonFiniteStateError(f"non-finite state after step at t={t}")
    return out


@dataclass(frozen=True)
class ReferenceSchedule:
    """Piecewise-constant, right-continuous reference for the transformed
    abstraction input."""

    times: np.ndarray
    values: np.ndarray

    def value(self, t: float) -> np.ndarray:
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return self.values[max(idx, 0)]

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def reference_schedule(waypoints: Sequence[tuple[float, Sequence[float]]]) -> ReferenceSchedule:
    """Build a schedule from ``(time, value)`` waypoints.

    Times must be finite, strictly increase and start at zero; lookups are
    right-continuous (a waypoint's value applies from its time onward).
    """
    if not waypoints:
        raise EmptyScheduleError("schedule needs at least one waypoint")
    times = np.array([float(t) for t, _ in waypoints])
    if not np.all(np.isfinite(times)):
        raise NonMonotoneTimesError("waypoint times must be finite")
    if times[0] != 0.0:
        raise NonMonotoneTimesError("first waypoint must be at t=0")
    if np.any(np.diff(times) <= 0.0):
        raise NonMonotoneTimesError("waypoint times must strictly increase")
    values = np.array([as_vector(v, "waypoint value") for _, v in waypoints])
    return ReferenceSchedule(times, values)


@dataclass(frozen=True)
class CrossingEvent:
    """Bisection bracket around one cell-boundary crossing."""

    t_inside: float
    t_outside: float
    margin_inside: float
    margin_outside: float
    old_label: tuple
    new_label: tuple

    @property
    def width(self) -> float:
        return self.t_outside - self.t_inside


@dataclass(frozen=True)
class Scenario:
    """Everything one closed-loop experiment needs."""

    system: PwaSystem
    abstraction: Union[LinearAbstraction, PwaAbstraction]
    relation: RelationMaps
    interface: Interface
    certificate: Certificate
    schedule: ReferenceSchedule
    disturbance: DisturbanceSignal
    x1_0: np.ndarray
    x2_0: np.ndarray
    t_end: float
    h: float
    pairing: Optional[tuple[int, ...]] = None
    joint: Optional[JointSystem] = None

    def __post_init__(self):
        object.__setattr__(self, "x1_0", as_vector(self.x1_0, "x1_0"))
        object.__setattr__(self, "x2_0", as_vector(self.x2_0, "x2_0"))
        if not (self.t_end > 0.0 and math.isfinite(self.t_end)):
            raise EmptyTrajectoryError(f"t_end must be positive and finite, got {self.t_end}")
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise EmptyTrajectoryError(f"step must be positive and finite, got {self.h}")
        if self.steps < 1:
            raise EmptyTrajectoryError(
                f"horizon {self.t_end:g} holds no step of width {self.h:g}"
            )
        if self.x1_0.shape[0] != self.system.n:
            raise DimensionMismatchError("x1_0 does not match the state dimension")
        if self.x2_0.shape[0] != self.abstraction.m:
            raise DimensionMismatchError("x2_0 does not match the abstraction dimension")
        if self.disturbance.dim != self.system.n:
            raise DimensionMismatchError("disturbance does not match the state dimension")
        check_disturbance_bound(self.system, self.disturbance)
        if self.joint is None:
            object.__setattr__(self, "joint", assemble_joint(
                self.system, self.abstraction, self.relation, self.interface,
                self.pairing,
            ))

    @property
    def steps(self) -> int:
        """Output steps in the horizon (one fewer than the samples)."""
        return int(math.floor(self.t_end / self.h + 1e-9))


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled closed-loop run with certificate bookkeeping.

    ``mode_j`` stays zero for linear abstractions.  ``b`` is the
    invariant-level threshold with the running abstraction-state supremum,
    so it is nondecreasing between mode switches.
    """

    t: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    xtilde: np.ndarray
    u1: np.ndarray
    u2bar: np.ndarray
    mode_i: np.ndarray
    mode_j: np.ndarray
    err: np.ndarray
    V: np.ndarray
    b: np.ndarray
    delta: np.ndarray
    kappa: float
    u2_sup: float
    c_sup: float
    crossings: tuple[CrossingEvent, ...] = field(default=())

    def __len__(self) -> int:
        return self.t.shape[0]


def verdict(traj: Trajectory) -> str:
    """``"PASS"`` when every sample satisfies the bound chain
    ``err <= kappa V <= delta`` within CHAIN_TOL, else ``"FAIL"``."""
    kV = traj.kappa * traj.V
    chain = np.all(traj.err <= kV + CHAIN_TOL) and np.all(kV <= traj.delta + CHAIN_TOL)
    return "PASS" if chain else "FAIL"


def rk4_weights(h: float) -> np.ndarray:
    """Classical RK4 on ``z' = Z z + v(t)`` as weights on ``Z^0 .. Z^4``: a
    step of width ``h`` is ``sum_k Z^k (W[0,k] z + W[1,k] v(t)
    + W[2,k] v(t + h/2) + W[3,k] v(t + h))``; row 0 is ``T4(hZ)``."""
    c = h / 6.0
    return np.array([
        [1.0, h, h * h / 2.0, h ** 3 / 6.0, h ** 4 / 24.0],
        [c, c * h, c * h * h / 2.0, c * h ** 3 / 4.0, 0.0],
        [4.0 * c, 2.0 * c * h, c * h * h / 2.0, 0.0, 0.0],
        [c, 0.0, 0.0, 0.0, 0.0],
    ])


class _Runner:
    """Single-run integration state; not part of the public surface."""

    def __init__(self, s: Scenario):
        self.h = s.h
        self.n = s.system.n
        self.m = s.joint.m
        self.part = s.system.partition
        self.is_pwa = isinstance(s.abstraction, PwaAbstraction)
        self.regions: Optional[Partition] = (
            Partition(tuple(s.abstraction.concrete_cells)) if self.is_pwa else None
        )
        self.pairing = s.pairing if self.is_pwa else None
        dist = s.disturbance
        self.dist_offset = dist.offset if dist.kind != "zero" else 0.0
        self.dist_amplitude = dist.amplitude if dist.kind == "sinusoid" else 0.0
        self.mask_ext = np.concatenate([dist.mask, np.zeros(self.m)])
        # stacked closed-loop dynamics per concrete mode: z = (x1, x2), and
        # the rows (E, f) of its cell, with its paired region for PWA
        self.Z, self.BU, self.rows = [], [], []
        for i, mode in enumerate(s.system.modes):
            K, R, Q, L = (s.interface.K[i], s.interface.R[i],
                          s.interface.Q[i], s.interface.L[i])
            P = s.relation.P[i]
            cell = self.part.cells[i]
            if self.is_pwa:
                am = s.abstraction.modes[self.pairing[i]]
                G, closed_abs = am.G, am.transformed()
                reg = self.regions.cells[self.pairing[i]]
                self.rows.append((np.vstack([cell.E, reg.E]),
                                  np.concatenate([cell.f, reg.f])))
            else:
                G, closed_abs = s.abstraction.G, s.abstraction.transformed()
                self.rows.append((cell.E, cell.f))
            Z = np.zeros((self.n + self.m, self.n + self.m))
            Z[: self.n, : self.n] = mode.A + mode.B @ K
            Z[: self.n, self.n:] = mode.B @ (Q + R @ L - K @ P)
            Z[self.n:, self.n:] = closed_abs
            self.Z.append(Z)
            self.BU.append(np.vstack([mode.B @ R, G]))
        self._maps: dict = {}

    # -- membership ---------------------------------------------------------

    def _margin(self, x1: np.ndarray, i: int) -> float:
        E, f = self.rows[i]
        return float(np.min(E @ x1 - f))

    def _locate_j(self, x1: np.ndarray, i: int, prev_j: int) -> int:
        if not self.is_pwa:
            return 0
        j = locate_mode(self.regions, x1, previous=prev_j)
        want = self.pairing[i]
        if j != want:
            if self.regions.cells[want].contains(x1):
                return want
            raise UncertifiedModeError(
                f"state entered region {j} while mode {i} is certified "
                f"against region {want}"
            )
        return j

    # -- integration --------------------------------------------------------

    def stages(self, t, h: float) -> np.ndarray:
        """Disturbance scale at ``t``, ``t + h/2`` and ``t + h`` (the RK4
        stage times); ``t`` may be an array of step starts."""
        times = np.asarray(t, dtype=float)[..., None] + np.array([0.0, 0.5 * h, h])
        return self.dist_offset + self.dist_amplitude * np.sin(times)

    def maps(self, i: int) -> tuple:
        """Mode ``i``'s powers ``Z^0 .. Z^4`` applied to the identity, to its
        reference input map and to the disturbance mask, then its step map
        ``(Phi, Gu, Ws)``: ``z+ = Phi z + Gu u2bar + stages(t, h) @ Ws``."""
        if i not in self._maps:
            Zk = [np.eye(len(self.mask_ext))]
            for _ in range(4):
                Zk.append(self.Z[i] @ Zk[-1])
            Zk = np.array(Zk)
            ZkB, Zkm = Zk @ self.BU[i], Zk @ self.mask_ext
            w = rk4_weights(self.h)
            self._maps[i] = (Zk, ZkB, Zkm, np.tensordot(w[0], Zk, 1),
                             np.tensordot(w[1:].sum(axis=0), ZkB, 1), w[1:] @ Zkm)
        return self._maps[i]

    def sub_step(self, basis: np.ndarray, t: float, tau: float) -> np.ndarray:
        """RK4 step of width ``tau`` from ``z`` at ``t``, given the stacked
        ``Z^k z``, ``Z^k BU u2bar`` and ``Z^k mask`` of the mode as ``basis``."""
        w = rk4_weights(tau)
        return np.concatenate([w[0], w[1:].sum(axis=0), self.stages(t, tau) @ w[1:]]) @ basis

    def propagate(self, zs: np.ndarray, k: int, stop: int, i: int,
                  u2bar: np.ndarray, stages: np.ndarray) -> int:
        """Fill ``zs[k+1 : stop+1]`` with steps of mode ``i`` from ``zs[k]``;
        return how many leading rows are finite and inside the mode."""
        Phi, Gu, Ws = self.maps(i)[3:]
        block = zs[k + 1: stop + 1]
        np.matmul(u2bar[k:stop], Gu.T, out=block)
        block += stages[k:stop] @ Ws
        prev = zs[k]
        for row in block:
            row += Phi @ prev
            prev = row
        E, f = self.rows[i]
        ok = (np.isfinite(block).all(axis=1)
              & (np.min(block[:, : self.n] @ E.T - f, axis=1) >= -MEMBERSHIP_SLACK))
        return len(ok) if ok.all() else int(np.argmin(ok))

    def advance(self, z: np.ndarray, t: float, h: float, i: int, j: int,
                u2val: np.ndarray, events: list) -> tuple[np.ndarray, int, int]:
        """Advance exactly ``h`` with the reference value frozen at the step
        start, splitting the step at every detected cell-boundary crossing."""
        remaining = h
        for _ in range(_SWITCH_CAP):
            if remaining <= 1e-15:
                return z, i, j
            Zk, ZkB, Zkm = self.maps(i)[:3]
            basis = np.concatenate([Zk @ z, ZkB @ u2val, Zkm])
            trial = self.sub_step(basis, t, remaining)
            if not np.isfinite(trial).all():
                raise NonFiniteStateError(f"non-finite state near t={t}")
            if self._margin(trial[: self.n], i) >= -MEMBERSHIP_SLACK:
                return trial, i, j
            # bisect the exit point of the (i, j) membership along the step
            lo, hi = 0.0, 1.0
            m_lo = self._margin(z[: self.n], i)
            m_hi = self._margin(trial[: self.n], i)
            z_hi = trial
            for _ in range(BISECTION_CAP):
                if (hi - lo) * remaining <= CROSSING_BRACKET:
                    break
                mid = 0.5 * (lo + hi)
                z_mid = self.sub_step(basis, t, mid * remaining)
                m_mid = self._margin(z_mid[: self.n], i)
                if m_mid >= -MEMBERSHIP_SLACK:
                    lo, m_lo = mid, m_mid
                else:
                    hi, m_hi, z_hi = mid, m_mid, z_mid
            committed = hi * remaining
            z = z_hi
            old = (i, j)
            x1 = z[: self.n]
            try:
                i = locate_mode(self.part, x1, previous=i)
            except NoCellError as exc:
                raise NoCellError(f"t={t + committed:.6f}: {exc}") from exc
            j = self._locate_j(x1, i, j)
            events.append(CrossingEvent(
                t_inside=t + lo * remaining,
                t_outside=t + committed,
                margin_inside=m_lo,
                margin_outside=m_hi,
                old_label=old,
                new_label=(i, j),
            ))
            t += committed
            remaining -= committed
        raise PwaHierError(
            f"more than {_SWITCH_CAP} mode switches within one step at t={t}"
        )


def run_scenario(s: Scenario) -> Trajectory:
    """Simulate the closed loop and record the certified bound chain.

    Steps go in blocks of ``_BLOCK`` through the mode's step map; the first
    step of a block that leaves the mode (cell, and abstraction region for
    PWA abstractions) or turns non-finite is redone by ``advance``, which
    bisects the crossing and relocates the mode with hysteresis.  The
    per-sample certificate columns are evaluated afterwards in one
    vectorized pass.
    """
    runner = _Runner(s)
    n = runner.n
    steps = s.steps
    t = np.arange(steps + 1) * s.h
    pick = np.maximum(np.searchsorted(s.schedule.times, t, side="right") - 1, 0)
    u2bar = s.schedule.values[pick]
    stages = runner.stages(t[:-1], s.h)

    zs = np.empty((steps + 1, n + runner.m))
    mode_i = np.empty(steps + 1, dtype=int)
    mode_j = np.empty(steps + 1, dtype=int)

    i = locate_mode(s.system.partition, s.x1_0)
    j = runner._locate_j(s.x1_0, i, prev_j=runner.pairing[i] if runner.is_pwa else 0)
    zs[0] = np.concatenate([s.x1_0, s.x2_0])
    mode_i[0], mode_j[0] = i, j

    events: list[CrossingEvent] = []
    k = 0
    # a diverging state overflows quietly; advance reports it as non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        while k < steps:
            stop = min(k + _BLOCK, steps)
            kept = runner.propagate(zs, k, stop, i, u2bar, stages)
            mode_i[k + 1: k + 1 + kept], mode_j[k + 1: k + 1 + kept] = i, j
            k += kept
            if k < stop:
                zs[k + 1], i, j = runner.advance(zs[k], float(t[k]), s.h, i, j,
                                                 u2bar[k], events)
                mode_i[k + 1], mode_j[k + 1] = i, j
                k += 1

    return _bookkeep(s, runner, t, zs[:, :n], zs[:, n:], u2bar, mode_i, mode_j,
                     tuple(events))


def _bookkeep(s: Scenario, runner: _Runner, t, x1, x2, u2bar, mode_i, mode_j,
              events: tuple[CrossingEvent, ...]) -> Trajectory:
    """Vectorized per-sample certificate columns."""
    joint = s.joint
    cert = s.certificate
    n_samples = t.shape[0]
    n, m = runner.n, runner.m

    u2_sup = s.schedule.sup_norm()
    c_sup = s.disturbance.sup_norm()

    xtilde = np.empty_like(x1)
    u1 = np.empty((n_samples, s.system.p))
    err = np.empty(n_samples)
    V = np.empty(n_samples)
    slope_cols = np.empty((n_samples, 4))  # gamma1, gamma2, gamma3, sqrt_m

    for idx in np.unique(mode_i):
        # lazy certificate check: only modes the trajectory visited
        if not verify_lmi(cert, joint, idx).feasible:
            raise UncertifiedModeError(
                f"certificate infeasible for visited mode {joint.modes[idx].label}"
            )
        rows = np.nonzero(mode_i == idx)[0]
        mode = s.system.modes[idx]
        P = s.relation.P[idx]
        H = (s.abstraction.modes[s.pairing[idx]].H if runner.is_pwa
             else s.abstraction.H)
        xt = x1[rows] - x2[rows] @ P.T
        xtilde[rows] = xt
        u1[rows] = (u2bar[rows] @ s.interface.R[idx].T
                    + x2[rows] @ (s.interface.Q[idx] + s.interface.R[idx] @ s.interface.L[idx]).T
                    + xt @ s.interface.K[idx].T)
        err[rows] = np.linalg.norm(x1[rows] @ mode.C.T - x2[rows] @ H.T, axis=1)
        V[rows] = sim_fn_values(cert, idx, np.hstack([xt, x2[rows]]), joint.modes[idx].kind)
        slope_cols[rows] = gain_slopes(cert, joint, idx)

    x2_running = np.maximum.accumulate(np.max(np.abs(x2), axis=1))
    b = (slope_cols[:, 0] * u2_sup + slope_cols[:, 1] * c_sup
         + slope_cols[:, 2] * x2_running + slope_cols[:, 3])
    delta = cert.kappa * np.maximum(V, b)

    return Trajectory(
        t=t, x1=x1, x2=x2, xtilde=xtilde, u1=u1, u2bar=u2bar,
        mode_i=mode_i, mode_j=mode_j, err=err, V=V, b=b, delta=delta,
        kappa=cert.kappa, u2_sup=u2_sup, c_sup=c_sup, crossings=events,
    )


@contextmanager
def atomic_write(path) -> Iterator[TextIO]:
    """Text file handle on ``<path>.tmp``, renamed onto ``path`` once the
    block completes, so readers never see a partial file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        yield fh
    os.replace(tmp, path)


def write_tables(columns: Mapping[str, np.ndarray],
                 files: Sequence[tuple]) -> None:
    """Write text tables that share named 1-D columns, in one pass.

    Each ``(path, names, sep, header)`` entry of ``files`` is a table whose
    rows are its named columns' shortest-exact (``repr``) values joined by
    ``sep``, under a line of the names when ``header`` is true.  The rows
    are walked in blocks of ``_WRITE_BLOCK``; each column a table names is
    formatted once per block, however many tables share it.  Every table is
    written atomically.
    """
    used = list(dict.fromkeys(name for _, names, _, _ in files for name in names))
    rows = len(columns[used[0]]) if used else 0
    with ExitStack() as stack:
        handles = [stack.enter_context(atomic_write(path)) for path, *_ in files]
        for fh, (_, names, sep, header) in zip(handles, files):
            if header:
                fh.write(sep.join(names) + "\n")
        for start in range(0, rows, _WRITE_BLOCK):
            text = {name: list(map(repr, columns[name][start:start + _WRITE_BLOCK].tolist()))
                    for name in used}
            for fh, (_, names, sep, _) in zip(handles, files):
                fh.write("\n".join(map(sep.join, zip(*(text[name] for name in names))))
                         + "\n")


def export_trajectory(traj: Trajectory, path,
                      columns: Optional[Mapping[str, np.ndarray]] = None,
                      files: Sequence[tuple] = ()) -> None:
    """Write the trajectory as CSV with shortest-exact decimal columns.

    Mode columns are 1-based in the file (human-facing), floats round-trip
    exactly.  The write is atomic (temp file + rename).  ``files`` are more
    ``write_tables`` entries for the same pass, over the trajectory's
    columns (named as in its header) and ``columns``.
    """
    own = {"t": traj.t}
    for prefix, block in (("x1", traj.x1), ("x2", traj.x2), ("u1", traj.u1)):
        own.update((f"{prefix}_{a}", col) for a, col in enumerate(block.T))
    own.update(mode_i=traj.mode_i + 1, mode_j=traj.mode_j + 1, err=traj.err,
               V=traj.V, b=traj.b, delta=traj.delta)
    write_tables({**own, **(columns or {})}, [(path, tuple(own), ",", True), *files])
