"""Closed-loop hybrid simulation with mode switching and bound bookkeeping.

The concrete plant and the transformed abstraction are integrated together
with classical RK4, the active mode frozen within a step.  Every mode's
affine step map, and the matrix powers the crossing sub-steps use, are built
when the run starts, for all modes in one stacked pass; the RK4 weights are
constant tables times powers of the step width.  Steps go in blocks: a
doubling scan fills a block with ``log2`` of its length batched products,
and one vectorized membership test checks it.  A block starts at ``_BLOCK``
steps and doubles, up to ``_BLOCK_MAX``, while the run stays in its mode; a
crossing drops it back to ``_BLOCK``.  Only the first step that leaves the
mode is split, by bisecting the crossing.  The bisection guesses the exit
point, first from an interpolant of the block's margins around the failing
row, and tests in one batched evaluation the midpoints it visits if every
decision agrees with the guess and the rest of the step after them; a
disagreeing decision starts a new guess and batch.  The committed states and
the next sub-step come from batch rows, so a crossing costs about one
evaluation of the sub-step weights, and the bracket is the one plain
bisection finds.  The rest is numpy's fixed cost per call on arrays of 2 to
15 entries, so the crossing path makes few calls: traced on the benchmark's
switch-dense pools (2 vCPU, one BLAS thread), simulator self time is about
172 us per crossing.  A run is refused unless its certificate holds on every
mode, as checked once when the scenario is built.
Each sample records the tracking error, the simulation-function value, the
running invariant-level threshold, and the certified output-error level,
computed after the run, a bounded chunk at a time, from the chunk's one
mode's matrices or, where it crosses, from those gathered by each sample's
mode.
"""

from __future__ import annotations

import math
import os
import stat
import tempfile
import threading
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterator, Mapping, Optional, Sequence, TextIO

import numpy as np

from .certificate import Certificate, LmiReport, gain_slopes_all, sim_fn_values, verify_all
from .errors import (
    DimensionMismatchError,
    EmptyScheduleError,
    EmptyTrajectoryError,
    InfeasibleCertificateError,
    NoCellError,
    NonFiniteStateError,
    NonMonotoneTimesError,
    PwaHierError,
    UncertifiedModeError,
)
from .linalg import as_positive, as_vector
from .polytope import AFFINE, MEMBERSHIP_SLACK, locate_mode
from .relation import JointSystem
from .systems import DisturbanceSignal, check_disturbance_bound

#: Crossing times are localized to a bracket narrower than this (seconds).
CROSSING_BRACKET = 1e-10

#: Bisection iterations per crossing.
BISECTION_CAP = 40

#: Mode switches tolerated within one output step before giving up.
_SWITCH_CAP = 64

#: Output steps propagated between two vectorized membership tests, at the
#: start of a run and after each step ``advance`` redoes.
_BLOCK = 32

#: Cap of the block, which doubles after each block that stays in its mode.
_BLOCK_MAX = 256

#: Rows formatted at a time by the artifact writer.
_WRITE_BLOCK = 1024

#: Samples the bookkeeping takes at a time; see ``_bookkeep``.
_GATHER_ROWS = 1024

#: Slack of the PASS verdict on the per-sample bound chain.
CHAIN_TOL = 1e-6


@dataclass(frozen=True)
class ReferenceSchedule:
    """Piecewise-constant, right-continuous reference for the transformed
    abstraction input."""

    times: np.ndarray
    values: np.ndarray

    def value(self, t) -> np.ndarray:
        """Value at time ``t``, or one row per time when ``t`` is an array."""
        idx = np.searchsorted(self.times, t, side="right") - 1
        return self.values[np.maximum(idx, 0)]

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
    if not np.isfinite(times).all():
        raise NonMonotoneTimesError("waypoint times must be finite")
    if times[0] != 0.0:
        raise NonMonotoneTimesError("first waypoint must be at t=0")
    if (np.diff(times) <= 0.0).any():
        raise NonMonotoneTimesError("waypoint times must strictly increase")
    values = [as_vector(v, "waypoint value") for _, v in waypoints]
    for k, v in enumerate(values):
        if v.shape != values[0].shape:
            raise DimensionMismatchError(
                f"waypoint {k} (t={times[k]:g}) has {v.size} values, waypoint 0 has "
                f"{values[0].size}"
            )
    return ReferenceSchedule(times, np.array(values))


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
    """One closed-loop experiment: the loop as its joint system (the parts
    it was built from and its blocks), a certificate, and the experiment.
    Building it checks the certificate on every joint mode: ``reports``
    holds the condition margins and ``slopes`` the gain slopes ``(gamma1,
    gamma2, gamma3, sqrt_m)`` per mode, an overflowed one as inf.  A variant
    made by ``dataclasses.replace`` checks again, also with a joint whose
    part was replaced, which is built and certified anew."""

    joint: JointSystem
    certificate: Certificate
    schedule: ReferenceSchedule
    disturbance: DisturbanceSignal
    x1_0: np.ndarray
    x2_0: np.ndarray
    t_end: float
    h: float
    reports: tuple[LmiReport, ...] = field(init=False, repr=False, compare=False)
    slopes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "x1_0", as_vector(self.x1_0, "x1_0"))
        object.__setattr__(self, "x2_0", as_vector(self.x2_0, "x2_0"))
        as_positive(self.t_end, "t_end", EmptyTrajectoryError)
        as_positive(self.h, "step", EmptyTrajectoryError)
        if not math.isfinite(self.t_end / self.h):
            raise EmptyTrajectoryError(f"t_end {self.t_end:g} / step {self.h:g} overflows "
                                       "the sample count")
        if self.steps < 1:
            raise EmptyTrajectoryError(
                f"horizon {self.t_end:g} holds no step of width {self.h:g}"
            )
        if self.x1_0.shape[0] != self.joint.n:
            raise DimensionMismatchError("x1_0 does not match the state dimension")
        if self.x2_0.shape[0] != self.joint.m:
            raise DimensionMismatchError("x2_0 does not match the abstraction dimension")
        if self.schedule.values.shape[1] != self.joint.abstraction.q:
            raise DimensionMismatchError(
                f"u2bar waypoints have {self.schedule.values.shape[1]} values, the "
                f"abstraction input has dimension {self.joint.abstraction.q}"
            )
        if self.disturbance.dim != self.joint.n:
            raise DimensionMismatchError("disturbance does not match the state dimension")
        check_disturbance_bound(self.joint.system, self.disturbance)
        if len(self.certificate.entries) != len(self.joint):
            raise DimensionMismatchError(f"certificate has {len(self.certificate.entries)} "
                                         f"entries, the joint system {len(self.joint)} modes")
        object.__setattr__(self, "reports", verify_all(self.certificate, self.joint))
        object.__setattr__(self, "slopes", gain_slopes_all(self.certificate, self.joint))

    @property
    def steps(self) -> int:
        """Output steps in the horizon (one fewer than the samples)."""
        return int(math.floor(self.t_end / self.h + 1e-9))


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled closed-loop run with certificate bookkeeping.

    ``mode_j`` stays zero for linear abstractions.  ``y1`` and ``y2`` are
    the concrete and abstraction outputs, whose difference has norm
    ``err``.  ``b`` is the invariant-level threshold with the running
    abstraction-state supremum, so it is nondecreasing between mode switches.
    """

    t: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    xtilde: np.ndarray
    u1: np.ndarray
    u2bar: np.ndarray
    mode_i: np.ndarray
    mode_j: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    err: np.ndarray
    V: np.ndarray
    b: np.ndarray
    delta: np.ndarray
    kappa: float
    crossings: tuple[CrossingEvent, ...] = field(default=())

    def __len__(self) -> int:
        return self.t.shape[0]


def verdict(traj: Trajectory) -> str:
    """``"PASS"`` when every sample satisfies the bound chain ``err <= kappa
    V <= delta`` within CHAIN_TOL, all three finite, else ``"FAIL"``."""
    kV = traj.kappa * traj.V
    chain = np.all(traj.err <= kV + CHAIN_TOL) and np.all(kV <= traj.delta + CHAIN_TOL)
    # finite err and delta bound kappa V to finite values through the chain
    finite = np.isfinite(traj.err).all() and np.isfinite(traj.delta).all()
    return "PASS" if finite and chain else "FAIL"


#: Classical RK4 on ``z' = Z z + v(t)`` as weights on ``Z^0 .. Z^4``: a step
#: of width ``h`` is ``sum_k Z^k (W[0,k] z + W[1,k] v(t) + W[2,k] v(t + h/2)
#: + W[3,k] v(t + h))`` with ``W = _RK4_COEF * h ** _RK4_EXP``; row 0 is
#: ``T4(hZ)``.
_RK4_COEF = np.array([
    [1.0, 1.0, 1.0 / 2.0, 1.0 / 6.0, 1.0 / 24.0],
    [1.0 / 6.0, 1.0 / 6.0, 1.0 / 12.0, 1.0 / 24.0, 0.0],
    [2.0 / 3.0, 1.0 / 3.0, 1.0 / 12.0, 0.0, 0.0],
    [1.0 / 6.0, 0.0, 0.0, 0.0, 0.0],
])
_RK4_EXP = np.arange(5) + np.array([[0], [1], [1], [1]])

#: The same weights laid out over a sub-step basis, the stacked ``Z^k z``,
#: ``Z^k BU u2bar`` and ``Z^k mask``: ``(stages @ _SUB_DRIVE + _SUB_FIXED)
#: * tau ** _SUB_EXP``, the reference input taking the stage weights' sum.
_SUB_FIXED = np.concatenate([_RK4_COEF[0], _RK4_COEF[1:].sum(axis=0), np.zeros(5)])
_SUB_DRIVE = np.hstack([np.zeros((3, 10)), _RK4_COEF[1:]])
_SUB_EXP = np.concatenate([_RK4_EXP[0], _RK4_EXP[1], _RK4_EXP[1]])

#: RK4 stage times as fractions of the step width.
_STAGE_AT = np.array([0.0, 0.5, 1.0])

#: Shifts of the doubling scan that fills a block: ``1, 2, 4, ...`` below
#: ``_BLOCK_MAX``.
_SHIFTS = tuple(1 << b for b in range((_BLOCK_MAX - 1).bit_length()))


def rk4_weights(h) -> np.ndarray:
    """The RK4 weights ``W`` of a step of width ``h`` (see ``_RK4_COEF``),
    shape ``(4, 5)``; ``h`` may be a 1-D array of widths, whose weights
    then stack along a leading axis, shape ``(len(h), 4, 5)``."""
    return _RK4_COEF * np.asarray(h, dtype=float)[..., None, None] ** _RK4_EXP


#: Degree-5 interpolation of margins at -2 .. 3 steps from a step's start.
_FIT = np.linalg.inv(np.vander(np.arange(-2.0, 4.0), increasing=True))


def _fit_guess(around: np.ndarray) -> float:
    """Predicted fraction of a step where it leaves the mode, from
    ``propagate``'s six sample rows ``around`` it: three Newton steps from
    the chord root on the interpolant of each row outside at the end, the
    earliest root; NaN when no row is, or Newton leaves ``[0, 1]``."""
    shifted, first = around + MEMBERSHIP_SLACK, math.inf  # relative to the membership threshold
    for poly, a, c in zip((_FIT @ shifted)[::-1].T.tolist(), *shifted[2:4].tolist()):
        if not c < 0.0:
            continue
        s = a / (a - c)
        for _ in range(3):
            v = dv = 0.0
            for q in poly:  # Horner on the value and the slope
                v, dv = v * s + q, dv * s + v
            s -= v / dv if dv else math.inf
        if not 0.0 <= s <= 1.0:
            return math.nan
        first = min(first, s)
    return first if first <= 1.0 else math.nan


def _exit_guess(lo: float, hi: float, at_lo: np.ndarray, at_hi: np.ndarray) -> float:
    """Predicted point in ``[lo, hi]`` where a sub-step leaves the mode,
    from its row margins at ``lo`` (inside) and ``hi`` (outside).

    Each row outside at ``hi`` is modelled by the chord between its two
    margins, and the guess is the earliest root among them; ``lo`` when a
    row is already outside at ``lo``, NaN when no row outside at ``hi`` has
    finite margins.  A guess only sets how many batches ``bisect`` needs,
    never its bracket.
    """
    first = math.inf
    for a, c in zip(at_lo.tolist(), at_hi.tolist()):
        a += MEMBERSHIP_SLACK  # relative to the membership test's threshold
        c += MEMBERSHIP_SLACK
        if not c < 0.0:
            continue
        if a < 0.0:
            return lo
        first = min(first, a / (a - c))
    return lo + (hi - lo) * first if first <= 1.0 else math.nan


def _lowest(margins: np.ndarray) -> float:
    """``float(margins.min())`` of a short vector, from its Python floats;
    numpy's own where an entry is NaN (Python's ``min`` may skip it) or the
    least is a zero (the two may pick zeros of different signs)."""
    v = margins.tolist()
    least = min(v)
    return least if least and not math.isnan(sum(v)) else float(margins.min())


class _Runner:
    """Single-run integration state; not part of the public surface."""

    def __init__(self, s: Scenario):
        joint = s.joint
        self.h, self.n, self.m = s.h, joint.n, joint.m
        self.part = joint.system.partition
        self.js = joint.mode_j  # abstraction-mode index per concrete mode
        self.dist = s.disturbance
        n, d = self.n, self.n + self.m
        mask_ext = np.concatenate([self.dist.mask, np.zeros(self.m)])
        # the rows (E, f) of each concrete mode's cell and paired region in
        # x1 space: the first n columns of its joint cell's rows
        self.rows = [(np.ascontiguousarray(jm.cell.E[:, :n]), jm.cell.f)
                     for jm in joint.modes]
        # stacked closed-loop dynamics per concrete mode, z = (x1, x2)
        B, K, R = joint.B, joint.interface.K, joint.interface.R
        self.P = P = np.array(joint.relation.P)
        # the diagonal blocks A + B K and F + G L are the certified ones, the
        # joint's Aprime; only the x1-x2 coupling is written, into a copy
        self.Z = joint.Aprime.copy()
        self.Z[:, :n, n:] = B @ (joint.QRL - K @ P)
        self.BU = np.concatenate([B @ R, joint.G], axis=1)
        # every mode's powers Z^0 .. Z^4 applied to the identity, to its
        # reference input map and to the disturbance mask (a sub-step's basis
        # for advance), then its step map z+ = Phi z + Gu u2bar + stages @ Ws
        # (for propagate), in one stacked pass; mode i's are [i] of each
        self.Zk = Zk = np.empty((len(self.Z), 5, d, d))
        Zk[:, 0] = np.eye(d)
        for k in range(1, 5):
            Zk[:, k] = self.Z @ Zk[:, k - 1]
        self.ZkB, self.Zkm = Zk @ self.BU[:, None], Zk @ mask_ext
        w = rk4_weights(self.h)
        self.Phi = np.einsum("k,mkij->mij", w[0], Zk)
        self.Gu = np.einsum("k,mkij->mij", w[1:].sum(axis=0), self.ZkB)
        self.Ws = np.einsum("sk,mki->msi", w[1:], self.Zkm)
        # Phi^s for the scan's shifts s: those a block of _BLOCK uses for
        # every mode here, the rest when a mode's block first grows past it
        self.powers = np.empty((len(self.Z), len(_SHIFTS), d, d))
        self.powers[:, 0] = self.Phi
        self.scan_powers, self.grown = np.empty_like(self.powers), set()
        self._square(slice(None), 1, (_BLOCK - 1).bit_length())
        # advance's sub-step basis, rewritten in place; bisect's depth per width
        self.basis, self.depths = np.empty((15, d)), {}

    def _square(self, modes, start: int, stop: int) -> None:
        """Square powers ``start .. stop - 1`` of ``modes`` (index or slice),
        stored transposed; an overflowed one only spoils rows advance redoes."""
        p = self.powers
        with np.errstate(over="ignore", invalid="ignore"):
            for b in range(start, stop):
                p[modes, b] = p[modes, b - 1] @ p[modes, b - 1]
        self.scan_powers[modes, :stop] = p[modes, :stop].swapaxes(-1, -2)

    # -- membership ---------------------------------------------------------

    def label(self, x1: np.ndarray, i: int) -> tuple[int, int]:
        """``(i, js[i])``, once ``x1`` is checked to lie in mode ``i``'s rows,
        the region it is certified against stacked under its cell."""
        E, f = self.rows[i]
        if _lowest(E @ x1 - f) < -MEMBERSHIP_SLACK:
            raise UncertifiedModeError(
                f"state left region {self.js[i]}, against which mode {i} is certified"
            )
        return i, self.js[i]

    # -- integration --------------------------------------------------------

    def stages(self, t, h) -> np.ndarray:
        """Disturbance scale at ``t``, ``t + h/2`` and ``t + h`` (the RK4
        stage times); ``t`` may be an array of step starts, or ``h`` an
        array of widths from one start."""
        times = (np.asarray(t, dtype=float)[..., None]
                 + np.asarray(h, dtype=float)[..., None] * _STAGE_AT)
        return self.dist.scale(times)

    def coefficients(self, t, tau) -> np.ndarray:
        """Weights on the rows of a sub-step ``basis`` (the stacked ``Z^k z``,
        ``Z^k BU u2bar`` and ``Z^k mask`` of the mode) for an RK4 step of
        width ``tau`` from ``t``; one row per width (and start) for arrays."""
        tau = np.asarray(tau, dtype=float)[..., None]
        scale = self.dist.scale(np.asarray(t, dtype=float)[..., None] + tau * _STAGE_AT)
        # fixed-order, unlike BLAS: a batch row has its one-width call's bits
        drive = np.einsum("...c,cj->...j", scale, _SUB_DRIVE)
        return (drive + _SUB_FIXED) * tau ** _SUB_EXP

    def propagate(self, zs: np.ndarray, k: int, stop: int, i: int,
                  u2bar: np.ndarray, stages: np.ndarray) -> tuple[int, Optional[np.ndarray]]:
        """Fill ``zs[k+1 : stop+1]`` with steps of mode ``i`` from ``zs[k]``;
        return how many leading rows are finite and inside the mode, and the
        margins ``advance`` guesses from: those of six samples, ``zs[k]``
        counted, whose third and fourth bound the failing step, where the
        block has them, else its end's (None if no row fails).  About 36 us
        per crossing on switch-dense.

        The block first holds each step's drive ``Gu u2bar + stages @ Ws``,
        the first row also ``Phi zs[k]``.  A doubling scan then adds to
        every row ``Phi^s`` times the row ``s`` above it for ``s = 1, 2, 4,
        ...`` below the block's length, after which row ``r`` sums ``Phi^j``
        times the drive of row ``r - j`` over all ``j <= r``: the recurrence
        ``z+ = Phi z + drive`` in ``log2`` of the length batched products.
        The block may be up to ``_BLOCK_MAX`` rows long.  A row that
        overflows only spoils the rows after it, which the caller redoes."""
        block = zs[k + 1: stop + 1]
        np.matmul(u2bar[k:stop], self.Gu[i].T, out=block)
        block += stages[k:stop] @ self.Ws[i]
        block[0] += self.Phi[i] @ zs[k]
        if len(block) > _BLOCK and i not in self.grown:
            self.grown.add(i)
            self._square(i, (_BLOCK - 1).bit_length(), len(_SHIFTS))
        for s, power in zip(_SHIFTS, self.scan_powers[i]):
            if s >= len(block):
                break
            block[s:] += block[:-s] @ power
        E, f = self.rows[i]
        margins = block[:, : self.n] @ E.T - f
        ok = np.isfinite(block).all(axis=1) & (margins.min(axis=1) >= -MEMBERSHIP_SLACK)
        kept = int(ok.argmin())  # the first failing row, or 0 when none fails
        if ok[kept]:
            kept = len(ok)
        if not 2 <= kept <= len(ok) - 3:
            return kept, (margins[kept] if kept < len(ok) else None)
        if kept > 2:
            return kept, margins[kept - 3: kept + 3]
        return kept, np.vstack([E @ zs[k, : self.n] - f, margins[: 5]])

    def bisect(self, basis: np.ndarray, t: float, width: float, i: int,
               end: np.ndarray, trial: bool = False) -> tuple:
        """Bracket ``(lo, hi)``, as fractions of ``width``, of where a
        sub-step from ``t`` leaves mode ``i``: inside at ``lo`` (or ``lo =
        0``), outside at ``hi``; then the coefficient rows of the batch
        midpoints that set them (None at 0 and 1), with ``trial`` of the
        full width, one more row of the first batch, and ``((start, width),
        row)`` of the last batch's remainder sub-step.  ``end`` holds the
        mode's row margins at the full width (predicted with ``trial``), or
        ``propagate``'s six sample rows, whose fourth they are.

        Plain bisection on the fraction, ``BISECTION_CAP`` levels at most
        and none once the bracket is within ``CROSSING_BRACKET``.  The exit
        point is guessed, first by ``_fit_guess`` from six sample rows, else
        by ``_exit_guess`` from the margins at the bracket's ends.  The
        midpoints the walk visits if every decision agrees with the guess,
        and the remainder from the path's final upper end ``b`` (from ``t +
        b width``, of width ``width - b width``), are stepped to in one
        batched evaluation, the midpoints tested with the cell rows
        projected onto ``basis`` once.  The walk applies the decisions in
        order, noting the rows that set the bracket, and stops after the
        first against the guess: the next midpoint lies in the half the
        batch never lists.  A NaN guess lists the path towards ``lo``.
        Every decision reads the margin at its exact midpoint, so the
        bracket is the one scalar bisection finds; the guesses only set how
        many batches it takes, about one per crossing.  The depth is kept per
        width: about 54 us per crossing on switch-dense.
        """
        E, f = self.rows[i]
        proj = basis[:, : self.n] @ E.T
        depth = self.depths.get(width)
        if depth is None:
            depth = 0
            while depth < BISECTION_CAP and 0.5 ** depth * width > CROSSING_BRACKET:
                depth += 1
            self.depths[width] = depth
        fit = math.nan if end.ndim == 1 else _fit_guess(end)
        lo, hi, c_lo, c_hi, c_trial, rest = 0.0, 1.0, None, None, None, (None, None)
        at_lo, at_hi = proj[0] - f, (end if end.ndim == 1 else end[3])
        while depth > 0 or trial:
            guess = fit if fit == fit else _exit_guess(lo, hi, at_lo, at_hi)
            points, a, b, fit, k_lo, k_hi = ([1.0] if trial else []), lo, hi, math.nan, None, None
            for _ in range(depth):
                mid = 0.5 * (a + b)
                points.append(mid)
                if mid <= guess:
                    a = mid
                else:
                    b = mid
            taus = np.array(points + [b]) * width
            starts = np.full(len(taus), t)
            key = (t + b * width, width - b * width)
            starts[-1], taus[-1] = key
            coef = self.coefficients(starts, taus)
            rest = key, coef[-1]
            if trial:
                c_trial, coef, points, trial = coef[0], coef[1:], points[1:], False
            rows = coef[:-1] @ proj - f
            inside = (rows.min(axis=1) >= -MEMBERSHIP_SLACK).tolist()
            for k, (mid, went_in) in enumerate(zip(points, inside)):
                if went_in:
                    lo, k_lo = mid, k
                else:
                    hi, k_hi = mid, k
                depth -= 1
                if went_in != (mid <= guess):
                    break
            if k_lo is not None:
                c_lo, at_lo = coef[k_lo], rows[k_lo]
            if k_hi is not None:
                c_hi, at_hi = coef[k_hi], rows[k_hi]
        return lo, hi, c_lo, c_hi, c_trial, rest

    def advance(self, z: np.ndarray, t: float, h: float, i: int, u2val: np.ndarray,
                events: list, predicted: Optional[np.ndarray]) -> tuple[np.ndarray, int]:
        """Advance exactly ``h`` with the reference value frozen at the step
        start, splitting the step at every detected cell-boundary crossing.

        A sub-step that ends outside the mode is bracketed by ``bisect``'s
        batched localization; the state is committed at the bracket's outer
        end from the batch row that set it (the event's margins from the
        states at both ends), and the mode is relocated with hysteresis from
        there.  ``predicted`` holds the margins ``propagate`` returned: the
        first sub-step goes to ``bisect`` at once, its full width riding in
        the first batch; a later one takes the last batch's remainder row if
        its ``(t, remaining)`` is that row's bit for bit, else is stepped.
        Besides ``bisect``, about 45 us per crossing on switch-dense."""
        remaining, rest = h, (None, None)
        for _ in range(_SWITCH_CAP):
            if remaining <= 1e-15:
                return z, i
            E, f = self.rows[i]
            basis = self.basis
            np.matmul(self.Zk[i], z, out=basis[:5])
            np.matmul(self.ZkB[i], u2val, out=basis[5:10])
            basis[10:] = self.Zkm[i]
            if predicted is None:
                bracket = None
                c_trial = rest[1] if rest[0] == (t, remaining) else self.coefficients(t, remaining)
            else:
                bracket = self.bisect(basis, t, remaining, i, predicted, trial=True)
                c_trial, predicted = bracket[4], None
            trial = c_trial @ basis
            # a finite sum of the entries shows every one finite; numpy decides the rest
            if not (math.isfinite(sum(trial.tolist())) or np.isfinite(trial).all()):
                raise NonFiniteStateError(f"non-finite state near t={t}")
            end = E @ trial[: self.n] - f
            if _lowest(end) >= -MEMBERSHIP_SLACK:
                return trial, i
            lo, hi, c_lo, c_hi, _, rest = bracket or self.bisect(basis, t, remaining, i, end)
            z_lo = z if c_lo is None else c_lo @ basis
            z = trial if c_hi is None else c_hi @ basis
            committed = hi * remaining
            old = (i, self.js[i])
            x1 = z[: self.n]
            try:
                i = locate_mode(self.part, x1, previous=i)
            except NoCellError as exc:
                raise NoCellError(f"t={t + committed:.6f}: {exc}") from exc
            events.append(CrossingEvent(
                t_inside=t + lo * remaining,
                t_outside=t + committed,
                margin_inside=_lowest(E @ z_lo[: self.n] - f),
                margin_outside=_lowest(E @ x1 - f),
                old_label=old,
                new_label=self.label(x1, i),
            ))
            t += committed
            remaining -= committed
        raise PwaHierError(
            f"more than {_SWITCH_CAP} mode switches within one step at t={t}"
        )


def run_scenario(s: Scenario) -> Trajectory:
    """Simulate the closed loop and record the certified bound chain.

    Steps go in blocks through the mode's step map, each block filled by
    one doubling scan; the first step of a block that leaves the mode (cell,
    and abstraction region for PWA abstractions) or turns non-finite is
    redone by ``advance``, which bisects the crossing and relocates the mode
    with hysteresis.  A block starts at ``_BLOCK`` steps and doubles after
    each block that stays in its mode, up to ``_BLOCK_MAX``; every step
    ``advance`` redoes drops it back to ``_BLOCK``.  So a run that stays in
    one mode for thousands of steps takes few scans, and one that switches
    often scans as with fixed blocks of ``_BLOCK``.  The per-sample
    certificate columns are evaluated afterwards in one vectorized pass.  A
    certificate that fails any mode, visited or not, raises
    UncertifiedModeError (lowest mode) first, and one with a gain slope that
    overflowed InfeasibleCertificateError; a horizon too long for memory,
    EmptyTrajectoryError (before integrating when the run's arrays would
    exceed physical memory).
    """
    bad = [jm.label for jm, r in zip(s.joint.modes, s.reports) if not r.feasible]
    if bad:
        raise UncertifiedModeError(f"certificate infeasible for mode {bad[0]}")
    over = ~np.isfinite(s.slopes).all(axis=1)
    if over.any():
        raise InfeasibleCertificateError(
            f"certificate lambda {s.certificate.lam!r} makes a gain slope of mode "
            f"{s.joint.modes[int(np.argmax(over))].label} overflow")
    check_allocatable(s)
    runner = _Runner(s)
    n, steps = runner.n, s.steps
    try:
        t = np.arange(steps + 1) * s.h
        u2bar = s.schedule.value(t)
        stages = runner.stages(t[:-1], s.h)
        zs = np.empty((steps + 1, n + runner.m))
        mode_i = np.empty(steps + 1, dtype=int)
        i = locate_mode(runner.part, s.x1_0)
        runner.label(s.x1_0, i)  # raises unless x1_0 lies in the paired region
        zs[0] = np.concatenate([s.x1_0, s.x2_0])
        mode_i[0] = i

        events: list[CrossingEvent] = []
        k, block = 0, _BLOCK
        # a diverging state overflows quietly; advance reports it as non-finite
        with np.errstate(over="ignore", invalid="ignore"):
            while k < steps:
                stop = min(k + block, steps)
                kept, end = runner.propagate(zs, k, stop, i, u2bar, stages)
                mode_i[k + 1: k + 1 + kept] = i
                k += kept
                if k < stop:
                    zs[k + 1], i = runner.advance(zs[k], float(t[k]), s.h, i,
                                                  u2bar[k], events, end)
                    mode_i[k + 1] = i
                    k += 1
                    block = _BLOCK
                else:
                    block = min(2 * block, _BLOCK_MAX)

        return _bookkeep(s, runner, t, zs[:, :n], zs[:, n:], u2bar, mode_i, tuple(events))
    except MemoryError as exc:
        raise _unallocatable(s) from exc


def _unallocatable(s: Scenario) -> EmptyTrajectoryError:
    return EmptyTrajectoryError(f"horizon {s.t_end:g} at step {s.h:g} needs "
                                f"{s.steps + 1:.3g} samples, more than can be allocated")


def check_allocatable(s: Scenario) -> None:
    """Raise EmptyTrajectoryError if a run of ``s`` needs more than physical
    memory (not a cgroup limit), where writing its arrays gets the process
    killed, not a MemoryError; no check where sysconf gives no page count."""
    # 8-byte columns per sample: t, its arange, u2bar, stage times, stages, zs,
    # mode_i, and the bookkeeping's xtilde, u1, y1, y2, y1 - y2, |x2| and nine more
    needed = 8 * (s.steps + 1) * (18 + s.schedule.values.shape[1] + 2 * (s.joint.n + s.joint.m)
                                  + s.joint.system.p + 3 * s.joint.system.k)
    physical = 0
    with suppress(AttributeError, ValueError, OSError):
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > physical > 0:
        raise _unallocatable(s)


def _bookkeep(s: Scenario, runner: _Runner, t, x1, x2, u2bar, mode_i,
              events: tuple[CrossingEvent, ...]) -> Trajectory:
    """Per-sample certificate columns, ``_GATHER_ROWS`` samples at a time with
    no loop over modes: a chunk uses its one mode's P, C, H, interface gains,
    M and form constant, or gathers each sample's by mode from stacks built
    once; gain slopes come from the scenario's."""
    joint, cert, slopes = s.joint, s.certificate, s.slopes
    M = np.array([e.M for e in cert.entries])
    m = np.array([e.m_scalar for e in cert.entries], float)  # NaN for None
    add = np.where([jm.kind == AFFINE for jm in joint.modes], m, 0.0)
    xtilde, u1, y1, y2, V = (np.empty((len(t), *cols)) for cols in (
        (runner.n,), (joint.system.p,), (joint.system.k,), (joint.system.k,), ()))
    for start in range(0, len(t), _GATHER_ROWS):
        rows = slice(start, start + _GATHER_ROWS)
        i = mode_i[rows]
        i = i[0] if (i == i[0]).all() else i  # one mode: no copy per sample
        xtilde[rows] = x1[rows] - np.einsum("...ij,...j->...i", runner.P[i], x2[rows])
        u1[rows] = joint.u1(i, xtilde[rows], x2[rows], u2bar[rows])
        y1[rows] = np.einsum("...ij,...j->...i", joint.C[i], x1[rows])
        y2[rows] = np.einsum("...ij,...j->...i", joint.H[i], x2[rows])
        V[rows] = sim_fn_values(M[i], add[i], np.hstack([xtilde[rows], x2[rows]]), cert.kappa)

    err = np.linalg.norm(y1 - y2, axis=1)
    x2_running = np.maximum.accumulate(np.max(np.abs(x2), axis=1))
    with np.errstate(over="ignore"):  # an overflowed level is inf, and FAILs
        b = (slopes[mode_i, 0] * s.schedule.sup_norm()
             + slopes[mode_i, 1] * s.disturbance.sup_norm()
             + slopes[mode_i, 2] * x2_running + slopes[mode_i, 3])
        delta = cert.kappa * np.maximum(V, b)

    return Trajectory(
        t=t, x1=x1, x2=x2, xtilde=xtilde, u1=u1, u2bar=u2bar, y1=y1, y2=y2,
        mode_i=mode_i, mode_j=np.array(joint.mode_j)[mode_i], err=err, V=V, b=b, delta=delta,
        kappa=cert.kappa, crossings=events,
    )


#: ``renameat2`` arguments: the working directory, and the flag that swaps
#: the two names instead of replacing one.
_AT_FDCWD = -100
_RENAME_EXCHANGE = 2


@lru_cache(maxsize=None)
def _renameat2() -> Optional[Callable[..., int]]:
    """libc's ``renameat2``, or None where libc has none (macOS, Windows,
    glibc before 2.28).  Looked up on the first replace, not at import."""
    import ctypes

    try:
        fn = ctypes.CDLL(None).renameat2
    except (AttributeError, OSError, TypeError):
        return None
    fn.argtypes = (ctypes.c_int, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p,
                   ctypes.c_uint)
    fn.restype = ctypes.c_int
    return fn


def _exchange(tmp: str, path) -> bool:
    """Swap the names ``tmp`` and ``path`` in one step when ``path`` is a
    regular file; False, with nothing moved, when it is missing or not a
    regular file, or the exchange fails for any reason (a failed exchange
    moves nothing, and ``os.replace`` then places the file or reports the
    error)."""
    fn = _renameat2()
    if fn is None:
        return False
    try:
        mode = os.lstat(path).st_mode
    except OSError:
        return False
    if not stat.S_ISREG(mode):
        return False
    return fn(_AT_FDCWD, os.fsencode(tmp), _AT_FDCWD, os.fsencode(path), _RENAME_EXCHANGE) == 0


@contextmanager
def atomic_write(path) -> Iterator[TextIO]:
    """Text file handle on ``<path>.<pid>.tmp``, placed onto ``path`` once
    the block completes.

    A reader of ``path`` sees the old file or the new one, never a partial
    or missing file, and a handle opened before keeps the old bytes.  An
    existing regular file is swapped with the temp file in one step
    (``renameat2`` with ``RENAME_EXCHANGE``) and the temp name, which then
    holds the old bytes, is unlinked.  Renaming over the old file instead
    makes ext4 write the new data to disk at once (``auto_da_alloc``), and
    each rerun into the same directory then waited on the disk.  With the
    swap, a rerun made before the kernel writes the old files out on its
    own (``vm.dirty_expire_centisecs``, 30 s by default) does not wait; a
    later one waits as before.  A missing target, one that is not a regular
    file, or a failed exchange gets ``os.replace``.  Nothing is fsynced:
    after a crash or power loss a file may be empty or truncated, and only
    rerunning gets it back.  If the block or the placing raises, the temp
    file is removed and the error propagates.  The temp name carries the
    process id, so two processes writing one path never write, place or
    remove each other's temp file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            yield fh
        if _exchange(tmp, path):
            os.unlink(tmp)
        else:
            os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def _write_rows(handles: Sequence[TextIO], columns: Mapping[str, np.ndarray],
                files: Sequence[tuple], used: Sequence[str], start: int, stop: int) -> None:
    """Append rows ``[start, stop)`` of every table in ``files`` to its
    handle, ``_WRITE_BLOCK`` rows at a time from the block edge ``start``.
    A column block with the dtype and bytes of one already formatted reuses
    its text, and within a block each run of one bit pattern is formatted
    once."""
    for lo in range(start, stop, _WRITE_BLOCK):
        hi = min(lo + _WRITE_BLOCK, stop)
        text, formatted = {}, {}
        for name in used:
            block = columns[name][lo:hi]
            key = (block.dtype, block.tobytes())
            if key not in formatted:
                bits = block.view(f"u{block.itemsize}")
                starts = np.concatenate(([True], bits[1:] != bits[:-1]))
                texts = list(map(repr, block[starts].tolist()))
                if len(texts) < len(block):
                    texts = list(map(texts.__getitem__, (np.cumsum(starts) - 1).tolist()))
                formatted[key] = texts
            text[name] = formatted[key]
        for fh, (_, names, sep, _) in zip(handles, files):
            fh.write("\n".join(map(sep.join, zip(*(text[name] for name in names)))) + "\n")


def _split_row(rows: int) -> int:
    """The block edge nearest the middle of ``rows``, from which a forked
    child formats the rest; ``rows`` (no child) unless the tables span two
    blocks, ``os.fork`` and ``os.sched_getaffinity`` exist, this process may
    run on two CPUs, it runs no other thread (a lock another thread holds at
    the fork stays held in the child for good), and SIGCHLD has its default
    action (where it is ignored, or handled by code that reaps children, the
    child's exit status is lost)."""
    import signal

    if (rows < 2 * _WRITE_BLOCK or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
            or threading.active_count() != 1
            or signal.getsignal(signal.SIGCHLD) != signal.SIG_DFL):
        return rows
    return _WRITE_BLOCK * round(rows / (2 * _WRITE_BLOCK))


@contextmanager
def _forked(work: Callable[[], None]) -> Iterator[Callable[[], None]]:
    """Run ``work`` in a forked child; yields ``join``, which waits for the
    child and raises OSError unless it exited 0.

    The child ends with ``os._exit`` on every path: it never returns into
    the caller's frames, whose cleanup would place or remove this process's
    files, and never flushes a handle it inherited (its garbage collector is
    off, so no finalizer of inherited garbage does either).  Leaving the
    block before ``join`` returned, by any exception including
    KeyboardInterrupt, kills and reaps the child.  An OSError from ``fork``
    propagates with no child.
    """
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            import gc

            gc.disable()
            work()
            code = 0
        finally:
            os._exit(code)
    reaped = False

    def join() -> None:
        nonlocal reaped
        status = os.waitpid(pid, 0)[1]
        reaped = True
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise OSError(f"the child formatting the second half of the rows "
                          f"ended with status {code}")

    try:
        yield join
    finally:
        if not reaped:
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _append_file(fh: TextIO, part) -> None:
    """Append the whole of the file ``part`` to the text handle ``fh``,
    copied by the kernel (``os.sendfile``), not through this process."""
    fh.flush()
    size = os.fstat(part.fileno()).st_size
    offset = 0
    while offset < size:
        sent = os.sendfile(fh.fileno(), part.fileno(), offset, size - offset)
        if sent == 0:
            raise OSError(f"formatted rows end after {offset} of {size} bytes")
        offset += sent


def write_tables(columns: Mapping[str, np.ndarray],
                 files: Sequence[tuple]) -> None:
    """Write text tables that share named 1-D columns, in one pass.

    Each ``(path, names, sep, header)`` entry of ``files`` is a table whose
    rows are its named columns' shortest-exact (``repr``) values joined by
    ``sep``, under a line of the names when ``header`` is true.  The rows
    are walked in blocks of ``_WRITE_BLOCK``; in each, a column shared by
    several tables or with the dtype and bytes of another is formatted
    once, and so is each run of one bit pattern in a column (``-0.0`` and
    ``0.0`` stay apart).  The bytes are those of formatting every value on
    its own.  Every table is written atomically.

    Where ``_split_row`` allows, a forked child formats the rows from the
    block edge nearest the middle into one anonymous temp file per table,
    beside the table, while this process formats the first half; the
    child's text is then appended by the kernel.  Dedup is per block, so the
    bytes are the same as from one process.  A child that fails fails the
    write (OSError), and no child outlives the call unless this process is
    killed outright, in which case the child finishes and places nothing.

    Raises DimensionMismatchError if a named column is not 1-D or its
    length differs from the first one's.
    """
    used = list(dict.fromkeys(name for _, names, _, _ in files for name in names))
    rows = len(columns[used[0]]) if used else 0
    for name in used:
        if np.shape(columns[name]) != (rows,):
            raise DimensionMismatchError(
                f"column {name!r} has shape {np.shape(columns[name])}, "
                f"expected ({rows},) like {used[0]!r}")
    split = _split_row(rows)
    with ExitStack() as stack:
        handles = [stack.enter_context(atomic_write(path)) for path, *_ in files]
        for fh, (_, names, sep, header) in zip(handles, files):
            if header:
                fh.write(sep.join(names) + "\n")
        join = None
        if split < rows:
            parts = [stack.enter_context(tempfile.TemporaryFile(
                "w+", encoding="utf-8", dir=os.path.dirname(os.path.abspath(path))))
                for path, *_ in files]

            def work() -> None:
                _write_rows(parts, columns, files, used, split, rows)
                for part in parts:
                    part.flush()

            try:
                join = stack.enter_context(_forked(work))
            except OSError:  # no child: this process formats every row
                split = rows
        _write_rows(handles, columns, files, used, 0, split)
        if join is not None:
            join()
            for fh, part in zip(handles, parts):
                _append_file(fh, part)


def export_run(traj: Trajectory, out_dir, plot_data: bool = False) -> list[Path]:
    """Write the run directory's tables in one ``write_tables`` pass and
    return their paths, in this order: ``trajectory.csv`` (every per-sample
    column, modes 1-based), ``bounds.csv`` (``t, err, kV, delta`` with ``kV
    = kappa V``, the chain ``err <= kV <= delta``) and, with ``plot_data``,
    the headerless series ``plot/{err,sim_fn,bound}.dat`` against ``t`` and
    the output paths ``plot/path_{concrete,abstraction}.dat`` (``y1``,
    ``y2``).  Floats are written shortest-exact, so they read back bit for
    bit; every file is written atomically."""
    out = Path(out_dir)
    columns = {"t": traj.t}
    for prefix, block in (("x1", traj.x1), ("x2", traj.x2), ("u1", traj.u1)):
        columns.update((f"{prefix}_{a}", col) for a, col in enumerate(block.T))
    columns.update(mode_i=traj.mode_i + 1, mode_j=traj.mode_j + 1, err=traj.err,
                   V=traj.V, b=traj.b, delta=traj.delta)
    tables = [(out / "trajectory.csv", tuple(columns), ",", True),
              (out / "bounds.csv", ("t", "err", "kV", "delta"), ",", True)]
    columns["kV"] = traj.kappa * traj.V
    if plot_data:
        series = {"err": ("t", "err"), "sim_fn": ("t", "kV"), "bound": ("t", "delta")}
        for side, y in (("concrete", traj.y1), ("abstraction", traj.y2)):
            series[f"path_{side}"] = names = tuple(f"{side}_{a}" for a in range(y.shape[1]))
            columns.update(zip(names, y.T))
        tables += [(out / "plot" / f"{stem}.dat", names, " ", False)
                   for stem, names in series.items()]
    (out / "plot" if plot_data else out).mkdir(parents=True, exist_ok=True)
    write_tables(columns, tables)
    return [path for path, *_ in tables]
