"""Seeded model generators for the benchmark workloads.

Both families are written as ordinary model files (JSON documents in the
format of ``docs/model_format.md``); the program under test only ever sees
those files.  The structure of every instance (dimensions, mode counts,
abstraction and cell kinds) is fixed by its index in the pool, and only the
numbers are drawn from the seed, so every seed produces a pool of the same
shape and run-to-run cost differences come from the program, not from a
different mix of problem sizes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

#: Parameter ranges of the ``synth-check`` family (recorded in BENCHMARK.json).
SYNTH_JOINT_DIMS = (4, 6, 8, 10, 12, 14, 16)
SYNTH_MODES = (2, 8)
SYNTH_POOL = 84

#: Parameter ranges of the ``switch-dense`` family.
SWITCH_CONES = (32, 64)
SWITCH_POOL = 8
SWITCH_T_END = 1.0
SWITCH_STEP = 1e-3
#: Target boundary crossings per 1000 steps (the reference sweeps
#: ``cones * omega / 2 pi`` cones per simulated second).
SWITCH_TARGET_PER_KSTEP = 80.0


def _mat(M) -> list:
    return [[float(v) for v in row] for row in np.atleast_2d(M)]


def _vec(v) -> list:
    return [float(x) for x in np.asarray(v).reshape(-1)]


def _stable(rng, size: int, lo: float = 0.5, hi: float = 3.0) -> np.ndarray:
    """Random Hurwitz matrix: negative-definite symmetric part plus a skew
    part, so every eigenvalue has real part below ``-lo``."""
    skew = rng.normal(size=(size, size))
    return -np.diag(rng.uniform(lo, hi, size)) + 0.5 * (skew - skew.T) / math.sqrt(size)


def _fan_rows(u, v, theta):
    """Half-space rows ``a x >= 0`` (counter-clockwise of the ray at angle
    ``theta`` in the plane spanned by ``u``, ``v``) and its opposite."""
    a = -math.sin(theta) * u + math.cos(theta) * v
    return a, -a


def _fan_cells(rng, n: int, count: int, span: float, apex):
    """``count`` wedges of a random half-space fan in a random 2-plane of
    R^n, covering ``span`` radians from a random start angle; every wedge is
    narrower than pi so two rows describe it.  Returns the boundary angles,
    the plane basis and the cells as ``(E, f)`` with ``f = E apex``."""
    basis, _ = np.linalg.qr(rng.normal(size=(n, 2)))
    u, v = basis[:, 0], basis[:, 1]
    widths = rng.uniform(0.8, 1.2, count)
    widths *= span / widths.sum()
    theta = rng.uniform(0.0, 2.0 * math.pi) + np.concatenate([[0.0], np.cumsum(widths)])
    cells = [_wedge(u, v, theta[i], theta[i + 1], apex) for i in range(count)]
    return theta, (u, v), cells


def _wedge(u, v, lo, hi, apex):
    E = np.vstack([_fan_rows(u, v, lo)[0], _fan_rows(u, v, hi)[1]])
    return E, E @ apex


def _planted_mode(rng, H, F, n: int, p: int):
    """Concrete mode ``(A, B, C)`` with a stabilizing gain ``K`` such that
    ``H = C P0`` and ``P0 F = A P0 + B Q0`` hold exactly for a random
    injective ``P0`` (the construction of ``plant_relation_instance`` in the
    relation tests, extended so that ``A + B K`` is Hurwitz by design).

    In the basis ``[P0, N]`` (``N`` an orthonormal complement of the range
    of ``P0``) the closed loop ``D = A + B K`` is block upper triangular
    with diagonal blocks ``F_s`` and ``Y``, both random Hurwitz matrices;
    ``B`` contains ``P0`` so the input can move ``F`` to ``F_s``.
    """
    k, m = H.shape
    while True:
        P0 = rng.normal(size=(n, m))
        if np.linalg.svd(P0, compute_uv=False)[-1] > 0.3:
            break
    pinv = np.linalg.pinv(P0)
    full, _ = np.linalg.qr(np.hstack([P0, rng.normal(size=(n, n - m))]))
    N = full[:, m:]
    F_s = _stable(rng, m)
    Y = _stable(rng, n - m)
    X = 0.3 * rng.normal(size=(m, n - m))
    D = P0 @ F_s @ pinv + (P0 @ X + N @ Y) @ N.T
    B = np.hstack([P0, rng.normal(size=(n, p - m))])
    K = 0.5 * rng.normal(size=(p, n))
    A = D - B @ K
    C = H @ pinv + rng.normal(size=(k, n - m)) @ N.T
    return A, B, C, K


def _abstraction_mode(rng, m: int):
    F = rng.normal(size=(m, m))
    G = np.eye(m) + 0.1 * rng.normal(size=(m, m))
    L = np.linalg.solve(G, _stable(rng, m) - F)
    H = rng.normal(size=(m, m))
    return F, G, H, L


def synth_structure(idx: int) -> dict:
    """Fixed structure of pool entry ``idx``: every joint dimension appears
    with each (abstraction kind, cell kind) combination, mode counts sweep
    2..8."""
    a, b = idx % len(SYNTH_JOINT_DIMS), idx // len(SYNTH_JOINT_DIMS)
    d = SYNTH_JOINT_DIMS[a]
    m = max(1, d // 4)
    lo, hi = SYNTH_MODES
    return {
        "d": d, "n": d - m, "m": m, "p": m + 1,
        "modes": lo + (a + 2 * b) % (hi - lo + 1),
        "abstraction": ("linear", "pwa")[b % 2],
        "cells": ("conic", "affine")[(b // 2) % 2],
    }


def synth_check_model(seed: int, idx: int) -> dict:
    """One planted model of the ``synth-check`` family."""
    st = synth_structure(idx)
    rng = np.random.default_rng([seed, idx])
    n, m, p, count = st["n"], st["m"], st["p"], st["modes"]
    apex = np.zeros(n) if st["cells"] == "conic" else 0.5 * rng.normal(size=n)
    span = min(1.8 * math.pi, 0.4 * math.pi * count)
    theta, (u, v), cells = _fan_cells(rng, n, count, span, apex)

    if st["abstraction"] == "linear":
        amodes = [_abstraction_mode(rng, m)]
        group = [0] * count
    else:
        groups = max(2, count // 2)
        amodes = [_abstraction_mode(rng, m) for _ in range(groups)]
        group = [i * groups // count for i in range(count)]

    modes, gains = [], []
    for i in range(count):
        F, _, H, _ = amodes[group[i]]
        A, B, C, K = _planted_mode(rng, H, F, n, p)
        modes.append({"A": _mat(A), "B": _mat(B), "C": _mat(C), "c_bound": 0.15})
        gains.append(_mat(K))

    def amode_doc(mode):
        F, G, H, L = mode
        return {"F": _mat(F), "G": _mat(G), "H": _mat(H), "L": _mat(L)}

    if st["abstraction"] == "linear":
        abstraction = {"kind": "linear", **amode_doc(amodes[0])}
    else:
        regions = []
        for j in range(len(amodes)):
            members = [i for i in range(count) if group[i] == j]
            E, f = _wedge(u, v, theta[members[0]], theta[members[-1] + 1], apex)
            regions.append({"E": _mat(E), "f": _vec(f)})
        abstraction = {"kind": "pwa", "modes": [amode_doc(a) for a in amodes],
                       "concrete_cells": regions}

    mid = 0.5 * (theta[0] + theta[1])
    x1_0 = apex + math.cos(mid) * u + math.sin(mid) * v
    return {
        "name": f"synth-{seed}-{idx}",
        "description": "planted synthetic instance: " + json.dumps(st, sort_keys=True),
        "system": {
            "modes": modes,
            "partition": [{"E": _mat(E), "f": _vec(f)} for E, f in cells],
        },
        "abstraction": abstraction,
        "gains": {"K": gains},
        "certificate": {"kappa": float(rng.uniform(5.0, 15.0))},
        "scenario": {
            "x1_0": _vec(x1_0), "x2_0": [0.0] * m, "t_end": 1.0, "step": 1e-3,
            "disturbance": {"kind": "zero"},
            "u2bar": [{"t": 0.0, "value": [0.0] * m}],
        },
    }


def switch_cones(idx: int) -> int:
    lo, hi = SWITCH_CONES
    return lo + (hi - lo) * idx // (SWITCH_POOL - 1)


def switch_dense_model(seed: int, idx: int) -> dict:
    """Double-integrator robot on a full fan of 32..64 cones around the
    origin, tracked through a single-integrator abstraction whose reference
    circles the shared vertex, so the position sweeps through every cone
    several times per simulated second."""
    rng = np.random.default_rng([seed, 1000 + idx])
    cones = switch_cones(idx)
    I2, Z2 = np.eye(2), np.zeros((2, 2))
    _, _, cells = _fan_cells(rng, 2, cones, 2.0 * math.pi, np.zeros(2))
    A = np.block([[Z2, I2], [Z2, Z2]])
    B = np.vstack([Z2, I2])
    C = np.hstack([I2, Z2])
    modes, gains, partition = [], [], []
    for E, _ in cells:
        kp, kd = rng.uniform(400.0, 900.0), rng.uniform(40.0, 60.0)
        modes.append({"A": _mat(A), "B": _mat(B), "C": _mat(C), "c_bound": 0.15})
        gains.append(_mat(-np.hstack([kp * I2, kd * I2])))
        partition.append({"E": _mat(np.hstack([E, np.zeros((2, 2))])), "f": [0.0, 0.0]})
    rate = rng.uniform(4.0, 8.0)
    omega = 2.0 * math.pi * SWITCH_TARGET_PER_KSTEP / cones * rng.uniform(0.97, 1.03)
    radius = rng.uniform(1.0, 2.0)
    gain = radius * math.hypot(rate, omega)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    # the abstraction lags its input by atan(omega / rate); lead by as much
    # so that x2 starts on its steady circle at angle ``phase``
    lead = phase + math.atan2(omega, rate)
    dt = 0.01
    waypoints = [
        {"t": round(k * dt, 10),
         "value": _vec(gain * np.array([math.cos(lead + omega * k * dt),
                                        math.sin(lead + omega * k * dt)]))}
        for k in range(int(round(SWITCH_T_END / dt)))
    ]
    start = radius * np.array([math.cos(phase), math.sin(phase)])
    velocity = radius * omega * np.array([-math.sin(phase), math.cos(phase)])
    return {
        "name": f"switch-{seed}-{idx}",
        "description": f"{cones}-cone fan, reference circling the vertex",
        "system": {"modes": modes, "partition": partition},
        "abstraction": {"kind": "linear", "F": _mat(Z2), "G": _mat(I2),
                        "H": _mat(I2), "L": _mat(-rate * I2)},
        "gains": {"K": gains},
        "certificate": {"kappa": 8.0},
        "scenario": {
            "x1_0": _vec(np.concatenate([start, velocity])), "x2_0": _vec(start),
            "t_end": SWITCH_T_END, "step": SWITCH_STEP,
            "disturbance": {"kind": "sinusoid", "offset": -0.1, "amplitude": 0.05},
            "u2bar": waypoints,
        },
    }


def write_pool(out_dir: Path, docs) -> list:
    """Write each document as ``<name>.model``; returns the paths in order."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for doc in docs:
        path = out_dir / f"{doc['name']}.model"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
