"""Output checks.  Each returns a list of problems; an empty list passes.

The checks recompute what the program claims with plain numpy instead of
calling back into it, so a wrong result cannot vouch for itself.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

#: Slack of the per-sample bound chain ``err <= kappa V <= delta``; the same
#: slack the program's PASS verdict documents.
CHAIN_TOL = 1e-6

#: Eigenvalue-margin tolerance of the three certificate conditions.
LMI_TOL = 1e-9

#: Shipped-run reference tolerances: every subsampled state, V and delta
#: value within REF_RTOL * (1 + |reference|); lambda within REF_LAMBDA_RTOL
#: relative; crossing sample times equal.
REF_RTOL = 1e-6
REF_LAMBDA_RTOL = 1e-9

#: Reference samples every REF_STRIDE output steps.
REF_STRIDE = 100


def bound_chain(err, kV, delta) -> list:
    problems = []
    if not (np.all(np.isfinite(err)) and np.all(np.isfinite(kV))
            and np.all(np.isfinite(delta))):
        problems.append("non-finite bound column")
    if np.any(err > kV + CHAIN_TOL):
        problems.append(f"err > kappa V at {int(np.sum(err > kV + CHAIN_TOL))} samples")
    if np.any(kV > delta + CHAIN_TOL):
        problems.append(f"kappa V > delta at {int(np.sum(kV > delta + CHAIN_TOL))} samples")
    return problems


def run_summary(out_dir: Path) -> dict:
    """Compact record of one ``pwa-hier run`` output directory: subsampled
    states, V and delta, the sample times at which the mode changed, and
    lambda."""
    with open(out_dir / "trajectory.csv", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(out_dir / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    col = {name: k for k, name in enumerate(header)}
    states = [k for name, k in col.items() if name.startswith(("x1_", "x2_"))]
    modes = data[:, [col["mode_i"], col["mode_j"]]]
    switched = np.nonzero(np.any(modes[1:] != modes[:-1], axis=1))[0] + 1
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    sub = data[::REF_STRIDE]
    return {
        "samples": int(data.shape[0]),
        "states": sub[:, states].tolist(),
        "V": sub[:, col["V"]].tolist(),
        "delta": sub[:, col["delta"]].tolist(),
        "crossing_times": data[switched, col["t"]].tolist(),
        "lambda": report["lam"],
    }


def shipped_run(out_dir: Path, reference: dict) -> tuple[list, dict]:
    """Check one ``run --plot-data`` directory against its reference and
    re-check the bound chain from ``bounds.csv``; also returns the figures
    the metrics need (samples, crossings, tightness, certified)."""
    problems = []
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    if report.get("verdict") != "PASS":
        problems.append(f"verdict {report.get('verdict')!r}")
    bounds = np.loadtxt(out_dir / "bounds.csv", delimiter=",", skiprows=1, ndmin=2)
    err, kV, delta = bounds[:, 1], bounds[:, 2], bounds[:, 3]
    problems += bound_chain(err, kV, delta)
    for name in ("err.dat", "sim_fn.dat", "bound.dat",
                 "path_concrete.dat", "path_abstraction.dat"):
        if not (out_dir / "plot" / name).is_file():
            problems.append(f"missing plot/{name}")

    got = run_summary(out_dir)
    if got["samples"] != reference["samples"]:
        problems.append(f"{got['samples']} samples, reference {reference['samples']}")
    else:
        for key in ("states", "V", "delta"):
            a, b = np.asarray(got[key]), np.asarray(reference[key])
            off = np.max(np.abs(a - b) / (1.0 + np.abs(b)))
            if not off <= REF_RTOL:
                problems.append(f"{key} off the reference by {off:.3e} (relative)")
    if got["crossing_times"] != reference["crossing_times"]:
        problems.append(f"crossing times {got['crossing_times']} != "
                        f"reference {reference['crossing_times']}")
    if not abs(got["lambda"] - reference["lambda"]) <= REF_LAMBDA_RTOL * reference["lambda"]:
        problems.append(f"lambda {got['lambda']!r} != reference {reference['lambda']!r}")
    facts = {
        "steps": got["samples"] - 1,
        "crossings": len(got["crossing_times"]),
        "tightness": float(np.max(delta) / np.max(err)),
        "certified": bool(report.get("certified")),
    }
    return problems, facts


def relation_residuals(pipe) -> list:
    """Problems with the relation maps of a built pipeline: each mode's
    ``||H - C P||^2 + ||P F - A P - B Q||^2`` recomputed, against the
    documented certification threshold."""
    problems = []
    abstraction = pipe.config.abstraction
    for i, mode in enumerate(pipe.config.system.modes):
        am = abstraction.modes[pipe.pairing[i]] if pipe.pairing is not None else abstraction
        P, Q = pipe.relation.P[i], pipe.relation.Q[i]
        r = np.sqrt(np.linalg.norm(am.H - mode.C @ P) ** 2
                    + np.linalg.norm(P @ am.F - mode.A @ P - mode.B @ Q) ** 2)
        tol = 1e-8 * (1.0 + np.linalg.norm(am.H, 2) + np.linalg.norm(mode.A, 2))
        if not r <= tol:
            problems.append(f"mode {i}: relation residual {r:.3e} > {tol:.3e}")
    return problems


def certificate_margins(pipe) -> list:
    """Problems with a certificate reported feasible: the three margins
    (output domination, relaxed positivity, decay) recomputed with
    ``numpy.linalg.eigvalsh``."""
    problems = []
    cert = pipe.certificate
    for idx, (entry, jm) in enumerate(zip(cert.entries, pipe.joint.modes)):
        if entry.m_scalar is None:
            M, A, C, E = entry.M, jm.Aprime, jm.Cprime, jm.cell.E
            weights = np.full(M.shape[0], cert.lam)
        else:
            d = entry.M.shape[0]
            M = np.zeros((d + 1, d + 1))
            M[:d, :d], M[d, d] = entry.M, entry.m_scalar
            A, C, E = jm.Abar, jm.Cbar, jm.bounding.Ebar
            weights = np.append(np.full(d, cert.lam), 0.0)
        rows = E.shape[0]
        U = np.zeros((rows, rows)) if entry.U is None else entry.U
        W = np.zeros((rows, rows)) if entry.W is None else entry.W
        S1 = M - C.T @ C
        S2 = M - E.T @ U @ E
        S3 = A.T @ M + M @ A + E.T @ W @ E + weights[:, None] * M
        m1 = np.linalg.eigvalsh(0.5 * (S1 + S1.T))[0]
        m2 = np.linalg.eigvalsh(0.5 * (S2 + S2.T))[0]
        m3 = np.linalg.eigvalsh(0.5 * (S3 + S3.T))[-1]
        if not (m1 >= -LMI_TOL and m2 >= LMI_TOL and m3 <= LMI_TOL):
            problems.append(f"mode {idx}: margins ({m1:.3e}, {m2:.3e}, {m3:.3e}) infeasible")
    return problems


def trajectory(traj, expected_samples: int) -> list:
    problems = []
    if len(traj) != expected_samples:
        problems.append(f"{len(traj)} samples, expected {expected_samples}")
    if not (np.all(np.isfinite(traj.x1)) and np.all(np.isfinite(traj.x2))):
        problems.append("non-finite state")
    return problems + bound_chain(traj.err, traj.kappa * traj.V, traj.delta)
