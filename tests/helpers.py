"""Shared test helpers: randomized containment instances, a switch-dense
cone fan, a scalar RK4 step, scalar bisection of a crossing and a run that
uses it, the certificate margins of raw blocks, an
exact rational audit of a certificate, Kronecker-product oracles for the
decay equation and the stacked relation system, and a mode-by-mode
reference synthesis."""

import importlib.util
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np

from pwa_hier import (
    Certificate,
    DisturbanceSignal,
    JointSystem,
    ModeCertificate,
    LinearAbstraction,
    Partition,
    PwaMode,
    PwaSystem,
    Scenario,
    build_interface,
    reference_schedule,
    synthesize_certificate,
    verify_all,
)
from pwa_hier.certificate import SYNTH_EPSILON, SYNTH_MARGIN, _solve_decay_equation
from pwa_hier.errors import EmptyTrajectoryError, NonFiniteStateError
from pwa_hier import simulator
from pwa_hier.modelfile import build_pipeline, load_model
from pwa_hier.polytope import AFFINE, CONIC, MEMBERSHIP_SLACK
from pwa_hier.polytope import Polyhedron, vertices_2d
from pwa_hier.relation import solve_system_relation


def random_polygon(rng, radius=None) -> Polyhedron:
    """Random bounded polygon from sorted boundary points (inward form)."""
    k = int(rng.integers(3, 7))
    angles = np.sort(rng.uniform(0.0, 2 * np.pi, size=k))
    if np.min(np.diff(angles, append=angles[0] + 2 * np.pi)) < 0.2:
        angles = np.linspace(0.0, 2 * np.pi, k, endpoint=False)
    r = radius if radius is not None else rng.uniform(0.5, 2.0)
    pts = np.column_stack([r * np.cos(angles), r * np.sin(angles)])
    center = pts.mean(axis=0)  # strictly inside any convex polygon
    rows, offs = [], []
    for a in range(k):
        p0, p1 = pts[a], pts[(a + 1) % k]
        edge = p1 - p0
        normal = np.array([-edge[1], edge[0]])
        if normal @ (center - p0) < 0:
            normal = -normal
        rows.append(normal)
        offs.append(normal @ p0)
    return Polyhedron(np.array(rows), np.array(offs))


def containment_instance(rng):
    """Random (Z, P, yhat, X) whose answer a 1e4-point grid can resolve.

    Instances whose worst mapped-vertex depth (euclidean-normalized) falls
    inside (-0.15, 1e-6) are redrawn: a grid oracle cannot see violation
    slivers thinner than its spacing, so draws are kept away from the
    decision boundary (the verdict itself stays random).
    """
    while True:
        Z = random_polygon(rng)
        P = rng.normal(scale=0.8, size=(2, 2))
        yhat = rng.normal(scale=0.5, size=2)
        X = random_polygon(rng, radius=rng.uniform(1.0, 3.0))
        norms = np.linalg.norm(X.E, axis=1)
        worst = min(
            float(np.min((X.E @ (P @ v + yhat) - X.f) / norms))
            for v in vertices_2d(Z)
        )
        if worst >= 1e-6 or worst <= -0.15:
            return Z, P, yhat, X


def grid_oracle(Z: Polyhedron, P, yhat, X: Polyhedron, samples: int = 100) -> bool:
    """Dense-grid membership check over Z's bounding box, independent of the
    vertex criterion (samples*samples points, 1e4 by default)."""
    verts = vertices_2d(Z)
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    P = np.asarray(P, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    for x in np.linspace(lo[0], hi[0], samples):
        for y in np.linspace(lo[1], hi[1], samples):
            z = np.array([x, y])
            if Z.contains(z, slack=0.0) and not X.contains(P @ z + yhat):
                return False
    return True


def fan_scenario(cones: int = 32, seed: int = 0, t_end: float = 0.5,
                 h: float = 1e-3) -> Scenario:
    """Double-integrator robot on a fan of ``cones`` cones of random width
    around the origin of its position plane, tracked through a
    single-integrator abstraction whose reference circles the shared
    vertex: the position sweeps through about 80 cones per second, so a
    boundary is crossed every dozen steps or so."""
    rng = np.random.default_rng(seed)
    I2, Z2 = np.eye(2), np.zeros((2, 2))
    widths = rng.uniform(0.8, 1.2, cones)
    theta = rng.uniform(0.0, 2.0 * math.pi) + np.concatenate(
        [[0.0], np.cumsum(widths * 2.0 * math.pi / widths.sum())])

    def ray_normal(angle):  # a x >= 0 counter-clockwise of the ray at angle
        return np.array([-math.sin(angle), math.cos(angle)])

    cells = tuple(
        Polyhedron(np.hstack([np.vstack([ray_normal(lo), -ray_normal(hi)]), Z2]),
                   np.zeros(2))
        for lo, hi in zip(theta[:-1], theta[1:])
    )
    A = np.block([[Z2, I2], [Z2, Z2]])
    B = np.vstack([Z2, I2])
    C = np.hstack([I2, Z2])
    system = PwaSystem(tuple(PwaMode(A, B, C, 0.15) for _ in range(cones)),
                       Partition(cells))
    gains = [-np.hstack([rng.uniform(400.0, 900.0) * I2, rng.uniform(40.0, 60.0) * I2])
             for _ in range(cones)]
    rate = rng.uniform(4.0, 8.0)
    abstraction = LinearAbstraction(F=Z2, G=I2, H=I2, L=-rate * I2)
    relation = solve_system_relation(system, abstraction)
    interface = build_interface(system, abstraction, relation, gains)
    joint = JointSystem(system, abstraction, relation, interface)
    certificate = synthesize_certificate(joint, kappa=8.0)

    omega = 2.0 * math.pi * 80.0 / cones
    radius = rng.uniform(1.0, 2.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    # the abstraction lags its input by atan(omega / rate); lead by as much
    # so that x2 starts on its steady circle at angle ``phase``
    lead = phase + math.atan2(omega, rate)
    gain = radius * math.hypot(rate, omega)
    dt = 0.01
    schedule = reference_schedule([
        (k * dt, gain * np.array([math.cos(lead + omega * k * dt),
                                  math.sin(lead + omega * k * dt)]))
        for k in range(int(round(t_end / dt)))
    ])
    start = radius * np.array([math.cos(phase), math.sin(phase)])
    velocity = radius * omega * np.array([-math.sin(phase), math.cos(phase)])
    return Scenario(
        joint, certificate, schedule, DisturbanceSignal.sinusoid(-0.1, 0.05, 4),
        x1_0=np.concatenate([start, velocity]), x2_0=start, t_end=t_end, h=h,
    )


def step_rk4(f, x, t: float, h: float) -> np.ndarray:
    """One classical four-stage Runge-Kutta step of width ``h`` of the field
    ``f(x, t)``: the scalar oracle of the simulator's batched step maps."""
    if not h > 0.0:
        raise EmptyTrajectoryError(f"step width must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    k1 = f(x, t)
    k2 = f(x + 0.5 * h * k1, t + 0.5 * h)
    k3 = f(x + 0.5 * h * k2, t + 0.5 * h)
    k4 = f(x + h * k3, t + h)
    out = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise NonFiniteStateError(f"non-finite state after step at t={t}")
    return out


def margins(runner, x1, i):
    """Margins ``E x1 - f`` of mode ``i``'s rows in a run's ``_Runner``."""
    E, f = runner.rows[i]
    return E @ x1 - f


def scalar_bisect(runner, basis, t, width, i, end=None, trial=False):
    """Plain bisection of the exit point, one scalar sub-step and margin
    per level: the reference the batched localization must reproduce.
    Returns what ``_Runner.bisect`` does: the bracket, its own one-width
    coefficient rows at ``lo`` and ``hi`` (None at 0 and 1), with ``trial``
    at the full width (else None), and ``((start, width), row)`` of the
    remainder sub-step after ``hi``.  ``end``, the margins that predict the
    exit, is not needed."""
    lo, hi, c_lo, c_hi = 0.0, 1.0, None, None
    for _ in range(simulator.BISECTION_CAP):
        if (hi - lo) * width <= simulator.CROSSING_BRACKET:
            break
        mid = 0.5 * (lo + hi)
        c_mid = runner.coefficients(t, mid * width)
        z_mid = c_mid @ basis
        if float(margins(runner, z_mid[: runner.n], i).min()) >= -MEMBERSHIP_SLACK:
            lo, c_lo = mid, c_mid
        else:
            hi, c_hi = mid, c_mid
    key = (t + hi * width, width - hi * width)
    return (lo, hi, c_lo, c_hi, runner.coefficients(t, width) if trial else None,
            (key, runner.coefficients(*key)))


def assert_matches_scalar_run(scenarios):
    """States, modes and every crossing event of each run equal those of a
    run whose crossings are localized by ``scalar_bisect``."""
    batched = [simulator.run_scenario(scen) for scen in scenarios]
    with mock.patch.object(simulator._Runner, "bisect", scalar_bisect):
        scalar = [simulator.run_scenario(scen) for scen in scenarios]
    for got, want in zip(batched, scalar):
        np.testing.assert_array_equal(got.x1, want.x1)
        np.testing.assert_array_equal(got.x2, want.x2)
        np.testing.assert_array_equal(got.mode_i, want.mode_i)
        assert got.crossings == want.crossings
        for ev in got.crossings:
            assert ev.width <= simulator.CROSSING_BRACKET
            assert ev.margin_inside >= -MEMBERSHIP_SLACK
            assert ev.margin_outside < -MEMBERSHIP_SLACK


def lmi_margins(M, A, C, lam):
    """Eigenvalue margins ``(m1, m2, m3)`` of the three certificate
    conditions for raw state blocks, one condition matrix and one
    eigenvalue call at a time."""
    S3 = A.T @ M + M @ A + lam * M

    def eig(S):
        return np.linalg.eigvalsh(0.5 * (S + S.T))

    return float(eig(M - C.T @ C)[0]), float(eig(M)[0]), float(eig(S3)[-1])


def exact_inertia(S):
    """Numbers ``(positive, negative, zero)`` of eigenvalues of the symmetric
    matrix ``S`` (a nested sequence of floats or fractions), in exact
    rational arithmetic: by Sylvester's law of inertia they are the signs
    of the pivots of a symmetric-pivoted LDL^T.  The pivot is the largest
    remaining diagonal entry; where every remaining diagonal entry is zero
    but an off-diagonal one is not, the 2 x 2 block ``[[0, s], [s, 0]]``
    it spans has one eigenvalue of each sign and is eliminated whole."""
    A = [[Fraction(x) for x in row] for row in S]
    rest = list(range(len(A)))
    pos = neg = 0
    while rest:
        p = max(rest, key=lambda i: abs(A[i][i]))
        if A[p][p] != 0:
            pivot = A[p][p]
            pos, neg = pos + (pivot > 0), neg + (pivot < 0)
            rest.remove(p)
            for i in rest:
                if A[i][p]:
                    f = A[i][p] / pivot
                    for j in rest:
                        A[i][j] -= f * A[p][j]
            continue
        pair = next(((i, j) for i in rest for j in rest if i < j and A[i][j]), None)
        if pair is None:  # the remaining block is zero
            break
        p, q = pair
        pos, neg = pos + 1, neg + 1
        rest.remove(p)
        rest.remove(q)
        s = A[p][q]
        for i in rest:
            for j in rest:
                A[i][j] -= (A[i][p] * A[q][j] + A[i][q] * A[p][j]) / s
    return pos, neg, len(A) - pos - neg


def _exact(X):
    return [[Fraction(float(x)) for x in row] for row in np.atleast_2d(X)]


def _exact_product(X, Y):
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*Y)]
            for row in X]


def exact_certificate_holds(cert, joint) -> bool:
    """Whether every mode's certificate conditions hold in exact arithmetic
    over the stored floats: the certificate's ``M`` and the joint state
    blocks ``A'``, ``C'`` that ``verify_all`` reads, on conic and affine
    cells alike, each taken as the rational it stores, and the homogeneous
    entry ``m`` of an affine cell.  It says nothing of the model file's
    decimal numbers, from which those blocks were computed in floating
    point.  The conditions, symmetrized as ``verify_all`` symmetrizes them:
    ``M - C^T C``, ``M`` and ``-(A^T M + M A + lam M)`` are positive
    definite, and ``m > 0`` on an affine cell."""
    lam = Fraction(cert.lam)
    for entry, jm in zip(cert.entries, joint.modes, strict=True):
        if jm.kind != CONIC and not (entry.m_scalar is not None and entry.m_scalar > 0.0):
            return False
        M, A, C = _exact(entry.M), _exact(jm.Aprime), _exact(jm.Cprime)
        d = len(M)
        CtC = _exact_product(list(zip(*C)), C)
        AtM, MA = _exact_product(list(zip(*A)), M), _exact_product(M, A)
        S1 = [[M[i][j] - CtC[i][j] for j in range(d)] for i in range(d)]
        S3 = [[AtM[i][j] + MA[i][j] + lam * M[i][j] for j in range(d)] for i in range(d)]
        S1, S2, S3 = ([[(S[i][j] + S[j][i]) / 2 for j in range(d)] for i in range(d)]
                      for S in (S1, M, S3))
        if (exact_inertia(S1) != (d, 0, 0) or exact_inertia(S2) != (d, 0, 0)
                or exact_inertia([[-x for x in row] for row in S3]) != (d, 0, 0)):
            return False
    return True


def synth_pool_pipelines(directory, indices=None, seed=0):
    """``(path, pipeline)`` of each model of the benchmark's synth-check
    pool (entries ``indices`` of seed ``seed``, all of them where None,
    written to ``directory`` by the benchmark's own generator), built one
    at a time as the iteration asks for it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_generate", Path(__file__).resolve().parents[1] / "perfbench" / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    if indices is None:
        indices = range(generate.SYNTH_POOL)
    paths = generate.write_pool(Path(directory),
                                [generate.synth_check_model(seed, k) for k in indices])
    for path in paths:
        yield path, build_pipeline(load_model(path))


def synth_pool_failures(directory, indices=None, seed=0) -> list:
    """Names of the models of :func:`synth_pool_pipelines` whose built
    certificate fails :func:`exact_certificate_holds`."""
    return [path.stem for path, pipe in synth_pool_pipelines(directory, indices, seed)
            if not exact_certificate_holds(pipe.certificate, pipe.joint)]


def kron_decay_solve(A, lam):
    """Symmetrized solution of ``A^T M + M A + lam M = -SYNTH_EPSILON I`` by
    one LU solve of the full ``d^2 x d^2`` Kronecker sum on column-major
    ``vec M``; None when the solve fails or misses the synthesis residual
    bound."""
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    I = np.eye(d)
    coeff = np.kron(I, A.T) + np.kron(A.T, I) + lam * np.eye(d * d)
    rhs = (-SYNTH_EPSILON * I).reshape(-1, order="F")
    try:
        sol = np.linalg.solve(coeff, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.linalg.norm(coeff @ sol - rhs) <= 1e-6 * SYNTH_EPSILON * np.sqrt(d):
        return None
    M = sol.reshape((d, d), order="F")
    return 0.5 * (M + M.T)


def kron_relation_operator(A, B, C, F):
    """Stacked relation operator on ``(vec P, vec Q)`` (column-major vec):
    rows ``vec(C P)`` over rows ``vec(P F - A P - B Q)``, from Kronecker
    products."""
    n, p, k, m = A.shape[0], B.shape[1], C.shape[0], F.shape[0]
    Im, In = np.eye(m), np.eye(n)
    return np.vstack([
        np.hstack([np.kron(Im, C), np.zeros((k * m, p * m))]),
        np.hstack([np.kron(F.T, In) - np.kron(Im, A), -np.kron(Im, B)]),
    ])


def kron_relation_solve(A, B, C, F, H):
    """Minimum-norm least-squares ``(P, Q)`` of the Kronecker-built stacked
    relation system, with its zeros made ``+0.0``: the least-squares solve
    reads the sign of a zero (a Householder reflector takes the sign of its
    leading entry), so the ``-0.0`` entries that the Kronecker products
    leave can move the solution in the last bits."""
    n, p, m = A.shape[0], B.shape[1], F.shape[0]
    rhs = np.concatenate([H.reshape(-1, order="F"), np.zeros(n * m)])
    coeff = kron_relation_operator(A, B, C, F) + 0.0
    sol = np.linalg.lstsq(coeff, rhs, rcond=None)[0]
    return sol[:n * m].reshape((n, m), order="F"), sol[n * m:].reshape((p, m), order="F")


def reference_synthesis(joint, kappa, lambda_grid, m_scalar=1.0):
    """Certificate synthesis one mode at a time: for each rate of the grid,
    descending, each mode's decay solve, eigen-decomposition and scaling in
    turn, stopping at the first mode that fails; the first rate at which
    every mode solves and verifies wins.  None when no rate does."""
    for lam in sorted(np.asarray(lambda_grid, dtype=float), reverse=True):
        if lam <= 0.0:
            continue
        entries = []
        for jm in joint.modes:
            A = jm.Aprime
            M = _solve_decay_equation(A, lam)
            if M is None:
                break
            w, V = np.linalg.eigh(M)
            if w[0] <= 0.0:
                break
            inv_sqrt = (V / np.sqrt(w)) @ V.T
            ratio = inv_sqrt @ (jm.Cprime.T @ jm.Cprime) @ inv_sqrt
            alpha = (1.0 + SYNTH_MARGIN) * max(
                1.0, float(np.linalg.eigh(0.5 * (ratio + ratio.T))[0][-1]))
            if alpha * w[0] < 1e-10:
                break
            entries.append(ModeCertificate(alpha * M, m_scalar if jm.kind == AFFINE else None))
        else:
            cert = Certificate(kappa, float(lam), tuple(entries))
            if all(r.feasible for r in verify_all(cert, joint)):
                return cert
    return None
