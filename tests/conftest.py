"""Shared fixtures: both case-study setups built once per session."""

from types import SimpleNamespace

import numpy as np
import pytest

from pwa_hier import (
    DisturbanceSignal,
    LinearAbstraction,
    Partition,
    Polyhedron,
    PwaAbstraction,
    PwaMode,
    PwaSystem,
    Scenario,
    assemble_joint,
    build_interface,
    reference_schedule,
    solve_relation_pairing,
    synthesize_certificate,
)
from pwa_hier.relation import solve_system_relation
from pwa_hier.systems import AbstractionMode

I2 = np.eye(2)
Z2 = np.zeros((2, 2))


def _conic_cell_6d(top: np.ndarray) -> Polyhedron:
    """Position-only constraints padded to the full 6-D state, zero offsets."""
    E = np.zeros((6, 6))
    E[:2, :2] = top
    return Polyhedron(E, np.zeros(6))


def build_case1() -> SimpleNamespace:
    """Triple-integrator robot on a three-cone road, single-integrator
    abstraction."""
    A = np.block([[Z2, I2, Z2], [Z2, Z2, I2], [Z2, Z2, Z2]])
    B1 = np.vstack([Z2, Z2, I2])
    C = np.hstack([I2, Z2, Z2])
    E11 = np.array([[-1.0, 1.0], [-1.0, -1.0]])
    E21 = np.array([[-1.0, 1.0], [1.0, 1.0]])
    cells = tuple(_conic_cell_6d(top) for top in (E11, E21, -E11))
    system = PwaSystem(
        tuple(PwaMode(A, Bi, C, 0.15) for Bi in (B1, 2 * B1, 0.5 * B1)),
        Partition(cells),
    )
    abstraction = LinearAbstraction(F=Z2, G=I2, H=I2, L=-I2)
    relation = solve_system_relation(system, abstraction)
    K1 = -np.hstack([52 * I2, 52.3 * I2, 13 * I2])
    interface = build_interface(system, abstraction, relation, [K1, 0.5 * K1, 2 * K1])
    joint = assemble_joint(system, abstraction, relation, interface)
    certificate = synthesize_certificate(joint, kappa=8.0)
    schedule = reference_schedule([
        (0.0, [0.0, 3.0]), (4.0, [4.0, 0.2]), (8.0, [4.0, 0.0]),
    ])
    disturbance = DisturbanceSignal.sinusoid(-0.1, 0.05, 6)
    scenario = Scenario(
        joint, certificate, schedule, disturbance, x1_0=[-3.9, 0.2, 0, 0, 0, 0],
        x2_0=[-4.0, 0.2], t_end=12.0, h=1e-3,
    )
    return SimpleNamespace(
        system=system, abstraction=abstraction, relation=relation,
        interface=interface, joint=joint, certificate=certificate,
        schedule=schedule, disturbance=disturbance, scenario=scenario,
    )


def build_case2() -> SimpleNamespace:
    """Five-segment road tracked through a three-mode PWA abstraction."""
    block = np.block([[I2, I2], [Z2, I2]])
    Bform = np.vstack([Z2, I2])
    C = np.hstack([I2, Z2])
    eta = [1.0, 1.0, 2.0, 0.5, 0.5]
    modes = tuple(
        PwaMode(eta[i] * block, eta[i] * Bform, C, 0.15) for i in range(5)
    )
    seg = np.array([[1.0, 0.0], [-1.0, 0.0]])
    tops = [
        np.array([[-1.0, 0.0], [0.0, 0.0]]),
        seg, seg, seg,
        np.array([[1.0, 0.0], [0.0, 0.0]]),
    ]
    offs = [
        np.array([1.5, 0.0]),
        np.array([-1.5, 0.5]),
        np.array([-0.5, -0.5]),
        np.array([0.5, -1.5]),
        np.array([1.5, 0.0]),
    ]
    cells = []
    for top, f in zip(tops, offs):
        E = np.zeros((2, 4))
        E[:, :2] = top
        cells.append(Polyhedron(E, f))
    system = PwaSystem(modes, Partition(tuple(cells)))

    k = [3.0, 4.0, 2.5]
    eta_abs = [1.0, 2.0, 0.5]
    abs_modes = tuple(
        AbstractionMode(F=eta_abs[j] * I2, G=I2, H=I2, L=-k[j] * I2)
        for j in range(3)
    )
    regions = (
        Polyhedron(np.array([[-1.0, 0.0, 0.0, 0.0]]), np.array([0.5])),
        Polyhedron(np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]),
                   np.array([-0.5, -0.5])),
        Polyhedron(np.array([[1.0, 0.0, 0.0, 0.0]]), np.array([0.5])),
    )
    abstraction = PwaAbstraction(abs_modes, regions)
    _, relation = solve_relation_pairing(system.modes, abstraction.modes)
    K1 = -np.hstack([50 * I2, 10 * I2])
    K = [K1, K1, 0.5 * K1, 2 * K1, 2 * K1]
    interface = build_interface(system, abstraction, relation, K)
    joint = assemble_joint(system, abstraction, relation, interface)
    certificate = synthesize_certificate(joint, kappa=12.0)
    schedule = reference_schedule([
        (0.0, [-2.0, 0.2]), (2.5, [0.0, 0.4]), (5.0, [2.0, 0.2]),
        (7.5, [4.0, 0.0]), (10.0, [4.6, 0.0]),
    ])
    disturbance = DisturbanceSignal.sinusoid(-0.1, 0.05, 4)
    scenario = Scenario(
        joint, certificate, schedule, disturbance, x1_0=[-2.4, 0.0, 0.0, 0.0],
        x2_0=[-2.5, 0.0], t_end=12.0, h=1e-3,
    )
    return SimpleNamespace(
        system=system, abstraction=abstraction, relation=relation,
        interface=interface, joint=joint, certificate=certificate,
        schedule=schedule, disturbance=disturbance, scenario=scenario,
    )


@pytest.fixture(scope="session")
def case1():
    return build_case1()


@pytest.fixture(scope="session")
def case2():
    return build_case2()
