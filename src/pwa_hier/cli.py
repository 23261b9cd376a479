"""Command-line front end: check, run, and sweep model files.

``check`` solves/validates relations and certificates without simulating;
``run`` simulates the scenario and writes trajectory, bound-series, and
report artifacts; ``sweep`` reruns the scenario across one parameter and
tabulates the outcome.  Exit codes: 0 success/PASS, 1 validation failure,
2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ModelError, PwaHierError
from .modelfile import (
    Pipeline,
    build_pipeline,
    certificate_to_jsonable,
    load_model,
    resolve_model_path,
)
from .simulator import (
    Scenario,
    atomic_write,
    check_allocatable,
    export_run,
    run_scenario,
    verdict,
)

_SWEEP_PARAMS = ("disturbance-amplitude", "kappa", "step")


@dataclasses.dataclass
class RunReport:
    """Summary of one check or run; every number but the crossing events is
    recomputable from the emitted CSV artifacts."""

    name: str
    residuals: list
    pairing: Optional[list]
    lmi_margins: list
    lam: float
    kappa: float
    gain_slopes: list
    certified: bool
    max_err: Optional[float] = None
    max_V: Optional[float] = None
    max_delta: Optional[float] = None
    verdict: Optional[str] = None
    files: list = dataclasses.field(default_factory=list)
    seed: Optional[int] = None
    crossings: Optional[list] = None
    tightness: Optional[float] = None

    def to_jsonable(self) -> dict:
        """The report as JSON data, non-finite numbers (an overflowed V or
        delta) as null: JSON has no ``Infinity`` or ``NaN``."""
        return json.loads(json.dumps(dataclasses.asdict(self)), parse_constant=lambda _: None)


def _load(model_spec: str) -> tuple[Pipeline, RunReport]:
    """The model's pipeline and summary, read from its scenario's checks."""
    pipe = build_pipeline(load_model(resolve_model_path(model_spec)))
    reports = pipe.scenario.reports
    return pipe, RunReport(
        name=pipe.config.name,
        residuals=[float(r) for r in pipe.relation.residuals],
        pairing=None if pipe.pairing is None else [j + 1 for j in pipe.pairing],
        lmi_margins=[list(r.margins) for r in reports],
        lam=pipe.certificate.lam,
        kappa=pipe.certificate.kappa,
        gain_slopes=pipe.scenario.slopes[:, :3].tolist(),
        certified=all(r.feasible for r in reports),
    )


def _print_report(report: RunReport) -> None:
    print(f"model: {report.name}")
    print(f"relation residuals: {['%.3e' % r for r in report.residuals]}")
    if report.pairing is not None:
        pairs = ", ".join(f"{i + 1}->{j}" for i, j in enumerate(report.pairing))
        print(f"pairing: {pairs}")
    print(f"certificate: lambda = {report.lam:.6g}, kappa = {report.kappa:g}, "
          f"certified = {report.certified}")
    for idx, margins in enumerate(report.lmi_margins):
        print(f"  mode {idx + 1}: margins = "
              f"({margins[0]:.3e}, {margins[1]:.3e}, {margins[2]:.3e})")
    if report.max_err is not None:
        print(f"max ||e|| = {report.max_err:.6g}, max V = {report.max_V:.6g}, "
              f"max delta = {report.max_delta:.6g}")
    if report.verdict is not None:
        print(f"bound chain: {report.verdict}")


def cmd_check(model_spec: str, save_certificate: Optional[str] = None) -> int:
    pipe, report = _load(model_spec)
    _print_report(report)
    if save_certificate is not None:
        with atomic_write(save_certificate) as fh:
            fh.write(json.dumps(
                certificate_to_jsonable(pipe.certificate, pipe.scenario.reports), indent=2
            ) + "\n")
        print(f"certificate written to {save_certificate}")
    return 0 if report.certified else 1


def cmd_run(model_spec: str, out_dir: str, plot_data: bool = False,
            t_end: Optional[float] = None, step: Optional[float] = None,
            seed: Optional[int] = None) -> int:
    pipe, report = _load(model_spec)
    if not report.certified:  # refused before simulating
        _print_report(report)
        return 1
    report.seed = seed
    scenario = pipe.scenario
    if t_end is not None or step is not None:
        scenario = dataclasses.replace(
            scenario,
            t_end=t_end if t_end is not None else scenario.t_end,
            h=step if step is not None else scenario.h,
        )
    traj = run_scenario(scenario)
    report.max_err, report.max_V, report.max_delta = (
        float(np.max(col)) for col in (traj.err, traj.V, traj.delta))
    report.verdict = verdict(traj)
    report.crossings = [{**dataclasses.asdict(ev), "width": ev.width,
                         "old_label": [int(k) + 1 for k in ev.old_label],
                         "new_label": [int(k) + 1 for k in ev.new_label]}
                        for ev in traj.crossings]
    report.tightness = report.max_delta / report.max_err if report.max_err else None

    report.files = [str(path) for path in export_run(traj, out_dir, plot_data)]
    report_path = Path(out_dir) / "report.json"
    with atomic_write(report_path) as fh:
        fh.write(json.dumps(report.to_jsonable(), indent=2) + "\n")
    report.files.append(str(report_path))

    _print_report(report)
    for f in report.files:
        print(f"wrote {f}")
    return 0 if report.verdict == "PASS" else 2


def _sweep_scenario(pipe: Pipeline, param: str, value: float) -> Scenario:
    scenario = pipe.scenario
    if param == "disturbance-amplitude":
        return dataclasses.replace(
            scenario, disturbance=scenario.disturbance.scaled_to(value)
        )
    if param == "kappa":
        cert = dataclasses.replace(scenario.certificate, kappa=value)
        return dataclasses.replace(scenario, certificate=cert)
    return dataclasses.replace(scenario, h=value)  # param == "step"


def cmd_sweep(model_spec: str, param: str, values: list[float]) -> int:
    if param not in _SWEEP_PARAMS:
        raise ModelError(f"unknown sweep parameter {param!r} (choose from {_SWEEP_PARAMS})")
    if not values:
        raise ModelError("sweep needs at least one value")
    pipe, report = _load(model_spec)
    if not report.certified:  # refused before simulating
        _print_report(report)
        return 1
    # every value is checked before the table starts
    scenarios = [_sweep_scenario(pipe, param, value) for value in values]
    for scenario in scenarios:
        check_allocatable(scenario)
    print(f"{'value':>12} {'max ||e||':>14} {'max V':>14} verdict")
    all_pass = True
    for value, scenario in zip(values, scenarios):
        traj = run_scenario(scenario)
        outcome = verdict(traj)
        all_pass = all_pass and outcome == "PASS"
        print(f"{value:>12.6g} {float(np.max(traj.err)):>14.6g} "
              f"{float(np.max(traj.V)):>14.6g} {outcome}")
    return 0 if all_pass else 2


def _parse_values(text: str) -> list[float]:
    """Comma-separated sweep values; a non-number raises ModelError."""
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise ModelError(f"--values: {exc}") from exc


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="pwa-hier",
        description="Certified hierarchical tracking control of "
                    "piecewise-affine systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="solve relations and verify certificates")
    p_check.add_argument("model", help="model file path or builtin name (case1, case2)")
    p_check.add_argument("--save-certificate", metavar="PATH",
                         help="write the certificate as a reusable JSON fragment")

    p_run = sub.add_parser("run", help="simulate the scenario and write artifacts")
    p_run.add_argument("model")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--plot-data", action="store_true",
                       help="also emit two-column series under <out>/plot/")
    p_run.add_argument("--t-end", type=float, default=None)
    p_run.add_argument("--step", type=float, default=None)
    p_run.add_argument("--seed", type=int, default=None,
                       help="recorded in the report; runs are deterministic")

    p_sweep = sub.add_parser("sweep", help="rerun the scenario across one parameter")
    p_sweep.add_argument("model")
    p_sweep.add_argument("--param", required=True, choices=_SWEEP_PARAMS)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated list, e.g. 0,0.05,0.1")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return cmd_check(args.model, save_certificate=args.save_certificate)
        if args.command == "run":
            return cmd_run(args.model, args.out, plot_data=args.plot_data,
                           t_end=args.t_end, step=args.step, seed=args.seed)
        if args.command == "sweep":
            return cmd_sweep(args.model, args.param, _parse_values(args.values))
        raise AssertionError(f"unhandled command {args.command}")
    except PwaHierError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ValueError) else 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
