"""pwa-hier benchmark: three closed-loop workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload shipped-run --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One process, one closed-loop client: each op starts after the
previous one (and its output check) finished.  BLAS is pinned to one thread
before numpy loads.  With ``--trace 0`` the last stdout line is a JSON
object with the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
carries the per-layer metrics of a traced run.  ``--workload all`` runs the
three workloads one after another, each in its own process.  See README.md
in this directory for the metric definitions.
"""

import os
import sys

# BLAS reads its thread count once, when numpy loads: pin it first.  With
# the default two OpenBLAS threads on a 2-vCPU machine the same solve is
# bimodal (see README.md), and no figure repeats.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference" / "shipped_run.json"
WORKLOADS = ("shipped-run", "synth-check", "switch-dense")

#: Fresh interpreters timed for the import part of ``setup_s`` (one more
#: runs first, untimed, and may write bytecode caches).
IMPORT_PROBES = 5
#: Times the switch-dense pipelines are built during set-up.
SETUP_REPEATS = 3

#: Gated metrics, in BENCHMARK.json order.
END_TO_END = {"setup_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB", "certified_ratio": "ratio"}

#: Seconds per step of ``calibrate()`` at the nominal machine speed.
#: Timings are reported in nominal seconds: wall time times
#: NOMINAL_STEP_S / c, where c is the mean step time of the kernel sampled
#: right before, during and right after the timed call.  On shared 2-vCPU
#: machines the speed of the same code drifts by up to 2x within a second;
#: the factor cancels most of that drift (see README.md).
NOMINAL_STEP_S = 20e-6
#: Interval of the speed samples taken during a timed call.
SAMPLE_EVERY_S = 0.05
_CAL = {}


def calibrate(steps: int = 100) -> float:
    """Seconds per step of a fixed kernel shaped like the program's hot
    loops: RK4 steps of a 6x6 linear system in small numpy operations plus
    a cell-membership test.  One more step runs first, untimed, so that a
    sample taken in the middle of the program's work starts warm."""
    import numpy as np

    if not _CAL:
        rng = np.random.default_rng(0)
        _CAL.update(Z=0.1 * rng.normal(size=(6, 6)) - np.eye(6), u=rng.normal(size=6),
                    E=rng.normal(size=(2, 6)), f=np.zeros(2))
    Z, u, E, f = _CAL["Z"], _CAL["u"], _CAL["E"], _CAL["f"]
    z, h, inside = np.ones(6), 1e-3, 0
    t0 = 0.0
    for step in range(steps + 1):
        if step == 1:
            t0 = time.perf_counter()
        k1 = Z @ z + u
        k2 = Z @ (z + 0.5 * h * k1) + u
        k3 = Z @ (z + 0.5 * h * k2) + u
        k4 = Z @ (z + h * k3) + u
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        inside += float(np.min(E @ z - f)) >= 0.0
    return (time.perf_counter() - t0) / steps


def timed(fn, *args):
    """``(result, seconds, nominal-speed factor)`` of one call.

    The kernel runs before and after the call, and every SAMPLE_EVERY_S
    during it from a SIGALRM handler (10 steps, ~0.2 ms); the handler's
    time is taken out of the call's seconds.
    """
    samples, spent = [calibrate()], [0.0]

    def sample(signum, frame):
        t0 = time.perf_counter()
        samples.append(calibrate(10))
        spent[0] += time.perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        dt = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    samples.append(calibrate())
    return result, dt - spent[0], NOMINAL_STEP_S / statistics.fmean(samples)


class ShippedRun:
    """One op: ``pwa-hier run caseN --out ... --plot-data`` for case1 then
    case2, in-process through ``cli.main``."""

    cases = ("case1", "case2")

    def __init__(self, work: Path, seed: int):
        self.out = work
        self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))

    def setup(self) -> tuple[float, float]:
        return 0.0, 0.0

    def items(self):
        return [self.cases]

    def op(self, cases):
        from pwa_hier import cli

        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for case in cases:
                codes.append(cli.main(["run", case, "--out", str(self.out / case),
                                       "--plot-data"]))
        return codes

    def check(self, cases, codes):
        import checks

        problems, facts = [], {"steps": 0, "crossings": 0, "tightness": [],
                               "models": len(cases), "certified": 0, "bytes": 0}
        for case, code in zip(cases, codes):
            if code != 0:
                problems.append(f"{case}: exit code {code}")
                continue
            found, got = checks.shipped_run(self.out / case, self.reference[case])
            problems += [f"{case}: {p}" for p in found]
            facts["steps"] += got["steps"]
            facts["crossings"] += got["crossings"]
            facts["tightness"].append(got["tightness"])
            facts["certified"] += got["certified"]
            facts["bytes"] += sum(f.stat().st_size for f in (self.out / case).rglob("*")
                                  if f.is_file())
        return problems, facts


class SynthCheck:
    """One op: ``pwa-hier check <generated.model>`` in-process, cycling
    through a seeded pool of planted synthetic models."""

    def __init__(self, work: Path, seed: int):
        import generate

        self.paths = generate.write_pool(
            work, [generate.synth_check_model(seed, k) for k in range(generate.SYNTH_POOL)])
        self.pipe = self.error = None

    def setup(self) -> tuple[float, float]:
        from pwa_hier import cli, modelfile

        def capture(config):
            # Keeps the built pipeline (or the error) for the output check;
            # looks build_pipeline up at call time so tracing still sees it.
            try:
                self.pipe = modelfile.build_pipeline(config)
            except Exception as exc:
                self.error = exc
                raise
            return self.pipe

        cli.build_pipeline = capture
        return 0.0, 0.0

    def items(self):
        return self.paths

    def op(self, path):
        from pwa_hier import cli

        self.pipe = self.error = None
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(["check", str(path)])

    def check(self, path, code):
        import checks
        from pwa_hier.errors import (NoFeasiblePairingError, SynthesisFailedError,
                                     UncertifiedRelationError)

        facts = {"models": 1, "certified": 0}
        # Clean refusals to certify, with the exit code cli.main gives them:
        # no feasible lambda, or a relation residual over the certification
        # tolerance.  They lower certified_ratio; they are not failures.
        refusals = ((SynthesisFailedError, 2), (UncertifiedRelationError, 1),
                    (NoFeasiblePairingError, 1))
        if any(isinstance(self.error, cls) and code == c for cls, c in refusals):
            print(f"uncertified: {path.name}: {self.error}", file=sys.stderr)
            return [], facts
        if self.error is not None or code != 0:
            return [f"{path.name}: exit code {code} ({self.error!r})"], facts
        problems = checks.relation_residuals(self.pipe) + checks.certificate_margins(self.pipe)
        facts["certified"] = int(not problems)
        return [f"{path.name}: {p}" for p in problems], facts


class SwitchDense:
    """One op: ``run_scenario`` on a pre-built pipeline whose path crosses
    a cone boundary every dozen steps or so; nothing is exported."""

    def __init__(self, work: Path, seed: int):
        import generate

        self.paths = generate.write_pool(
            work, [generate.switch_dense_model(seed, k) for k in range(generate.SWITCH_POOL)])
        self.pipes = []

    def setup(self) -> tuple[float, float]:
        from pwa_hier.modelfile import build_pipeline, load_model

        def build():
            return [build_pipeline(load_model(p)) for p in self.paths]

        runs = []
        for _ in range(SETUP_REPEATS):
            self.pipes, dt, factor = timed(build)
            runs.append((dt, factor))
        return _medians(runs)

    def items(self):
        return self.pipes

    def op(self, pipe):
        from pwa_hier.simulator import run_scenario

        return run_scenario(pipe.scenario)

    def check(self, pipe, traj):
        import checks

        samples = int(math.floor(pipe.scenario.t_end / pipe.scenario.h + 1e-9)) + 1
        problems = checks.trajectory(traj, samples) + checks.certificate_margins(pipe)
        facts = {"steps": len(traj) - 1, "crossings": len(traj.crossings),
                 "tightness": [float(traj.delta.max() / traj.err.max())],
                 "models": 1, "certified": int(not problems)}
        return problems, facts


CLASSES = {"shipped-run": ShippedRun, "synth-check": SynthCheck, "switch-dense": SwitchDense}


def _medians(runs) -> tuple[float, float]:
    """Median wall and median nominal seconds of ``(wall, factor)`` pairs."""
    return (statistics.median(dt for dt, _ in runs),
            statistics.median(dt * f for dt, f in runs))


def import_seconds() -> tuple[float, float]:
    """Median wall and nominal time of ``import pwa_hier.cli`` in fresh
    interpreters."""
    code = ("import time; t = time.perf_counter(); import pwa_hier.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def probe():
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=120)
        return float(out.stdout)

    probe()
    runs = []
    for _ in range(IMPORT_PROBES):
        seconds, _, factor = timed(probe)
        runs.append((seconds, factor))
    return _medians(runs)


def warm_up(wl) -> None:
    """One untimed op, so lazy imports and first-call costs stay out of the
    timings."""
    item = wl.items()[0]
    wl.check(item, wl.op(item))


def run_ops(wl, seconds: float, tracer=None, first_op: int = 0) -> list:
    """Closed loop over whole passes of the workload's items until
    ``seconds`` of wall time have passed; returns one ``Op`` per op.
    Output checks run between ops, outside the timing."""
    ops = []
    items = wl.items()
    deadline = time.perf_counter() + seconds
    while True:
        for item in items:
            op_id = first_op + len(ops)
            call = wl.op
            if tracer is not None:
                tracer.op = op_id
                call = tracer.spanned("op", wl.op)
            dt, factor = 0.0, 1.0
            try:
                result, dt, factor = timed(call, item)
                problems, facts = wl.check(item, result)
            except Exception:  # a traceback is a failed op; keep measuring
                problems, facts = [traceback.format_exc(limit=-3)], {}
            for p in problems:
                print(f"op {op_id} failed: {p}", file=sys.stderr)
            if tracer is not None:
                tracer.counters[(op_id, "bytes_written")] += facts.get("bytes", 0)
                tracer.scale[op_id] = factor
            ops.append(Op(dt, factor, problems, facts))
        if time.perf_counter() >= deadline:
            return ops


class Op:
    """Wall time, nominal-speed factor, check problems and facts of one op."""

    __slots__ = ("wall", "factor", "problems", "facts")

    def __init__(self, wall, factor, problems, facts):
        self.wall, self.factor, self.problems, self.facts = wall, factor, problems, facts

    @property
    def nominal(self) -> float:
        return self.wall * self.factor


def end_to_end(ops: list, setup: tuple[float, float]) -> dict:
    times = [op.nominal for op in ops]
    facts = [op.facts for op in ops]
    steps = sum(f.get("steps", 0) for f in facts)
    tight = [t for f in facts for t in f.get("tightness", [])]
    models = sum(f.get("models", 0) for f in facts)
    return {
        "setup_s": setup[1],
        "setup_wall_s": setup[0],
        "op_p50_s": statistics.median(times),
        "op_p50_wall_s": statistics.median(op.wall for op in ops),
        "op_p90_s": statistics.quantiles(times, n=10)[-1] if len(times) >= 100 else None,
        "sim_steps_per_s": steps / sum(times) if steps else None,
        "tightness": math.exp(statistics.fmean(map(math.log, tight))) if tight else None,
        "certified_ratio": sum(f.get("certified", 0) for f in facts) / max(models, 1),
        "fail_ratio": sum(1 for op in ops if op.problems) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine_slowdown": statistics.median(1.0 / op.factor for op in ops),
    }


UNITS = {"setup_s": "s", "setup_wall_s": "s", "op_p50_s": "s", "op_p50_wall_s": "s",
         "op_p90_s": "s", "sim_steps_per_s": "steps/s", "tightness": "ratio",
         "certified_ratio": "ratio", "fail_ratio": "ratio", "peak_rss_mb": "MB",
         "machine_slowdown": "ratio"}


def environment() -> list:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/self/status", encoding="ascii") as fh:
        threads = next(line.split()[1] for line in fh if line.startswith("Threads:"))
    return [
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"blas {blas.get('name')} {blas.get('version')}",
        f"nproc {len(os.sched_getaffinity(0))}, threads in this process {threads}, "
        + ", ".join(f"{k}={v}" for k, v in PINNED.items()),
        "unpinned finding: with two OpenBLAS threads on two vCPUs, case1 "
        "build_pipeline takes 64-72 ms instead of 5-7 ms, and a 64x64 eigh "
        "right after idle costs ~48 ms instead of ~0.6 ms",
    ]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path[:0] = [str(SRC), str(HERE)]
    work = ROOT / ".bench_out" / f"{name}-{os.getpid()}"
    try:
        import numpy  # noqa: F401
        import pwa_hier.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    try:
        return _measure(name, CLASSES[name](work, seed), seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _measure(name, wl, seconds, trace) -> int:
    import tracing

    for line in environment():
        print(f"# {line}")
    if not trace:
        imported, built = import_seconds(), wl.setup()
        warm_up(wl)
        ops = run_ops(wl, seconds)
        metrics = end_to_end(ops, (imported[0] + built[0], imported[1] + built[1]))
        for key, val in metrics.items():
            shown = "n/a" if val is None else f"{val:.6g}"
            print(f"{name} {key} {shown} {UNITS[key]}")
        gated = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        tracer = tracing.Tracer()
        tracer.install()
        wl.setup()  # traced, as op "setup"
        tracer.uninstall()
        warm_up(wl)
        # Untraced and traced passes alternate, so both see the same
        # background load and their difference is the tracing overhead.
        plain, ops = [], []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            plain += run_ops(wl, 0.0)
            tracer.install()
            ops += run_ops(wl, 0.0, tracer=tracer, first_op=len(ops))
            tracer.uninstall()
        layer = tracing.per_layer(tracer, len(ops))
        layer["trace.overhead_s"] = (statistics.median(op.nominal for op in ops)
                                     - statistics.median(op.nominal for op in plain))
        for key, val in layer.items():
            print(f"{name} {key} {val:.6g} {tracing.unit(key)}")
        ops = plain + ops
        gated = {k: {"value": v, "unit": tracing.unit(k)} for k, v in layer.items()}
    failed = sum(1 for op in ops if op.problems)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": gated}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pwa_hier" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, timeout=900).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
