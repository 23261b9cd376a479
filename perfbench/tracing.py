"""Span tracing from the benchmark's side of the program's public functions.

Each traced function is replaced by a wrapper in every ``pwa_hier`` module
namespace that holds it, because ``from .linalg import sym_eigen`` binds the
name locally in the consumer module.  A span records name, start, end,
parent span and op id; spans stay in memory until the run ends.  Nothing in
``src/`` is touched, so the spans sit at module boundaries only.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

#: (module, function) pairs wrapped in a traced run.  The span name is the
#: defining module's short name plus the function name, so the module is the
#: layer.  A name that no longer exists is skipped and its metrics read 0.
TRACED = (
    ("pwa_hier.cli", "main"),
    ("pwa_hier.cli", "cmd_run"),
    ("pwa_hier.cli", "cmd_check"),
    ("pwa_hier.cli", "_write_bounds_csv"),
    ("pwa_hier.cli", "_write_plot_data"),
    ("pwa_hier.cli", "_atomic_write"),
    ("pwa_hier.modelfile", "load_model"),
    ("pwa_hier.modelfile", "build_pipeline"),
    ("pwa_hier.relation", "solve_relation"),
    ("pwa_hier.relation", "solve_relation_pairing"),
    ("pwa_hier.relation", "solve_system_relation"),
    ("pwa_hier.relation", "build_interface"),
    ("pwa_hier.relation", "assemble_joint_linear"),
    ("pwa_hier.relation", "assemble_joint_pwa"),
    ("pwa_hier.certificate", "synthesize_certificate"),
    ("pwa_hier.certificate", "default_lambda_grid"),
    ("pwa_hier.certificate", "verify_lmi"),
    ("pwa_hier.certificate", "gain_slopes"),
    ("pwa_hier.linalg", "kron_solve_least_squares"),
    ("pwa_hier.linalg", "sym_eigen"),
    ("pwa_hier.simulator", "run_scenario"),
    ("pwa_hier.simulator", "export_trajectory"),
    ("pwa_hier.polytope", "locate_mode"),
)

LAYERS = ("cli", "modelfile", "relation", "certificate", "linalg",
          "simulator", "polytope")

SETUP = "setup"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0


class Tracer:
    """In-memory span recorder with per-op counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = SETUP
        self.counters = defaultdict(float)  # (op, key) -> value
        self.lambda_tried: list[int] = []
        self.last_grid = ()
        self.scale = {}  # op -> nominal-speed factor of that op
        self._restore: list[tuple] = []

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[(self.op, key)] += value

    def spanned(self, name: str, fn):
        """``fn`` wrapped in a span called ``name``."""
        return self._wrap(name, fn, None)

    def _wrap(self, name, fn, observe):
        tracer = self

        def traced(*args, **kwargs):
            rec = Span(name, tracer.stack[-1] if tracer.stack else None, tracer.op)
            tracer.spans.append(rec)
            tracer.stack.append(rec)
            result = None
            rec.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec.end = time.perf_counter()
                tracer.stack.pop()
                if observe is not None:
                    observe(tracer, args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every traced name in every loaded ``pwa_hier`` module."""
        import importlib

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "pwa_hier" or name.startswith("pwa_hier."))]
        for modname, fname in TRACED:
            orig = getattr(importlib.import_module(modname), fname, None)
            if orig is None:
                continue
            name = f"{modname.rsplit('.', 1)[-1]}.{fname}"
            wrapped = self._wrap(name, orig, _OBSERVERS.get(name))
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
                        self._restore.append((mod, attr, orig, wrapped))

    def uninstall(self) -> None:
        """Undo ``install``, leaving alone names rebound since."""
        for mod, attr, orig, wrapped in reversed(self._restore):
            if getattr(mod, attr, None) is wrapped:
                setattr(mod, attr, orig)
        self._restore.clear()


# Observers run after the span closes; ``result`` is None when the call raised.

def _observe_run(tracer, args, kwargs, traj):
    if traj is not None:
        tracer.count("steps", len(traj) - 1)
        tracer.count("crossings", len(traj.crossings))


def _observe_export(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    if os.path.exists(path):
        tracer.count("export_bytes", os.path.getsize(path))


def _observe_grid(tracer, args, kwargs, grid):
    tracer.last_grid = grid


def _observe_synthesis(tracer, args, kwargs, cert):
    """Number of decay rates tried: position of the accepted rate in the
    descending grid, or the whole grid when synthesis failed."""
    grid = kwargs.get("lambda_grid")
    if grid is None:
        grid = tracer.last_grid
    order = sorted((float(g) for g in grid if g > 0.0), reverse=True)
    tracer.lambda_tried.append(len(order) if cert is None else order.index(cert.lam) + 1)


_OBSERVERS = {
    "simulator.run_scenario": _observe_run,
    "simulator.export_trajectory": _observe_export,
    "certificate.default_lambda_grid": _observe_grid,
    "certificate.synthesize_certificate": _observe_synthesis,
}


def per_layer(tracer: Tracer, n_ops: int) -> dict:
    """Per-op means over the timed ops, in nominal seconds (each span
    scaled by its op's speed factor), plus the set-up and synthesis figures
    that are not per op; set-up spans stay in wall seconds."""
    total = defaultdict(float)
    calls = defaultdict(int)
    child = defaultdict(float)
    for s in tracer.spans:
        if s.parent is not None:
            child[id(s.parent)] += s.end - s.start
    layer_self = defaultdict(float)
    setup_builds = []
    for s in tracer.spans:
        dur = s.end - s.start
        if s.op == SETUP:
            if s.name == "modelfile.build_pipeline":
                setup_builds.append(dur)
            continue
        factor = tracer.scale.get(s.op, 1.0)
        own = (dur - child[id(s)]) * factor
        dur *= factor
        total[s.name] += dur
        calls[s.name] += 1
        layer = s.name.split(".", 1)[0] if s.name != "op" else "untraced"
        layer_self[layer] += own
        total[s.name + "#self"] += own
    counts = defaultdict(float)
    for (op, key), val in tracer.counters.items():
        if op != SETUP:
            counts[key] += val

    ops = max(n_ops, 1)

    def s_(name):
        return total[name] / ops

    steps = counts["steps"]
    out = {
        "modelfile.load_model.s": s_("modelfile.load_model"),
        "modelfile.build_pipeline.s": s_("modelfile.build_pipeline"),
        "modelfile.build_pipeline.setup_s": (sum(setup_builds) / len(setup_builds)
                                             if setup_builds else 0.0),
        "relation.solve_relation.calls": calls["relation.solve_relation"] / ops,
        "relation.solve_relation.s": s_("relation.solve_relation"),
        "relation.solve_relation_pairing.s": s_("relation.solve_relation_pairing"),
        "relation.build_interface.s": s_("relation.build_interface"),
        "relation.assemble_joint.s": (s_("relation.assemble_joint_linear")
                                      + s_("relation.assemble_joint_pwa")),
        "certificate.synthesize_certificate.s": s_("certificate.synthesize_certificate"),
        "certificate.verify_lmi.calls": calls["certificate.verify_lmi"] / ops,
        "certificate.verify_lmi.s": s_("certificate.verify_lmi"),
        "certificate.gain_slopes.s": s_("certificate.gain_slopes"),
        "certificate.lambda_tried": _mean(tracer.lambda_tried),
        "certificate.lambda_accept_ratio": _mean([1.0 / k for k in tracer.lambda_tried]),
        "linalg.kron_solve_least_squares.calls": calls["linalg.kron_solve_least_squares"] / ops,
        "linalg.kron_solve_least_squares.s": s_("linalg.kron_solve_least_squares"),
        "linalg.sym_eigen.calls": calls["linalg.sym_eigen"] / ops,
        "linalg.sym_eigen.s": s_("linalg.sym_eigen"),
        "simulator.run_scenario.calls": calls["simulator.run_scenario"] / ops,
        "simulator.run_scenario.s": s_("simulator.run_scenario"),
        "simulator.steps": steps / ops,
        "simulator.us_per_step": (1e6 * total["simulator.run_scenario"] / steps
                                  if steps else 0.0),
        "simulator.crossings": counts["crossings"] / ops,
        "simulator.crossings_per_kstep": 1000.0 * counts["crossings"] / steps if steps else 0.0,
        "polytope.locate_mode.calls": calls["polytope.locate_mode"] / ops,
        "polytope.locate_mode.s": s_("polytope.locate_mode"),
        "simulator.export_trajectory.calls": calls["simulator.export_trajectory"] / ops,
        "simulator.export_trajectory.s": s_("simulator.export_trajectory"),
        "simulator.export_trajectory.bytes": counts["export_bytes"] / ops,
        "cli.cmd_run.self_s": s_("cli.cmd_run#self"),
        "cli.cmd_check.self_s": s_("cli.cmd_check#self"),
        "cli.bytes_written": counts["bytes_written"] / ops,
    }
    for layer in LAYERS + ("untraced",):
        out[f"{layer}.self_s"] = layer_self[layer] / ops
    return out


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, u in ((".calls", "count"), ("_s", "s"), (".s", "s"), ("bytes", "bytes"),
                      ("bytes_written", "bytes"), (".us_per_step", "us"),
                      ("_per_kstep", "1/kstep"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return u
    return "count"
