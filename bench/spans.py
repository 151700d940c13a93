"""Span recorder for the traced run, installed from outside the program.

``Tracer.install`` replaces each traced public function by a recording
wrapper under every name that binds it in a ``contract_forge`` module
(for example ``solver_agency.zoom_solve`` and ``revisable.check_continuation``
as well as the defining module's own name), and wraps every callable that
``exprlang.compile_fn`` returns. ``uninstall`` puts the originals back.
Names in ``OUTERMOST`` record only calls not nested in another call of
the same name.

A span is (id, parent id, scenario, name, start, end, self time); self
time is the span's duration minus the time its child spans cover. Spans
are kept in memory and written out once by ``write``. The high-volume
names in ``GROUPED`` (``exprlang`` and ``env_core`` calls, up to hundreds
of thousands per scenario) are kept as groups per nearest recorded
ancestor span (count, total time, self time) instead of single spans;
self times are computed per call either way.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# (module, function, layer metric name)
TRACED = (
    ("cli", "parse_scenario", "cli.parse_scenario"),
    ("cli", "run", "cli.run"),
    ("reportio", "write_report_files", "reportio.write_report_files"),
    ("exprlang", "compile_fn", "exprlang.compile_fn"),
    ("exprlang", "evaluate", "exprlang.evaluate"),
    ("env_core", "payoff_u", "env_core.payoff"),
    ("env_core", "payoff_v", "env_core.payoff"),
    ("env_core", "expect", "env_core.expect"),
    ("solver_single", "zoom_solve", "solver_single.zoom_solve"),
    ("solver_single", "solve", "solver_single.solve"),
    ("solver_single", "cutoff", "solver_single.cutoff"),
    ("solver_agency", "fixed_point", "solver_agency.fixed_point"),
    ("solver_agency", "best_response", "solver_agency.best_response"),
    ("solver_agency", "robustness_check", "solver_agency.robustness_check"),
    ("equilibrium", "check_continuation", "equilibrium.check_continuation"),
    ("equilibrium", "enumerate_equilibria", "equilibrium.enumerate_equilibria"),
    ("equilibrium", "check_robust", "equilibrium.check_robust"),
    ("equilibrium", "canonicalize", "equilibrium.canonicalize"),
    ("equilibrium", "induced_allocation", "equilibrium.induced_allocation"),
    ("equilibrium", "principal_value", "equilibrium.principal_value"),
    ("contracts", "enumerate_gstar", "contracts.enumerate"),
    ("contracts", "enumerate_gsharp", "contracts.enumerate"),
    ("contracts", "enumerate_private", "contracts.enumerate"),
    ("revisable", "enumerate_final_allocations", "revisable.enumerate_final_allocations"),
    ("revisable", "lift_to_limited", "revisable.lift_to_limited"),
    ("revisable", "collapse_to_full", "revisable.collapse_to_full"),
)
COMPILED = "exprlang.compiled_fn"
GROUPED = {COMPILED, "exprlang.evaluate", "exprlang.compile_fn", "env_core.payoff", "env_core.expect"}
# Recorded at the outermost call only: evaluate recurses, and
# enumerate_private calls enumerate_gstar.
OUTERMOST = {"exprlang.evaluate", "contracts.enumerate"}


def _file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


# Work counts read off a traced function's return value.
RESULT_COUNTS = {
    "solver_agency.fixed_point": ("solver_agency.iterations", lambda r: r.iterations),
    "equilibrium.enumerate_equilibria": ("equilibrium.equilibria_found", len),
    "revisable.enumerate_final_allocations": ("revisable.allocations_found", len),
    "contracts.enumerate": ("contracts.deviations", len),
    "reportio.write_report_files": ("reportio.bytes", _file_bytes),
}

# Per-layer metrics printed by a traced run, in the order of the layer table.
LAYER_METRICS = (
    "exprlang.compiled_fn.calls", "exprlang.compiled_fn.self_s",
    "exprlang.evaluate.calls", "exprlang.evaluate.self_s",
    "exprlang.compile_fn.calls", "exprlang.compile_fn.self_s",
    "env_core.payoff.calls", "env_core.payoff.self_s",
    "env_core.expect.calls", "env_core.expect.self_s",
    "solver_single.zoom_solve.calls", "solver_single.zoom_solve.self_s",
    "solver_single.solve.calls", "solver_single.solve.self_s",
    "solver_single.cutoff.calls",
    "solver_agency.fixed_point.self_s", "solver_agency.iterations",
    "solver_agency.best_response.calls", "solver_agency.best_response.self_s",
    "solver_agency.robustness_check.self_s",
    "equilibrium.check_continuation.calls", "equilibrium.check_continuation.self_s",
    "equilibrium.enumerate_equilibria.calls", "equilibrium.enumerate_equilibria.self_s",
    "equilibrium.equilibria_found",
    "equilibrium.check_robust.self_s", "equilibrium.canonicalize.self_s",
    "equilibrium.induced_allocation.calls", "equilibrium.principal_value.calls",
    "contracts.enumerate.calls", "contracts.enumerate.self_s", "contracts.deviations",
    "revisable.enumerate_final_allocations.self_s", "revisable.allocations_found",
    "revisable.lift_to_limited.self_s", "revisable.collapse_to_full.self_s",
    "cli.parse_scenario.self_s", "cli.run.self_s",
    "reportio.write_report_files.self_s", "reportio.bytes",
)


def layer_unit(metric: str) -> str:
    if metric.endswith(".self_s"):
        return "s"
    return "bytes" if metric == "reportio.bytes" else "count"


class Tracer:
    def __init__(self):
        self.active = False
        self.scenario = -1
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []  # (id, parent, scenario, name, start, end, self)
        self.groups: dict[tuple, list] = {}  # (parent, scenario, name) -> [calls, total, self]
        # open spans: [id, name, start, child time]; the root frame collects nothing
        self._stack: list[list] = [[0, None, 0.0, 0.0]]
        self._next_id = 1
        self._inside: set[str] = set()  # OUTERMOST names with an open span
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _record(self, name: str, fn, args, kwargs):
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, name, 0.0, 0.0]
        stack.append(frame)
        frame[2] = start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            own = dur - frame[3]
            stack[-1][3] += dur
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            parent = next(f[0] for f in reversed(stack) if f[1] not in GROUPED)
            if name in GROUPED:
                g = self.groups.setdefault((parent, self.scenario, name), [0, 0.0, 0.0])
                g[0] += 1
                g[1] += dur
                g[2] += own
            else:
                self.spans.append((span_id, parent, self.scenario, name, start, end, own))
        counter = RESULT_COUNTS.get(name)
        if counter is not None:
            self.counts[counter[0]] = self.counts.get(counter[0], 0) + counter[1](result)
        return result

    def _wrap(self, name: str, fn):
        tracer = self

        if name in OUTERMOST:
            def outermost(*args, **kwargs):
                if not tracer.active or name in tracer._inside:
                    return fn(*args, **kwargs)
                tracer._inside.add(name)
                try:
                    return tracer._record(name, fn, args, kwargs)
                finally:
                    tracer._inside.discard(name)
            return outermost

        if name == "exprlang.compile_fn":
            def compile_fn(*args, **kwargs):
                compiled = tracer._record(name, fn, args, kwargs) if tracer.active else fn(*args, **kwargs)
                return tracer._wrap(COMPILED, compiled)
            return compile_fn

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer._record(name, fn, args, kwargs)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "contract_forge" or k.startswith("contract_forge.")]
        for mod_name, fn_name, metric in TRACED:
            original = getattr(sys.modules[f"contract_forge.{mod_name}"], fn_name)
            wrapper = self._wrap(metric, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def per_scenario(self, executions: int) -> dict[str, float]:
        """Every layer metric, as a total over the traced executions divided
        by their number."""
        out = {}
        for metric in LAYER_METRICS:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                total = self.calls.get(base, 0)
            elif kind == "self_s":
                total = self.self_s.get(base, 0.0)
            else:
                total = self.counts.get(metric, 0)
            out[metric] = total / executions
        return out

    def write(self, path: Path, meta: dict):
        """Spans and span groups as JSON lines, preceded by one meta line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for sid, parent, scen, name, start, end, own in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "scenario": scen, "name": name,
                                     "start": start, "end": end, "self_s": own}) + "\n")
            for (parent, scen, name), (calls, total, own) in self.groups.items():
                fh.write(json.dumps({"group": name, "parent": parent, "scenario": scen,
                                     "calls": calls, "total_s": total, "self_s": own}) + "\n")
