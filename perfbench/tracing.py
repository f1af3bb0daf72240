"""Tracing from outside the program, by wrapping the public names of each
lsbench module for the length of one pass.

A span is recorded at every call of a function in SPANS: name, start, end,
parent span and op id.  An op starts at each call into `topologies`, which
is how every workload operation begins.  The hot inner calls in HOT are
aggregated (calls, seconds, items) instead of producing a span each; their
time is charged to the innermost open span, so a span's self time is its
duration minus its child spans and the hot calls made directly inside it.
COUNTED calls are only counted, per innermost span.

A name is replaced in its own module and in every lsbench module that holds
it (`cli`, `measure` and `engine` keep their own references), and on the
class for methods.  A name that no longer exists is reported as unmeasured.  Leaving
the `installed()` block restores every original, and `leftovers()` confirms
that no wrapper remains.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

MARK = "__perfbench_wrapper__"

# (span name, module, attribute); "Class.method" names a method
SPANS = (
    ("cli.main", "lsbench.cli", "main"),
    ("topologies.gen", "lsbench.topologies", "gen"),
    ("topologies.gen", "lsbench.topologies", "stack_leakage_fixture"),
    ("netlist.parse", "lsbench.netlist", "parse_netlist"),
    ("netlist.elaborate", "lsbench.netlist", "elaborate"),
    ("netlist.serialize", "lsbench.netlist", "serialize_netlist"),
    ("netlist.seed_models", "lsbench.netlist", "parse_seed_models"),
    ("engine.transient", "lsbench.engine", "transient"),
    ("engine.dc", "lsbench.engine", "dc_operating_point"),
    ("engine.compile", "lsbench.engine", "_System.__init__"),
    ("measure.characterize", "lsbench.measure", "characterize"),
    ("measure.static", "lsbench.measure", "static_power"),
    ("measure.waveform", "lsbench.measure", "propagation_delay"),
    ("measure.waveform", "lsbench.measure", "average_power"),
    ("measure.waveform", "lsbench.measure", "output_swing"),
)
HOT = (
    ("devmodel.eval", "lsbench.devmodel", "_core_eval"),
    ("engine.solve", "numpy.linalg", "solve"),
)
COUNTED = (
    ("engine.assemble", "lsbench.engine", "_System.assemble"),
)

PER_LAYER_UNITS = {
    "devmodel.eval_s": "s", "devmodel.eval_calls": "count",
    "devmodel.device_evals": "count", "devmodel.eval_ns_per_device": "ns",
    "engine.solve_s": "s", "engine.solve_calls": "count",
    "engine.tran_s": "s", "engine.tran_self_s": "s", "engine.tran_steps": "count",
    "engine.tran_us_per_step": "us", "engine.assembles_per_step": "ratio",
    "engine.resid_max": "A",
    "engine.compile_s": "s", "engine.compile_calls": "count",
    "engine.dc_s": "s", "engine.dc_calls": "count", "engine.dc_newton_iters": "count",
    "engine.dc_homotopy_gmin": "count", "engine.dc_homotopy_source": "count",
    "netlist.parse_s": "s", "netlist.parse_calls": "count",
    "netlist.elaborate_s": "s", "netlist.elaborate_calls": "count",
    "netlist.serialize_s": "s", "netlist.serialize_calls": "count",
    "netlist.seed_models_s": "s", "netlist.seed_models_calls": "count",
    "topologies.gen_s": "s", "topologies.gen_calls": "count",
    "measure.static_s": "s", "measure.waveform_s": "s", "measure.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class Patcher:
    """Replaces names with wrappers and puts the originals back."""

    def __init__(self):
        self.saved = []        # (holder, attribute, original)
        self.unmeasured = []

    def wrap(self, module: str, attr: str, make) -> bool:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            mod = None
        cls_name, _, meth = attr.rpartition(".")
        holder = getattr(mod, cls_name, None) if cls_name else mod
        orig = (vars(holder).get(meth) if isinstance(holder, type)
                else getattr(holder, meth, None)) if holder is not None else None
        if orig is None:
            self.unmeasured.append(f"{module}.{attr}")
            return False
        wrapper = make(orig)
        setattr(wrapper, MARK, True)
        holders = [holder] if cls_name else [mod] + _package_modules()
        for h in dict.fromkeys(holders):
            for name, value in list(vars(h).items()):
                if value is orig:
                    self.saved.append((h, name, orig))
                    setattr(h, name, wrapper)
        return True

    def restore(self):
        while self.saved:
            h, name, orig = self.saved.pop()
            setattr(h, name, orig)


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "lsbench" or name.startswith("lsbench."))]


def leftovers() -> list:
    """Names in lsbench, its classes and numpy.linalg still bound to a wrapper."""
    found = []
    holders = _package_modules() + [np.linalg]
    for h in list(holders):
        holders.extend(v for v in vars(h).values()
                       if isinstance(v, type) and v.__module__.startswith("lsbench"))
    for h in dict.fromkeys(holders):
        for name, value in vars(h).items():
            if getattr(value, MARK, False):
                found.append(f"{getattr(h, '__name__', h)}.{name}")
    return found


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, op, child seconds, hot seconds]
        self.spans = []
        self.stack = []
        self.op = [0]
        self.op_label = {}
        self.hot = {}                           # name -> [calls, seconds, items]
        self.hot_by_op = defaultdict(float)     # (name, op) -> seconds
        self.counted = defaultdict(int)         # (name, innermost span) -> calls
        self.counted_by_op = defaultdict(int)   # (name, op) -> calls in transient
        self.counts = defaultdict(float)
        self.counts_by_op = defaultdict(float)  # (name, op) -> value
        self.unmeasured = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, hook):
        spans, stack, opref, pc = self.spans, self.stack, self.op, time.perf_counter
        starts_op = name.startswith("topologies.")

        def make(fn):
            def w(*a, **k):
                if starts_op:
                    opref[0] += 1
                    self.op_label[opref[0]] = (f"{fn.__name__}({a[0]})" if a else fn.__name__)
                parent = stack[-1] if stack else -1
                rec = [name, pc(), 0.0, parent, opref[0], 0.0, 0.0]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    out = fn(*a, **k)
                finally:
                    rec[2] = pc()
                    stack.pop()
                    if parent >= 0:
                        spans[parent][5] += rec[2] - rec[1]
                if hook is not None:
                    hook(out, rec[4])
                return out
            return w
        return make

    def _hot(self, name):
        stat = self.hot.setdefault(name, [0, 0.0, 0])
        spans, stack, opref, by_op, pc = (self.spans, self.stack, self.op,
                                          self.hot_by_op, time.perf_counter)

        def make(fn):
            def w(*a, **k):
                t0 = pc()
                try:
                    return fn(*a, **k)
                finally:
                    dt = pc() - t0
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += np.size(a[0]) if a else 0
                    if stack:
                        spans[stack[-1]][6] += dt
                    by_op[name, opref[0]] += dt
            return w
        return make

    def _counted(self, name):
        spans, stack, opref = self.spans, self.stack, self.op
        counted, by_op = self.counted, self.counted_by_op

        def make(fn):
            def w(*a, **k):
                inner = spans[stack[-1]][0] if stack else ""
                counted[name, inner] += 1
                if inner == "engine.transient":
                    by_op[name, opref[0]] += 1
                return fn(*a, **k)
            return w
        return make

    def _count(self, name, op, value):
        self.counts[name] += value
        self.counts_by_op[name, op] += value

    def _on_dc(self, op_point, op):
        self._count("dc_newton_iters", op, op_point.iterations)
        if op_point.homotopy_used in ("gmin", "source"):
            self._count(f"dc_homotopy_{op_point.homotopy_used}", op, 1)

    def _on_transient(self, waves, op):
        self._count("tran_steps", op, len(waves.t) - 1)
        if waves.resid_max is not None and len(waves.resid_max):
            self.counts["resid_max"] = max(self.counts["resid_max"],
                                           float(np.max(waves.resid_max)))

    @contextmanager
    def installed(self):
        hooks = {"engine.dc": self._on_dc, "engine.transient": self._on_transient}
        p = Patcher()
        try:
            for name, mod, attr in SPANS:
                p.wrap(mod, attr, self._span(name, hooks.get(name)))
            for name, mod, attr in HOT:
                p.wrap(mod, attr, self._hot(name))
            for name, mod, attr in COUNTED:
                p.wrap(mod, attr, self._counted(name))
            self.unmeasured = list(p.unmeasured)
            yield self
        finally:
            p.restore()

    # -- results -------------------------------------------------------------

    def by_name(self) -> dict:
        """name -> [calls, inclusive seconds, self seconds]."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for name, t0, t1, _, _, child, hot in self.spans:
            b = out[name]
            b[0] += 1
            b[1] += t1 - t0
            b[2] += t1 - t0 - child - hot
        return out

    def per_layer(self) -> dict:
        s = self.by_name()
        ev_calls, ev_s, ev_items = self.hot.get("devmodel.eval", [0, 0.0, 0])
        sol_calls, sol_s, _ = self.hot.get("engine.solve", [0, 0.0, 0])
        steps = int(self.counts["tran_steps"])
        tran_asm = self.counted["engine.assemble", "engine.transient"]
        m = {
            "devmodel.eval_s": ev_s, "devmodel.eval_calls": ev_calls,
            "devmodel.device_evals": ev_items,
            "devmodel.eval_ns_per_device": 1e9 * ev_s / ev_items if ev_items else 0.0,
            "engine.solve_s": sol_s, "engine.solve_calls": sol_calls,
            "engine.tran_s": s["engine.transient"][1],
            "engine.tran_self_s": s["engine.transient"][2],
            "engine.tran_steps": steps,
            "engine.tran_us_per_step": 1e6 * s["engine.transient"][1] / steps if steps else 0.0,
            "engine.assembles_per_step": tran_asm / steps if steps else 0.0,
            "engine.resid_max": self.counts["resid_max"],
            "engine.compile_s": s["engine.compile"][1],
            "engine.compile_calls": s["engine.compile"][0],
            "engine.dc_s": s["engine.dc"][1], "engine.dc_calls": s["engine.dc"][0],
            "engine.dc_newton_iters": int(self.counts["dc_newton_iters"]),
            "engine.dc_homotopy_gmin": int(self.counts["dc_homotopy_gmin"]),
            "engine.dc_homotopy_source": int(self.counts["dc_homotopy_source"]),
            "measure.static_s": s["measure.static"][1],
            "measure.waveform_s": s["measure.waveform"][1],
            "measure.self_s": sum(v[2] for k, v in s.items() if k.startswith("measure.")),
            "cli.self_s": s["cli.main"][2],
        }
        for key, span in (("parse", "netlist.parse"), ("elaborate", "netlist.elaborate"),
                          ("serialize", "netlist.serialize"),
                          ("seed_models", "netlist.seed_models")):
            m[f"netlist.{key}_s"] = s[span][1]
            m[f"netlist.{key}_calls"] = s[span][0]
        m["topologies.gen_s"] = s["topologies.gen"][1]
        m["topologies.gen_calls"] = s["topologies.gen"][0]
        return m

    def per_op_summary(self) -> dict:
        """Per op label (topology or fixture), summed over ops with that
        label: wall, steps, assemblies, compiles, device-eval and solve time."""
        ops = defaultdict(lambda: [float("inf"), 0.0])
        compiles = defaultdict(int)
        for name, t0, t1, _, op, _, _ in self.spans:
            span = ops[op]
            span[0], span[1] = min(span[0], t0), max(span[1], t1)
            if name == "engine.compile":
                compiles[op] += 1
        out = {}
        for op, (t0, t1) in ops.items():
            label = self.op_label.get(op, "outside ops")
            e = out.setdefault(label, defaultdict(float))
            e["ops"] += 1
            e["wall_s"] += t1 - t0
            e["tran_steps"] += self.counts_by_op["tran_steps", op]
            e["tran_assembles"] += self.counted_by_op["engine.assemble", op]
            e["compiles"] += compiles[op]
            e["dc_newton_iters"] += self.counts_by_op["dc_newton_iters", op]
            e["eval_s"] += self.hot_by_op["devmodel.eval", op]
            e["solve_s"] += self.hot_by_op["engine.solve", op]
        for e in out.values():
            e["eval_share"] = e["eval_s"] / e["wall_s"] if e["wall_s"] else 0.0
            e["solve_share"] = e["solve_s"] / e["wall_s"] if e["wall_s"] else 0.0
            if e["tran_steps"]:
                e["assembles_per_step"] = e["tran_assembles"] / e["tran_steps"]
        return {k: dict(v) for k, v in out.items()}

    def span_records(self):
        for i, (name, t0, t1, parent, op, _, _) in enumerate(self.spans):
            yield {"id": i, "name": name, "start": t0, "end": t1,
                   "parent": parent, "op": op}
