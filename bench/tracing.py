"""Spans around the public functions of cflayers, installed from outside.

`Tracer` wraps every public function of the layer modules, plus the query
methods of `JointPmf`, and also rebinds each name that another module
imported (for example `cli.build_joint` or `solver.check_layered`), so a
call is recorded whichever module it goes through.  Nothing under `src/`
changes.  The wrappers exist only inside `with tracer.installed():`, so an
untraced run pays nothing.

Each span is kept in memory as (name, parent, start, end) in flat arrays and
written out by `save`.  Self time is a span's duration minus the
time its child spans cover; the program is single-threaded, so children never
overlap and their summed durations are that coverage.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# cli is traced as one span per `main` call: its self time is argument
# parsing, spec loading glue and output formatting.
LAYER_MODULES = ("probability", "region", "layering", "solver", "geometry", "cli")
CLI_FUNCTIONS = ("main",)
JOINT_METHODS = ("marginal", "entropy", "cond_entropy", "mutual_info", "pair_entropy_sum")
PACKAGE_MODULES = LAYER_MODULES + ("demo",)
# counts taken by the hooks below, reported as 0 when no call produced them;
# geometry.plane_solves counts calls to numpy.linalg.solve, which only
# geometry.enumerate_vertices makes
COUNTED = (
    "probability.marginal.cells_summed",
    "probability.build_joint.cells",
    "solver.shifts",
    "solver.layerings_checked",
    "solver.degenerate_picks",
    "geometry.plane_solves",
)


def _public_functions(module, short):
    names = CLI_FUNCTIONS if short == "cli" else [
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not inspect.isgeneratorfunction(obj)  # a generator's call returns at once
    ]
    return [(name, vars(module)[name]) for name in names]


class Tracer:
    """In-memory span recorder with count hooks for the per-layer metrics."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = dict.fromkeys(COUNTED, 0)

    def _add(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def _hooks(self):
        """Counts taken from a call's arguments and result, keyed by span name."""

        def marginal(args, result):
            self._add("probability.marginal.cells_summed", args[0].table.size)

        def build_joint(args, result):
            self._add("probability.build_joint.cells", result.table.size)

        def solve(args, result):
            _, trace = result
            self._add("solver.shifts", trace.shifts)
            self._add("solver.layerings_checked", len(trace.steps))
            self._add("solver.degenerate_picks", sum(s.degenerate for s in trace.steps))

        return {
            "probability.marginal": marginal,
            "probability.build_joint": build_joint,
            "solver.solve": solve,
        }

    def _wrap(self, span: str, func, hook):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        nid = self._ids[span]
        names, parents = self.name, self.parent
        starts, ends, stack = self.start, self.end, self._stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = func
        return traced

    @contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block, then restore."""
        modules = {m: importlib.import_module(f"cflayers.{m}") for m in PACKAGE_MODULES}
        package = importlib.import_module("cflayers")
        hooks = self._hooks()
        replaced = {}  # id(original) -> (original, wrapper)
        undo = []
        for short in LAYER_MODULES:
            for name, func in _public_functions(modules[short], short):
                span = f"{short}.{name}"
                replaced[id(func)] = (func, self._wrap(span, func, hooks.get(span)))
        joint_cls = modules["probability"].JointPmf
        for name in JOINT_METHODS:
            func = vars(joint_cls)[name]
            span = f"probability.{name}"
            wrapper = self._wrap(span, func, hooks.get(span))
            undo.append((joint_cls, name, func))
            setattr(joint_cls, name, wrapper)
        for module in list(modules.values()) + [package]:
            for name, obj in list(vars(module).items()):
                entry = replaced.get(id(obj))
                if entry is not None and entry[0] is obj:
                    undo.append((module, name, obj))
                    setattr(module, name, entry[1])
        linalg_solve = np.linalg.solve

        def counted_solve(*args, **kwargs):
            self._add("geometry.plane_solves", 1)
            return linalg_solve(*args, **kwargs)

        # geometry looks np.linalg.solve up at call time
        undo.append((np.linalg, "solve", linalg_solve))
        np.linalg.solve = counted_solve
        try:
            yield self
        finally:
            for owner, name, obj in reversed(undo):
                setattr(owner, name, obj)

    # -- reduction ------------------------------------------------------------

    def arrays(self):
        return (
            np.array(self.name, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        name, parent, start, end = self.arrays()
        n_names = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(name, minlength=n_names)
        total = np.bincount(name, weights=dur, minlength=n_names)
        own = np.bincount(name, weights=self_time, minlength=n_names)
        return {
            span: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, span in enumerate(self.names)
        }

    def metrics(self, overhead_frac: float, cli_bytes: int) -> dict[str, tuple]:
        """Every per-layer metric as name -> (value, unit).

        Each span name gives `.calls`, `.s` (inclusive) and `.self_s`; the hook
        counts, the entropy-cache hit ratio, the CLI's output size and the
        tracing overhead (traced over untraced wall time) are added.
        """
        out: dict[str, tuple] = {}
        for span, s in self.summary().items():
            out[f"{span}.calls"] = (s["calls"], "count")
            out[f"{span}.s"] = (s["s"], "s")
            out[f"{span}.self_s"] = (s["self_s"], "s")
        for key, value in self.counts.items():
            out[key] = (value, "count")
        entropy = out["probability.entropy.calls"][0]
        marginals = out["probability.marginal.calls"][0]
        # every entropy-cache miss sums one marginal
        out["probability.entropy.hit_ratio"] = (
            1.0 - marginals / entropy if entropy else 0.0, "ratio")
        out["cli.output_bytes"] = (cli_bytes, "bytes")
        out["trace.overhead_frac"] = (overhead_frac, "ratio")
        return out

    def save(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent,
            start=start,
            end=end,
        )
