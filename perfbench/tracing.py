"""Per-layer tracing from outside the library.

The tracer replaces each layer's entry points with wrappers, at every
binding site the library looks them up through (``from .x import f``
creates a second site), and aggregates what the wrappers see:

* span layers record calls, self time and total time.  Self time is the
  span's duration minus the time covered by nested hooked calls;
* aggregate layers (``scalar``, ``freealg``) record an operation count and
  busy time only.  A call nested in an open call of the same layer is not
  counted again, and their busy time is subtracted from the enclosing
  span's self time like a child span's.

A hook whose target does not exist is skipped; every metric that needs it
is then reported as absent instead of failing the run.  Nothing is kept
per call, so memory does not grow with the run.
"""

from __future__ import annotations

import functools
import importlib
import time

SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
              "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
              "__pow__", "inv")
ALGEBRA_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
               "__mul__", "__rmul__", "scale")

# layer -> (aggregate?, binding sites as "module:attribute.path")
HOOKS = {
    "scalar": (True, [f"dcubed.scalar:Scalar.{op}" for op in SCALAR_OPS]),
    "freealg": (True, [f"dcubed.freealg:AlgebraElement.{op}"
                       for op in ALGEBRA_OPS]),
    "bimodule.push": (False, ["dcubed.bimodule:BimoduleMap.push"]),
    "tensoralg.push_through": (False, ["dcubed.tensoralg:push_through"]),
    "tensoralg.tensor_mul": (False, [
        f"{mod}:tensor_mul" for mod in ("dcubed.tensoralg", "dcubed.ideal",
                                        "dcubed.verify", "dcubed.parsing",
                                        "dcubed")]),
    "calculus.gradient": (False, ["dcubed.calculus:Calculus.gradient"]),
    "differential.d": (False, ["dcubed.differential:d", "dcubed.verify:d",
                               "dcubed:d"]),
    "ideal.membership": (False, ["dcubed.ideal:Ideal.membership"]),
    "ideal.fastpath": (False, ["dcubed.ideal:Ideal._scalar_multiple_of_generator"]),
    "ideal.system": (False, ["dcubed.ideal:Ideal._system"]),
    "ideal.eliminate": (False, ["dcubed.ideal:_Echelon.insert"]),
    "ideal.express": (False, ["dcubed.ideal:_Echelon.express"]),
    "verify.run_suite": (False, ["dcubed.verify:run_suite", "dcubed:run_suite"]),
    "parsing.parse": (False, [
        f"{mod}:{fn}" for mod, fn in (
            ("dcubed.parsing", "parse_expression"), ("dcubed.parsing", "parse_algebra"),
            ("dcubed.cli", "parse_expression"), ("dcubed.config", "parse_algebra"),
            ("dcubed", "parse_expression"), ("dcubed", "parse_algebra"))]),
    "parsing.format": (False, [
        f"{mod}:{fn}" for mod, fn in (
            ("dcubed.parsing", "format_tensor"), ("dcubed.parsing", "format_algebra"),
            ("dcubed.parsing", "format_tensor_latex"), ("dcubed.parsing", "tensor_to_obj"),
            ("dcubed.cli", "format_tensor"), ("dcubed.cli", "format_tensor_latex"),
            ("dcubed.cli", "tensor_to_obj"), ("dcubed.verify", "format_tensor"),
            ("dcubed.verify", "format_algebra"), ("dcubed", "format_tensor"))]),
    "config.build_map": (False, ["dcubed.config:build_map", "dcubed.cli:build_map"]),
    "cli.main": (False, ["dcubed.cli:main"]),
}


def _resolve(site):
    """(owner, attribute name) for a binding site, or None when absent."""
    module_name, path = site.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Aggregating wrappers around the library's layer boundaries."""

    def __init__(self):
        self.active = False
        self.stats = {}        # layer -> [calls, self_s, total_s]
        self.hooked = set()    # layers with at least one wrapped site
        self.builds = 0        # _system calls that built a new system
        self.rank = 0          # inserts that added a pivot row
        self.fastpath_hits = 0
        self.shapes = set()    # (grade, wdeg, word_bound) of built systems
        self._stack = []       # open frames: [child time, layer]
        self._built = {}       # id -> system, for systems already seen
        self._undo = []

    def _wrap(self, layer, fn, aggregate, on_result=None):
        stat = self.stats.setdefault(layer, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or (aggregate and stack and stack[-1][1] is layer):
                return fn(*args, **kwargs)
            frame = [0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                stat[2] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    # -- result observers ---------------------------------------------------

    def _on_system(self, args, result):
        if result is not None and id(result) not in self._built:
            self._built[id(result)] = result
            self.builds += 1
            self.shapes.add(tuple(args[1:4]))

    def _on_insert(self, args, result):
        if result:
            self.rank += 1

    def _on_fastpath(self, args, result):
        if result is not None:
            self.fastpath_hits += 1

    # -- installation -------------------------------------------------------

    def install(self):
        observers = {"ideal.system": self._on_system,
                     "ideal.eliminate": self._on_insert,
                     "ideal.fastpath": self._on_fastpath}
        for layer, (aggregate, sites) in HOOKS.items():
            for site in sites:
                target = _resolve(site)
                if target is None:
                    continue
                owner, attr = target
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(layer, original, aggregate,
                                                observers.get(layer)))
                self._undo.append((owner, attr, original))
                self.hooked.add(layer)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def calibrate(self, repeats=20000):
        """Seconds one wrapper adds to a call: (aggregate, span)."""
        def noop():
            return None

        costs = []
        for aggregate in (True, False):
            wrapped = self._wrap("calibration", noop, aggregate)
            self.active = True
            self._stack.append([0.0, "calibration-parent"])
            try:
                start = time.perf_counter()
                for _ in range(repeats):
                    wrapped()
                traced = time.perf_counter() - start
                start = time.perf_counter()
                for _ in range(repeats):
                    noop()
                plain = time.perf_counter() - start
            finally:
                self._stack.pop()
                self.active = False
            costs.append(max(traced - plain, 0.0) / repeats)
        del self.stats["calibration"]
        return tuple(costs)

    def overhead_s(self, costs):
        """Estimated time the wrappers themselves added to the traced run."""
        aggregate_cost, span_cost = costs
        total = 0.0
        for layer, (calls, _self, _total) in self.stats.items():
            total += calls * (aggregate_cost if HOOKS[layer][0] else span_cost)
        return total
