"""Layer spans recorded from outside the library.

While a :class:`Tracer` is active, every public function of the ``povmcoarse``
modules is replaced, at each module attribute where callers look it up, by a
wrapper that records a span; the public value classes get the same wrapper on
``__init__``. The layer of a span is the module that defines the function.
Leaving the context restores every attribute, so untraced runs execute the
library untouched.

A span is ``(layer, start, end, parent, outermost)``: ``parent`` is the index
of the enclosing span or -1, and ``outermost`` says that no span of the same
layer encloses it. A layer's self time is the total length of its spans minus
the part covered by their child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time

import numpy as np

import povmcoarse

LAYERS = (
    "simplex", "coarseness", "measurements", "operators", "entropy",
    "distributions", "randomgen", "suites", "cli", "serialization",
)
_INDEX = {name: k for k, name in enumerate(LAYERS)}
_CERTIFICATE_CHECKS = ("check_coarser", "check_coarser_in_subspace", "check_coarser_classical")


class Counters:
    """Exact counts read off arguments and results at the layer boundaries."""

    def __init__(self):
        self.pivots = 0
        self.pivots_max = 0
        self.matrix_cells = 0
        self.lp_verdicts = {"feasible": 0, "infeasible": 0, "ambiguous": 0}
        self.residual_max = 0.0
        self.certificates_ambiguous = 0
        self.states = 0
        self.density_checks = 0

    def lp_feasible(self, args, kwargs, result):
        a_eq = kwargs.get("a_eq", args[0] if args else None)
        a_ub = kwargs.get("a_ub", args[2] if len(args) > 2 else None)
        rows = sum(np.shape(a)[0] for a in (a_eq, a_ub) if a is not None)
        self.matrix_cells += rows * int(kwargs["n_vars"])
        self.pivots += result.iterations
        self.pivots_max = max(self.pivots_max, result.iterations)
        self.lp_verdicts[result.verdict] += 1

    def certificate(self, args, kwargs, result):
        if result.verdict == "feasible":
            self.residual_max = max(self.residual_max, float(result.residual))
        elif result.verdict == "ambiguous":
            self.certificates_ambiguous += 1

    def entropy_call(self, args, kwargs, result):
        for arg in (*args, *kwargs.values()):
            if isinstance(arg, povmcoarse.DensityMatrix):
                self.states += 1
            elif isinstance(arg, np.ndarray) and arg.ndim == 3:  # a stack of states
                self.states += arg.shape[0]

    def density_matrix(self, args, kwargs, result):
        self.density_checks += 1


class Tracer:
    """Context manager that records layer spans and counters while active."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters = Counters()
        self._stack: list[int] = []
        self._depth = [0] * len(LAYERS)
        self._restore: list[tuple] = []
        self.wall_s = 0.0
        self._start = 0.0

    # -- patching ---------------------------------------------------------
    def _hook(self, layer: str, name: str):
        c = self.counters
        if layer == "simplex" and name == "lp_feasible":
            return c.lp_feasible
        if layer == "coarseness" and name in _CERTIFICATE_CHECKS:
            return c.certificate
        if layer == "entropy":
            return c.entropy_call
        if layer == "operators" and name == "DensityMatrix.__init__":
            return c.density_matrix
        return None

    def _wrap(self, fn, layer: str, name: str):
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.perf_counter
        code = _INDEX[layer]
        hook = self._hook(layer, name)
        entropy_layer = layer == "entropy"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            depth[code] += 1
            outermost = depth[code] == 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                # nested entropy calls evaluate the state their caller counted
                if hook is not None and (outermost or not entropy_layer):
                    hook(args, kwargs, result)
                return result
            finally:
                end = clock()
                depth[code] -= 1
                stack.pop()
                spans[index] = (code, start, end, parent, outermost)

        return traced

    def __enter__(self):
        if self._restore:
            raise RuntimeError("tracer is already active")
        modules = [povmcoarse] + [importlib.import_module(f"povmcoarse.{m}") for m in LAYERS]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = value.__module__.rpartition(".")[2]
                if not value.__module__.startswith("povmcoarse.") or layer not in _INDEX:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, layer, value.__name__)
                self._restore.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
        for module in modules[1:]:
            layer = module.__name__.rpartition(".")[2]
            for attr, cls in list(vars(module).items()):
                if (
                    attr.startswith("_") or not inspect.isclass(cls)
                    or cls.__module__ != module.__name__
                    or issubclass(cls, BaseException) or dataclasses.is_dataclass(cls)
                    or "__init__" not in vars(cls)
                ):
                    continue
                init = vars(cls)["__init__"]
                self._restore.append((cls, "__init__", init))
                cls.__init__ = self._wrap(init, layer, f"{attr}.__init__")
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s += time.perf_counter() - self._start
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        return False

    # -- aggregation ------------------------------------------------------
    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per layer: span count, self time, and time inside outermost spans."""
        covered = [0.0] * len(self.spans)
        for code, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0} for name in LAYERS}
        for (code, start, end, _, outermost), inner in zip(self.spans, covered):
            entry = out[LAYERS[code]]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - inner
            if outermost:
                entry["inclusive_s"] += end - start
        return out
