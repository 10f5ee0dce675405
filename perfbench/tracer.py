"""Span tracer that wraps a package's functions from outside the package.

A target is named relative to the package, as ``"module.function"``,
``"module.Class.method"`` or ``"module.Class"`` (a span per construction,
wrapping ``__init__``).  A module-level function is replaced at every
binding site: in each module of the package whose globals hold it, so
``noise.run_model`` and ``compensation.run_model`` are traced as well as
``cloners.run_model``.  A target that no longer exists is reported as
missing and does not fail.

Spans are kept in memory as flat arrays (name, parent, call, start, end,
value, raised) and summarized or saved when the run ends.  Self time is a
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpanStats:
    calls: int
    self_s: float
    total_s: float
    value: float
    raised: int


class Tracer:
    """Install with ``install()``, remove with ``uninstall()``.

    ``value_of`` maps a target name to a function of its return value whose
    result is summed per span (for example the bytes of a returned array).
    ``clock`` returns seconds; tests substitute a fake one.
    """

    def __init__(self, package: str, targets, value_of=None, clock=time.perf_counter):
        self.package = package
        self.targets = tuple(targets)
        self.value_of = dict(value_of or {})
        self.clock = clock
        self.missing: list[str] = []
        self.call_id = -1
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._active = [0] * len(self.targets)
        self._name = array("i")
        self._parent = array("i")
        self._call = array("i")
        self._outer = array("b")
        self._raised = array("b")
        self._start = array("d")
        self._end = array("d")
        self._value = array("d")

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == self.package
                                         or name.startswith(self.package + "."))]
        for index, target in enumerate(self.targets):
            if not self._install_one(index, target, modules):
                self.missing.append(target)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _install_one(self, index: int, target: str, modules) -> bool:
        module_name, _, path = target.partition(".")
        owner = sys.modules.get(f"{self.package}.{module_name}")
        if owner is None or not path:
            return False
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        try:
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            return False
        value_of = self.value_of.get(target)
        if inspect.isclass(raw):
            init = raw.__dict__.get("__init__")
            if init is None:
                return False
            self._patch(raw, "__init__", self._wrap(index, init, value_of))
            return True
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(index, raw.__func__, value_of))
            self._patch(owner, attr, wrapped)
            return True
        if not callable(raw):
            return False
        if inspect.isclass(owner):
            self._patch(owner, attr, self._wrap(index, raw, value_of))
            return True
        wrapper = self._wrap(index, raw, value_of)
        for module in modules:
            for name, bound in list(vars(module).items()):
                if bound is raw:
                    self._patch(module, name, wrapper)
        return True

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, index: int, func, value_of):
        tracer = self

        @functools.wraps(func)
        def span(*args, **kwargs):
            me = len(tracer._start)
            tracer._name.append(index)
            tracer._parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer._call.append(tracer.call_id)
            tracer._outer.append(tracer._active[index] == 0)
            tracer._raised.append(1)
            tracer._start.append(0.0)
            tracer._end.append(0.0)
            tracer._value.append(0.0)
            tracer._stack.append(me)
            tracer._active[index] += 1
            start = tracer.clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._active[index] -= 1
                tracer._stack.pop()
                tracer._start[me] = start
                tracer._end[me] = end
            tracer._raised[me] = 0
            if value_of is not None:
                tracer._value[me] = float(value_of(result))
            return result

        return span

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """All spans as numpy arrays, one entry per span."""
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "call": np.frombuffer(self._call, dtype=np.int32).copy(),
            "outer": np.frombuffer(self._outer, dtype=np.int8).astype(bool),
            "raised": np.frombuffer(self._raised, dtype=np.int8).astype(bool),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "value": np.frombuffer(self._value, dtype=np.float64).copy(),
        }

    def stats(self, calls=None) -> dict[str, SpanStats]:
        """Per-target statistics, over the spans of the given CLI calls."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=duration[child],
                              minlength=len(duration))
        own = duration - covered
        keep = np.ones(len(duration), bool) if calls is None else np.isin(a["call"], list(calls))
        result = {}
        for index, target in enumerate(self.targets):
            mine = keep & (a["name"] == index)
            result[target] = SpanStats(
                calls=int(mine.sum()),
                self_s=float(own[mine].sum()),
                total_s=float(duration[mine & a["outer"]].sum()),
                value=float(a["value"][mine].sum()),
                raised=int(a["raised"][mine].sum()),
            )
        return result

    def save(self, path) -> None:
        np.savez_compressed(path, targets=np.array(self.targets), **self.arrays())
