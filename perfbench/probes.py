"""Span probes: wrap public functions of the program, time them, undo.

A :class:`Probes` object patches a list of targets for the duration of
a ``with`` block and restores every original attribute on exit, even
when the block raises.  Each wrapped call is one span on a span stack,
so a metric can be read as *inclusive* time (outermost call of that
metric only, so recursion and same-layer nesting count once) or as
*self* time (duration minus the time its child spans cover).

Targets are ``(owner, attribute)`` pairs.  A module-level function is
also replaced in every loaded ``repro`` module that imported it by
name, because ``from x import f`` copies the reference.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

perf = time.perf_counter


@dataclass(frozen=True)
class Probe:
    """One wrapped callable; *metric* names its spans."""

    owner: Any
    attr: str
    metric: str


@dataclass
class Probes:
    """Span stack and inclusive/self totals of one traced run.

    *on_call* optionally receives ``(metric, args, result)`` after each
    wrapped call returns, for callers that count what a call produced
    or must see the objects the program built.
    """

    probes: List[Probe]
    on_call: Optional[Callable[[str, tuple, Any], None]] = None
    inclusive: Dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    self_time: Dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    root_time: float = 0.0
    _stack: List[list] = field(default_factory=list)
    _depth: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _saved: List[Tuple[Any, str, bool, Any]] = field(default_factory=list)

    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, probe: Probe) -> Callable:
        metric, on_call = probe.metric, self.on_call
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]            # child time
            stack.append(frame)
            depth[metric] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                depth[metric] -= 1
                if stack:
                    stack[-1][0] += dur
                else:
                    self.root_time += dur
                if not depth[metric]:
                    self.inclusive[metric] += dur
                self.self_time[metric] += dur - frame[0]
            if on_call is not None:
                on_call(metric, args, result)
            return result

        wrapper.__probe_original__ = fn
        return wrapper

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        had = attr in vars(owner)
        self._saved.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Probes":
        try:
            for probe in self.probes:
                original = vars(probe.owner).get(probe.attr)
                if original is None:
                    original = getattr(probe.owner, probe.attr)
                wrapper = self._wrap(original, probe)
                self._set(probe.owner, probe.attr, wrapper)
                if (isinstance(probe.owner, types.ModuleType)
                        and isinstance(original, types.FunctionType)):
                    for mod in _repro_modules():
                        if (mod is not probe.owner
                                and vars(mod).get(probe.attr) is original):
                            self._set(mod, probe.attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, had, value = self._saved.pop()
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)


def _repro_modules() -> List[types.ModuleType]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and name.split(".")[0] == "repro"]


def public_methods(cls: type) -> List[str]:
    """Names of the plain public functions a class itself defines."""
    return sorted(name for name, val in vars(cls).items()
                  if isinstance(val, types.FunctionType)
                  and not name.startswith("_"))

