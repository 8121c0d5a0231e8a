"""Per-layer spans and counters, recorded from outside the library.

``Tracer`` replaces every public function of the layer modules with a
wrapper, at every module attribute that is bound to it (``factor`` is bound in
``dp4.arith``, ``dp4.brauer`` and the package itself, for example), and puts
the originals back on exit.  Each wrapped call is a span; a span's self time
is its duration minus the time covered by the spans it caused.  A call that
returns a generator is timed while the generator is consumed, one span per
``next``, and every yielded value counts as an item.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

PACKAGE = "dp4"
LAYERS = ("arith", "quadform", "localsolve", "brauer", "families")

# Items that a function returns rather than yields.
RETURNED_ITEMS = {
    "localsolve.sample_local_points": len,
    "families.point_search": len,
}


class _Stat:
    __slots__ = ("calls", "items", "errors", "self_s")

    def __init__(self):
        self.calls = self.items = self.errors = 0
        self.self_s = 0.0


class Tracer:
    """Context manager that traces the layers of the ``dp4`` package."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.sampler_level1_items = 0  # level-1 points consumed inside the sampler
        self.witness_sampling_fallbacks = 0
        self._stack: list[list] = []  # [start, child seconds]
        self._in_sampler = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = self._package_modules()
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn)
                for owner in modules:
                    for bound, value in list(vars(owner).items()):
                        if value is fn:
                            self._restore.append((owner, bound, fn))
                            setattr(owner, bound, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, bound, fn in reversed(self._restore):
            setattr(owner, bound, fn)
        self._restore.clear()

    @staticmethod
    def _package_modules():
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    # -- spans -------------------------------------------------------------

    def _close(self, stat: _Stat) -> None:
        start, child = self._stack.pop()
        duration = perf_counter() - start
        stat.self_s += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, _Stat())
        returned_items = RETURNED_ITEMS.get(name)
        is_sampler = name == "localsolve.sample_local_points"
        is_witness = name == "brauer.surjectivity_witness"
        stack = self._stack

        def traced(*args, **kwargs):
            stat.calls += 1
            if is_sampler:
                self._in_sampler += 1
            stack.append([perf_counter(), 0.0])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                self._close(stat)
                if is_sampler:
                    self._in_sampler -= 1
            if inspect.isgenerator(result):
                return self._consume(name, stat, result)
            if returned_items is not None:
                stat.items += returned_items(result)
            if is_witness and any("falling back to sampling" in line for line in result.case_trace):
                self.witness_sampling_fallbacks += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def _consume(self, name: str, stat: _Stat, gen):
        level1 = name == "localsolve.iter_residue_points"
        stack = self._stack
        try:
            while True:
                stack.append([perf_counter(), 0.0])
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except BaseException:
                    stat.errors += 1
                    raise
                finally:
                    self._close(stat)
                stat.items += 1
                if level1 and self._in_sampler:
                    self.sampler_level1_items += 1
                yield item
        finally:
            gen.close()
