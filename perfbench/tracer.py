"""In-process tracer for the benchmark's per-layer run.

The tracer wraps public functions of the ``tenreg`` layers at every module
attribute that holds them, so a call is timed whichever module its caller
resolves the name through (``tenreg.harness.fista_solve`` and
``tenreg.solver.fista_solve`` are the same function bound in two module
namespaces).  Nothing under ``src/`` changes: :meth:`Tracer.install` swaps
the attributes and :meth:`Tracer.restore` puts the originals back.

A span's self time is its duration minus the time covered by wrapped spans
it called.  The tracer assumes wrapped functions run on the calling thread,
which holds for every workload of this benchmark (all Monte-Carlo runs use
one worker).
"""

from __future__ import annotations

import functools
import sys
import time


class Stat:
    """Aggregate of one wrapped function: calls, self and total seconds,
    and the duration of every call (for percentiles)."""

    __slots__ = ("calls", "self_s", "total_s", "durations")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.durations = []


class Tracer:
    """Times wrapped functions and attributes self time to each.

    `targets` maps a metric prefix such as ``"solver.fista_solve"`` to the
    module attribute that defines the function, as ``(module, name)``.
    `on_return` maps a prefix to ``hook(result, args, kwargs)``, called after
    each successful call so layer counters are taken where the work happens.
    """

    def __init__(self, targets, on_return=None, clock=time.perf_counter):
        self.targets = dict(targets)
        self.on_return = dict(on_return or {})
        self.clock = clock
        self.stats = {name: Stat() for name in self.targets}
        self._child = []  # one accumulator of child-span time per open span
        self._patched = []  # (module, attribute, original)

    def wrap(self, name, fn):
        stat = self.stats[name]
        hook = self.on_return.get(name)
        clock = self.clock
        child = self._child

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - inner
                stat.durations.append(elapsed)
                if child:
                    child[-1] += elapsed
            if hook is not None:
                hook(result, args, kwargs)
            return result

        return wrapper

    def install(self, package="tenreg"):
        """Replace every binding of each target inside `package` modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, (module, attr) in self.targets.items():
            original = getattr(module, attr)
            wrappers[id(original)] = (original, self.wrap(name, original))
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == package or key.startswith(package + "."))
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        return self

    def restore(self):
        """Put back every original binding replaced by :meth:`install`."""
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def self_total(self):
        return sum(stat.self_s for stat in self.stats.values())
