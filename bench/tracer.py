"""Span tracer that instruments deltapoly from outside the package.

`Tracer.install` wraps every public function of the layer modules (plus
`Poly.__mul__` and `FormalPowerSeries.__mul__`) and rebinds every
reference it can find to the original: module attributes, the names
other modules imported (`verify.fps_reverse`), class-attribute aliases
(`FormalPowerSeries.__rmul__`) and tuples of functions (`verify.CRITERIA`).
Each call then records one span: name, start, end and the span that was
open when it began. Spans stay in memory until `uninstall`.

The two integrators additionally wrap the integrand they are handed, to
count evaluations and the ones that returned exactly 0.0.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array

LAYERS = ("series", "fuss", "delta", "bessel", "quadrature", "distributions",
          "sequences", "verify", "cli")

# Operator methods traced under their own names; other methods are not
# public functions and their time stays with the caller.
METHODS = (("series", "Poly", "__mul__", "poly_mul"),
           ("series", "FormalPowerSeries", "__mul__", "fps_mul"))

INTEGRATORS = {"quadrature.integrate_half_line": "half_line",
               "quadrature.integrate_interval": "interval"}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.evals = {kind: 0 for kind in INTEGRATORS.values()}
        self.nonzero_evals = 0
        self.integrals = 0
        self.errors = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_ix, parent, start, end = self.name_ix, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_ix.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def _wrap_integrator(self, name: str, fn):
        kind = INTEGRATORS[name]
        span = self._wrap(name, fn)
        quad_error = self.package.quadrature.QuadratureError

        @functools.wraps(fn)
        def integrate(f, *args, **kwargs):
            counts = [0, 0]

            def counted(x):
                v = f(x)
                counts[0] += 1
                if v != 0.0:
                    counts[1] += 1
                return v

            self.integrals += 1
            try:
                return span(counted, *args, **kwargs)
            except quad_error:
                self.errors += 1
                raise
            finally:
                self.evals[kind] += counts[0]
                self.nonzero_evals += counts[1]

        return integrate

    def install(self) -> None:
        modules = [importlib.import_module(f"{self.package.__name__}.{m}") for m in LAYERS]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrap = self._wrap_integrator if name in INTEGRATORS else self._wrap
                    wrapped[obj] = wrap(name, obj)
        owners = [self.package, *modules]
        for layer, cls_name, attr, short in METHODS:
            cls = getattr(self.package, layer).__dict__[cls_name]
            wrapped[cls.__dict__[attr]] = self._wrap(f"{layer}.{short}", cls.__dict__[attr])
            owners.append(cls)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(owner, attr, value, wrapped[value])
                elif isinstance(value, tuple) and any(
                        inspect.isfunction(v) and v in wrapped for v in value):
                    swapped = tuple(wrapped.get(v, v) if inspect.isfunction(v) else v
                                    for v in value)
                    self._patch(owner, attr, value, swapped)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """span name -> [calls, self seconds, inclusive seconds].

        Self time is a span's duration minus the durations of its direct
        children; one thread means children never overlap.
        """
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        own = array("d", dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i, nid in enumerate(self.name_ix):
            row = out[self.names[nid]]
            row[0] += 1
            row[1] += own[i]
            row[2] += dur[i]
        return out

    def write_spans(self, path, count: int) -> None:
        """The first `count` spans, one line each: index, parent index,
        name, start and end in seconds."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for i, (nid, p, s, e) in enumerate(zip(
                    self.name_ix[:count], self.parent[:count], self.start[:count],
                    self.end[:count])):
                fh.write(f"{i}\t{p}\t{self.names[nid]}\t{s:.9f}\t{e:.9f}\n")
