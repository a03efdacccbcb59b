"""Spans and counters around dbarkit's public functions, installed from outside.

Nothing in ``src/`` is edited.  ``Tracer.install`` replaces each public
function of every ``dbarkit`` module at every name a caller looks it up by
(``dbarkit.cli.bargmann_probe`` as well as ``dbarkit.moments.bargmann_probe``),
the pipeline table ``dbarkit.cli.PIPELINES``, a few sampling methods, the
``Grid.nodes`` property, ``Field.__post_init__`` and the ``numpy.fft`` entry
points.  ``Tracer.uninstall`` puts every original back.

A span is ``[id, parent_id, name, start, end]`` with times from
``time.perf_counter``; spans are kept in memory and written out once, at the
end of the traced pass.  The layer of a span is the ``dbarkit`` module its
function lives in (the first part of its name).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import Counter, defaultdict

import numpy as np

FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                    "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
# methods whose calls are aggregated under one span name per layer
METHOD_SPANS = {
    ("bumps", "BumpPoly"): ("sample", "sample_dbar", "sample_dz"),
    ("weights", "Weight"): ("sample_phi", "sample_dphi", "sample_dbarphi",
                            "sample_lap_hat", "exp_phi"),
}


def dbarkit_modules():
    """Import and return every module of the dbarkit package, package first."""
    import dbarkit

    mods = [dbarkit]
    for info in pkgutil.iter_modules(dbarkit.__path__):
        mods.append(importlib.import_module(f"dbarkit.{info.name}"))
    return mods


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._active = Counter()  # span names open on the stack
        self._stack = []          # ids of open spans
        self._patches = []        # (owner, attribute, original)
        self._restored = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[name]:
                # recursion (canonical_json calls itself): one span per
                # outermost call keeps busy time from being counted twice
                return fn(*args, **kwargs)
            span = [len(spans), stack[-1] if stack else None, name, clock(), None]
            spans.append(span)
            stack.append(span[0])
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
                active[name] -= 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count_support(self, field):
        self.counts["bumps.nonzero"] += int(np.count_nonzero(field.values))
        self.counts["bumps.evaluated"] += int(field.values.size)

    def _count_csv(self, text):
        self.counts["grid.csv_bytes"] += len(text)

    # -- install / uninstall ----------------------------------------------

    def install(self):
        mods = dbarkit_modules()
        import dbarkit.cli as cli
        from dbarkit.grid import Field, Grid

        pipelines = {id(fn) for fn in cli.PIPELINES.values()}
        after = {"grid.field_to_csv": self._count_csv}
        wrappers = {}
        for mod in mods[1:]:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__ and id(obj) not in pipelines):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = self._wrap(name, obj, after.get(name))
        # install at every name a caller looks the function up by
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        for key, fn in list(cli.PIPELINES.items()):
            self._patches.append((cli.PIPELINES, key, fn))
            cli.PIPELINES[key] = self._wrap(f"cli.pipeline.{key}", fn)

        for (layer, cls_name), methods in METHOD_SPANS.items():
            cls = getattr(importlib.import_module(f"dbarkit.{layer}"), cls_name)
            hook = self._count_support if layer == "bumps" else None
            for m in methods:
                self._patch(cls, m, self._wrap(f"{layer}.sample", vars(cls)[m], hook))

        counts = self.counts
        nodes = vars(Grid)["nodes"]

        def counted_nodes(grid):
            counts["grid.nodes.calls"] += 1
            return nodes.fget(grid)

        self._patch(Grid, "nodes", property(counted_nodes, doc=nodes.__doc__))
        post_init = vars(Field)["__post_init__"]

        def counted_post_init(field):
            counts["grid.field.constructions"] += 1
            post_init(field)

        self._patch(Field, "__post_init__", counted_post_init)

        for fname in FFT_ENTRY_POINTS:
            fn = getattr(np.fft, fname)

            def counted_fft(a, *args, _fn=fn, **kwargs):
                counts["kernel.fft.calls"] += 1
                counts["kernel.fft.points"] += int(np.size(a))
                return _fn(a, *args, **kwargs)

            self._patch(np.fft, fname, functools.wraps(fn)(counted_fft))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
            self._restored.append((owner, attr, original))

    def unrestored(self):
        """Names of patched attributes that no longer hold their original."""
        bad = []
        for owner, attr, original in self._restored:
            if isinstance(owner, dict):
                current = owner[attr]
            elif isinstance(owner, type):
                current = vars(owner)[attr]
            else:
                current = getattr(owner, attr)
            if current is not original:
                bad.append(f"{getattr(owner, '__name__', 'PIPELINES')}.{attr}")
        return bad

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def aggregate(spans):
    """Per span name: calls, busy seconds and self seconds.

    busy is the inclusive duration.  self is the duration minus the time
    covered by spans of *other* layers nested in it; a call into the same
    module (``diagonal_restriction`` into ``fourier2``) does not cross a layer
    boundary and stays in the caller's self time.  Spans are single-threaded
    and a parent always has a smaller id than its children, so one backward
    sweep accumulates each span's foreign time before its parent needs it.
    Returns ``(per_name, per_span_self)``.
    """
    foreign = defaultdict(float)
    self_time = [0.0] * len(spans)
    for sid in range(len(spans) - 1, -1, -1):
        _, parent, name, start, end = spans[sid]
        dur = end - start
        self_time[sid] = dur - foreign[sid]
        if parent is not None:
            same = layer_of(spans[parent][2]) == layer_of(name)
            foreign[parent] += foreign[sid] if same else dur
    per_name = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for sid, (_, _, name, start, end) in enumerate(spans):
        agg = per_name[name]
        agg["calls"] += 1
        agg["busy_s"] += end - start
        agg["self_s"] += self_time[sid]
    return dict(per_name), self_time
