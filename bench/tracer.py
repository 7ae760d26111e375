"""Spans around the public functions of the hsimae modules.

The tracer replaces each public function of the traced modules (and
Tensor.backward) with a wrapper that records one span: its name, start,
end and the span that was open when it was called. Calls between
modules, and calls inside a module, go through the module namespace,
so they are traced too; the backward closures of tensorcore ops are
not functions of the module and are timed as part of backward.

Spans are kept in flat arrays in memory and written out once, when
the benchmark ends. Self time is derived from them: a span's duration
minus the durations of its direct children.
"""

import array
import functools
import hashlib
import importlib
import inspect
import time

import numpy as np

LAYERS = ("hsidata", "tokenizer", "masking", "model", "loss", "tensorcore",
          "training", "cli")


def _adamw_arrays(args, kwargs, out):
    grads = kwargs["grads"] if "grads" in kwargs else args[1]
    return {"arrays": len(grads)}


def _classify_window(args, kwargs, out):
    cube = kwargs["cube"] if "cube" in kwargs else args[0]
    key = hashlib.blake2b(np.ascontiguousarray(cube.values).tobytes(),
                          digest_size=16).digest()
    return {"window": key, "graph": bool(out.requires_grad)}


# Counts recorded at the same boundary as the span: name -> fn(args,
# kwargs, result) -> attributes of that span.
COUNTERS = {
    "training.adamw_step": _adamw_arrays,
    "model.classify": _classify_window,
}


class Tracer:
    """Records spans while installed; install() and uninstall() patch modules."""

    def __init__(self):
        self.names = []                 # span name table
        self._name_ids = {}
        self.name_id = array.array("l")
        self.start = array.array("q")   # perf_counter_ns
        self.end = array.array("q")
        self.parent = array.array("l")  # index of the enclosing span, -1 at top
        self.attrs = {}                 # span index -> counter attributes
        self.installed = set()          # names of the wrapped functions
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        now = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0)
            self.end.append(0)
            stack.append(idx)
            t0 = now()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if counter is not None:
                try:
                    self.attrs[idx] = counter(args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature leaves this span uncounted
            return out

        return traced

    def install(self):
        for layer in LAYERS:
            mod = importlib.import_module(f"hsimae.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    self._patch(mod, attr, f"{layer}.{attr}")
            if layer == "tensorcore":
                self._patch(mod.Tensor, "backward", "tensorcore.backward")

    def _patch(self, owner, attr, name):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))
        self.installed.add(name)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def mark(self):
        """Index of the next span; phases are ranges between marks."""
        return len(self.start)

    def summarize(self, lo, hi):
        """Per-name totals over spans lo..hi-1.

        Returns name -> {"calls", "incl_ms", "self_ms", "attrs"}; incl_ms
        sums the full durations of the spans of that name.
        """
        names = np.array(self.name_id[lo:hi], dtype=np.int64)
        start = np.array(self.start[lo:hi], dtype=np.int64)
        end = np.array(self.end[lo:hi], dtype=np.int64)
        parent = np.array(self.parent[lo:hi], dtype=np.int64) - lo
        dur = end - start
        child = np.zeros_like(dur)
        inside = parent >= 0
        np.add.at(child, parent[inside], dur[inside])
        self_ns = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        incl = np.bincount(names, weights=dur, minlength=len(self.names))
        selft = np.bincount(names, weights=self_ns, minlength=len(self.names))
        out = {}
        for nid in np.flatnonzero(calls):
            out[self.names[nid]] = {"calls": int(calls[nid]),
                                    "incl_ms": incl[nid] / 1e6,
                                    "self_ms": selft[nid] / 1e6, "attrs": []}
        for idx, attrs in self.attrs.items():
            if lo <= idx < hi:
                out[self.names[self.name_id[idx]]]["attrs"].append(attrs)
        return out

    def save(self, path):
        """Write every span to an .npz file: names, name_id, start, end, parent."""
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.array(self.name_id),
            start=np.array(self.start), end=np.array(self.end),
            parent=np.array(self.parent))
