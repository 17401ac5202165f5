"""Per-layer tracing from outside the program.

Every public function of every ``residuap`` module (plus a few methods) is
wrapped in a span with its name, start and end; the enclosing span is its
parent, and the benchmark's ops are the roots.  Spans are aggregated as they
close: the closure kernel alone makes about 177k of them per scan batch, so
no span list is kept.  A span's self time is its duration minus that of its
direct children; it is credited to the span's module.

The program is not modified: wrapping rebinds module attributes, so every
``residuap.*`` module attribute that holds an original function (including
copies made by ``from .x import f``) is pointed at the wrapper, and methods
are patched on their classes.  Kernels are reached as ``kernels.<name>``.
"""

from __future__ import annotations

import hashlib
import importlib
import pkgutil
import time
import weakref
from collections import defaultdict

# Table-order buckets for kernel traffic; a table of order n falls in the
# first bucket whose bound is >= n.
BUCKETS = (16, 64, 256, 4096)

# (class path, method, span name) of methods wrapped on their class.
METHODS = (
    ("groups.FiniteGroup", "__init__", "groups.FiniteGroup.init"),
    ("algebra.IdealBasis", "multiply", "algebra.IdealBasis.multiply"),
    ("certify.Certificate", "verify", "certify.Certificate.verify"),
    ("congruence.MatrixGroup", "as_finite_group",
     "congruence.MatrixGroup.as_finite_group"),
)


def bucket(n: int) -> str:
    for b in BUCKETS:
        if n <= b:
            return f"le{b}"
    return "gt4096"


class _TableDigests:
    """Content digest of each live table object, computed once per object,
    so that distinct closure inputs are counted by content, not by id."""

    def __init__(self):
        self._by_id: dict[int, tuple] = {}

    def digest(self, arr) -> bytes:
        key = id(arr)
        hit = self._by_id.get(key)
        if hit is not None and hit[0]() is arr:
            return hit[1]
        d = hashlib.blake2b(memoryview(arr).cast("B"), digest_size=16).digest()
        self._by_id[key] = (weakref.ref(arr), d)
        return d


class Tracer:
    """Aggregated spans and counters.  ``counting`` limits the exact counters
    (calls, cells, buckets, distinct inputs) to one batch, so that two runs of
    one seed report identical counts whatever their length; ``paused`` keeps
    the benchmark's own input preparation out of the spans."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.closure_inputs: set = set()
        self.counting = True
        self.paused = False
        self._stack: list[list] = []          # [start, child_time]
        self._active = defaultdict(int)
        self._digests = _TableDigests()
        self._undo: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, fn, name: str, module: str, extra=None):
        tracer = self
        stack = self._stack
        active = self._active
        busy = self.busy
        calls = self.calls
        self_time = self.self_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if extra is not None and tracer.counting:
                extra(tracer, args)
            frame = [clock(), 0.0]
            stack.append(frame)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                dur = end - frame[0]
                if not active[name]:
                    busy[name] += dur
                if tracer.counting:
                    calls[name] += 1
                self_time[module] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if name == "serialize.dumps" and tracer.counting:
                tracer.counts["serialize.bytes_out"] += len(result)
            if name == "algebra.wreath" and tracer.counting:
                tracer.counts["algebra.wreath.cells"] += result.group.order ** 2
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- counters at the kernel boundary ----------------------------------

    @staticmethod
    def _count_closure(tracer, args):
        table, _, gens = args[:3]
        n = len(table)
        tracer.counts[f"kernels.closure.calls.{bucket(n)}"] += 1
        tracer.closure_inputs.add(
            (tracer._digests.digest(table), tuple(int(g) for g in gens)))

    @staticmethod
    def _count_validate(tracer, args):
        n = len(args[0])
        tracer.counts[f"kernels.validate_table.calls.{bucket(n)}"] += 1
        tracer.counts["kernels.validate_table.cells"] += n * n

    @staticmethod
    def _count_group_init(tracer, args):
        mult = args[1]
        n = len(mult)
        tracer.counts["groups.FiniteGroup.init.cells"] += n * n

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the public functions of every residuap module."""
        import residuap
        from residuap import kernels
        modules = {}
        for info in pkgutil.walk_packages(residuap.__path__, "residuap."):
            modules[info.name] = importlib.import_module(info.name)
        modules["residuap.kernels"] = kernels
        backends = {"residuap.kernels.npbackend", "residuap.kernels.pybackend"}

        extras = {"kernels.closure": self._count_closure,
                  "kernels.validate_table": self._count_validate}
        originals: dict[int, tuple] = {}
        for modname, mod in modules.items():
            if modname in backends:
                continue
            short = modname.split(".")[1]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(value, type) or \
                        not callable(value):
                    continue
                home = getattr(value, "__module__", "") or ""
                if home in backends:
                    span = f"kernels.{attr}"
                    layer = "kernels"
                elif home == modname and home.startswith("residuap."):
                    span = f"{short}.{attr}"
                    layer = short
                else:
                    continue
                originals[id(value)] = (value, span, layer)
        wrappers = {key: self._wrap(fn, span, layer, extras.get(span))
                    for key, (fn, span, layer) in originals.items()}
        for modname, mod in modules.items():
            if modname in backends:
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and originals[id(value)][0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        for path, meth, span in METHODS:
            modname, clsname = path.split(".")
            cls = getattr(modules[f"residuap.{modname}"], clsname)
            fn = cls.__dict__[meth]
            extra = self._count_group_init if meth == "__init__" else None
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, span, modname, extra))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def snapshot(self) -> dict:
        """The exact counters, as plain numbers."""
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update(self.counts)
        calls = self.calls.get("kernels.closure", 0)
        out["kernels.closure.distinct_share"] = (
            len(self.closure_inputs) / calls if calls else 0.0)
        return out
