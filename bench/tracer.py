"""Outside-in tracer for the hopfq modules.

`Tracer.install()` replaces the public functions and methods of every module
in `hopfq` by wrappers, without editing the package.  Each wrapper counts
its calls.  A call is timed when it crosses a module boundary (the caller's
innermost timed frame belongs to another module) or when its name is in
`ALWAYS_TIMED`, because a per-function metric is reported for it.  A call
inside the module that owns the innermost timed frame is left untimed, so
its time stays in that frame's self time.

Self time is a frame's duration minus the time covered by its timed child
frames.  Children of one thread nest without overlapping, so that covered
time is the sum of their durations, added up as each child ends.

The hot ring operations in `HOT`, and every call into `scalars`, are counted
and timed in aggregate only.  Every other timed call is also kept as a span
(name, start, end, parent) in memory, up to `SPAN_CAP` spans, and written
out by `write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

MODULES = ("scalars", "partitions", "fock", "hamiltonians", "schur", "disk",
           "kp", "fermion", "cli")

HOT = {
    "scalars.ExactScalar": ("__add__", "__radd__", "__sub__", "__mul__",
                            "__rmul__"),
    "fock.FockPolynomial": ("__add__", "__mul__", "__rmul__"),
    "kp.TruncatedTau": ("__mul__", "derivative"),
}
AGGREGATED_MODULES = ("scalars",)
SPAN_CAP = 10_000  # spans kept per process; later ones are only counted

ALWAYS_TIMED = {
    "fock.NormalOrderedOperator.apply",
    "hamiltonians.hamiltonian_generating_coefficients",
    "hamiltonians.verify_commutativity",
    "hamiltonians.verify_eigenvectors",
    "disk.disk_potential",
    "kp.hirota_apply",
    "kp.kp_hierarchy_check",
    "kp.TruncatedTau.__mul__",
}


def _apply_pairs(args, result):
    op, poly = args[0], args[1]
    return "fock.apply.pairs", len(op.terms) * len(poly.terms)


def _operator_terms(args, result):
    return "hamiltonians.operator_terms", sum(len(op.terms) for op in result)


def _tau_terms(args, result):
    return "kp.tau_terms", len(result.terms)


# Work counts taken from a call's arguments and result: key -> hook.
MEASURES = {
    "fock.NormalOrderedOperator.apply": _apply_pairs,
    "hamiltonians.hamiltonian_generating_coefficients": _operator_terms,
    "kp.tau_from_disk": _tau_terms,
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.work = defaultdict(int)
        self.spans = []
        self.spans_dropped = 0
        # Each frame is [module, child_time, span_id]; the root has no module.
        self._stack = [[None, 0.0, -1]]
        self._originals = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, module, key, hot):
        calls, incl, self_time = self.calls, self.incl, self.self_time
        stack, spans = self._stack, self.spans
        always = key in ALWAYS_TIMED
        measure = MEASURES.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            parent = stack[-1]
            if parent[0] == module and not always:
                result = fn(*args, **kwargs)
            else:
                frame = [module, 0.0, -1]
                if not hot:
                    if len(spans) < SPAN_CAP:
                        frame[2] = len(spans)
                        spans.append(None)
                    else:
                        self.spans_dropped += 1
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    d = t1 - t0
                    stack[-1][1] += d
                    incl[key] += d
                    self_time[key] += d - frame[1]
                    if frame[2] >= 0:
                        spans[frame[2]] = (key, t0, t1, parent[2])
            if measure is not None:
                name, amount = measure(args, result)
                self.work[name] += amount
            return result

        return wrapper

    @staticmethod
    def _modules():
        """The hopfq modules that exist; a layer that was removed or merged
        into another simply reports nothing."""
        for name in MODULES:
            try:
                yield importlib.import_module(f"hopfq.{name}")
            except ModuleNotFoundError as ex:
                if ex.name != f"hopfq.{name}":
                    raise

    def _targets(self):
        """(owner, attribute, original, module, key, hot) for every public
        function of every module and every public or hot method of every
        class defined in it."""
        for mod in self._modules():
            mod_name = mod.__name__.rpartition(".")[2]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    cls_key = f"{mod_name}.{attr}"
                    hot = HOT.get(cls_key, ())
                    for meth, raw in sorted(vars(obj).items()):
                        if meth.startswith("_") and meth not in hot:
                            continue
                        if not isinstance(raw, (staticmethod, classmethod)) \
                                and not inspect.isfunction(raw):
                            continue  # properties, slots, constants
                        yield (obj, meth, raw, mod_name, f"{cls_key}.{meth}",
                               meth in hot or mod_name in AGGREGATED_MODULES)
                elif callable(obj):
                    yield (mod, attr, obj, mod_name, f"{mod_name}.{attr}",
                           mod_name in AGGREGATED_MODULES)

    def install(self):
        """Wrap every target and rebind every module-level alias of it
        (names imported with `from .x import y`) to the wrapper."""
        replaced = {}
        for owner, attr, raw, module, key, hot in self._targets():
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(self._wrap(raw.__func__, module, key, hot))
            else:
                new = self._wrap(raw, module, key, hot)
                if inspect.ismodule(owner):
                    replaced[id(raw)] = (raw, new)
            self._originals.append((owner, attr, raw))
            setattr(owner, attr, new)
        for mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, raw in reversed(self._originals):
            setattr(owner, attr, raw)
        self._originals.clear()

    # -- results -----------------------------------------------------------

    def root_time(self):
        """Time inside outermost timed calls; the self times sum to it."""
        return self._stack[0][1]

    def summary(self):
        return {"calls": dict(self.calls), "incl": dict(self.incl),
                "self": dict(self.self_time), "work": dict(self.work),
                "spans": len(self.spans), "spans_dropped": self.spans_dropped}

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
