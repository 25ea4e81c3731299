"""Layer spans and counters recorded from outside the library.

The tracer replaces the public functions, methods and properties of each
library module (a layer) with wrappers, and puts the originals back on
uninstall.  A call that enters a layer other than its caller's opens a
frame; a layer's self time is the time of its frames minus the time of
the frames they open in other layers.  Frames of non-hot functions are
kept as spans (op id, span id, parent span id, layer, name, start, end)
in memory and written out at the end; hot boundary calls (digit access,
values, interval arithmetic, polynomial evaluation) are aggregated into
a count and a time per op instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "cli",
    "words",
    "polynomials",
    "intervals",
    "realbase",
    "numsys",
    "bertrand",
    "automata",
    "analysis",
)

# Layers whose every call is hot, and further hot functions elsewhere.
HOT_LAYERS = {"words", "polynomials", "intervals"}
HOT = {
    "RealBase._step",
    "RealBase._bisect",
    "RealBase.enclosure",
    "RealBase.digits_prefix",
    "NumSys.u",
    "NumSys.rep",
    "NumSys.val",
    "NumSys.lex_max",
    "NumSys.alphabet_max",
    "Dfa.__post_init__",
}
# Private functions that are wrapped because a counter needs them.
PRIVATE = {"RealBase._step"}
INTERVAL_OPS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__rtruediv__", "__pow__", "recip",
}
DUNDERS = INTERVAL_OPS | {"__post_init__"}
SPAN_CAP = 200_000


PACKAGE = "bertrandnum"


class Tracer:
    def __init__(self):
        self.op = -1
        self.stack = []  # frames: [layer, child_time, span_id, outermost]
        self.active = Counter()
        self.spans = []
        self.dropped_spans = 0
        self.next_id = 0
        self.hot = defaultdict(lambda: [0, 0.0])  # (op, name) -> [count, seconds]
        self.calls = Counter()  # per layer
        self.fn_calls = Counter()  # per qualified name
        self.self_s = Counter()
        self.incl_s = Counter()
        self.counts = Counter()  # counters computed by hooks
        self.max_u_index = 0
        self._restore = []

    # -- installation ------------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]
        everywhere = [importlib.import_module(PACKAGE)] + modules
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj) and not name.startswith("_"):
                    wrapper = self._wrapper(layer, name, obj)
                    for other in everywhere:
                        for alias, val in list(vars(other).items()):
                            if val is obj:
                                self._set(other, alias, wrapper, obj)
        self._count_lex_max_hits(modules[LAYERS.index("numsys")].NumSys)

    def _count_lex_max_hits(self, numsys_cls):
        """Wrap lex_max once more to see whether each call hits its cache."""
        tracer = self
        inner = numsys_cls.lex_max

        @functools.wraps(inner)
        def lex_max(obj, i):
            if i in obj._lexmax:
                tracer.counts["lex_max_hits"] += 1
            return inner(obj, i)

        self._set(numsys_cls, "lex_max", lex_max, inner)

    def _wrap_class(self, layer, cls):
        for name, raw in list(vars(cls).items()):
            qual = f"{cls.__name__}.{name}"
            if name.startswith("__"):
                if name not in DUNDERS:
                    continue
            elif name.startswith("_") and qual not in PRIVATE:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrapper(layer, qual, raw.__func__))
            elif isinstance(raw, property) and raw.fget is not None:
                new = property(self._wrapper(layer, qual, raw.fget), raw.fset, raw.fdel, raw.__doc__)
            elif inspect.isfunction(raw):
                new = self._wrapper(layer, qual, raw)
            else:
                continue
            self._set(cls, name, new, raw)

    def _set(self, owner, name, new, old):
        setattr(owner, name, new)
        self._restore.append((owner, name, old))

    def uninstall(self):
        for owner, name, old in reversed(self._restore):
            setattr(owner, name, old)
        self._restore.clear()

    # -- the wrapper -------------------------------------------------------------

    def _wrapper(self, layer, name, fn):
        tracer = self
        hot = layer in HOT_LAYERS or name in HOT
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[layer] += 1
            tracer.fn_calls[name] += 1
            stack = tracer.stack
            caller = stack[-1][0] if stack else None
            if caller == layer:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, caller, args, result)
                return result
            outermost = tracer.active[layer] == 0
            tracer.active[layer] += 1
            parent = stack[-1][2] if stack else None
            # a hot call stores no span, so its children name its parent
            span_id = parent if hot else tracer.next_id
            tracer.next_id += not hot
            frame = [layer, 0.0, span_id, outermost]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.active[layer] -= 1
                dur = t1 - t0
                tracer.self_s[layer] += dur - frame[1]
                if outermost:
                    tracer.incl_s[layer] += dur
                if stack:
                    stack[-1][1] += dur
                if hot:
                    agg = tracer.hot[(tracer.op, name)]
                    agg[0] += 1
                    agg[1] += dur
                elif len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((tracer.op, span_id, parent, layer, name, t0, t1))
                else:
                    tracer.dropped_spans += 1
            if hook is not None:
                hook(tracer, caller, args, result)
            return result

        return wrapper

    # -- output ------------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for op, sid, parent, layer, name, t0, t1 in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "layer": layer,
                                     "name": name, "start": t0, "end": t1}) + "\n")
            for (op, name), (count, secs) in sorted(self.hot.items()):
                fh.write(json.dumps({"op": op, "hot": name, "count": count, "seconds": secs}) + "\n")

    def metrics(self, n_ops):
        """Per-layer metrics; counts and times are per op."""
        c, f = self.counts, self.fn_calls
        digits = f["RealBase._step"]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer] / n_ops, "1/op")
            out[f"{layer}.self_s"] = (self.self_s[layer] / n_ops, "s/op")
        lex = f["NumSys.lex_max"]
        classify = f["classify_bertrand"]
        out.update({
            "realbase.digits": (digits / n_ops, "1/op"),
            "realbase.digits_per_s": (_ratio(digits, self.incl_s["realbase"]), "1/s"),
            "realbase.sign_tests_per_digit": (_ratio(c["realbase_sign_tests"], digits), "ratio"),
            "polynomials.sign_at.calls": (f["sign_at"] / n_ops, "1/op"),
            "polynomials.gcd.calls": (f["gcd"] / n_ops, "1/op"),
            "polynomials.count_roots.calls": (f["count_roots"] / n_ops, "1/op"),
            "intervals.ops": (sum(f[f"Interval.{op}"] for op in INTERVAL_OPS) / n_ops, "1/op"),
            "numsys.enumerated_words": (c["enumerated_words"] / n_ops, "1/op"),
            "numsys.lex_max.calls": (lex / n_ops, "1/op"),
            "numsys.lex_max.hit_ratio": (_ratio(c["lex_max_hits"], lex), "ratio"),
            "numsys.u.max_index": (self.max_u_index, "count"),
            "numsys.rep.calls": (f["NumSys.rep"] / n_ops, "1/op"),
            "numsys.member.calls": (f["NumSys.member"] / n_ops, "1/op"),
            "bertrand.classify.calls": (classify / n_ops, "1/op"),
            "bertrand.certify.calls": (f["certify_generating_word"] / n_ops, "1/op"),
            "bertrand.certified_ratio": (_ratio(c["certified"], classify), "ratio"),
            "automata.states_built": (c["states_built"] / n_ops, "1/op"),
            "automata.count_steps": (c["count_steps"] / n_ops, "1/op"),
            "analysis.enclosure_calls": (c["analysis_enclosures"] / n_ops, "1/op"),
        })
        return out


def _ratio(a, b):
    return a / b if b else 0.0


# -- counters that need arguments or results --------------------------------------


def _sign_at(tracer, caller, args, result):
    if caller == "realbase":
        tracer.counts["realbase_sign_tests"] += 1


def _u(tracer, caller, args, result):
    if args[1] > tracer.max_u_index:
        tracer.max_u_index = args[1]


def _members_by_length(tracer, caller, args, result):
    tracer.counts["enumerated_words"] += sum(len(level) for level in result)


def _classify(tracer, caller, args, result):
    tracer.counts["certified"] += bool(result.certified)


def _dfa_init(tracer, caller, args, result):
    tracer.counts["states_built"] += args[0].num_states


def _count_accepted(tracer, caller, args, result):
    tracer.counts["count_steps"] += args[1]


def _enclosure(tracer, caller, args, result):
    if caller == "analysis":
        tracer.counts["analysis_enclosures"] += 1


_HOOKS = {
    "sign_at": _sign_at,
    "NumSys.u": _u,
    "NumSys.members_by_length": _members_by_length,
    "classify_bertrand": _classify,
    "Dfa.__post_init__": _dfa_init,
    "Dfa.count_accepted": _count_accepted,
    "RealBase.enclosure": _enclosure,
}

