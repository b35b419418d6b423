"""Span tracing for the benchmark's traced run.

The tracer wraps bilinid functions from outside the package. The modules
import names directly (simulate.py binds matfun's expm as its own global),
so each wrapper is installed on every module binding of the function, not
only on its home module, and restore() puts every binding back. A span is
(name, start, end, parent); spans are kept in memory in flat arrays and
written out when the run ends. A layer's self time is its span time minus
the time of its direct child spans.
"""

import sys
import time
from array import array

import numpy as np

# (layer, home module, function). Several functions may share a layer.
LAYERS = (
    ("matfun.expm", "bilinid.matfun", "expm"),
    ("matfun.phi1", "bilinid.matfun", "phi1"),
    ("matfun.rank", "bilinid.matfun", "rank_of"),
    ("matfun.rank", "bilinid.matfun", "pinv_rank"),
    ("matfun.logm", "bilinid.matfun", "principal_logm"),
    ("simulate", "bilinid.simulate", "simulate"),
    ("simulate.sample_discrete", "bilinid.simulate", "sample_discrete"),
    ("realization.io_equivalent", "bilinid.realization", "io_equivalent"),
    ("realization.is_canonical", "bilinid.realization", "is_canonical"),
    ("realization.similarity_between", "bilinid.realization", "similarity_between"),
    ("realization.self_dual_T", "bilinid.realization", "self_dual_T"),
    ("counterex.classify", "bilinid.counterex", "classify"),
    ("counterex.distinguishing_search", "bilinid.counterex", "distinguishing_search"),
    ("counterex.pair", "bilinid.counterex", "single_pulse_pair"),
    ("counterex.pair", "bilinid.counterex", "pulse_family_pair"),
    ("counterex.pair", "bilinid.counterex", "sampled_pair"),
    ("counterex.pair", "bilinid.counterex", "twin_via_T"),
    ("identify", "bilinid.identify", "identify"),
    ("identify.realize", "bilinid.identify", "realize_free_response"),
    ("identify.recover_states", "bilinid.identify", "recover_states"),
)
OP = "op"
ORACLE = "identify.oracle"
NAMES = (OP, ORACLE) + tuple(dict.fromkeys(layer for layer, _, _ in LAYERS))


def _program_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "bilinid" or name.startswith("bilinid.")]


class Tracer:
    def __init__(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._patched = []
        self.outputs = 0    # points returned by simulate
        self.words = 0      # words io_equivalent compares, from n1 + n2

    def wrap(self, name, fn, after=None):
        """fn recording one span per call; after(result, args, kwargs) runs
        when the call returns."""
        k = NAMES.index(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(k)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(clock())
            self.end.append(0.0)
            self._stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.end[i] = clock()
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters taken at the boundary -------------------------------------

    def _count_outputs(self, traj, args, kwargs):
        self.outputs += len(traj.outputs)

    def _count_words(self, verdict, args, kwargs):
        t1, t2 = args[0], args[1]
        max_len = kwargs.get("max_len", args[3] if len(args) > 3 else None)
        length = t1.n + t2.n if max_len is None else int(max_len)
        self.words += 2 ** (length + 1) - 1

    def _oracle_factory(self, fn, oracle_type):
        def build(*args, **kwargs):
            o = fn(*args, **kwargs)
            return oracle_type(self.wrap(ORACLE, o.respond), o.alpha, o.kind)

        build.__wrapped__ = fn
        return build

    # -- installation ---------------------------------------------------------

    def install(self):
        ident = sys.modules["bilinid.identify"]
        hooks = {"simulate": self._count_outputs,
                 "realization.io_equivalent": self._count_words}
        swap = {}
        for layer, home, attr in LAYERS:
            fn = getattr(sys.modules[home], attr)
            swap[id(fn)] = (fn, self.wrap(layer, fn, hooks.get(layer)))
        fn = ident.oracle_from_tuple
        swap[id(fn)] = (fn, self._oracle_factory(fn, ident.PulseOracle))
        for mod in _program_modules():
            for key, value in list(vars(mod).items()):
                hit = swap.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])
                    self._patched.append((mod, key, value))

    def restore(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        left = [f"{mod.__name__}.{key}" for mod, key, original in self._patched
                if getattr(mod, key) is not original]
        self._patched = []
        if left:
            raise RuntimeError(f"wrappers left installed: {left}")

    # -- results ----------------------------------------------------------------

    def arrays(self):
        return (np.array(self.name_id, dtype=np.int32),
                np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=float), np.array(self.end, dtype=float))

    def save(self, path):
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(NAMES), name_id=name_id, parent=parent,
                 start=start, end=end)

    def summary(self):
        """Per layer: calls, total span seconds and self seconds; plus the
        number of expm calls made directly by simulate."""
        name_id, parent, start, end = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        own = dur - child
        out = {}
        for k, name in enumerate(NAMES):
            sel = name_id == k
            out[name] = {"calls": int(np.count_nonzero(sel)),
                         "total_s": float(dur[sel].sum()),
                         "self_s": float(own[sel].sum())}
        expm, sim = NAMES.index("matfun.expm"), NAMES.index("simulate")
        under = (name_id == expm) & has
        under[under] = name_id[parent[under]] == sim
        out["simulate"]["expm"] = int(np.count_nonzero(under))
        return out
