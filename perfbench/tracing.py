"""Span tracing of atomlam's public functions, installed from outside.

`Tracer.install` wraps each function named in LAYERS and rebinds the
wrapper wherever atomlam holds a reference to the original: in the
defining module and in every `atomlam.*` module that imported it with
`from .x import y`. Methods (`_Node.__eq__`, `Diagram.verify`) are
wrapped on their class. `uninstall` puts every original back.

Each outermost call records one span: function, start, end, parent span
and item id. A call made while the same function is already on the span
stack (the recursion of `free_vars` or `subst_term`) records nothing, so
a recursive function counts once per outermost call. Self time is a
span's duration minus the time its direct child spans cover. A function
that does not exist (renamed or deleted) is reported as absent.
"""

from __future__ import annotations

import sys
import time
from array import array

# (metric prefix, module, attribute); an attribute "Cls.meth" names a method.
LAYERS = (
    ("rewriting.find_redexes", "atomlam.rewriting", "find_redexes"),
    ("rewriting.step", "atomlam.rewriting", "step"),
    ("rewriting.apply_script", "atomlam.rewriting", "apply_script"),
    ("rewriting.env_at", "atomlam.rewriting", "env_at"),
    ("rewriting.replay", "atomlam.rewriting", "replay"),
    ("analysis.weight", "atomlam.analysis", "weight"),
    ("analysis.atomic_nf", "atomlam.analysis", "atomic_nf"),
    ("analysis.check_local_confluence", "atomlam.analysis", "check_local_confluence"),
    ("analysis.search_beta_eta", "atomlam.analysis", "search_beta_eta"),
    ("analysis.simulate_step", "atomlam.analysis", "simulate_step"),
    ("typecheck.typecheck", "atomlam.typecheck", "typecheck"),
    ("typecheck.is_fine_redex", "atomlam.typecheck", "is_fine_redex"),
    ("syntax.eq", "atomlam.syntax", "_Node.__eq__"),
    ("syntax.hash", "atomlam.syntax", "_Node.__hash__"),
    ("syntax.canonical_key", "atomlam.syntax", "canonical_key"),
    ("syntax.subst_term", "atomlam.syntax", "subst_term"),
    ("syntax.free_vars", "atomlam.syntax", "free_vars"),
    ("syntax.replace_at", "atomlam.syntax", "replace_at"),
    ("rules.match_rule", "atomlam.rules", "match_rule"),
    ("rules.apply_rule", "atomlam.rules", "apply_rule"),
    ("translate.rp_term", "atomlam.translate", "rp_term"),
    ("translate.at_term", "atomlam.translate", "at_term"),
    ("surface.parse_term", "atomlam.surface", "parse_term"),
    ("surface.print_term", "atomlam.surface", "print_term"),
    ("surface.print_formula", "atomlam.surface", "print_formula"),
    ("diagram.build_diagram", "atomlam.diagram", "build_diagram"),
    ("diagram.verify", "atomlam.diagram", "Diagram.verify"),
    ("diagram.bridge_script", "atomlam.diagram", "bridge_script"),
    ("cli.main", "atomlam.cli", "main"),
)


def _count_redexes(tracer, result):
    tracer.counts["rewriting.redexes_found"] += len(result)
    tracer.counts["rewriting.redexes_fine"] += sum(1 for r in result if r.fine)


def _count_nf_steps(tracer, result):
    tracer.counts["analysis.atomic_nf.steps"] += len(result[1].steps)


def _count_search(tracer, result):
    tracer.counts["analysis.search_beta_eta.found"] += result is not None


def _count_bytes(tracer, result):
    tracer.counts["surface.bytes_out"] += len(result.encode())


def _count_legs(tracer, result):
    tracer.counts["diagram.leg_steps"] += sum(len(leg.steps)
                                              for leg in result.legs.values())


# Counts read off a wrapped function's result, keyed by metric prefix.
RESULT_COUNTS = {
    "rewriting.find_redexes": _count_redexes,
    "analysis.atomic_nf": _count_nf_steps,
    "analysis.search_beta_eta": _count_search,
    "surface.print_term": _count_bytes,
    "surface.print_formula": _count_bytes,
    "diagram.build_diagram": _count_legs,
}


def _resolve(module, attr):
    """(owner object, attribute name, original) or None if absent."""
    owner = sys.modules.get(module)
    if owner is None:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    return None if fn is None else (owner, name, fn)


class Tracer:
    """Spans of one traced pass, kept in flat arrays until the run ends.
    Use one tracer per pass: install, run, uninstall, then read."""

    def __init__(self):
        self.names = []            # function index -> metric prefix
        self.absent = []
        self.fn = array("i")       # per span
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.stack = []
        self.item_id = -1
        self.counts = {"rewriting.redexes_found": 0, "rewriting.redexes_fine": 0,
                       "analysis.atomic_nf.steps": 0,
                       "analysis.search_beta_eta.found": 0,
                       "surface.bytes_out": 0, "diagram.leg_steps": 0}
        self._patched = []         # (owner, attribute, original)

    # ------------------------------------------------------- installing

    def install(self):
        import atomlam  # noqa: F401  (loads every atomlam.* module)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "atomlam" or name.startswith("atomlam."))]
        for prefix, module, attr in LAYERS:
            found = _resolve(module, attr)
            if found is None:
                self.absent.append(prefix)
                continue
            owner, name, original = found
            wrapper = self._wrap(len(self.names), original, RESULT_COUNTS.get(prefix))
            self.names.append(prefix)
            if isinstance(owner, type):
                self._rebind(owner, name, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, owner, name, wrapper):
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched = []

    def _wrap(self, index, fn, on_result):
        tracer = self
        clock = time.perf_counter
        active = [0]

        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            stack = tracer.stack
            sid = len(tracer.fn)
            tracer.fn.append(index)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.item.append(tracer.item_id)
            tracer.end.append(0.0)
            stack.append(sid)
            active[0] = 1
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = clock()
                active[0] = 0
                stack.pop()
            if on_result is not None:
                on_result(tracer, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -------------------------------------------------------- summaries

    def per_function(self):
        """{prefix: (calls, total seconds, self seconds)} for this pass."""
        n = len(self.names)
        calls, total, self_s = [0] * n, [0.0] * n, [0.0] * n
        fn, parent, start, end = self.fn, self.parent, self.start, self.end
        for sid in range(len(fn)):
            dur = end[sid] - start[sid]
            f = fn[sid]
            calls[f] += 1
            total[f] += dur
            self_s[f] += dur
            if parent[sid] >= 0:
                self_s[fn[parent[sid]]] -= dur
        return {self.names[i]: (calls[i], total[i], self_s[i]) for i in range(n)}

    def spans_for(self, prefix):
        """(item id, duration) of every span of one function."""
        if prefix not in self.names:
            return []
        index = self.names.index(prefix)
        return [(self.item[s], self.end[s] - self.start[s])
                for s in range(len(self.fn)) if self.fn[s] == index]

    def write(self, path):
        """Write the spans as tab-separated text, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\titem\tlayer\tfunction\tstart_s\tend_s\n")
            for s in range(len(self.fn)):
                layer, _, function = self.names[self.fn[s]].partition(".")
                fh.write(f"{s}\t{self.parent[s]}\t{self.item[s]}\t{layer}\t"
                         f"{function}\t{self.start[s]:.9f}\t{self.end[s]:.9f}\n")
