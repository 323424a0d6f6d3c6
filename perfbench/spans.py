"""In-memory spans around the library's layer boundaries.

The tracer wraps public functions and methods of ``crysred`` from outside;
the library itself is not changed.  Each call of a wrapped function is one
span: layer name, start, end, parent span and item id.  Spans live in
arrays while the run lasts and are written out once at the end.

A span's self time is its duration minus the durations of its direct child
spans.  Spans nest strictly (one thread, entered and left in stack order), so
the children tile disjoint parts of the parent interval and that difference
is exactly the parent time not covered by a child.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

# Layer name -> wrapped functions, as "module:qualname".  A module function
# is replaced in every crysred module that binds it (``from .x import f``
# copies the name), a method on its class.
LAYERS = {
    "symrep.span_closure": ["crysred.symrep:build_X", "crysred.symrep:span_closure"],
    "symrep.action_matrix": ["crysred.symrep:SymPower.action_matrix"],
    "symrep.filtration": ["crysred.symrep:filtration_spaces"],
    "symrep.subquotient": ["crysred.symrep:SubquotientModule.__init__",
                           "crysred.symrep:GammaModule.quotient",
                           "crysred.symrep:GammaModule.restrict"],
    "symrep.socle": ["crysred.symrep:socle_simples"],
    "symrep.spin": ["crysred.symrep:GammaModule.spin"],
    "symrep.jh_decompose": ["crysred.symrep:jh_decompose"],
    "symrep.quotient_Q": ["crysred.symrep:quotient_Q"],
    "linalg.add": ["crysred.linalg:FpSpace.add"],
    "linalg.reduce": ["crysred.linalg:FpSpace.reduce", "crysred.linalg:FpSpace.express"],
    "linalg.nullspace": ["crysred.linalg:nullspace"],
    "linalg.intersect": ["crysred.linalg:FpSpace.intersect"],
    "classify.predict": ["crysred.classify:predict_dim_X",
                         "crysred.classify:predict_X_structure",
                         "crysred.classify:predict_Q_structure"],
    "report.structure_report": ["crysred.report:structure_report"],
    "hecke.Tplus": ["crysred.hecke:apply_Tplus"],
    "hecke.Tminus": ["crysred.hecke:apply_Tminus"],
    "hecke.t_minus_ap": ["crysred.hecke:t_minus_ap"],
    "hecke.audit": ["crysred.hecke:audit_valuations"],
    "hecke.reduce": ["crysred.hecke:reduce_mod_p"],
    "hecke.modp_T": ["crysred.hecke:modp_T"],
    "arith.class_sum_table": ["crysred.arith:class_sum_table"],
    "arith.families": ["crysred.arith:choose_alphas", "crysred.arith:choose_betas",
                       "crysred.arith:choose_alphas_modp2",
                       "crysred.arith:choose_gammas_modp2",
                       "crysred.arith:choose_gammas_alphas2"],
    "witness.build": ["crysred.witness:build_witness"],
    "witness.qenv": ["crysred.witness:QEnv.__init__"],
    "witness.verify": ["crysred.witness:verify_witness"],
    "cli.verify_lemmas": ["crysred.cli:cmd_verify_lemmas"],
}

# Counted, not timed: a span around each of these small, very frequent calls
# would cost more than the call.  They are counted in a pass of their own.
COUNTED = {"arith.apcoeff_ops": ["crysred.arith:ApCoeff.scale",
                                 "crysred.arith:ApCoeff.scale_trunc",
                                 "crysred.arith:ApCoeff.__add__"]}

# Bookkeeping that the tracer itself does inside an item (the valuation
# census of (T - A)f) runs in a span of this name, so no layer is charged.
COUNT_SPAN = "trace.count"
HIGH_VALUATION = 10


class Tracer:
    """Span recorder with online self-time accounting."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.item = -1
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        # open spans: [span index, name, start, time covered by children]
        self._stack: list[list] = []

    def enter(self, name: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_item.append(self.item)
        self.span_end.append(0.0)
        start = self.clock()
        self.span_start.append(start)
        self._stack.append([idx, name, start, 0.0])

    def exit(self) -> None:
        end = self.clock()
        idx, name, start, children = self._stack.pop()
        self.span_end[idx] = end
        duration = end - start
        self.self_s[name] += duration - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += duration

    def write(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.span_name, np.int32),
            start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end),
            parent=np.frombuffer(self.span_parent, np.int32),
            item=np.frombuffer(self.span_item, np.int32),
        )


def _traced(fn, name: str, tracer: Tracer, post=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if post is not None:
            post(tracer, args, result)
        return result

    return wrapper


def _counted(fn, name: str, counts: Counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _add_accepted(tracer: Tracer, args, grew) -> None:
    if grew:
        tracer.counts["linalg.add.accepted"] += 1


def _valuation_census(tracer: Tracer, args, report) -> None:
    g, sigma = args[0], args[1]
    tracer.enter(COUNT_SPAN)
    try:
        for poly in g.data.values():
            tracer.counts["hecke.terms_out"] += len(poly)
            tracer.counts["hecke.terms_high_val"] += sum(
                c.val_lb(sigma, g.p) >= HIGH_VALUATION for c in poly.values())
    finally:
        tracer.exit()


POST = {"crysred.linalg:FpSpace.add": _add_accepted,
        "crysred.hecke:audit_valuations": _valuation_census}


def _resolve(target: str):
    """(owner, attribute name, current value) of a "module:qualname"."""
    modname, qualname = target.split(":")
    parts = qualname.split(".")
    try:
        owner = sys.modules[modname]
        for part in parts[:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1], owner.__dict__[parts[-1]]
    except (KeyError, AttributeError):
        raise LookupError(f"trace target {target} not found") from None


class Patches:
    """Replacements of library attributes, undone by ``restore``.  A target
    the library no longer has raises, so the traced run fails rather than
    report that layer as 0."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, target: str, make) -> None:
        owner, attr, original = _resolve(target)
        wrapper = make(original)
        if isinstance(owner, type):
            sites = [owner]
        else:
            sites = [m for name, m in sys.modules.items()
                     if (name == "crysred" or name.startswith("crysred."))
                     and m.__dict__.get(attr) is original]
        for site in sites:
            self._saved.append((site, attr, original))
            setattr(site, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            site, attr, original = self._saved.pop()
            setattr(site, attr, original)


def install_spans(tracer: Tracer) -> Patches:
    patches = Patches()
    for layer, targets in LAYERS.items():
        for target in targets:
            patches.replace(target, lambda fn, layer=layer, target=target:
                            _traced(fn, layer, tracer, POST.get(target)))
    return patches


def install_counters(counts: Counter) -> Patches:
    patches = Patches()
    for name, targets in COUNTED.items():
        for target in targets:
            patches.replace(target, lambda fn, name=name: _counted(fn, name, counts))
    return patches
