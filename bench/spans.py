"""Spans around the calls from one weightsys layer into another, recorded
from outside the package by rebinding module attributes.

``install`` wraps every binding in BINDINGS; each call then records a span
``[unit, start, end, parent, note]`` in memory, and ``dump`` writes them
out when the process is done.  Times are the process's CPU time
(``process_time``), counted from the start of the process.
``summarize`` turns span lists into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from collections import defaultdict
from time import process_time

# binding -> the layer unit its calls are charged to
BINDINGS = {
    "diagrams.canonicalize": "diagrams.canonicalize",
    "algebra.canonicalize": "diagrams.canonicalize",
    "algebra.enumerate_diagrams": "diagrams.enumerate",
    "algebra.ihx_generators": "algebra.generators",
    "algebra.stu_generators": "algebra.generators",
    "algebra.quotient_basis": "algebra.eliminate",
    "algebra.reduce_vector": "algebra.reduce",
    "cache.load_basis": "cache.load",
    "cache.save_basis": "cache.save",
    "lie.check_lie": "lie.validate",
    "lie.check_representation": "lie.validate",
    "lie.derive_tensors": "lie.derive_tensors",
    "lie.plan_contraction": "tensor.plan",
    "lie.contract_network": "tensor.contract",
    "lie.evaluate": "lie.evaluate",
    "lie.evaluate_closed": "lie.evaluate",
    "cli.main": "cli.main",
}

# what a span notes about its call's result (summed per unit)
NOTES = {
    "diagrams.enumerate": len,
    "algebra.generators": len,
    "algebra.eliminate": lambda qb: len(qb.pivots),
    "cache.load": lambda payload: int(payload is not None),
    "cache.save": os.path.getsize,
    "tensor.plan": lambda plan: plan.cost,
}


SPANS: list = []
_STACK: list = []


def _wrap(unit, fn, note):
    def wrapper(*args, **kwargs):
        idx = len(SPANS)
        SPANS.append(None)
        parent = _STACK[-1] if _STACK else -1
        _STACK.append(idx)
        t0 = process_time()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            SPANS[idx] = [unit, t0, process_time(), parent, None]
            raise
        finally:
            _STACK.pop()
        SPANS[idx] = [unit, t0, process_time(), parent,
                      note(out) if note else None]
        return out
    wrapper.__wrapped__ = fn
    return wrapper


def install():
    """Wrap every binding in BINDINGS and every public function of
    ``weightsys.maps``.  Each function object gets one wrapper, which
    replaces it wherever a weightsys module or the package binds it.
    Raises if a binding is gone, so a renamed layer cannot report zeros."""
    mods = [importlib.import_module(f"weightsys.{m}")
            for m in ("diagrams", "algebra", "cache", "maps", "lie", "tensor",
                      "verify", "cli")]
    package = importlib.import_module("weightsys")
    mods.append(package)

    def vector_terms(out):
        return len(out) if isinstance(out, package.DiagramVector) else None

    maps = sys.modules["weightsys.maps"]
    bindings = dict(BINDINGS)
    bindings.update((f"maps.{name}", f"maps.{name}") for name in maps.__all__
                    if callable(getattr(maps, name, None)))
    wrappers = {}
    for binding, unit in bindings.items():
        mod, attr = binding.split(".")
        fn = getattr(sys.modules[f"weightsys.{mod}"], attr, None)
        if not callable(fn):
            raise RuntimeError(f"traced binding weightsys.{binding} no longer exists")
        if id(fn) not in wrappers:
            note = NOTES.get(unit, vector_terms if mod == "maps" else None)
            wrappers[id(fn)] = _wrap(unit, fn, note)
    for m in mods:
        for name, value in list(vars(m).items()):
            if id(value) in wrappers:
                setattr(m, name, wrappers[id(value)])


class phase:
    """A root span naming one part of a pass (its self time is the
    benchmark's own work inside that part)."""

    def __init__(self, name):
        self.unit = f"phase.{name}"

    def __enter__(self):
        self.idx = len(SPANS)
        SPANS.append([self.unit, process_time(), None, -1, None])
        _STACK.append(self.idx)

    def __exit__(self, *exc):
        _STACK.pop()
        SPANS[self.idx][2] = process_time()


def dump(path):
    with open(path, "w") as fh:
        json.dump(SPANS, fh)


# ---------------------------------------------------------------------------
# aggregation


def _owner_unit(unit, parent_owner):
    # a maps function called from another maps function is charged to the
    # outer one, so maps.omega covers the exp series it builds
    if parent_owner and unit.startswith("maps.") and parent_owner.startswith("maps."):
        return parent_owner
    return unit


def summarize(span_lists):
    """Per-unit totals over several processes' spans.

    Returns ``(units, phases)``: ``units[u]`` holds ``s`` (time inside the
    outermost spans of u), ``self_s`` (time charged to u after removing
    every wrapped child), ``calls``, ``note`` (summed notes) and the
    derived counts below; ``phases[p][u]`` is u's self time under phase p.
    """
    units = defaultdict(lambda: defaultdict(float))
    phases = defaultdict(lambda: defaultdict(float))
    for spans in span_lists:
        own = [None] * len(spans)
        ancestors = [frozenset()] * len(spans)
        phase_of = [None] * len(spans)
        excl = [s[2] - s[1] for s in spans]
        has_gen_child = set()
        for i, (unit, t0, t1, parent, _) in enumerate(spans):
            if parent >= 0:
                excl[parent] -= t1 - t0
                if unit == "algebra.generators":
                    has_gen_child.add(parent)
        for i, (unit, t0, t1, parent, note) in enumerate(spans):
            if parent >= 0:
                own[i] = _owner_unit(unit, own[parent])
                ancestors[i] = ancestors[parent] | {spans[parent][0]}
                phase_of[i] = phase_of[parent]
            else:
                own[i] = unit
            if unit.startswith("phase."):
                phase_of[i] = unit
            rec = units[unit]
            rec["calls"] += 1
            if unit not in ancestors[i]:
                rec["s"] += t1 - t0
            if note is not None:
                rec["note"] += note
            units[own[i]]["self_s"] += excl[i]
            if phase_of[i]:
                phases[phase_of[i]][own[i]] += excl[i]
            if unit == "diagrams.canonicalize" and "diagrams.enumerate" in ancestors[i]:
                units["diagrams.enumerate"]["canon_calls"] += 1
            if unit == "algebra.generators" and "algebra.eliminate" in ancestors[i]:
                units["algebra.eliminate"]["generator_rows"] += note
            if unit == "algebra.eliminate" and i in has_gen_child:
                units["algebra.eliminate"]["pivots"] += note
            if unit.startswith("maps.") and not (parent >= 0 and spans[parent][0].startswith("maps.")):
                units["maps"]["terms_out"] += note or 0
    return units, phases
