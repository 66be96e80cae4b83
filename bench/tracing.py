"""Spans around plumbcalc's public functions, installed from outside.

:func:`install` wraps every public function of each plumbcalc module (the
names in its ``__all__`` that the module itself defines), ``cli.main`` and
the two methods the workloads lean on, and rebinds each wrapper in every
``plumbcalc.*`` namespace that holds the original: ``from .intmat import
det`` binds a second name, and cross-layer calls go through that name.

A span is ``[name, start, end, parent, op, outcome]``; ``outcome`` is
``OK``, ``DOMAIN`` (the call raised ``DomainError``, a normal answer) or
``FAILED`` (any other exception, a timeout included).  Spans are kept in
memory and written out once the run ends.  Only calls made inside a timed
operation are recorded.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

from plumbcalc.errors import DomainError

LAYERS = ("intmat", "sl2", "strings", "plumbing", "kirby", "obstruct", "ledger", "cli")
METHODS = (("ledger", "Construction", "evaluate"), ("kirby", "DualizeResult", "certified"))
OK, DOMAIN, FAILED = 0, 1, 2


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None

    def begin(self, op_index: int) -> None:
        self.op, self.stack = op_index, []

    def end(self) -> None:
        self.op, self.stack = None, []

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, perf_counter(), None, parent, tracer.op, OK]
            tracer.spans.append(span)
            tracer.stack.append(sid)
            try:
                return fn(*args, **kwargs)
            except DomainError:
                span[5] = DOMAIN
                raise
            except BaseException:
                span[5] = FAILED
                raise
            finally:
                span[2] = perf_counter()
                if tracer.stack and tracer.stack[-1] == sid:
                    tracer.stack.pop()

        return wrapper

    def extend(self, spans) -> None:
        """Append the spans another tracer recorded, renumbering parents."""
        offset = len(self.spans)
        self.spans += [[*s[:3], s[3] + offset if s[3] >= 0 else -1, *s[4:]] for s in spans]

    def closed(self):
        """Spans that ended; a deadline can interrupt the bookkeeping itself."""
        return [(i, s) for i, s in enumerate(self.spans) if s[2] is not None]

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for i, (name, start, end, parent, op, outcome) in self.closed():
                out.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                      "parent": parent, "op": op, "outcome": outcome}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every public function and rebind it wherever it is bound."""
    from plumbcalc import cli

    modules = {n: m for n, m in sys.modules.items() if n == "plumbcalc" or n.startswith("plumbcalc.")}
    wrapped = {}
    for name, mod in modules.items():
        layer = name.rpartition(".")[2]
        if layer not in LAYERS:
            continue
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == name:
                wrapped[fn] = tracer.wrap(f"{layer}.{attr}", fn)
    wrapped[cli.main] = tracer.wrap("cli.main", cli.main)
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])
    for layer, cls_name, method in METHODS:
        cls = getattr(modules[f"plumbcalc.{layer}"], cls_name)
        setattr(cls, method, tracer.wrap(f"{layer}.{cls_name}.{method}", getattr(cls, method)))


def layer_totals(spans, layers=LAYERS):
    """Per layer: calls, busy time (outermost spans of the layer, so nested
    calls inside one layer are not counted twice), self time (duration
    minus the time covered by child spans) and failed calls."""
    by_id = dict(spans)
    child = dict.fromkeys(by_id, 0.0)
    for _, s in spans:
        if s[3] in child:
            child[s[3]] += s[2] - s[1]
    totals = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "fail": 0} for layer in layers}
    for i, s in spans:
        layer = s[0].partition(".")[0]
        t = totals[layer]
        dur = s[2] - s[1]
        t["calls"] += 1
        t["self_s"] += dur - child[i]
        t["fail"] += s[5] == FAILED
        p = s[3]
        while p in by_id and by_id[p][0].partition(".")[0] != layer:
            p = by_id[p][3]
        if p not in by_id:
            t["busy_s"] += dur
    return totals
