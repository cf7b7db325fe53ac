"""Spans around the calls into each tracelet layer, recorded from outside.

``Tracer.install`` replaces each public function at the place it is looked
up (``tracelet.cli`` imports most of them with ``from ... import``, and
``tracelet.calculus`` reaches ``fo.fo_valid`` through the module), and
``uninstall`` puts the originals back.  Spans stay in memory; the counts
that need the call's arguments or result are taken when the command ends,
outside every span.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

LAYERS = ("cli", "lang", "interp", "traces", "logic", "calculus", "fo")


def _entries(trace) -> int:
    return len(trace.entries)


# (module the name is looked up in, name, span name, counter(args, result))
WRAPPED = [
    ("tracelet.cli", "parse_program", "lang.parse_program", None),
    ("tracelet.cli", "run", "interp.run", lambda a, r: {"entries": _entries(r)}),
    ("tracelet.cli", "is_adequate", "traces.is_adequate",
     lambda a, r: {"entries": _entries(a[0])}),
    ("tracelet.cli", "dump_trace", "traces.dump_trace",
     lambda a, r: {"entries": _entries(a[0]), "bytes": len(r)}),
    ("tracelet.cli", "load_trace", "traces.load_trace",
     lambda a, r: {"entries": _entries(r), "bytes": len(a[0])}),
    ("tracelet.cli", "member", "logic.member", lambda a, r: {"entries": _entries(a[0])}),
    ("tracelet.cli", "parse_contract_file", "logic.parse_contract_file", None),
    ("tracelet.cli", "prove_auto", "calculus.prove_auto",
     lambda a, r: {"nodes": r.size(), "closed": int(r.closed)}),
    ("tracelet.cli", "dump_proof", "calculus.dump_proof", lambda a, r: {"bytes": len(r)}),
    ("tracelet.cli", "load_proof", "calculus.load_proof", lambda a, r: {"bytes": len(a[0])}),
    ("tracelet.cli", "check_proof", "calculus.check_proof",
     lambda a, r: {"valid": int(r is None)}),
    ("tracelet.fo", "fo_valid", "fo.fo_valid", lambda a, r: {"valid": int(bool(r))}),
]


@dataclass
class Span:
    name: str
    parent: Optional[int]
    cmd: int
    start: int = 0
    end: int = 0
    counts: Optional[dict] = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.cmd = -1
        self.pending: list = []   # (span, counter, args, result) of this command
        self.saved: list = []

    def install(self):
        for module_name, attr, span_name, counter in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self.saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original, counter))

    def uninstall(self):
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append(Span(name, self.stack[-1] if self.stack else None, self.cmd))
        self.stack.append(sid)
        return sid

    def _wrap(self, name, fn, counter):
        def wrapper(*args, **kwargs):
            span = self.spans[self._open(name)]
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                self.stack.pop()
            if counter is not None:
                self.pending.append((span, counter, args, result))
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def command(self, cmd_id: int, name: str, call):
        """Run ``call()`` as command ``cmd_id`` under a ``cli.<name>`` span."""
        self.cmd = cmd_id
        span = self.spans[self._open(f"cli.{name}")]
        span.start = time.perf_counter_ns()
        try:
            return call()
        finally:
            span.end = time.perf_counter_ns()
            self.stack.clear()
            for s, counter, args, result in self.pending:
                s.counts = counter(args, result)
            self.pending.clear()

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.__dict__ for s in self.spans], fh)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def check_nesting(spans: List[Span]) -> int:
    """Number of spans that start before or end after their parent, or
    whose children together last longer than they do."""
    bad = 0
    child_ns: Dict[int, int] = {}
    for s in spans:
        if s.parent is None:
            continue
        p = spans[s.parent]
        if s.start < p.start or s.end > p.end:
            bad += 1
        child_ns[s.parent] = child_ns.get(s.parent, 0) + (s.end - s.start)
    return bad + sum(1 for sid, ns in child_ns.items()
                     if ns > spans[sid].end - spans[sid].start)


def self_ms(spans: List[Span]) -> Dict[str, float]:
    """Per layer: span time not covered by its direct child spans."""
    covered: Dict[int, int] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0) + (s.end - s.start)
    out = {layer: 0.0 for layer in LAYERS}
    for sid, s in enumerate(spans):
        out[s.layer] += (s.end - s.start - covered.get(sid, 0)) / 1e6
    return out


def fit_exponent(points, min_size: int = 1):
    """Least-squares slope and R^2 of log(ms) against log(size), over the
    median time at each distinct size of at least ``min_size``.  None with
    fewer than 4 sizes."""
    by_size: Dict[int, list] = {}
    for size, ms in points:
        if size >= min_size and ms > 0:
            by_size.setdefault(size, []).append(ms)
    sizes = sorted(by_size)
    if len(sizes) < 4:
        return None
    xs = [math.log(s) for s in sizes]
    ys = [math.log(statistics.median(by_size[s])) for s in sizes]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    syy = sum((y - my) ** 2 for y in ys)
    slope = sxy / sxx
    r2 = 1.0 if syy == 0 else sxy * sxy / (sxx * syy)
    return slope, r2, sizes
